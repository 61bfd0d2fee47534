//! The static grid a scheduler places jobs onto.
//!
//! A grid is a set of data repositories (each a replica holding every
//! dataset, with a capacitated WAN uplink), a set of compute sites
//! (each with a capacitated ingress link and a pool of compute nodes),
//! a menu of `(n, c)` configurations, and one prediction model per
//! application. The per-stream WAN bandwidth on each repository is the
//! *nominal* value the predictor sees for a first placement; the
//! aggregate capacities are what the contention model enforces when
//! concurrent transfer phases share a link.

use fg_cluster::{ComputeSite, Configuration, RepositorySite, Wan};
use fg_predict::{AppClasses, Profile, ScalingFactors};
use std::collections::HashMap;

/// The prediction model for one application: its profile-run summary
/// plus the scaling classes the class-inference step assigned.
#[derive(Debug, Clone)]
pub struct AppModel {
    /// The profile-run summary parameterizing every prediction.
    pub profile: Profile,
    /// Reduction-object size and global-reduction time classes.
    pub classes: AppClasses,
}

/// One data repository replica.
#[derive(Debug, Clone)]
pub struct RepoSpec {
    /// The repository site (machine type, node count, backplane).
    pub site: RepositorySite,
    /// Nominal per-stream WAN description used for prediction.
    pub wan: Wan,
    /// Aggregate uplink capacity (bytes/sec) shared by every concurrent
    /// transfer leaving this repository.
    pub wan_capacity: f64,
}

/// One compute site.
#[derive(Debug, Clone)]
pub struct SiteSpec {
    /// The compute site (machine type, node count, interconnect).
    pub site: ComputeSite,
    /// Aggregate ingress capacity (bytes/sec) shared by every
    /// concurrent transfer arriving at this site.
    pub ingress_capacity: f64,
}

/// The full grid description.
#[derive(Debug, Clone)]
pub struct GridSpec {
    /// Repository replicas; every dataset is available at each.
    pub repos: Vec<RepoSpec>,
    /// Compute sites.
    pub sites: Vec<SiteSpec>,
    /// The `(n, c)` configuration menu placements choose from.
    pub configs: Vec<Configuration>,
    /// Per-application prediction models, sorted by app name.
    pub apps: Vec<(String, AppModel)>,
    /// Cross-cluster scaling factors, by compute machine type.
    pub factors: HashMap<String, ScalingFactors>,
}

impl GridSpec {
    /// A small homogeneous demo grid: two Pentium repositories (one
    /// fast, one slower replica) and two Pentium/Myrinet compute sites.
    ///
    /// Aggregate capacities are expressed in the model's *effective*
    /// transfer-rate units — a flow moving `s` bytes over the predicted
    /// `T̂_network` drains at `s / T̂_network = (ŝ·n·b)/(n̂·b̂·t̂_n)`,
    /// which the profile pins far below the raw link bandwidth. Each
    /// repository uplink is provisioned for exactly one maximal-
    /// configuration transfer of the heaviest app, so an uncontended
    /// job achieves its predicted transfer time exactly and contention
    /// appears precisely when transfers overlap.
    pub fn demo(apps: Vec<(String, AppModel)>) -> GridSpec {
        let max_streams = 4.0;
        let fast = 1e6;
        let slow = 8e5;
        // Effective per-stream rate at WAN bandwidth `bw`, maximized
        // over the app mix (falls back to the raw bandwidth when no
        // apps are registered, so capacities are never zero).
        let stream_rate = |bw: f64| -> f64 {
            let rate = apps
                .iter()
                .map(|(_, m)| {
                    m.profile.dataset_bytes as f64
                        / (m.profile.data_nodes as f64 * m.profile.t_network)
                        * (bw / m.profile.wan_bw)
                })
                .fold(0.0f64, f64::max);
            if rate > 0.0 {
                rate
            } else {
                bw
            }
        };
        let fast_cap = max_streams * stream_rate(fast);
        let slow_cap = max_streams * stream_rate(slow);
        GridSpec {
            repos: vec![
                RepoSpec {
                    site: RepositorySite::pentium_repository("repo-a", 8),
                    wan: Wan::per_stream(fast),
                    wan_capacity: fast_cap,
                },
                RepoSpec {
                    site: RepositorySite::pentium_repository("repo-b", 8),
                    wan: Wan::per_stream(slow),
                    wan_capacity: slow_cap,
                },
            ],
            sites: vec![
                SiteSpec {
                    site: ComputeSite::pentium_myrinet("site-a", 16),
                    ingress_capacity: 2.0 * fast_cap,
                },
                SiteSpec {
                    site: ComputeSite::pentium_myrinet("site-b", 8),
                    ingress_capacity: fast_cap,
                },
            ],
            configs: vec![
                Configuration::new(1, 1),
                Configuration::new(1, 2),
                Configuration::new(2, 4),
                Configuration::new(4, 8),
            ],
            apps: sorted_apps(apps),
            factors: HashMap::new(),
        }
    }

    /// Look up an application's prediction model.
    pub fn app(&self, name: &str) -> Option<&AppModel> {
        self.app_index(name).map(|ix| &self.apps[ix].1)
    }

    /// An application's index in [`apps`](GridSpec::apps).
    pub fn app_index(&self, name: &str) -> Option<usize> {
        self.apps.iter().position(|(n, _)| n == name)
    }

    /// Total compute slots across every site.
    pub fn total_compute_slots(&self) -> usize {
        self.sites.iter().map(|s| s.site.max_nodes).sum()
    }

    /// The smallest configuration's compute-node count: the least a
    /// queued job could possibly occupy.
    pub fn min_config_slots(&self) -> usize {
        self.configs.iter().map(|c| c.compute_nodes).min().expect("grid has configurations")
    }

    /// The largest configuration's compute-node count: what a queued
    /// job would occupy if placed unconstrained (its slot *demand* for
    /// fair-share purposes).
    pub fn max_config_slots(&self) -> usize {
        self.configs.iter().map(|c| c.compute_nodes).max().expect("grid has configurations")
    }
}

fn sorted_apps(mut apps: Vec<(String, AppModel)>) -> Vec<(String, AppModel)> {
    apps.sort_by(|a, b| a.0.cmp(&b.0));
    apps
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> AppModel {
        AppModel {
            profile: Profile {
                app: "kmeans".into(),
                data_nodes: 1,
                compute_nodes: 1,
                wan_bw: 1e6,
                dataset_bytes: 1_000_000,
                t_disk: 40.0,
                t_network: 20.0,
                t_compute: 100.0,
                t_ro: 0.0,
                t_g: 0.5,
                max_obj_bytes: 512,
                passes: 1,
                repo_machine: "pentium-700".into(),
                compute_machine: "pentium-700".into(),
            },
            classes: AppClasses::CONSTANT_LINEAR_CONSTANT,
        }
    }

    #[test]
    fn demo_grid_is_well_formed() {
        let g = GridSpec::demo(vec![("kmeans".into(), model())]);
        assert_eq!(g.repos.len(), 2);
        assert_eq!(g.total_compute_slots(), 24);
        assert_eq!(g.min_config_slots(), 1);
        assert!(g.app("kmeans").is_some());
        assert!(g.app("nope").is_none());
        // Every configuration fits every repo and site of the demo.
        for cfg in &g.configs {
            for r in &g.repos {
                assert!(cfg.data_nodes <= r.site.max_nodes);
            }
            for s in &g.sites {
                assert!(cfg.compute_nodes <= s.site.max_nodes);
            }
        }
    }

    #[test]
    fn apps_are_sorted_by_name() {
        let g = GridSpec::demo(vec![("em".into(), model()), ("apriori".into(), model())]);
        assert_eq!(g.apps[0].0, "apriori");
        assert_eq!(g.apps[1].0, "em");
    }
}
