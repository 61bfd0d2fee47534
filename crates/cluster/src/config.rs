//! Parallel configurations and deployments.

use crate::site::{ComputeSite, RepositorySite, Wan};
use serde::{Deserialize, Serialize};

/// A parallel configuration: `n` data (storage) nodes and `c` compute
/// nodes.
///
/// FREERIDE-G requires `c >= n`: its target applications are
/// compute-heavy and cannot usefully consume data arriving from more
/// nodes than are processing it (§2.1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Configuration {
    /// Data (storage/retrieval) nodes, `n`.
    pub data_nodes: usize,
    /// Compute (processing) nodes, `c`.
    pub compute_nodes: usize,
}

impl Configuration {
    /// Build a configuration, enforcing `n >= 1` and `c >= n`.
    pub fn new(data_nodes: usize, compute_nodes: usize) -> Configuration {
        assert!(data_nodes >= 1, "need at least one data node");
        assert!(
            compute_nodes >= data_nodes,
            "FREERIDE-G requires compute nodes >= data nodes (got {compute_nodes} < {data_nodes})"
        );
        Configuration { data_nodes, compute_nodes }
    }

    /// The paper's evaluation grid: `n` in {1, 2, 4, 8}, `c` a power of
    /// two with `n <= c <= 16` — the x-axis of Figures 2–6.
    pub fn paper_grid() -> Vec<Configuration> {
        let mut out = Vec::new();
        for n in [1usize, 2, 4, 8] {
            let mut c = n;
            while c <= 16 {
                out.push(Configuration::new(n, c));
                c *= 2;
            }
        }
        out
    }

    /// Compact `n-c` notation used throughout the paper ("8-16").
    pub fn label(&self) -> String {
        format!("{}-{}", self.data_nodes, self.compute_nodes)
    }
}

/// A complete resource mapping alternative: which replica to read, where
/// to compute, over which WAN path, with which node counts.
///
/// The resource selection framework enumerates these and picks the one
/// with the lowest predicted execution time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Deployment {
    /// The repository hosting the chosen dataset replica.
    pub repository: RepositorySite,
    /// The compute site.
    pub compute: ComputeSite,
    /// The wide-area path between them.
    pub wan: Wan,
    /// Node counts on each side.
    pub config: Configuration,
    /// Optional non-local caching site: a storage site (with its WAN
    /// path to the compute site) used for multi-pass applications when
    /// the compute nodes lack scratch storage — "a location from which
    /// it \[data\] can be accessed at a lower cost than the original
    /// repository" (§2.1). `None` means local caching or origin re-fetch.
    pub cache: Option<CacheSite>,
}

/// A non-local caching site and its path to the compute site.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheSite {
    /// The storage site caching the chunks (its `max_nodes` data nodes
    /// serve the cached copies).
    pub site: RepositorySite,
    /// Storage nodes used at the caching site.
    pub nodes: usize,
    /// The path between the caching site and the compute site.
    pub wan: Wan,
}

impl CacheSite {
    /// Build, checking the node count against the site.
    pub fn new(site: RepositorySite, nodes: usize, wan: Wan) -> CacheSite {
        assert!(
            nodes >= 1 && nodes <= site.max_nodes,
            "cache site {} has {} nodes, asked for {nodes}",
            site.name,
            site.max_nodes
        );
        CacheSite { site, nodes, wan }
    }
}

impl Deployment {
    /// Build a deployment, checking node counts against site limits.
    pub fn new(
        repository: RepositorySite,
        compute: ComputeSite,
        wan: Wan,
        config: Configuration,
    ) -> Deployment {
        assert!(
            config.data_nodes <= repository.max_nodes,
            "replica site {} has only {} nodes, asked for {}",
            repository.name,
            repository.max_nodes,
            config.data_nodes
        );
        assert!(
            config.compute_nodes <= compute.max_nodes,
            "compute site {} has only {} nodes, asked for {}",
            compute.name,
            compute.max_nodes,
            config.compute_nodes
        );
        Deployment { repository, compute, wan, config, cache: None }
    }

    /// Attach a non-local caching site.
    pub fn with_cache(mut self, cache: CacheSite) -> Deployment {
        self.cache = Some(cache);
        self
    }

    /// Every feasible `(replica, compute-site, configuration)` combination
    /// for the given candidate sites and configurations — the search space
    /// of §3's resource allocation problem. Infeasible combinations
    /// (node counts exceeding a site, or `c < n`) are skipped.
    pub fn enumerate(
        replicas: &[(RepositorySite, Wan)],
        compute_sites: &[ComputeSite],
        configs: &[Configuration],
    ) -> Vec<Deployment> {
        let mut out = Vec::new();
        for (repo, wan) in replicas {
            for site in compute_sites {
                for cfg in configs {
                    if cfg.data_nodes <= repo.max_nodes && cfg.compute_nodes <= site.max_nodes {
                        out.push(Deployment::new(repo.clone(), site.clone(), wan.clone(), *cfg));
                    }
                }
            }
        }
        out
    }

    /// Short label for tables: `site/replica n-c`.
    pub fn label(&self) -> String {
        format!("{}@{} {}", self.compute.name, self.repository.name, self.config.label())
    }

    /// A borrowed view of this deployment (see [`DeploymentRef`]).
    pub fn as_ref(&self) -> DeploymentRef<'_> {
        DeploymentRef {
            repository: &self.repository,
            compute: &self.compute,
            stream_bw: self.wan.stream_bw,
            config: self.config,
            cache: self.cache.as_ref(),
        }
    }
}

/// A borrowed view of a candidate deployment: everything the prediction
/// model reads, without owning the sites.
///
/// [`Deployment`] owns its `RepositorySite`/`ComputeSite` (each holding
/// heap-allocated names and machine specs), so enumerating one per
/// `(replica, site, configuration)` triple clones strings on every
/// candidate. Hot paths that score thousands of candidates per decision
/// — a scheduler placing a job, a mid-run re-selection sweep — build a
/// `DeploymentRef` on the stack instead and allocate nothing.
///
/// The WAN path collapses to the one number prediction consumes, the
/// per-stream bandwidth, so callers substituting a live bandwidth
/// estimate for the nominal value just pass a different `stream_bw`.
#[derive(Debug, Clone, Copy)]
pub struct DeploymentRef<'a> {
    /// The repository hosting the chosen dataset replica.
    pub repository: &'a RepositorySite,
    /// The compute site.
    pub compute: &'a ComputeSite,
    /// Per-stream WAN bandwidth on the repository→site path, bytes/sec
    /// (the model's `b̂`; nominal or a live estimate).
    pub stream_bw: f64,
    /// Node counts on each side.
    pub config: Configuration,
    /// Optional non-local caching site.
    pub cache: Option<&'a CacheSite>,
}

impl DeploymentRef<'_> {
    /// Short label for tables and errors, matching
    /// [`Deployment::label`]: `site@replica n-c`.
    pub fn label(&self) -> String {
        format!("{}@{} {}", self.compute.name, self.repository.name, self.config.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_matches_figures() {
        let grid = Configuration::paper_grid();
        let labels: Vec<String> = grid.iter().map(|c| c.label()).collect();
        assert_eq!(
            labels,
            vec![
                "1-1", "1-2", "1-4", "1-8", "1-16", "2-2", "2-4", "2-8", "2-16", "4-4", "4-8",
                "4-16", "8-8", "8-16"
            ]
        );
    }

    #[test]
    #[should_panic(expected = "compute nodes >= data nodes")]
    fn fewer_compute_than_data_nodes_rejected() {
        Configuration::new(4, 2);
    }

    #[test]
    fn enumerate_prunes_infeasible() {
        let repo_small = RepositorySite::pentium_repository("small", 2);
        let repo_big = RepositorySite::pentium_repository("big", 8);
        let site = ComputeSite::pentium_myrinet("cs", 4);
        let wan = Wan::per_stream(1e6);
        let configs = vec![
            Configuration::new(1, 1),
            Configuration::new(4, 4),
            Configuration::new(8, 8), // needs 8 compute nodes: never feasible
        ];
        let deployments =
            Deployment::enumerate(&[(repo_small, wan.clone()), (repo_big, wan)], &[site], &configs);
        let labels: Vec<String> = deployments.iter().map(|d| d.label()).collect();
        assert_eq!(labels, vec!["cs@small 1-1", "cs@big 1-1", "cs@big 4-4"]);
    }

    #[test]
    #[should_panic(expected = "has only")]
    fn deployment_checks_site_limits() {
        Deployment::new(
            RepositorySite::pentium_repository("r", 1),
            ComputeSite::pentium_myrinet("c", 16),
            Wan::per_stream(1e6),
            Configuration::new(2, 4),
        );
    }
}
