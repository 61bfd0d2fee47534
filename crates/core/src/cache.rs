//! Non-local caching prediction — the §2.1 resource-selection goal the
//! paper deferred ("in our current implementation, we have not considered
//! non-local caching of data"), implemented here as an extension.
//!
//! A multi-pass application whose per-node data share exceeds the compute
//! nodes' scratch storage cannot cache locally. The middleware then
//! either stages the chunks at a *non-local caching site* (writing
//! through on the first pass, reading back on later ones) or re-fetches
//! from the origin repository every pass. The predictor mirrors both
//! modes with the same constructive style the paper uses for `T_ro`:
//! known volumes over known bandwidths, layered on a profile collected
//! under ordinary local caching.

use crate::classes::AppClasses;
use crate::model::{
    ComputeModel, ExecTimePredictor, InterconnectParams, Prediction, Scaled, Target,
};
use fg_cluster::{CacheSite, ComputeSite, Deployment};
use serde::{Deserialize, Serialize};

/// How a deployment will keep chunks between passes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CachePlan {
    /// Chunks fit in compute-node scratch storage (or the run is
    /// single-pass): the base model applies unchanged.
    Local,
    /// Chunks are staged at a non-local caching site.
    NonLocal {
        /// Storage nodes serving the cache.
        nodes: usize,
        /// Per-cache-node stream bandwidth to the compute site, bytes/sec.
        wan_bw: f64,
        /// Per-cache-node disk bandwidth, bytes/sec.
        disk_bw: f64,
    },
    /// No storage anywhere: every pass re-fetches from the origin.
    Refetch,
}

impl CachePlan {
    /// Decide the plan a deployment would use for a dataset of
    /// `dataset_bytes` and an application making `passes` passes —
    /// the same decision rule the middleware executor applies.
    pub fn for_deployment(deployment: &Deployment, dataset_bytes: u64, passes: usize) -> CachePlan {
        CachePlan::for_candidate(
            &deployment.compute,
            deployment.cache.as_ref(),
            deployment.config.compute_nodes,
            dataset_bytes,
            passes,
        )
    }

    /// The same decision from borrowed parts — what a hot selection loop
    /// holding a [`fg_cluster::DeploymentRef`] calls, with no owned
    /// `Deployment` in sight.
    pub fn for_candidate(
        compute: &ComputeSite,
        cache: Option<&CacheSite>,
        compute_nodes: usize,
        dataset_bytes: u64,
        passes: usize,
    ) -> CachePlan {
        if passes <= 1 {
            return CachePlan::Local; // nothing to keep
        }
        // `⌈ŝ/ĉ⌉ <= storage`, the per-node share against a node's
        // scratch space, without the division: for `ĉ >= 1` that is
        // `ŝ <= storage × ĉ` exactly, and a product past `u64::MAX`
        // holds any dataset.
        if dataset_bytes <= compute.node_storage_bytes.saturating_mul(compute_nodes as u64) {
            CachePlan::Local
        } else if let Some(cs) = cache {
            CachePlan::NonLocal {
                nodes: cs.nodes.min(compute_nodes),
                wan_bw: cs.wan.stream_bw,
                disk_bw: cs.site.machine.disk_bw,
            }
        } else {
            CachePlan::Refetch
        }
    }
}

/// Predict a target under a cache plan, starting from a predictor whose
/// profile was collected under **local caching** (the standard profile).
///
/// * `NonLocal` adds, per pass, one full-volume disk operation and one
///   WAN crossing at the caching site (write-through once, reads after),
///   and removes the local cache I/O embedded in the profile's scaled
///   compute component (`passes * s_hat / (c_hat * compute_disk_bw)`).
/// * `Refetch` multiplies the origin disk and network components by the
///   pass count (one fetch per pass instead of one overall) and removes
///   the local cache I/O the same way.
pub fn predict_with_plan(
    predictor: &ExecTimePredictor,
    target: &Target,
    plan: &CachePlan,
    compute_disk_bw: f64,
) -> Prediction {
    predict_plan_components(
        &predictor.profile,
        predictor.classes,
        &predictor.interconnect,
        predictor.model,
        target,
        plan,
        compute_disk_bw,
    )
}

/// The borrowed core of [`predict_with_plan`]: the identical arithmetic
/// over a borrowed profile, so a caller scoring thousands of candidates
/// never clones a [`Profile`] (and its heap-allocated names) to build a
/// throwaway [`ExecTimePredictor`]. Panics on a degenerate target, like
/// the predictor it stands in for.
///
/// [`Profile`]: crate::profile::Profile
#[allow(clippy::too_many_arguments)]
pub fn predict_plan_components(
    profile: &crate::profile::Profile,
    classes: AppClasses,
    interconnect: &InterconnectParams,
    model: ComputeModel,
    target: &Target,
    plan: &CachePlan,
    compute_disk_bw: f64,
) -> Prediction {
    if let Err(e) = target.validate() {
        panic!("cannot predict for degenerate target: {e}");
    }
    let base = Scaled::new(profile, target.dataset_bytes).predict(
        target.data_nodes,
        target.compute_nodes,
        target.wan_bw,
        model,
        model.scalable(profile),
        classes,
        interconnect,
    );
    let passes = profile.passes as f64;
    let pass_bytes = passes * target.dataset_bytes as f64;
    plan.adjust(base, passes, pass_bytes, target.compute_nodes, compute_disk_bw)
}

impl CachePlan {
    /// Re-cost a local-caching prediction under this plan (the rules
    /// are [`predict_with_plan`]'s). `pass_bytes` is `passes × ŝ`, the
    /// volume the passes move between them.
    pub(crate) fn adjust(
        &self,
        base: Prediction,
        passes: f64,
        pass_bytes: f64,
        compute_nodes: usize,
        compute_disk_bw: f64,
    ) -> Prediction {
        // The local cache I/O embedded in the profile's compute time.
        let local_io = || pass_bytes / (compute_nodes as f64 * compute_disk_bw);
        match self {
            CachePlan::Local => base,
            CachePlan::NonLocal { nodes, wan_bw, disk_bw } => Prediction {
                t_disk: base.t_disk + pass_bytes / (*nodes as f64 * disk_bw),
                t_network: base.t_network + pass_bytes / (*nodes as f64 * wan_bw),
                t_compute: (base.t_compute - local_io()).max(0.0),
            },
            CachePlan::Refetch => Prediction {
                t_disk: base.t_disk * passes,
                t_network: base.t_network * passes,
                t_compute: (base.t_compute - local_io()).max(0.0),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::AppClasses;
    use crate::model::{ComputeModel, InterconnectParams};
    use crate::profile::Profile;
    use fg_cluster::{CacheSite, ComputeSite, Configuration, RepositorySite, Wan};

    fn profile() -> Profile {
        Profile {
            app: "em".into(),
            data_nodes: 1,
            compute_nodes: 1,
            wan_bw: 40e6,
            dataset_bytes: 1_000_000_000,
            t_disk: 40.0,
            t_network: 25.0,
            t_compute: 500.0,
            t_ro: 0.0,
            t_g: 1.0,
            max_obj_bytes: 1_000,
            passes: 10,
            repo_machine: "pentium-700".into(),
            compute_machine: "pentium-700".into(),
        }
    }

    fn predictor() -> ExecTimePredictor {
        ExecTimePredictor {
            profile: profile(),
            classes: AppClasses::LINEAR_CONSTANT_LINEAR,
            interconnect: InterconnectParams { bandwidth: 100e6, latency: 0.015 },
            model: ComputeModel::GlobalReduction,
        }
    }

    fn deployment(storage: u64, cache: Option<CacheSite>) -> Deployment {
        let mut site = ComputeSite::pentium_myrinet("cs", 16);
        site.node_storage_bytes = storage;
        let mut d = Deployment::new(
            RepositorySite::pentium_repository("repo", 8),
            site,
            Wan::per_stream(40e6),
            Configuration::new(2, 4),
        );
        d.cache = cache;
        d
    }

    fn cache_site() -> CacheSite {
        CacheSite::new(RepositorySite::pentium_repository("cache", 8), 4, Wan::per_stream(60e6))
    }

    #[test]
    fn plan_decision_rules() {
        // Fits: 1 GB over 4 nodes = 250 MB/node.
        let fits = deployment(300_000_000, None);
        assert_eq!(CachePlan::for_deployment(&fits, 1_000_000_000, 10), CachePlan::Local);
        // Too big, cache site attached.
        let starved = deployment(100_000_000, Some(cache_site()));
        assert!(matches!(
            CachePlan::for_deployment(&starved, 1_000_000_000, 10),
            CachePlan::NonLocal { nodes: 4, .. }
        ));
        // Too big, no cache site.
        let refetch = deployment(100_000_000, None);
        assert_eq!(CachePlan::for_deployment(&refetch, 1_000_000_000, 10), CachePlan::Refetch);
        // Single pass never needs storage.
        assert_eq!(CachePlan::for_deployment(&refetch, 1_000_000_000, 1), CachePlan::Local);
    }

    #[test]
    fn cache_nodes_clamped_to_compute_nodes() {
        let mut cs = cache_site();
        cs.nodes = 8; // more than the 4 compute nodes
        let d = deployment(1, Some(cs));
        match CachePlan::for_deployment(&d, 1_000_000_000, 10) {
            CachePlan::NonLocal { nodes, .. } => assert_eq!(nodes, 4),
            other => panic!("expected NonLocal, got {other:?}"),
        }
    }

    #[test]
    fn local_plan_is_the_base_prediction() {
        let p = predictor();
        let t =
            Target { data_nodes: 2, compute_nodes: 4, wan_bw: 40e6, dataset_bytes: 1_000_000_000 };
        assert_eq!(predict_with_plan(&p, &t, &CachePlan::Local, 25e6), p.predict(&t));
    }

    #[test]
    fn nonlocal_plan_adds_cache_site_terms() {
        let p = predictor();
        let t =
            Target { data_nodes: 2, compute_nodes: 4, wan_bw: 40e6, dataset_bytes: 1_000_000_000 };
        let plan = CachePlan::NonLocal { nodes: 4, wan_bw: 50e6, disk_bw: 25e6 };
        let base = p.predict(&t);
        let with = predict_with_plan(&p, &t, &plan, 25e6);
        // 10 passes * 1 GB / (4 * 25 MB/s) = 100 s of cache disk.
        assert!((with.t_disk - (base.t_disk + 100.0)).abs() < 1e-9);
        // 10 * 1 GB / (4 * 50 MB/s) = 50 s of cache WAN.
        assert!((with.t_network - (base.t_network + 50.0)).abs() < 1e-9);
        // Local cache I/O removed: 10 * 1 GB / (4 * 25 MB/s) = 100 s.
        assert!((with.t_compute - (base.t_compute - 100.0)).abs() < 1e-9);
    }

    #[test]
    fn refetch_plan_multiplies_origin_io() {
        let p = predictor();
        let t =
            Target { data_nodes: 2, compute_nodes: 4, wan_bw: 40e6, dataset_bytes: 1_000_000_000 };
        let base = p.predict(&t);
        let with = predict_with_plan(&p, &t, &CachePlan::Refetch, 25e6);
        assert!((with.t_disk - base.t_disk * 10.0).abs() < 1e-9);
        assert!((with.t_network - base.t_network * 10.0).abs() < 1e-9);
        assert!(with.t_compute < base.t_compute);
    }

    #[test]
    fn a_good_cache_site_beats_refetching() {
        let p = predictor();
        let t =
            Target { data_nodes: 2, compute_nodes: 4, wan_bw: 40e6, dataset_bytes: 1_000_000_000 };
        let plan = CachePlan::NonLocal { nodes: 4, wan_bw: 50e6, disk_bw: 25e6 };
        let cached = predict_with_plan(&p, &t, &plan, 25e6);
        let refetch = predict_with_plan(&p, &t, &CachePlan::Refetch, 25e6);
        assert!(cached.total() < refetch.total());
    }
}
