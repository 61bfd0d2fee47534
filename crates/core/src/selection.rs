//! Resource and replica selection (§3's allocation problem).
//!
//! "We are given a dataset, which is replicated at `r` sites. We have
//! also identified `c` different computing configurations ... Our goal is
//! to choose a replica and computing configuration pair where the data
//! processing can be performed with the minimum cost." The selector
//! predicts every candidate deployment's execution time and ranks them.

use crate::cache::CachePlan;
use crate::classes::AppClasses;
use crate::hetero::ScalingFactors;
use crate::model::{ComputeModel, InterconnectParams, Prediction, Scaled, Target, TargetError};
use crate::predictor::Price;
use crate::profile::Profile;
use fg_cluster::{
    CacheSite, ComputeSite, Configuration, Deployment, DeploymentRef, RepositorySite,
};
use std::collections::HashMap;

/// One evaluated deployment alternative.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The deployment.
    pub deployment: Deployment,
    /// Its predicted execution-time breakdown.
    pub predicted: Prediction,
}

impl Candidate {
    /// Predicted total cost.
    pub fn cost(&self) -> f64 {
        self.predicted.total()
    }
}

/// Why a deployment could not be ranked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectionError {
    /// The deployment's configuration yields a degenerate [`Target`]
    /// (zero nodes, non-positive bandwidth, empty dataset); its cost
    /// would be infinite or NaN and the ranking meaningless. The label
    /// identifies the offending deployment.
    Unpredictable {
        /// `Deployment::label()` of the rejected candidate.
        label: String,
        /// The underlying target validation failure.
        cause: TargetError,
    },
    /// The deployment's compute machine differs from the profile
    /// cluster and `factors` has no entry for it — predicting across
    /// hardware without measured factors is exactly what §3.4 says not
    /// to do.
    MissingFactors {
        /// The unknown compute-machine type.
        machine: String,
        /// The profile cluster's machine type.
        profile_machine: String,
    },
}

impl std::fmt::Display for SelectionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SelectionError::Unpredictable { label, cause } => {
                write!(f, "deployment {label:?} is not predictable: {cause}")
            }
            SelectionError::MissingFactors { machine, profile_machine } => {
                write!(
                    f,
                    "no scaling factors for machine type {machine:?} \
                     (profile cluster is {profile_machine:?})"
                )
            }
        }
    }
}

impl std::error::Error for SelectionError {}

/// Predict every candidate deployment and return them ranked cheapest
/// first (ties broken by deployment label, deterministically), or the
/// first [`SelectionError`] encountered in `deployments` order.
///
/// `factors` maps a compute-machine type name to the scaling factors
/// from the profile cluster to that machine type; deployments whose
/// machine matches the profile's need no entry (identity is assumed).
/// This is the entry point for callers that enumerate deployments from
/// external descriptions — a multi-tenant scheduler must skip a
/// misconfigured site, not crash on it.
pub fn try_rank_deployments(
    profile: &Profile,
    classes: AppClasses,
    deployments: &[Deployment],
    dataset_bytes: u64,
    factors: &HashMap<String, ScalingFactors>,
) -> Result<Vec<Candidate>, SelectionError> {
    let mut out = Vec::with_capacity(deployments.len());
    for d in deployments {
        let predicted =
            try_predict_deployment(profile, classes, d.as_ref(), dataset_bytes, factors)?;
        out.push(Candidate { deployment: d.clone(), predicted });
    }
    out.sort_by(|a, b| {
        a.cost().total_cmp(&b.cost()).then_with(|| a.deployment.label().cmp(&b.deployment.label()))
    });
    Ok(out)
}

/// Everything about a candidate deployment except its `(Configuration,
/// stream_bw)`: what a [`prepare`]d price is resolved from. A scan over
/// a grid builds one per (repository, site) pair.
#[derive(Debug, Clone, Copy)]
pub struct SiteQuery<'a> {
    /// The application's profile.
    pub profile: &'a Profile,
    /// The application's classes.
    pub classes: AppClasses,
    /// The repository hosting the replica.
    pub repository: &'a RepositorySite,
    /// The compute site.
    pub compute: &'a ComputeSite,
    /// Optional non-local caching site.
    pub cache: Option<&'a CacheSite>,
    /// Dataset size `ŝ`, bytes.
    pub dataset_bytes: u64,
    /// Cross-cluster scaling factors, by compute machine type.
    pub factors: &'a HashMap<String, ScalingFactors>,
}

impl<'a> SiteQuery<'a> {
    /// The query one deployment belongs to.
    pub fn of(
        profile: &'a Profile,
        classes: AppClasses,
        d: DeploymentRef<'a>,
        dataset_bytes: u64,
        factors: &'a HashMap<String, ScalingFactors>,
    ) -> SiteQuery<'a> {
        SiteQuery {
            profile,
            classes,
            repository: d.repository,
            compute: d.compute,
            cache: d.cache,
            dataset_bytes,
            factors,
        }
    }

    /// The deployment this query's sites make with `config` at
    /// `stream_bw`.
    pub fn deployment(&self, config: Configuration, stream_bw: f64) -> DeploymentRef<'a> {
        DeploymentRef {
            repository: self.repository,
            compute: self.compute,
            stream_bw,
            config,
            cache: self.cache,
        }
    }
}

/// How a preparation's compute site relates to the profile cluster.
#[derive(Debug, Clone, Copy)]
enum Cluster {
    /// The profile's own machine type: predictions apply unscaled.
    Profiled,
    /// Another machine type, with measured factors.
    Measured(ScalingFactors),
    /// Another machine type nobody measured (§3.4 says not to guess).
    Unmeasured,
}

/// The closed form with everything a [`SiteQuery`] fixes resolved:
/// `ŝ/s`, the scalable compute remainder, the volume the passes move,
/// the site's interconnect and the cross-cluster factors. What is left
/// for [`Price::price`] depends only on `(n̂, ĉ, b̂)`.
#[derive(Debug, Clone, Copy)]
pub struct Prepared<'a> {
    q: SiteQuery<'a>,
    at: Scaled<'a>,
    scalable: f64,
    pass_bytes: f64,
    interconnect: InterconnectParams,
    cluster: Cluster,
}

/// Resolve the analytical model for one (repository, site) pair.
/// Nothing here fails or allocates: a degenerate query (an empty
/// dataset, a machine type without factors) is reported by every
/// [`Price::price`] taken from the preparation, after the target's own
/// checks, which is the order [`try_predict_deployment`] has always
/// reported them in.
pub fn prepare<'a>(q: &SiteQuery<'a>) -> Prepared<'a> {
    let machine = &q.compute.machine.name;
    Prepared {
        q: *q,
        at: Scaled::new(q.profile, q.dataset_bytes),
        scalable: ComputeModel::GlobalReduction.scalable(q.profile),
        pass_bytes: q.profile.passes as f64 * q.dataset_bytes as f64,
        interconnect: InterconnectParams::of_site(q.compute),
        cluster: if *machine == q.profile.compute_machine {
            Cluster::Profiled
        } else {
            q.factors.get(machine).map_or(Cluster::Unmeasured, |f| Cluster::Measured(*f))
        },
    }
}

impl Price for Prepared<'_> {
    fn price(&self, config: Configuration, stream_bw: f64) -> Result<Prediction, SelectionError> {
        let q = &self.q;
        Target::new(config.data_nodes, config.compute_nodes, stream_bw, q.dataset_bytes).map_err(
            |cause| SelectionError::Unpredictable {
                label: q.deployment(config, stream_bw).label(),
                cause,
            },
        )?;
        let base = self.at.predict(
            config.data_nodes,
            config.compute_nodes,
            stream_bw,
            ComputeModel::GlobalReduction,
            self.scalable,
            q.classes,
            &self.interconnect,
        );
        // Storage-aware: deployments that cannot cache locally are costed
        // under their non-local-cache or refetch plan.
        let plan = CachePlan::for_candidate(
            q.compute,
            q.cache,
            config.compute_nodes,
            q.dataset_bytes,
            q.profile.passes,
        );
        let on_profile_cluster = plan.adjust(
            base,
            q.profile.passes as f64,
            self.pass_bytes,
            config.compute_nodes,
            q.compute.machine.disk_bw,
        );
        match self.cluster {
            Cluster::Profiled => Ok(on_profile_cluster),
            Cluster::Measured(f) => Ok(f.apply(&on_profile_cluster)),
            Cluster::Unmeasured => Err(SelectionError::MissingFactors {
                machine: q.compute.machine.name.clone(),
                profile_machine: q.profile.compute_machine.clone(),
            }),
        }
    }
}

/// Predict one candidate deployment from borrowed parts, allocating
/// nothing on the success path: [`prepare`] followed by one
/// [`Price::price`]. A caller pricing several configurations or
/// bandwidths of one (repository, site) pair keeps the preparation and
/// prices each from it — same bits, the pair's share of the work done
/// once.
pub fn try_predict_deployment(
    profile: &Profile,
    classes: AppClasses,
    d: DeploymentRef<'_>,
    dataset_bytes: u64,
    factors: &HashMap<String, ScalingFactors>,
) -> Result<Prediction, SelectionError> {
    prepare(&SiteQuery::of(profile, classes, d, dataset_bytes, factors))
        .price(d.config, d.stream_bw)
}

/// Like [`try_rank_deployments`], but panics on any [`SelectionError`] —
/// the original API, for callers whose candidate sets are known-valid by
/// construction.
pub fn rank_deployments(
    profile: &Profile,
    classes: AppClasses,
    deployments: &[Deployment],
    dataset_bytes: u64,
    factors: &HashMap<String, ScalingFactors>,
) -> Vec<Candidate> {
    try_rank_deployments(profile, classes, deployments, dataset_bytes, factors)
        .unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::{GlobalReduceClass, RObjSizeClass};
    use fg_cluster::Wan;

    fn profile() -> Profile {
        Profile {
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
        }
    }

    fn deployments() -> Vec<Deployment> {
        let repo = RepositorySite::pentium_repository("osu", 8);
        let site = ComputeSite::pentium_myrinet("cs", 16);
        let wan = Wan::per_stream(1e6);
        [(1, 1), (2, 4), (8, 16)]
            .iter()
            .map(|&(n, c)| {
                Deployment::new(repo.clone(), site.clone(), wan.clone(), Configuration::new(n, c))
            })
            .collect()
    }

    /// The closed form as it stood before it was factored into
    /// `prepare` + `price`: `try_predict_deployment` building and
    /// validating a `Target`, a `CachePlan` and the interconnect per
    /// candidate, then `predict_plan_components` validating the target
    /// again and calling the three component predictors, each of which
    /// derives `ŝ/s` for itself. That code verbatim (`CachePlan`'s rule
    /// inlined as `plan_for_candidate`); the differential below holds
    /// the shipped path to it bit for bit.
    mod reference {
        use crate::cache::CachePlan;
        use crate::classes::{AppClasses, GlobalReduceClass, RObjSizeClass};
        use crate::hetero::ScalingFactors;
        use crate::model::{ComputeModel, InterconnectParams, Prediction, Target};
        use crate::profile::Profile;
        use crate::selection::SelectionError;
        use fg_cluster::{CacheSite, ComputeSite, DeploymentRef};
        use std::collections::HashMap;

        fn predict_disk(p: &Profile, t: &Target) -> f64 {
            let s_ratio = t.dataset_bytes as f64 / p.dataset_bytes as f64;
            let n_ratio = p.data_nodes as f64 / t.data_nodes as f64;
            s_ratio * n_ratio * p.t_disk
        }

        fn predict_network(p: &Profile, t: &Target) -> f64 {
            let s_ratio = t.dataset_bytes as f64 / p.dataset_bytes as f64;
            let n_ratio = p.data_nodes as f64 / t.data_nodes as f64;
            let b_ratio = p.wan_bw / t.wan_bw;
            s_ratio * n_ratio * b_ratio * p.t_network
        }

        fn predict_obj_bytes(p: &Profile, t: &Target, class: RObjSizeClass) -> f64 {
            let rho = p.max_obj_bytes as f64;
            match class {
                RObjSizeClass::Constant => rho,
                RObjSizeClass::Linear => {
                    rho * (t.dataset_bytes as f64 / p.dataset_bytes as f64)
                        * (p.compute_nodes as f64 / t.compute_nodes as f64)
                }
            }
        }

        fn predict_t_ro(
            p: &Profile,
            t: &Target,
            class: RObjSizeClass,
            ic: &InterconnectParams,
        ) -> f64 {
            let rho = predict_obj_bytes(p, t, class);
            let senders = t.compute_nodes.saturating_sub(1) as f64;
            p.passes as f64 * senders * (ic.latency + rho / ic.bandwidth)
        }

        fn predict_t_g(p: &Profile, t: &Target, class: GlobalReduceClass) -> f64 {
            match class {
                GlobalReduceClass::LinearConstant => {
                    p.t_g * (t.compute_nodes as f64 / p.compute_nodes as f64)
                }
                GlobalReduceClass::ConstantLinear => {
                    p.t_g * (t.dataset_bytes as f64 / p.dataset_bytes as f64)
                }
            }
        }

        fn predict_compute(
            p: &Profile,
            t: &Target,
            model: ComputeModel,
            classes: AppClasses,
            ic: &InterconnectParams,
        ) -> f64 {
            let s_ratio = t.dataset_bytes as f64 / p.dataset_bytes as f64;
            let c_ratio = p.compute_nodes as f64 / t.compute_nodes as f64;
            match model {
                ComputeModel::NoComm => s_ratio * c_ratio * p.t_compute,
                ComputeModel::ReductionComm => {
                    let scalable = (p.t_compute - p.t_ro).max(0.0);
                    s_ratio * c_ratio * scalable + predict_t_ro(p, t, classes.obj, ic)
                }
                ComputeModel::GlobalReduction => {
                    let scalable = (p.t_compute - p.t_ro - p.t_g).max(0.0);
                    s_ratio * c_ratio * scalable
                        + predict_t_ro(p, t, classes.obj, ic)
                        + predict_t_g(p, t, classes.global)
                }
            }
        }

        pub fn plan_for_candidate(
            compute: &ComputeSite,
            cache: Option<&CacheSite>,
            compute_nodes: usize,
            dataset_bytes: u64,
            passes: usize,
        ) -> CachePlan {
            if passes <= 1 {
                return CachePlan::Local; // nothing to keep
            }
            let per_node = dataset_bytes.div_ceil(compute_nodes as u64);
            if per_node <= compute.node_storage_bytes {
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

        #[allow(clippy::too_many_arguments)]
        pub fn predict_plan_components(
            profile: &Profile,
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
            let base = Prediction {
                t_disk: predict_disk(profile, target),
                t_network: predict_network(profile, target),
                t_compute: predict_compute(profile, target, model, classes, interconnect),
            };
            let passes = profile.passes as f64;
            let s = target.dataset_bytes as f64;
            let local_io = passes * s / (target.compute_nodes as f64 * compute_disk_bw);
            match plan {
                CachePlan::Local => base,
                CachePlan::NonLocal { nodes, wan_bw, disk_bw } => Prediction {
                    t_disk: base.t_disk + passes * s / (*nodes as f64 * disk_bw),
                    t_network: base.t_network + passes * s / (*nodes as f64 * wan_bw),
                    t_compute: (base.t_compute - local_io).max(0.0),
                },
                CachePlan::Refetch => Prediction {
                    t_disk: base.t_disk * passes,
                    t_network: base.t_network * passes,
                    t_compute: (base.t_compute - local_io).max(0.0),
                },
            }
        }

        pub fn try_predict_deployment(
            profile: &Profile,
            classes: AppClasses,
            d: DeploymentRef<'_>,
            dataset_bytes: u64,
            factors: &HashMap<String, ScalingFactors>,
        ) -> Result<Prediction, SelectionError> {
            let target = Target::new(
                d.config.data_nodes,
                d.config.compute_nodes,
                d.stream_bw,
                dataset_bytes,
            )
            .map_err(|cause| SelectionError::Unpredictable { label: d.label(), cause })?;
            let plan = plan_for_candidate(
                d.compute,
                d.cache,
                d.config.compute_nodes,
                dataset_bytes,
                profile.passes,
            );
            let interconnect = InterconnectParams::of_site(d.compute);
            let base = predict_plan_components(
                profile,
                classes,
                &interconnect,
                ComputeModel::GlobalReduction,
                &target,
                &plan,
                d.compute.machine.disk_bw,
            );
            let machine = &d.compute.machine.name;
            if *machine == profile.compute_machine {
                Ok(base)
            } else {
                let f = factors.get(machine).ok_or_else(|| SelectionError::MissingFactors {
                    machine: machine.clone(),
                    profile_machine: profile.compute_machine.clone(),
                })?;
                Ok(f.apply(&base))
            }
        }
    }

    fn bits(p: &Prediction) -> [u64; 3] {
        [p.t_disk.to_bits(), p.t_network.to_bits(), p.t_compute.to_bits()]
    }

    /// The same-bits claim: one preparation, priced at every
    /// configuration and bandwidth of a menu that includes the
    /// degenerate ones, equals the reference called once per candidate
    /// — `Ok`s bit for bit per component, `Err`s variant for variant
    /// with the reference's precedence. 512 generated (profile, classes,
    /// site, cache, size) queries × 36 candidates each.
    #[test]
    fn prepared_prices_match_the_reference_bit_for_bit() {
        use proptest::prelude::*;
        let query = (
            (0usize..3, 0usize..4, 0usize..3, 0usize..3, 0usize..3),
            (0usize..4, 0usize..4, 0usize..3, 0usize..3, 0usize..7),
        );
        let configs: Vec<Configuration> = [(1, 1), (1, 4), (2, 4), (8, 16), (0, 4), (2, 0), (0, 0)]
            .iter()
            .map(|&(data_nodes, compute_nodes)| Configuration { data_nodes, compute_nodes })
            .collect();
        let bandwidths = [1e6, 3.3e5, 0.0, -1e6, f64::NAN, f64::INFINITY];
        let mut factors = HashMap::new();
        factors.insert(
            "opteron-2400".to_string(),
            ScalingFactors { disk: 0.4, network: 1.1, compute: 0.3 },
        );
        let no_factors = HashMap::new();
        let cache_sites = [
            CacheSite::new(RepositorySite::pentium_repository("cache", 8), 2, Wan::per_stream(6e5)),
            CacheSite::new(RepositorySite::opteron_repository("big", 64), 32, Wan::per_stream(2e6)),
        ];
        let repo = RepositorySite::pentium_repository("osu", 8);
        let (mut oks, mut clamped, mut multi_pass) = (0u64, 0u64, 0u64);
        let (mut local, mut nonlocal, mut refetch, mut cache_clamped) = (0u64, 0u64, 0u64, 0u64);
        let (mut same, mut scaled, mut unmeasured, mut unpredictable) = (0u64, 0u64, 0u64, 0u64);
        for case in 0..512 {
            let mut rng = TestRng::for_case(case);
            let ((passes, comm, shape, obj, bytes), (classes, storage, cache, machine, size)) =
                query.generate(&mut rng);
            let passes = [1usize, 3, 10][passes];
            // `t_ro` / `t_g` at or above `t_compute`: the scalable
            // remainder's `max(0.0)` engages.
            let (t_ro, t_g) = [(0.0, 0.5), (6.0, 10.0), (120.0, 3.0), (40.0, 70.0)][comm];
            let profile = Profile {
                data_nodes: [1usize, 2, 4][shape],
                compute_nodes: [1usize, 4, 8][shape],
                wan_bw: [1e6, 8e5, 4e7][shape],
                dataset_bytes: [1_000_000u64, 200 << 20, 1_400_000_000][bytes],
                t_ro,
                t_g,
                max_obj_bytes: [512u64, 65_536, 40_000_000][obj],
                passes,
                ..profile()
            };
            let classes = AppClasses {
                obj: [RObjSizeClass::Constant, RObjSizeClass::Linear][classes % 2],
                global: [GlobalReduceClass::LinearConstant, GlobalReduceClass::ConstantLinear]
                    [classes / 2],
            };
            let dataset_bytes =
                [0u64, 1, 1_000_000, 200 << 20, 3_200_000_000, 777_777_777, u64::MAX][size];
            let mut site = if machine == 0 {
                ComputeSite::pentium_myrinet("cs", 16)
            } else {
                ComputeSite::opteron_infiniband("fast", 16)
            };
            // Per-node scratch space below / around / above the
            // per-node share, and one whose product with ĉ overflows.
            site.node_storage_bytes = [0u64, 60_000_000, 64_000_000_000, u64::MAX][storage];
            let q = SiteQuery {
                profile: &profile,
                classes,
                repository: &repo,
                compute: &site,
                cache: cache.checked_sub(1).map(|i| &cache_sites[i]),
                dataset_bytes,
                factors: if machine == 2 { &no_factors } else { &factors },
            };
            let prepared = prepare(&q);
            for cfg in &configs {
                for &bw in &bandwidths {
                    let d = q.deployment(*cfg, bw);
                    let want = reference::try_predict_deployment(
                        &profile,
                        classes,
                        d,
                        dataset_bytes,
                        q.factors,
                    );
                    let one_shot =
                        try_predict_deployment(&profile, classes, d, dataset_bytes, q.factors);
                    let got = prepared.price(*cfg, bw);
                    match (&want, &got, &one_shot) {
                        (Ok(w), Ok(g), Ok(o)) => {
                            assert_eq!(bits(w), bits(g), "case {case} {cfg:?} {bw}");
                            assert_eq!(bits(w), bits(o), "case {case} {cfg:?} {bw}");
                            oks += 1;
                            clamped += u64::from(profile.t_compute < t_ro + t_g);
                            multi_pass += u64::from(passes > 1);
                            match reference::plan_for_candidate(
                                &site,
                                q.cache,
                                cfg.compute_nodes,
                                dataset_bytes,
                                passes,
                            ) {
                                CachePlan::Local => local += 1,
                                CachePlan::Refetch => refetch += 1,
                                CachePlan::NonLocal { nodes, .. } => {
                                    nonlocal += 1;
                                    cache_clamped += u64::from(nodes < q.cache.unwrap().nodes);
                                }
                            }
                            same += u64::from(machine == 0);
                            scaled += u64::from(machine == 1);
                        }
                        (Err(w), Err(g), Err(o)) => {
                            assert_eq!(w, g, "case {case} {cfg:?} {bw}");
                            assert_eq!(w, o, "case {case} {cfg:?} {bw}");
                            match w {
                                SelectionError::Unpredictable { .. } => unpredictable += 1,
                                SelectionError::MissingFactors { .. } => unmeasured += 1,
                            }
                        }
                        _ => panic!("case {case} {cfg:?} {bw}: {want:?} vs {got:?} / {one_shot:?}"),
                    }
                }
            }
        }
        // The generator reaches what the claim is about.
        for (what, n) in [
            ("priced", oks),
            ("clamped scalable remainders", clamped),
            ("multi-pass", multi_pass),
            ("local plans", local),
            ("non-local plans", nonlocal),
            ("refetch plans", refetch),
            ("cache nodes clamped to ĉ", cache_clamped),
            ("same-machine", same),
            ("cross-machine with factors", scaled),
            ("cross-machine without", unmeasured),
            ("degenerate targets", unpredictable),
        ] {
            assert!(n >= 100, "{what}: only {n} candidates");
        }
    }

    #[test]
    fn bigger_configurations_win_for_scalable_work() {
        let ranked = rank_deployments(
            &profile(),
            AppClasses::CONSTANT_LINEAR_CONSTANT,
            &deployments(),
            1_000_000,
            &HashMap::new(),
        );
        assert_eq!(ranked.len(), 3);
        assert_eq!(ranked[0].deployment.config.label(), "8-16");
        assert_eq!(ranked[2].deployment.config.label(), "1-1");
        assert!(ranked[0].cost() <= ranked[1].cost());
        assert!(ranked[1].cost() <= ranked[2].cost());
    }

    #[test]
    fn slow_wan_replica_loses_to_fast_one() {
        let repo_near = RepositorySite::pentium_repository("near", 8);
        let repo_far = RepositorySite::pentium_repository("far", 8);
        let site = ComputeSite::pentium_myrinet("cs", 16);
        let cfg = Configuration::new(2, 4);
        let ds = vec![
            Deployment::new(repo_far, site.clone(), Wan::per_stream(1e5), cfg),
            Deployment::new(repo_near, site, Wan::per_stream(1e6), cfg),
        ];
        let ranked = rank_deployments(
            &profile(),
            AppClasses::CONSTANT_LINEAR_CONSTANT,
            &ds,
            1_000_000,
            &HashMap::new(),
        );
        assert_eq!(ranked[0].deployment.repository.name, "near");
    }

    #[test]
    fn cross_cluster_candidates_use_factors() {
        let repo = RepositorySite::pentium_repository("osu", 8);
        let fast_site = ComputeSite::opteron_infiniband("fast", 16);
        let slow_site = ComputeSite::pentium_myrinet("slow", 16);
        let cfg = Configuration::new(1, 1);
        let wan = Wan::per_stream(1e6);
        let ds = vec![
            Deployment::new(repo.clone(), slow_site, wan.clone(), cfg),
            Deployment::new(repo, fast_site, wan, cfg),
        ];
        let mut factors = HashMap::new();
        factors.insert(
            "opteron-2400".to_string(),
            ScalingFactors { disk: 0.4, network: 1.0, compute: 0.3 },
        );
        let ranked = rank_deployments(
            &profile(),
            AppClasses::CONSTANT_LINEAR_CONSTANT,
            &ds,
            1_000_000,
            &factors,
        );
        assert_eq!(ranked[0].deployment.compute.name, "fast");
        // 0.4*40 + 1.0*20 + 0.3*~100.5
        assert!((ranked[0].cost() - (16.0 + 20.0 + 0.3 * 100.5)).abs() < 0.5);
    }

    #[test]
    #[should_panic(expected = "not predictable")]
    fn degenerate_deployment_is_rejected_not_ranked() {
        // Regression: a zero-byte dataset used to flow straight into the
        // scaling models and rank every candidate at NaN cost.
        rank_deployments(
            &profile(),
            AppClasses::CONSTANT_LINEAR_CONSTANT,
            &deployments(),
            0,
            &HashMap::new(),
        );
    }

    #[test]
    #[should_panic(expected = "no scaling factors")]
    fn unknown_machine_without_factors_panics() {
        let repo = RepositorySite::pentium_repository("osu", 8);
        let site = ComputeSite::opteron_infiniband("fast", 16);
        let ds = vec![Deployment::new(repo, site, Wan::per_stream(1e6), Configuration::new(1, 1))];
        rank_deployments(
            &profile(),
            AppClasses::CONSTANT_LINEAR_CONSTANT,
            &ds,
            1_000_000,
            &HashMap::new(),
        );
    }

    #[test]
    fn try_rank_reports_degenerate_deployments_instead_of_panicking() {
        let err = try_rank_deployments(
            &profile(),
            AppClasses::CONSTANT_LINEAR_CONSTANT,
            &deployments(),
            0,
            &HashMap::new(),
        )
        .unwrap_err();
        match err {
            SelectionError::Unpredictable { ref label, cause } => {
                assert_eq!(label, "cs@osu 1-1");
                assert_eq!(cause, crate::model::TargetError::EmptyDataset);
            }
            other => panic!("expected Unpredictable, got {other:?}"),
        }
        assert!(err.to_string().contains("not predictable"));
    }

    #[test]
    fn try_rank_reports_missing_factors_instead_of_panicking() {
        let repo = RepositorySite::pentium_repository("osu", 8);
        let site = ComputeSite::opteron_infiniband("fast", 16);
        let ds = vec![Deployment::new(repo, site, Wan::per_stream(1e6), Configuration::new(1, 1))];
        let err = try_rank_deployments(
            &profile(),
            AppClasses::CONSTANT_LINEAR_CONSTANT,
            &ds,
            1_000_000,
            &HashMap::new(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            SelectionError::MissingFactors {
                machine: "opteron-2400".into(),
                profile_machine: "pentium-700".into(),
            }
        );
    }

    #[test]
    fn try_rank_matches_the_panicking_wrapper_on_valid_input() {
        let ranked = rank_deployments(
            &profile(),
            AppClasses::CONSTANT_LINEAR_CONSTANT,
            &deployments(),
            1_000_000,
            &HashMap::new(),
        );
        let tried = try_rank_deployments(
            &profile(),
            AppClasses::CONSTANT_LINEAR_CONSTANT,
            &deployments(),
            1_000_000,
            &HashMap::new(),
        )
        .unwrap();
        assert_eq!(ranked.len(), tried.len());
        for (a, b) in ranked.iter().zip(tried.iter()) {
            assert_eq!(a.deployment.label(), b.deployment.label());
            assert_eq!(a.cost(), b.cost());
        }
    }
}
