//! The component predictors (§3.2–§3.3).

use crate::classes::{AppClasses, GlobalReduceClass, RObjSizeClass};
use crate::profile::Profile;
use fg_cluster::ComputeSite;
use serde::{Deserialize, Serialize};

/// The configuration a prediction targets: `(n̂, ĉ, b̂, ŝ)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Target {
    /// Storage nodes, `n̂`.
    pub data_nodes: usize,
    /// Compute nodes, `ĉ`.
    pub compute_nodes: usize,
    /// Per-data-node WAN bandwidth, `b̂` (bytes/sec).
    pub wan_bw: f64,
    /// Dataset size, `ŝ` (logical bytes).
    pub dataset_bytes: u64,
}

/// Why a [`Target`] cannot be predicted for.
///
/// The scaling models divide by every one of the target's components, so
/// a zero anywhere produces infinities, NaNs, or (for `compute_nodes`)
/// an integer underflow in the gather model rather than an obviously
/// wrong number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetError {
    /// `data_nodes == 0`: the disk and network models divide by `n̂`.
    NoDataNodes,
    /// `compute_nodes == 0`: the compute model divides by `ĉ` and the
    /// gather model counts `ĉ - 1` senders.
    NoComputeNodes,
    /// `wan_bw` is zero, negative, or non-finite: the network model
    /// divides by `b̂`.
    InvalidBandwidth,
    /// `dataset_bytes == 0`: every size ratio collapses and downstream
    /// consumers divide by `ŝ`.
    EmptyDataset,
}

impl std::fmt::Display for TargetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TargetError::NoDataNodes => write!(f, "target has no data nodes"),
            TargetError::NoComputeNodes => write!(f, "target has no compute nodes"),
            TargetError::InvalidBandwidth => {
                write!(f, "target WAN bandwidth must be finite and positive")
            }
            TargetError::EmptyDataset => write!(f, "target dataset is empty"),
        }
    }
}

impl std::error::Error for TargetError {}

impl Target {
    /// Validated constructor: every component must be non-degenerate.
    pub fn new(
        data_nodes: usize,
        compute_nodes: usize,
        wan_bw: f64,
        dataset_bytes: u64,
    ) -> Result<Target, TargetError> {
        let t = Target { data_nodes, compute_nodes, wan_bw, dataset_bytes };
        t.validate()?;
        Ok(t)
    }

    /// Check every component for degeneracy.
    pub fn validate(&self) -> Result<(), TargetError> {
        if self.data_nodes == 0 {
            return Err(TargetError::NoDataNodes);
        }
        if self.compute_nodes == 0 {
            return Err(TargetError::NoComputeNodes);
        }
        if !self.wan_bw.is_finite() || self.wan_bw <= 0.0 {
            return Err(TargetError::InvalidBandwidth);
        }
        if self.dataset_bytes == 0 {
            return Err(TargetError::EmptyDataset);
        }
        Ok(())
    }
}

/// The experimentally determined interconnect parameters of the target
/// processing configuration: `T_ro = w * r + l` per object.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterconnectParams {
    /// Interconnect bandwidth, bytes/sec (`1/w`).
    pub bandwidth: f64,
    /// Per-message latency, seconds (`l`).
    pub latency: f64,
}

impl InterconnectParams {
    /// Read the parameters from a compute-site description.
    pub fn of_site(site: &ComputeSite) -> InterconnectParams {
        InterconnectParams {
            bandwidth: site.interconnect_bw,
            latency: site.costs.gather_latency.as_secs_f64(),
        }
    }
}

/// The three compute-time models of §5.1, in increasing fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ComputeModel {
    /// Scale `t_c` assuming linear speedup; ignore communication.
    NoComm,
    /// Additionally model the reduction-object communication (§3.3.1).
    ReductionComm,
    /// Additionally model the global reduction (§3.3.2).
    GlobalReduction,
}

impl ComputeModel {
    /// All three, in presentation order.
    pub const ALL: [ComputeModel; 3] =
        [ComputeModel::NoComm, ComputeModel::ReductionComm, ComputeModel::GlobalReduction];

    /// Label used in figures.
    pub fn label(&self) -> &'static str {
        match self {
            ComputeModel::NoComm => "no communication",
            ComputeModel::ReductionComm => "reduction communication",
            ComputeModel::GlobalReduction => "global reduction",
        }
    }

    /// The part of the profile's `t_c` this model scales with data and
    /// nodes: what is left after the communication it accounts for
    /// separately.
    pub(crate) fn scalable(&self, p: &Profile) -> f64 {
        match self {
            ComputeModel::NoComm => p.t_compute,
            ComputeModel::ReductionComm => (p.t_compute - p.t_ro).max(0.0),
            ComputeModel::GlobalReduction => (p.t_compute - p.t_ro - p.t_g).max(0.0),
        }
    }
}

/// A predicted execution-time breakdown (seconds).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// Predicted data retrieval time.
    pub t_disk: f64,
    /// Predicted network communication time.
    pub t_network: f64,
    /// Predicted processing time (inclusive of `t_ro` and `t_g` when the
    /// model accounts for them).
    pub t_compute: f64,
}

impl Prediction {
    /// `T_exec = T_disk + T_network + T_compute`.
    pub fn total(&self) -> f64 {
        self.t_disk + self.t_network + self.t_compute
    }
}

/// The closed form at one dataset size: `ŝ/s` resolved once, each
/// component's expression written once. The `predict_*` functions below
/// evaluate it at a [`Target`]'s size per call; a selection scan
/// ([`crate::selection::prepare`]) resolves it once per (repository,
/// site) pair and evaluates only the `(n̂, ĉ, b̂)` part per candidate.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Scaled<'a> {
    p: &'a Profile,
    /// `ŝ/s`.
    s_ratio: f64,
}

impl<'a> Scaled<'a> {
    pub(crate) fn new(p: &'a Profile, dataset_bytes: u64) -> Scaled<'a> {
        Scaled { p, s_ratio: dataset_bytes as f64 / p.dataset_bytes as f64 }
    }

    /// `T̂_disk = (ŝ/s) * (n/n̂) * t_d`.
    fn disk(&self, data_nodes: usize) -> f64 {
        let n_ratio = self.p.data_nodes as f64 / data_nodes as f64;
        self.s_ratio * n_ratio * self.p.t_disk
    }

    /// `T̂_network = (ŝ/s) * (n/n̂) * (b/b̂) * t_n`.
    fn network(&self, data_nodes: usize, wan_bw: f64) -> f64 {
        let n_ratio = self.p.data_nodes as f64 / data_nodes as f64;
        let b_ratio = self.p.wan_bw / wan_bw;
        self.s_ratio * n_ratio * b_ratio * self.p.t_network
    }

    /// `ρ̂` under the class model.
    fn obj_bytes(&self, compute_nodes: usize, class: RObjSizeClass) -> f64 {
        let rho = self.p.max_obj_bytes as f64;
        match class {
            RObjSizeClass::Constant => rho,
            RObjSizeClass::Linear => {
                rho * self.s_ratio * (self.p.compute_nodes as f64 / compute_nodes as f64)
            }
        }
    }

    /// A serialized gather of `ĉ - 1` objects, each costing `l + w * ρ̂`,
    /// once per pass.
    fn t_ro(&self, compute_nodes: usize, class: RObjSizeClass, ic: &InterconnectParams) -> f64 {
        let rho = self.obj_bytes(compute_nodes, class);
        // `saturating_sub`: a degenerate ĉ = 0 target must not underflow to
        // 2^64 - 1 senders (callers validate, but this model is also used
        // directly).
        let senders = compute_nodes.saturating_sub(1) as f64;
        self.p.passes as f64 * senders * (ic.latency + rho / ic.bandwidth)
    }

    /// `T̂_g` under the class model.
    fn t_g(&self, compute_nodes: usize, class: GlobalReduceClass) -> f64 {
        match class {
            GlobalReduceClass::LinearConstant => {
                self.p.t_g * (compute_nodes as f64 / self.p.compute_nodes as f64)
            }
            GlobalReduceClass::ConstantLinear => self.p.t_g * self.s_ratio,
        }
    }

    /// `T̂_c = (ŝ/s) * (c/ĉ) * scalable + T̂_ro + T̂_g`, the last two as
    /// `model` accounts for them; `scalable` is
    /// [`ComputeModel::scalable`] of the same profile.
    fn compute(
        &self,
        compute_nodes: usize,
        model: ComputeModel,
        scalable: f64,
        classes: AppClasses,
        ic: &InterconnectParams,
    ) -> f64 {
        let c_ratio = self.p.compute_nodes as f64 / compute_nodes as f64;
        let scaled = self.s_ratio * c_ratio * scalable;
        match model {
            ComputeModel::NoComm => scaled,
            ComputeModel::ReductionComm => scaled + self.t_ro(compute_nodes, classes.obj, ic),
            ComputeModel::GlobalReduction => {
                scaled
                    + self.t_ro(compute_nodes, classes.obj, ic)
                    + self.t_g(compute_nodes, classes.global)
            }
        }
    }

    /// All three components for `(n̂, ĉ, b̂)`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn predict(
        &self,
        data_nodes: usize,
        compute_nodes: usize,
        wan_bw: f64,
        model: ComputeModel,
        scalable: f64,
        classes: AppClasses,
        ic: &InterconnectParams,
    ) -> Prediction {
        Prediction {
            t_disk: self.disk(data_nodes),
            t_network: self.network(data_nodes, wan_bw),
            t_compute: self.compute(compute_nodes, model, scalable, classes, ic),
        }
    }
}

/// Predicted data retrieval time:
/// `T̂_disk = (ŝ/s) * (n/n̂) * t_d`.
pub fn predict_disk(p: &Profile, t: &Target) -> f64 {
    Scaled::new(p, t.dataset_bytes).disk(t.data_nodes)
}

/// Predicted data communication time:
/// `T̂_network = (ŝ/s) * (n/n̂) * (b/b̂) * t_n`.
pub fn predict_network(p: &Profile, t: &Target) -> f64 {
    Scaled::new(p, t.dataset_bytes).network(t.data_nodes, t.wan_bw)
}

/// Predicted per-node reduction-object size `ρ̂` under the class model.
pub fn predict_obj_bytes(p: &Profile, t: &Target, class: RObjSizeClass) -> f64 {
    Scaled::new(p, t.dataset_bytes).obj_bytes(t.compute_nodes, class)
}

/// Predicted reduction-object communication time: a serialized gather of
/// `ĉ - 1` objects, each costing `l + w * ρ̂`, once per pass.
pub fn predict_t_ro(p: &Profile, t: &Target, class: RObjSizeClass, ic: &InterconnectParams) -> f64 {
    Scaled::new(p, t.dataset_bytes).t_ro(t.compute_nodes, class, ic)
}

/// Predicted global reduction time under the class model.
pub fn predict_t_g(p: &Profile, t: &Target, class: GlobalReduceClass) -> f64 {
    Scaled::new(p, t.dataset_bytes).t_g(t.compute_nodes, class)
}

/// Predicted data processing time under the chosen compute model.
pub fn predict_compute(
    p: &Profile,
    t: &Target,
    model: ComputeModel,
    classes: AppClasses,
    ic: &InterconnectParams,
) -> f64 {
    Scaled::new(p, t.dataset_bytes).compute(t.compute_nodes, model, model.scalable(p), classes, ic)
}

/// The assembled predictor: profile + classes + interconnect + model.
///
/// ```
/// use fg_predict::{AppClasses, ComputeModel, ExecTimePredictor,
///                  InterconnectParams, Profile, Target};
///
/// // Summary information from a 1-1 profile run.
/// let profile = Profile {
///     app: "kmeans".into(),
///     data_nodes: 1, compute_nodes: 1,
///     wan_bw: 40e6, dataset_bytes: 1_400_000_000,
///     t_disk: 56.0, t_network: 35.0, t_compute: 1444.0,
///     t_ro: 0.0, t_g: 0.02, max_obj_bytes: 584, passes: 10,
///     repo_machine: "pentium-700".into(),
///     compute_machine: "pentium-700".into(),
/// };
/// let predictor = ExecTimePredictor {
///     profile,
///     classes: AppClasses::for_app("kmeans"),
///     interconnect: InterconnectParams { bandwidth: 100e6, latency: 0.015 },
///     model: ComputeModel::GlobalReduction,
/// };
/// // Predict an 8-data-node, 16-compute-node deployment on twice the data.
/// let p = predictor.predict(&Target {
///     data_nodes: 8, compute_nodes: 16,
///     wan_bw: 40e6, dataset_bytes: 2_800_000_000,
/// });
/// assert!(p.t_disk < 56.0);            // eight storage nodes
/// assert!(p.t_compute < 1444.0);       // sixteen compute nodes
/// assert!(p.total() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct ExecTimePredictor {
    /// Profile summary information.
    pub profile: Profile,
    /// Application classes (given or inferred).
    pub classes: AppClasses,
    /// Interconnect parameters of the target processing configuration.
    pub interconnect: InterconnectParams,
    /// Compute model fidelity.
    pub model: ComputeModel,
}

impl ExecTimePredictor {
    /// Predict the execution-time breakdown for a target configuration.
    ///
    /// # Panics
    ///
    /// Panics if the target is degenerate (see [`Target::validate`]);
    /// use [`ExecTimePredictor::try_predict`] to handle that as an error.
    pub fn predict(&self, target: &Target) -> Prediction {
        match self.try_predict(target) {
            Ok(p) => p,
            Err(e) => panic!("cannot predict for degenerate target: {e}"),
        }
    }

    /// Fallible prediction: rejects degenerate targets instead of
    /// returning infinities or NaNs.
    pub fn try_predict(&self, target: &Target) -> Result<Prediction, TargetError> {
        target.validate()?;
        Ok(Scaled::new(&self.profile, target.dataset_bytes).predict(
            target.data_nodes,
            target.compute_nodes,
            target.wan_bw,
            self.model,
            self.model.scalable(&self.profile),
            self.classes,
            &self.interconnect,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn profile() -> Profile {
        Profile {
            app: "t".into(),
            data_nodes: 2,
            compute_nodes: 4,
            wan_bw: 1e6,
            dataset_bytes: 1_000_000,
            t_disk: 40.0,
            t_network: 20.0,
            t_compute: 100.0,
            t_ro: 6.0,
            t_g: 10.0,
            max_obj_bytes: 1_000,
            passes: 2,
            repo_machine: "m".into(),
            compute_machine: "m".into(),
        }
    }

    /// The target that reproduces `profile()`'s own configuration.
    fn identity() -> Target {
        Target { data_nodes: 2, compute_nodes: 4, wan_bw: 1e6, dataset_bytes: 1_000_000 }
    }

    fn ic() -> InterconnectParams {
        InterconnectParams { bandwidth: 1e6, latency: 0.5 }
    }

    #[test]
    fn disk_scales_with_size_and_nodes() {
        let p = profile();
        // Double data on four times the storage nodes: half the time.
        let t = Target { data_nodes: 8, compute_nodes: 8, wan_bw: 1e6, dataset_bytes: 2_000_000 };
        assert!((predict_disk(&p, &t) - 40.0 * 2.0 * (2.0 / 8.0)).abs() < 1e-12);
    }

    #[test]
    fn network_scales_with_bandwidth_too() {
        let p = profile();
        let t = Target { data_nodes: 2, compute_nodes: 4, wan_bw: 5e5, dataset_bytes: 1_000_000 };
        // Half the bandwidth: twice the time.
        assert!((predict_network(&p, &t) - 40.0).abs() < 1e-12);
    }

    #[test]
    fn identity_target_reproduces_profile_for_scalable_components() {
        let p = profile();
        let t = identity();
        assert!((predict_disk(&p, &t) - p.t_disk).abs() < 1e-12);
        assert!((predict_network(&p, &t) - p.t_network).abs() < 1e-12);
        let classes = AppClasses::CONSTANT_LINEAR_CONSTANT;
        // NoComm is exactly t_c at the identity target.
        assert!(
            (predict_compute(&p, &t, ComputeModel::NoComm, classes, &ic()) - p.t_compute).abs()
                < 1e-12
        );
        // GlobalReduction reproduces t_g exactly; t_ro via the synthetic
        // interconnect model: 2 passes * 3 senders * (0.5 + 0.001) = 3.006.
        let full = predict_compute(&p, &t, ComputeModel::GlobalReduction, classes, &ic());
        let expected = (100.0 - 6.0 - 10.0) + 2.0 * 3.0 * (0.5 + 1e-3) + 10.0;
        assert!((full - expected).abs() < 1e-9, "{full} vs {expected}");
    }

    #[test]
    fn obj_size_classes() {
        let p = profile();
        let t = Target { data_nodes: 2, compute_nodes: 8, wan_bw: 1e6, dataset_bytes: 4_000_000 };
        assert_eq!(predict_obj_bytes(&p, &t, RObjSizeClass::Constant), 1_000.0);
        // Linear: rho * (s ratio 4) * (c ratio 4/8) = 2000.
        assert_eq!(predict_obj_bytes(&p, &t, RObjSizeClass::Linear), 2_000.0);
    }

    #[test]
    fn t_g_classes() {
        let p = profile();
        let t = Target { data_nodes: 2, compute_nodes: 16, wan_bw: 1e6, dataset_bytes: 3_000_000 };
        assert!((predict_t_g(&p, &t, GlobalReduceClass::LinearConstant) - 40.0).abs() < 1e-12);
        assert!((predict_t_g(&p, &t, GlobalReduceClass::ConstantLinear) - 30.0).abs() < 1e-12);
    }

    #[test]
    fn single_node_target_has_no_gather() {
        let p = profile();
        let t = Target { data_nodes: 1, compute_nodes: 1, wan_bw: 1e6, dataset_bytes: 1_000_000 };
        assert_eq!(predict_t_ro(&p, &t, RObjSizeClass::Constant, &ic()), 0.0);
    }

    #[test]
    fn models_are_ordered_by_what_they_account_for() {
        // At large c the NoComm model must under-predict relative to the
        // fuller models, because t_ro and t_g do not shrink with c.
        let p = profile();
        let t = Target { data_nodes: 2, compute_nodes: 16, wan_bw: 1e6, dataset_bytes: 1_000_000 };
        let classes = AppClasses::CONSTANT_LINEAR_CONSTANT;
        let nc = predict_compute(&p, &t, ComputeModel::NoComm, classes, &ic());
        let rc = predict_compute(&p, &t, ComputeModel::ReductionComm, classes, &ic());
        let gr = predict_compute(&p, &t, ComputeModel::GlobalReduction, classes, &ic());
        assert!(nc < rc, "{nc} vs {rc}");
        assert!(rc < gr, "{rc} vs {gr}");
    }

    #[test]
    fn target_validation_rejects_every_degenerate_component() {
        assert_eq!(Target::new(0, 4, 1e6, 1), Err(TargetError::NoDataNodes));
        assert_eq!(Target::new(2, 0, 1e6, 1), Err(TargetError::NoComputeNodes));
        assert_eq!(Target::new(2, 4, 0.0, 1), Err(TargetError::InvalidBandwidth));
        assert_eq!(Target::new(2, 4, -1e6, 1), Err(TargetError::InvalidBandwidth));
        assert_eq!(Target::new(2, 4, f64::NAN, 1), Err(TargetError::InvalidBandwidth));
        assert_eq!(Target::new(2, 4, f64::INFINITY, 1), Err(TargetError::InvalidBandwidth));
        assert_eq!(Target::new(2, 4, 1e6, 0), Err(TargetError::EmptyDataset));
        assert!(Target::new(2, 4, 1e6, 1).is_ok());
    }

    #[test]
    fn t_ro_does_not_underflow_on_zero_compute_nodes() {
        // Regression: `compute_nodes - 1` underflowed to usize::MAX and
        // predicted ~1.8e19 senders.
        let p = profile();
        let t = Target { data_nodes: 1, compute_nodes: 0, wan_bw: 1e6, dataset_bytes: 1_000_000 };
        assert_eq!(predict_t_ro(&p, &t, RObjSizeClass::Constant, &ic()), 0.0);
    }

    #[test]
    fn try_predict_rejects_degenerate_targets() {
        let predictor = ExecTimePredictor {
            profile: profile(),
            classes: AppClasses::CONSTANT_LINEAR_CONSTANT,
            interconnect: ic(),
            model: ComputeModel::GlobalReduction,
        };
        let bad = Target { data_nodes: 0, compute_nodes: 4, wan_bw: 1e6, dataset_bytes: 1 };
        assert_eq!(predictor.try_predict(&bad), Err(TargetError::NoDataNodes));
        let good = identity();
        let p = predictor.try_predict(&good).expect("valid target");
        assert!(p.total().is_finite());
    }

    #[test]
    #[should_panic(expected = "degenerate target")]
    fn predict_panics_loudly_instead_of_returning_infinity() {
        let predictor = ExecTimePredictor {
            profile: profile(),
            classes: AppClasses::CONSTANT_LINEAR_CONSTANT,
            interconnect: ic(),
            model: ComputeModel::GlobalReduction,
        };
        predictor.predict(&Target {
            data_nodes: 2,
            compute_nodes: 4,
            wan_bw: 0.0,
            dataset_bytes: 1_000_000,
        });
    }

    #[test]
    fn predictor_assembles_components() {
        let p = profile();
        let predictor = ExecTimePredictor {
            profile: p.clone(),
            classes: AppClasses::CONSTANT_LINEAR_CONSTANT,
            interconnect: ic(),
            model: ComputeModel::NoComm,
        };
        let t = identity();
        let pred = predictor.predict(&t);
        assert!((pred.total() - p.total()).abs() < 1e-9);
    }

    proptest! {
        /// Monotonicity: more of any resource never predicts more time;
        /// more data never predicts less.
        #[test]
        fn predictions_are_monotone(
            n1 in 1usize..16, n2 in 1usize..16,
            c_extra in 0usize..16,
            bw1 in 1e5f64..1e7, bw2 in 1e5f64..1e7,
            s1 in 1u64..100, s2 in 1u64..100,
        ) {
            let p = profile();
            let mk = |n: usize, bw: f64, s: u64| Target {
                data_nodes: n,
                compute_nodes: n + c_extra,
                wan_bw: bw,
                dataset_bytes: s * 1_000_000,
            };
            // More storage nodes, same everything else.
            let (lo, hi) = (n1.min(n2), n1.max(n2));
            prop_assert!(
                predict_disk(&p, &mk(hi, bw1, s1)) <= predict_disk(&p, &mk(lo, bw1, s1)) + 1e-9
            );
            // More bandwidth.
            let (b_lo, b_hi) = (bw1.min(bw2), bw1.max(bw2));
            prop_assert!(
                predict_network(&p, &mk(n1, b_hi, s1))
                    <= predict_network(&p, &mk(n1, b_lo, s1)) + 1e-9
            );
            // More data.
            let (s_lo, s_hi) = (s1.min(s2), s1.max(s2));
            let classes = AppClasses::LINEAR_CONSTANT_LINEAR;
            prop_assert!(
                predict_compute(&p, &mk(n1, bw1, s_lo), ComputeModel::GlobalReduction, classes, &ic())
                    <= predict_compute(&p, &mk(n1, bw1, s_hi), ComputeModel::GlobalReduction, classes, &ic())
                        + 1e-9
            );
        }

        /// The gather cost grows with the node count for constant objects
        /// and stays bounded for linear objects at fixed s.
        #[test]
        fn gather_scaling_by_class(c in 2usize..64) {
            let p = profile();
            let t1 = Target { data_nodes: 1, compute_nodes: c, wan_bw: 1e6, dataset_bytes: 1_000_000 };
            let t2 = Target { data_nodes: 1, compute_nodes: c * 2, wan_bw: 1e6, dataset_bytes: 1_000_000 };
            let constant_growth = predict_t_ro(&p, &t2, RObjSizeClass::Constant, &ic())
                / predict_t_ro(&p, &t1, RObjSizeClass::Constant, &ic());
            // Constant objects: gather roughly doubles with c.
            prop_assert!((constant_growth - (2 * c - 1) as f64 / (c - 1) as f64).abs() < 1e-9);
        }
    }
}
