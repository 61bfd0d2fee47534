//! The pluggable prediction seam: a [`Predictor`] trait every scheduler
//! placement, admission, and migration call site prices deployments
//! through, with the paper's closed-form model as the default impl.
//!
//! The paper's `T_exec = T_disk + T_net + T_comp` model is one point in
//! a design space: Vazhkudai & Schopf show regression over observed
//! transfer histories beating analytical bandwidth models, and the
//! Seneviratne taxonomy frames analytical and learned predictors as
//! interchangeable components of one prediction system. This module is
//! that interchange point. [`AnalyticalPredictor`] delegates to
//! [`try_predict_deployment`], so the default path is bit-identical to
//! the pre-trait concrete calls by construction; learned predictors
//! (the `fg-learn` crate) implement the same contract and additionally
//! consume [`Observation`]s fed back by the scheduler on every clean
//! job completion.
//!
//! # Two steps: prepare, then price
//!
//! The model is separable — every component is a term fixed by
//! (application, repository, site, `ŝ`) times a term in `(n̂, ĉ, b̂)` —
//! and resource selection enumerates many `(n̂, ĉ, b̂)` per pair. So a
//! scan does not call [`Predictor::predict_deployment`] per candidate;
//! it calls [`Predictor::with_prepared`] once per (repository, site)
//! pair with a [`SiteQuery`], and the predictor hands back a [`Price`]:
//!
//! * **prepare** may resolve anything the query fixes: `ŝ/s`, the
//!   scalable compute remainder, the interconnect parameters, the
//!   cross-cluster factors, and — for a stateful predictor — the key's
//!   model, *copied out*. A stateful predictor takes its lock here, once,
//!   and releases it before the scan's closure runs: no lock is held
//!   while the scan prices, so a scan never blocks `observe`, and every
//!   price taken from one preparation comes from one model version.
//! * **price** must be a pure function of the preparation and
//!   `(Configuration, stream_bw)`, and must return exactly what
//!   `predict_deployment` would for the same candidate under the model
//!   the preparation captured — same bits, same typed rejection.
//!
//! The provided `with_prepared` hands the scan an adapter that calls
//! `predict_deployment` once per priced candidate. It exists so a
//! predictor that implements only the one-shot method — a wrapper that
//! counts or stamps calls, a quick experiment — is priced correctly
//! without knowing about preparations; it saves nothing.
//!
//! # Determinism contract
//!
//! Implementations must be pure functions of their internal state: the
//! same state and arguments must yield bit-identical [`Prediction`]s.
//! State may only change through [`Predictor::observe`], and any change
//! that can alter a future prediction must bump [`Predictor::epoch`],
//! so a caller holding a price (a quote, a preparation, a ranking) can
//! tell whether the model has moved under it. Wall clocks and unseeded
//! randomness are forbidden for the same reason they are everywhere
//! else in this repository.

use crate::classes::AppClasses;
use crate::hetero::ScalingFactors;
use crate::model::Prediction;
use crate::profile::Profile;
use crate::selection::{prepare, try_predict_deployment, SelectionError, SiteQuery};
use fg_cluster::{Configuration, DeploymentRef};
use std::collections::HashMap;
use std::sync::Arc;

/// One labelled sample from a completed job: the target tuple the
/// prediction was made for, what was predicted, and what was observed.
///
/// The scheduler builds one per *clean* completion — no preemptions, no
/// mid-run migration, no feedback suppression — mirroring the accuracy
/// ledger's sampling rule, and feeds it to the active predictor when
/// [`Predictor::wants_observations`] is set. Components are ordered
/// `[disk, network, compute]` in seconds, like the ledger's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// Application name (the profile's `app`), shared with the
    /// scheduler's name table.
    pub app: Arc<str>,
    /// Repository (replica site) the job streamed from.
    pub repo: Arc<str>,
    /// Data-host nodes in the placed configuration.
    pub data_nodes: usize,
    /// Compute nodes in the placed configuration.
    pub compute_nodes: usize,
    /// Per-stream WAN bandwidth the prediction was priced at, bytes/s.
    pub wan_bw: f64,
    /// Dataset size, bytes.
    pub dataset_bytes: u64,
    /// Predicted `[disk, network, compute]` times, seconds — what the
    /// *active* predictor said at placement time.
    pub predicted: [f64; 3],
    /// Observed `[disk, network, compute]` times, seconds.
    pub observed: [f64; 3],
}

/// A pluggable execution-time predictor for candidate deployments.
///
/// The contract mirrors [`try_predict_deployment`]: price one
/// `(replica, site, configuration)` candidate for `profile`'s
/// application at `dataset_bytes`, or explain why it cannot be priced.
/// Implementations must uphold the module-level determinism contract.
pub trait Predictor: Send + Sync + std::fmt::Debug {
    /// A short stable name for figures and diagnostics.
    fn name(&self) -> &'static str;

    /// Predict the execution-time breakdown of one candidate
    /// deployment, or return the same typed rejection the analytical
    /// path would (degenerate targets and unknown machines are
    /// unpredictable under *any* model — there is nothing to learn
    /// from a target that validation refuses).
    fn predict_deployment(
        &self,
        profile: &Profile,
        classes: AppClasses,
        d: DeploymentRef<'_>,
        dataset_bytes: u64,
        factors: &HashMap<String, ScalingFactors>,
    ) -> Result<Prediction, SelectionError>;

    /// Price every candidate of one (repository, site) pair: resolve
    /// what `q` fixes, then call `scan` once with the [`Price`] its
    /// candidates are priced from (see the module docs for the
    /// contract). The default prices each candidate with a
    /// [`Predictor::predict_deployment`] call.
    fn with_prepared(&self, q: &SiteQuery<'_>, scan: &mut dyn FnMut(&dyn Price)) {
        scan(&PerCandidate { pred: self, q })
    }

    /// Monotone state-version counter. Must change whenever internal
    /// state changes in a way that can alter a future prediction: two
    /// prices taken under one epoch came from one model. Nothing in the
    /// scheduler caches on it today (a scan re-prices every query); it
    /// is how a test, a diagnostic or a future cache tells model
    /// versions apart. Stateless predictors keep the default constant
    /// `0`.
    fn epoch(&self) -> u64 {
        0
    }

    /// Whether the scheduler should feed this predictor completion
    /// [`Observation`]s. Stateless predictors leave this `false` so
    /// the default path does no per-completion work.
    fn wants_observations(&self) -> bool {
        false
    }

    /// Fold one completed-job observation into internal state. Takes
    /// `&self` so trained predictors can live behind an `Arc` shared
    /// between a scheduler core and its snapshots; implementations use
    /// interior mutability and must bump [`Predictor::epoch`] if the
    /// observation changed anything.
    fn observe(&self, _obs: &Observation) {}
}

/// The candidates of one prepared (repository, site) pair, priced.
pub trait Price {
    /// The execution-time breakdown of the pair's deployment with
    /// `config` at per-stream bandwidth `stream_bw`, or the typed
    /// rejection [`Predictor::predict_deployment`] gives for it.
    fn price(&self, config: Configuration, stream_bw: f64) -> Result<Prediction, SelectionError>;
}

/// The provided [`Predictor::with_prepared`]: nothing prepared, one
/// `predict_deployment` call per price.
struct PerCandidate<'a, P: ?Sized> {
    pred: &'a P,
    q: &'a SiteQuery<'a>,
}

impl<P: Predictor + ?Sized> Price for PerCandidate<'_, P> {
    fn price(&self, config: Configuration, stream_bw: f64) -> Result<Prediction, SelectionError> {
        let q = self.q;
        self.pred.predict_deployment(
            q.profile,
            q.classes,
            q.deployment(config, stream_bw),
            q.dataset_bytes,
            q.factors,
        )
    }
}

/// The paper's closed-form model behind the [`Predictor`] seam.
///
/// Delegates to [`try_predict_deployment`] and [`prepare`] verbatim, so
/// every caller refactored onto the trait produces bit-identical
/// predictions, rankings, and schedules when this (the default)
/// predictor is active. Stateless: `epoch` is constant and observations
/// are declined.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalyticalPredictor;

impl Predictor for AnalyticalPredictor {
    fn name(&self) -> &'static str {
        "analytical"
    }

    fn predict_deployment(
        &self,
        profile: &Profile,
        classes: AppClasses,
        d: DeploymentRef<'_>,
        dataset_bytes: u64,
        factors: &HashMap<String, ScalingFactors>,
    ) -> Result<Prediction, SelectionError> {
        try_predict_deployment(profile, classes, d, dataset_bytes, factors)
    }

    fn with_prepared(&self, q: &SiteQuery<'_>, scan: &mut dyn FnMut(&dyn Price)) {
        scan(&prepare(q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_cluster::{ComputeSite, Configuration, Deployment, RepositorySite, Wan};

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

    #[test]
    fn analytical_impl_is_bit_identical_to_the_concrete_path() {
        let repo = RepositorySite::pentium_repository("osu", 8);
        let site = ComputeSite::pentium_myrinet("cs", 16);
        let factors = HashMap::new();
        let pred = AnalyticalPredictor;
        for &(n, c) in &[(1usize, 1usize), (1, 2), (2, 4), (4, 8), (8, 16)] {
            for &bw in &[1e5, 8e5, 1e6, 4e6] {
                for &bytes in &[1u64 << 20, 200 << 20, 3200 << 20] {
                    let d = Deployment::new(
                        repo.clone(),
                        site.clone(),
                        Wan::per_stream(bw),
                        Configuration::new(n, c),
                    );
                    let concrete = try_predict_deployment(
                        &profile(),
                        AppClasses::CONSTANT_LINEAR_CONSTANT,
                        d.as_ref(),
                        bytes,
                        &factors,
                    )
                    .unwrap();
                    let via_trait = pred
                        .predict_deployment(
                            &profile(),
                            AppClasses::CONSTANT_LINEAR_CONSTANT,
                            d.as_ref(),
                            bytes,
                            &factors,
                        )
                        .unwrap();
                    assert_eq!(concrete.t_disk.to_bits(), via_trait.t_disk.to_bits());
                    assert_eq!(concrete.t_network.to_bits(), via_trait.t_network.to_bits());
                    assert_eq!(concrete.t_compute.to_bits(), via_trait.t_compute.to_bits());
                }
            }
        }
    }

    #[test]
    fn analytical_impl_propagates_typed_rejections() {
        let repo = RepositorySite::pentium_repository("osu", 8);
        let site = ComputeSite::pentium_myrinet("cs", 16);
        let d = Deployment::new(repo, site, Wan::per_stream(1e6), Configuration::new(1, 1));
        let err = AnalyticalPredictor
            .predict_deployment(
                &profile(),
                AppClasses::CONSTANT_LINEAR_CONSTANT,
                d.as_ref(),
                0,
                &HashMap::new(),
            )
            .unwrap_err();
        assert!(matches!(err, SelectionError::Unpredictable { .. }));
    }

    #[test]
    fn analytical_impl_is_stateless() {
        let pred = AnalyticalPredictor;
        assert_eq!(pred.epoch(), 0);
        assert!(!pred.wants_observations());
        pred.observe(&Observation {
            app: "kmeans".into(),
            repo: "osu".into(),
            data_nodes: 1,
            compute_nodes: 1,
            wan_bw: 1e6,
            dataset_bytes: 1 << 20,
            predicted: [1.0, 2.0, 3.0],
            observed: [1.5, 2.5, 3.5],
        });
        assert_eq!(pred.epoch(), 0);
        assert_eq!(pred.name(), "analytical");
    }
}
