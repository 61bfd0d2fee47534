//! Mid-run replica re-selection: §3's allocation loop, re-entered when
//! the WAN misbehaves.
//!
//! The paper selects a (replica, configuration) pair once, up front,
//! from predicted execution times. Under fault injection the premise of
//! that choice can collapse mid-run — a degradation window throttles
//! the chosen replica's WAN path, or its repository loses nodes. The
//! [`ReselectionController`] closes the loop: it feeds every observed
//! per-pass bandwidth into a [`BandwidthEstimator`](crate::bandwidth),
//! and when the estimate deviates from the replica's nominal bandwidth
//! by more than a threshold, it re-ranks the surviving candidate
//! replicas via [`rank_deployments`](crate::rank_deployments) —
//! substituting the *estimated* bandwidth for every candidate using the
//! degraded path — and migrates if another replica now wins by a clear
//! margin.
//!
//! The margin is hysteresis: predictions are approximate, so flapping
//! between near-equal replicas would pay migration overhead for noise.

use crate::bandwidth::BandwidthEstimator;
use crate::classes::AppClasses;
use crate::hetero::ScalingFactors;
use crate::predictor::{AnalyticalPredictor, Predictor};
use crate::profile::Profile;
use crate::selection::try_rank_deployments_with;
use fg_cluster::Deployment;
use fg_middleware::{PassAction, PassController, PassObservation};
use std::collections::HashMap;
use std::sync::Arc;

/// A [`PassController`] that re-runs replica selection when observed
/// bandwidth drifts from the current replica's nominal value.
pub struct ReselectionController {
    profile: Profile,
    classes: AppClasses,
    replicas: Vec<Deployment>,
    dataset_bytes: u64,
    factors: HashMap<String, ScalingFactors>,
    estimator: Box<dyn BandwidthEstimator>,
    predictor: Arc<dyn Predictor>,
    deviation_threshold: f64,
    improvement_margin: f64,
    migrations: usize,
}

impl ReselectionController {
    /// A controller choosing among `replicas` (each a full candidate
    /// deployment; all must share the running compute site). Re-ranking
    /// triggers when `|estimate - nominal| / nominal` exceeds 25%, and a
    /// challenger must predict at least 10% cheaper than the current
    /// replica to win; tune with [`Self::with_thresholds`].
    pub fn new(
        profile: Profile,
        classes: AppClasses,
        replicas: Vec<Deployment>,
        dataset_bytes: u64,
        factors: HashMap<String, ScalingFactors>,
        estimator: Box<dyn BandwidthEstimator>,
    ) -> ReselectionController {
        assert!(!replicas.is_empty(), "re-selection needs candidate replicas");
        ReselectionController {
            profile,
            classes,
            replicas,
            dataset_bytes,
            factors,
            estimator,
            predictor: Arc::new(AnalyticalPredictor),
            deviation_threshold: 0.25,
            improvement_margin: 0.10,
            migrations: 0,
        }
    }

    /// Re-rank candidates through `pred` instead of the default
    /// [`AnalyticalPredictor`].
    pub fn with_predictor(mut self, pred: Arc<dyn Predictor>) -> ReselectionController {
        self.predictor = pred;
        self
    }

    /// Override the deviation trigger and the migration hysteresis
    /// margin (both relative, `>= 0`).
    pub fn with_thresholds(mut self, deviation: f64, margin: f64) -> ReselectionController {
        assert!(deviation >= 0.0 && margin >= 0.0);
        self.deviation_threshold = deviation;
        self.improvement_margin = margin;
        self
    }

    /// How many migrations this controller has requested.
    pub fn migrations(&self) -> usize {
        self.migrations
    }
}

impl PassController for ReselectionController {
    fn after_pass(&mut self, obs: &PassObservation, current: &Deployment) -> PassAction {
        // Cached passes see no WAN traffic: nothing to learn, nothing to
        // gain from moving.
        let Some(bw) = obs.observed_wan_bw else {
            return PassAction::Continue;
        };
        self.estimator.observe(bw);
        if obs.finished {
            return PassAction::Continue;
        }
        let nominal = current.wan.stream_bw;
        let estimate = self.estimator.estimate();
        if nominal <= 0.0 || (estimate - nominal).abs() / nominal <= self.deviation_threshold {
            return PassAction::Continue;
        }

        // Re-rank with the estimated achievable bandwidth substituted on
        // every candidate that would ride the degraded path.
        let adjusted: Vec<Deployment> = self
            .replicas
            .iter()
            .map(|d| {
                let mut d = d.clone();
                if d.repository.name == current.repository.name {
                    d.wan.stream_bw = estimate;
                }
                d
            })
            .collect();
        let ranked = try_rank_deployments_with(
            self.predictor.as_ref(),
            &self.profile,
            self.classes,
            &adjusted,
            self.dataset_bytes,
            &self.factors,
        )
        .unwrap_or_else(|e| panic!("{e}"));
        let best = &ranked[0];
        if best.deployment.repository.name == current.repository.name {
            return PassAction::Continue;
        }
        let current_cost = ranked
            .iter()
            .find(|cand| cand.deployment.repository.name == current.repository.name)
            .map(|cand| cand.cost());
        match current_cost {
            Some(cur) if best.cost() < cur * (1.0 - self.improvement_margin) => {
                self.migrations += 1;
                // Migrate to the winner at its *nominal* description —
                // the estimate belongs to the path we are leaving.
                let target = self
                    .replicas
                    .iter()
                    .find(|d| d.repository.name == best.deployment.repository.name)
                    .expect("winner came from the candidate set")
                    .clone();
                PassAction::Migrate(Box::new(target))
            }
            _ => PassAction::Continue,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::LastValue;
    use fg_cluster::{ComputeSite, Configuration, RepositorySite, Wan};
    use fg_sim::SimTime;

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

    fn replica(repo_name: &str, wan_bw: f64) -> Deployment {
        Deployment::new(
            RepositorySite::pentium_repository(repo_name, 8),
            ComputeSite::pentium_myrinet("cs", 16),
            Wan::per_stream(wan_bw),
            Configuration::new(2, 4),
        )
    }

    fn controller() -> ReselectionController {
        ReselectionController::new(
            profile(),
            AppClasses::CONSTANT_LINEAR_CONSTANT,
            vec![replica("primary", 1e6), replica("backup", 8e5)],
            1_000_000,
            HashMap::new(),
            Box::new(LastValue::default()),
        )
    }

    fn obs(pass_idx: usize, bw: Option<f64>) -> PassObservation {
        PassObservation {
            pass_idx,
            elapsed: SimTime::ZERO,
            remote: bw.is_some(),
            observed_wan_bw: bw,
            finished: false,
        }
    }

    #[test]
    fn nominal_bandwidth_never_triggers_migration() {
        let mut c = controller();
        let cur = replica("primary", 1e6);
        for i in 0..5 {
            assert!(matches!(c.after_pass(&obs(i, Some(1e6)), &cur), PassAction::Continue));
        }
        assert_eq!(c.migrations(), 0);
    }

    #[test]
    fn collapsed_bandwidth_migrates_to_the_healthy_replica() {
        let mut c = controller();
        let cur = replica("primary", 1e6);
        // Primary's path collapses to a tenth of nominal: the backup's
        // slower-but-honest 0.8 MB/s now predicts cheaper.
        let action = c.after_pass(&obs(0, Some(1e5)), &cur);
        match action {
            PassAction::Migrate(d) => {
                assert_eq!(d.repository.name, "backup");
                // Nominal description, not the degraded estimate.
                assert_eq!(d.wan.stream_bw, 8e5);
            }
            PassAction::Continue => panic!("expected migration"),
        }
        assert_eq!(c.migrations(), 1);
    }

    #[test]
    fn small_deviation_stays_put() {
        // 10% down is inside the 25% deviation band.
        let mut c = controller();
        let cur = replica("primary", 1e6);
        assert!(matches!(c.after_pass(&obs(0, Some(9e5)), &cur), PassAction::Continue));
    }

    #[test]
    fn hysteresis_margin_blocks_marginal_wins() {
        // Degraded enough to trigger re-ranking, but the backup's
        // prediction is not 10% better: stay.
        let mut c = ReselectionController::new(
            profile(),
            AppClasses::CONSTANT_LINEAR_CONSTANT,
            vec![replica("primary", 1e6), replica("backup", 8e5)],
            1_000_000,
            HashMap::new(),
            Box::new(LastValue::default()),
        )
        .with_thresholds(0.25, 10.0); // absurd margin: nothing ever wins
        let cur = replica("primary", 1e6);
        assert!(matches!(c.after_pass(&obs(0, Some(1e5)), &cur), PassAction::Continue));
        assert_eq!(c.migrations(), 0);
    }

    #[test]
    fn cached_passes_are_ignored() {
        let mut c = controller();
        let cur = replica("primary", 1e6);
        assert!(matches!(c.after_pass(&obs(1, None), &cur), PassAction::Continue));
    }

    /// Run a controller against a stream of observed bandwidths the way
    /// a scheduler feeding back load-degraded transfer rates would:
    /// every observation lands on whichever replica is current, and a
    /// `Migrate` switches the current replica before the next sample.
    fn drive(mut c: ReselectionController, samples: &[f64]) -> usize {
        let mut current = replica("primary", 1e6);
        for (i, &bw) in samples.iter().enumerate() {
            if let PassAction::Migrate(d) = c.after_pass(&obs(i, Some(bw)), &current) {
                current = *d;
            }
        }
        c.migrations()
    }

    #[test]
    fn hysteresis_prevents_flapping_between_near_equal_replicas() {
        // Two replicas whose nominal paths differ by ~10%: under a load
        // oscillating the observed bandwidth between 0.85 and 0.95 MB/s,
        // each sample flips which replica predicts cheapest — but only
        // by a percent or two, squarely inside the noise band.
        let replicas = vec![replica("primary", 1e6), replica("backup", 9e5)];
        let samples: Vec<f64> = (0..12).map(|i| if i % 2 == 0 { 8.5e5 } else { 9.5e5 }).collect();
        // A zero deviation threshold re-ranks on every sample (the
        // scheduler-feedback regime); with no margin the controller
        // chases every flip and flaps between the replicas.
        let eager = ReselectionController::new(
            profile(),
            AppClasses::CONSTANT_LINEAR_CONSTANT,
            replicas.clone(),
            1_000_000,
            HashMap::new(),
            Box::new(LastValue::default()),
        )
        .with_thresholds(0.0, 0.0);
        assert!(
            drive(eager, &samples) >= 3,
            "margin-free controller should flap on alternating samples"
        );
        // The default 10% improvement margin absorbs the oscillation:
        // no candidate ever wins by enough to justify moving.
        let damped = ReselectionController::new(
            profile(),
            AppClasses::CONSTANT_LINEAR_CONSTANT,
            replicas,
            1_000_000,
            HashMap::new(),
            Box::new(LastValue::default()),
        )
        .with_thresholds(0.0, 0.10);
        assert_eq!(drive(damped, &samples), 0, "hysteresis must hold placement steady");
    }
}
