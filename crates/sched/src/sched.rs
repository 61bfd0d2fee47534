//! The sim-clock scheduling core.
//!
//! A fluid event loop on a seconds clock: job arrivals, phase
//! transitions, and completions are the only events. Placement ranks
//! every (repository, site, configuration) triple that fits the free
//! node slices with `fg-predict`'s fallible ranking — a misconfigured
//! candidate is skipped, never fatal. Each placed job runs the paper's
//! three phases in sequence, as the additive model describes them:
//!
//! * **disk** — a fixed interval of the predicted `t_d`;
//! * **network** — a fluid demand of the dataset's bytes at rate cap
//!   `s / t_n` (so an uncontended transfer takes exactly the predicted
//!   `t_n`), routed through a max-min fair share
//!   ([`fg_sim::FairShareSim::fair_rates`]) of the repository uplink
//!   and site ingress capacities — concurrent transfers stretch;
//! * **compute** — a fixed interval of the predicted `t_c`.
//!
//! Every completed transfer's achieved per-stream bandwidth feeds a
//! per-repository EWMA estimator (`fg-predict::bandwidth`), and all
//! later placements and admission estimates substitute the estimate for
//! that repository's nominal bandwidth — the load-correction feedback
//! loop.
//!
//! Compute slots are shared max-min fairly *across tenants*: a
//! scheduling pass first serves jobs whose tenant sits under its
//! water-filled slot quota, and only backfilling policies may then
//! start jobs beyond quota (and only when no under-quota start is
//! possible, so fairness never costs work conservation). Violations of
//! either property are recorded on the result rather than silently
//! dropped.

use crate::core::{SchedCore, TIME_EPS};
use crate::grid::GridSpec;
use crate::policy::Policy;
use crate::telemetry::{TelemetryConfig, TelemetryReport};
use crate::workload::JobSpec;
use fg_predict::{AnalyticalPredictor, Predictor};
use fg_trace::Trace;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A per-tenant token-bucket admission quota: each submission spends one
/// token; the bucket refills continuously up to `capacity`. A tenant
/// with no tokens left has its jobs rejected at arrival — they never
/// occupy the grid. `capacity == 0` starves the tenant entirely.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TenantQuota {
    /// Maximum tokens the bucket holds.
    pub capacity: f64,
    /// Tokens regained per second.
    pub refill_per_sec: f64,
}

/// One preemption of a running job: evicted at `preempted_at`, back on
/// the grid at `resumed_at` (`None` if the run ended first).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PreemptionEvent {
    /// When the job was checkpointed and evicted.
    pub preempted_at: f64,
    /// When it re-occupied its nodes.
    pub resumed_at: Option<f64>,
}

/// A mid-run replica migration: the job's remaining transfer switched
/// repositories over `[at, until]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigrationEvent {
    /// When the checkpoint was taken and the switch began.
    pub at: f64,
    /// When the transfer resumed on the new replica.
    pub until: f64,
    /// Repository the job was fetching from.
    pub from_repo: Arc<str>,
    /// Repository it fetches from afterwards.
    pub to_repo: Arc<str>,
}

/// Mid-run migration (see [`Scheduler::with_migration`]) runs the
/// cost model only when a transfer has moved less than
/// `1 - MIGRATION_DEVIATION` of the bytes the fluid model's
/// contention-adjusted expectation says it should have. Fair-share
/// stretching from modeled link contention is part of the expectation,
/// so a run with stable bandwidth never trips the trigger. The threshold
/// mirrors `fg-predict`'s `ReselectionController` hysteresis.
pub const MIGRATION_DEVIATION: f64 = 0.25;

/// Relative improvement a migration must clear after paying
/// `T̂_migrate` (hysteresis).
pub const MIGRATION_MARGIN: f64 = 0.10;

/// Checkpoint-and-switch pause charged to a migrating job, seconds.
pub const MIGRATION_OVERHEAD_SECS: f64 = 0.5;

/// Transfers younger than this are not checked for migration: one fluid
/// step is not a bandwidth sample. It is also how often the event loop
/// wakes while a transfer is eligible, seconds.
pub const MIGRATION_MIN_ELAPSED_SECS: f64 = 1.0;

/// Pause a preempted job pays to restore its reduction-object checkpoint
/// when it resumes (see [`Scheduler::with_preemption`]), seconds.
pub const PREEMPTION_OVERHEAD_SECS: f64 = 2.0;

/// A sustained WAN degradation injected on one repository's paths from
/// `start` onwards (transfer rate caps scale by `factor`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Degradation {
    /// Repository index in the grid.
    pub repo: usize,
    /// Onset instant, seconds.
    pub start: f64,
    /// Bandwidth multiplier in `(0, 1]`.
    pub factor: f64,
}

/// Where a job ran. The three names are the core's own, shared by
/// reference count with every other job placed there.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementInfo {
    /// Repository index in the grid.
    pub repo: usize,
    /// Compute-site index in the grid.
    pub site: usize,
    /// Repository name.
    pub repo_name: Arc<str>,
    /// Site name.
    pub site_name: Arc<str>,
    /// Configuration label, `n-c`.
    pub config: Arc<str>,
    /// Data nodes held for the job's lifetime.
    pub data_nodes: usize,
    /// Compute nodes held for the job's lifetime.
    pub compute_nodes: usize,
}

/// Everything that happened to one submitted job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobOutcome {
    /// Submission id.
    pub id: usize,
    /// Tenant index.
    pub tenant: usize,
    /// Application name: the core's own copy when the grid models the
    /// app, the submitted one otherwise.
    pub app: Arc<str>,
    /// Arrival instant (seconds).
    pub arrival: f64,
    /// Logical dataset size.
    pub dataset_bytes: u64,
    /// False when the job was rejected (admission control, unknown app,
    /// or no feasible placement exists even on an empty grid).
    pub admitted: bool,
    /// Why the job was rejected, when it was.
    pub reject_reason: Option<String>,
    /// Standalone predicted execution time: best placement on an empty
    /// grid at nominal bandwidth. The baseline for slowdown and
    /// deadlines.
    pub standalone: Option<f64>,
    /// Deadline instant: arrival plus slack times standalone.
    pub deadline: Option<f64>,
    /// Predicted completion instant at submission (backlog estimate
    /// plus load-corrected execution prediction).
    pub admission_estimate: Option<f64>,
    /// Where the job ran.
    pub placement: Option<PlacementInfo>,
    /// When the job left the queue and occupied its nodes.
    pub placed_at: Option<f64>,
    /// Predicted execution time of the chosen placement, at placement
    /// time (load-corrected bandwidth).
    pub predicted: Option<f64>,
    /// End of the disk phase.
    pub disk_end: Option<f64>,
    /// End of the (possibly stretched) network phase.
    pub network_end: Option<f64>,
    /// Completion instant.
    pub finish: Option<f64>,
    /// Times the job was checkpointed off the grid for a
    /// tighter-deadline arrival (empty unless preemption is enabled).
    pub preemptions: Vec<PreemptionEvent>,
    /// The mid-run replica migration, when one happened.
    pub migration: Option<MigrationEvent>,
}

impl JobOutcome {
    /// The row a job enters the core's job table as: the submission's
    /// own facts under the shared `app` name, every decision still to
    /// fall.
    pub(crate) fn submitted(job: &JobSpec, app: Arc<str>) -> JobOutcome {
        JobOutcome {
            id: job.id,
            tenant: job.tenant,
            app,
            arrival: job.arrival,
            dataset_bytes: job.dataset_bytes,
            admitted: false,
            reject_reason: None,
            standalone: None,
            deadline: None,
            admission_estimate: None,
            placement: None,
            placed_at: None,
            predicted: None,
            disk_end: None,
            network_end: None,
            finish: None,
            preemptions: Vec::new(),
            migration: None,
        }
    }

    /// Queue wait: placement minus arrival.
    pub fn wait(&self) -> Option<f64> {
        Some(self.placed_at? - self.arrival)
    }

    /// Turnaround: completion minus arrival.
    pub fn turnaround(&self) -> Option<f64> {
        Some(self.finish? - self.arrival)
    }

    /// Slowdown: turnaround over the standalone prediction (`>= 1` up
    /// to prediction error; 1 means "as if alone on an idle grid").
    /// A degenerate zero-duration standalone (empty dataset, free
    /// compute) is clamped so the ratio stays finite.
    pub fn slowdown(&self) -> Option<f64> {
        Some(self.turnaround()? / self.standalone?.max(TIME_EPS))
    }

    /// Did the job complete by its deadline?
    pub fn met_deadline(&self) -> Option<bool> {
        Some(self.finish? <= self.deadline? + TIME_EPS)
    }

    /// Relative error of the submission-time completion estimate,
    /// normalized by the achieved turnaround.
    pub fn completion_error(&self) -> Option<f64> {
        let turnaround = self.turnaround()?;
        Some((self.finish? - self.admission_estimate?).abs() / turnaround.max(TIME_EPS))
    }
}

/// A scheduler run's full result.
#[derive(Debug)]
pub struct SchedResult {
    /// One outcome per submitted job, in submission order: the order
    /// of [`SchedCore::submit`] calls, or of [`Scheduler::run`]'s input
    /// slice (which need not be sorted by id or arrival).
    pub outcomes: Vec<JobOutcome>,
    /// The span tree (one `Job` span per job, phase children) plus the
    /// metrics snapshot (queue depth, admission counters, wait and
    /// slowdown histograms).
    pub trace: Trace,
    /// Last completion instant (0 for an empty workload).
    pub makespan: f64,
    /// Fairness or work-conservation invariant violations detected
    /// during the run (empty on a healthy run).
    pub violations: Vec<String>,
    /// The telemetry plane at drain time — SLO gauges, drift
    /// statistics, and the full accuracy ledger. `None` unless the run
    /// was armed with [`Scheduler::with_telemetry`].
    pub telemetry: Option<TelemetryReport>,
}

/// The multi-tenant scheduler: a grid, a policy, and an EWMA smoothing
/// factor for the bandwidth feedback loop. Preemption, mid-run
/// migration, token-bucket quotas, and bandwidth-degradation injection
/// are all off unless enabled through the builder methods, and a
/// default-configured scheduler behaves bit-identically to earlier
/// releases.
#[derive(Clone)]
pub struct Scheduler {
    pub(crate) grid: Arc<GridSpec>,
    pub(crate) policy: Policy,
    pub(crate) ewma_alpha: f64,
    pub(crate) quotas: Option<Vec<TenantQuota>>,
    pub(crate) preemption: bool,
    pub(crate) migration: bool,
    pub(crate) degradations: Vec<Degradation>,
    pub(crate) telemetry: Option<TelemetryConfig>,
    pub(crate) predictor: Arc<dyn Predictor>,
}

impl Scheduler {
    /// A scheduler over `grid` applying `policy`, with the default
    /// EWMA smoothing factor of 0.3 for observed bandwidths.
    pub fn new(grid: GridSpec, policy: Policy) -> Scheduler {
        Scheduler {
            grid: Arc::new(grid),
            policy,
            ewma_alpha: 0.3,
            quotas: None,
            preemption: false,
            migration: false,
            degradations: Vec::new(),
            telemetry: None,
            predictor: Arc::new(AnalyticalPredictor),
        }
    }

    /// Price every placement, admission estimate, and migration
    /// check through `predictor` instead of the default
    /// [`AnalyticalPredictor`]. The predictor is shared (`Arc`) between
    /// the decision core and its snapshots; stateful predictors receive
    /// a completion [`Observation`](fg_predict::Observation) for every
    /// clean completion (no preemption, no migration, feedback not
    /// suppressed) when they opt in via
    /// [`Predictor::wants_observations`]. The default predictor keeps
    /// a default-configured run bit-identical to earlier releases.
    pub fn with_predictor(mut self, predictor: Arc<dyn Predictor>) -> Scheduler {
        self.predictor = predictor;
        self
    }

    /// Override the bandwidth-feedback smoothing factor.
    pub fn with_ewma_alpha(mut self, alpha: f64) -> Scheduler {
        assert!(alpha > 0.0 && alpha <= 1.0);
        self.ewma_alpha = alpha;
        self
    }

    /// Cap each tenant's submission rate with a token bucket, indexed
    /// by tenant id (tenants past the end are unlimited). A job whose
    /// bucket is empty is rejected at arrival with a `quota:` reason
    /// and never occupies the grid.
    pub fn with_quotas(mut self, quotas: Vec<TenantQuota>) -> Scheduler {
        for q in &quotas {
            assert!(q.capacity >= 0.0 && q.refill_per_sec >= 0.0, "quota terms must be >= 0");
        }
        self.quotas = Some(quotas);
        self
    }

    /// Allow a queued job with a tighter deadline to checkpoint a
    /// running job with a looser one off its nodes. The victim resumes
    /// where it stopped once nodes free up, paying
    /// [`PREEMPTION_OVERHEAD_SECS`] to restore its reduction-object
    /// checkpoint.
    pub fn with_preemption(mut self) -> Scheduler {
        self.preemption = true;
        self
    }

    /// Let running jobs switch repositories mid-transfer when the
    /// achieved bandwidth collapses and `fg-predict`'s migration
    /// cost/benefit model favors the move (thresholds:
    /// [`MIGRATION_DEVIATION`], [`MIGRATION_MARGIN`],
    /// [`MIGRATION_MIN_ELAPSED_SECS`]; pause:
    /// [`MIGRATION_OVERHEAD_SECS`]).
    pub fn with_migration(mut self) -> Scheduler {
        self.migration = true;
        self
    }

    /// Inject a sustained WAN degradation on one repository's transfer
    /// paths (for experiments; real degradations come from contention).
    pub fn with_degradation(mut self, degradation: Degradation) -> Scheduler {
        assert!(degradation.repo < self.grid.repos.len(), "degraded repo must exist");
        assert!(
            degradation.factor > 0.0 && degradation.factor <= 1.0,
            "degradation factor must be in (0, 1]"
        );
        self.degradations.push(degradation);
        self
    }

    /// Arm the live telemetry plane: per-tenant SLO gauges, windowed
    /// queue-wait quantiles, and the predictor-accuracy ledger with
    /// its drift detector. Telemetry is strictly observational — it
    /// never registers metrics in the trace registry and never touches
    /// a scheduling decision, so an armed run stays bit-identical
    /// (outcomes, trace, events) to an unarmed one. The plane comes
    /// back in [`SchedResult::telemetry`], and drift alarms surface as
    /// [`CoreEvent::DriftAlarm`] when the event log is also on.
    ///
    /// [`CoreEvent::DriftAlarm`]: crate::core::CoreEvent::DriftAlarm
    pub fn with_telemetry(mut self, config: TelemetryConfig) -> Scheduler {
        self.telemetry = Some(config);
        self
    }

    /// The telemetry configuration, when armed.
    pub fn telemetry(&self) -> Option<&TelemetryConfig> {
        self.telemetry.as_ref()
    }

    /// The grid this scheduler places jobs onto.
    pub fn grid(&self) -> &GridSpec {
        &self.grid
    }

    /// Run the event loop over a job stream (need not be sorted) and
    /// return outcomes, trace, and invariant report. Deterministic: the
    /// same grid, policy, and jobs produce a bit-identical result.
    ///
    /// Loads every job into a fresh [`SchedCore`] (rows in input order)
    /// and drains it; the configuration, grid included, is shared with
    /// the core, not copied. A job stream fed through
    /// [`SchedCore::submit`] one arrival at a time produces the same
    /// bit-identical result — arrivals bound the fluid integration
    /// horizon in both drivers, so neither ever splits a step the
    /// other took whole.
    pub fn run(&self, jobs: &[JobSpec]) -> SchedResult {
        let mut core = SchedCore::new(self.clone());
        core.submit_all(jobs);
        core.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::AppModel;
    use crate::workload::{LoadLevel, WorkloadSpec};
    use fg_cluster::Configuration;
    use fg_predict::{AppClasses, Profile};
    use fg_trace::SpanKind;

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

    fn grid() -> GridSpec {
        GridSpec::demo(vec![("kmeans".into(), model())])
    }

    fn job(id: usize, tenant: usize, bytes: u64, arrival: f64) -> JobSpec {
        JobSpec {
            id,
            tenant,
            app: "kmeans".into(),
            dataset_bytes: bytes,
            arrival,
            deadline_slack: 3.0,
        }
    }

    #[test]
    fn empty_workload_is_a_noop() {
        let r = Scheduler::new(grid(), Policy::Fcfs).run(&[]);
        assert!(r.outcomes.is_empty());
        assert_eq!(r.makespan, 0.0);
        assert!(r.violations.is_empty());
        assert_eq!(r.trace.metrics.counter("sched_jobs_submitted"), Some(0));
        r.trace.check_well_formed().unwrap();
    }

    #[test]
    fn a_lone_job_matches_its_prediction_exactly() {
        let r = Scheduler::new(grid(), Policy::Fcfs).run(&[job(0, 0, 2_000_000, 5.0)]);
        let o = &r.outcomes[0];
        assert!(o.admitted);
        assert_eq!(o.placed_at, Some(5.0));
        let predicted = o.predicted.unwrap();
        let finish = o.finish.unwrap();
        // Uncontended: the capacitated links never bind, so the fluid
        // network phase reproduces the predicted transfer time and the
        // job completes at placement + prediction.
        assert!(
            (finish - (5.0 + predicted)).abs() < 1e-6 * predicted,
            "finish {finish} vs predicted end {}",
            5.0 + predicted
        );
        assert_eq!(o.slowdown().map(|s| (s * 1e9).round() / 1e9), Some(1.0));
        assert!(r.violations.is_empty());
        r.trace.check_well_formed().unwrap();
    }

    #[test]
    fn overlapping_transfers_stretch_each_other() {
        // Two identical large jobs arriving together: both get placed
        // (plenty of nodes) and their network phases overlap on the
        // shared links, so at least one must finish later than its
        // uncontended prediction.
        let jobs = [job(0, 0, 60_000_000, 0.0), job(1, 1, 60_000_000, 0.0)];
        let r = Scheduler::new(grid(), Policy::FcfsBackfill).run(&jobs);
        let lone = Scheduler::new(grid(), Policy::FcfsBackfill).run(&[job(0, 0, 60_000_000, 0.0)]);
        let lone_finish = lone.outcomes[0].finish.unwrap();
        let worst = r.outcomes.iter().map(|o| o.finish.unwrap()).fold(0.0f64, f64::max);
        assert!(
            worst > lone_finish + 1.0,
            "contention should stretch someone: worst {worst}, lone {lone_finish}"
        );
        assert!(r.violations.is_empty());
    }

    #[test]
    fn contention_feeds_the_bandwidth_estimators() {
        // Two contended transfers stretch, degrading the repository's
        // bandwidth estimate. A third job arriving on an *idle* grid
        // afterwards is placed with a load-corrected prediction that is
        // strictly worse than the nominal standalone one — the feedback
        // loop, not queue backlog, accounts for the difference.
        let jobs = [
            job(0, 0, 60_000_000, 0.0),
            job(1, 1, 60_000_000, 0.0),
            job(2, 2, 20_000_000, 5_000.0),
        ];
        let r = Scheduler::new(grid(), Policy::FcfsBackfill).run(&jobs);
        let pair_done = r.outcomes[0].finish.unwrap().max(r.outcomes[1].finish.unwrap());
        assert!(pair_done < 5_000.0, "late job must find an idle grid ({pair_done})");
        let o = &r.outcomes[2];
        assert!(o.admitted);
        assert_eq!(o.placed_at, Some(5_000.0));
        assert!(
            o.predicted.unwrap() > o.standalone.unwrap() + 1e-9,
            "corrected prediction {:?} should exceed nominal standalone {:?}",
            o.predicted,
            o.standalone
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let jobs = WorkloadSpec::preset(LoadLevel::Heavy, &["kmeans"], 11).generate();
        for policy in Policy::ALL {
            let a = Scheduler::new(grid(), policy).run(&jobs);
            let b = Scheduler::new(grid(), policy).run(&jobs);
            assert_eq!(a.outcomes, b.outcomes, "policy {}", policy.name());
            assert_eq!(fg_trace::to_jsonl(&a.trace), fg_trace::to_jsonl(&b.trace));
        }
    }

    #[test]
    fn every_policy_preserves_the_invariants_under_load() {
        let jobs = WorkloadSpec::preset(LoadLevel::Heavy, &["kmeans"], 3).generate();
        for policy in Policy::ALL {
            let r = Scheduler::new(grid(), policy).run(&jobs);
            assert!(r.violations.is_empty(), "{}: {:?}", policy.name(), r.violations);
            r.trace.check_well_formed().unwrap_or_else(|e| panic!("{}: {e}", policy.name()));
            assert_eq!(r.outcomes.len(), jobs.len());
            for o in &r.outcomes {
                if o.admitted {
                    let finish = o.finish.expect("admitted jobs complete");
                    assert!(finish >= o.arrival);
                    assert!(o.placed_at.unwrap() >= o.arrival - 1e-9);
                } else {
                    assert!(o.reject_reason.is_some());
                    assert!(o.finish.is_none());
                }
            }
        }
    }

    #[test]
    fn admission_control_rejects_hopeless_jobs() {
        // Saturate the grid, then submit a job with a tight deadline:
        // EDF admission must turn it away while FCFS would queue it.
        let mut jobs: Vec<JobSpec> = (0..12).map(|i| job(i, i % 3, 80_000_000, 0.0)).collect();
        let mut tight = job(12, 0, 80_000_000, 1.0);
        tight.deadline_slack = 1.01;
        jobs.push(tight);
        let edf = Scheduler::new(grid(), Policy::EdfAdmit).run(&jobs);
        let o = &edf.outcomes[12];
        assert!(!o.admitted, "tight job should be rejected: {:?}", o.reject_reason);
        assert!(o.reject_reason.as_deref().unwrap().starts_with("admission"));
        let fcfs = Scheduler::new(grid(), Policy::Fcfs).run(&jobs);
        assert!(fcfs.outcomes[12].admitted);
        assert_eq!(edf.trace.metrics.counter("sched_jobs_rejected"), Some(1));
    }

    #[test]
    fn unknown_apps_are_rejected_not_fatal() {
        let mut j = job(0, 0, 1_000_000, 0.0);
        j.app = "mystery".into();
        let r = Scheduler::new(grid(), Policy::Fcfs).run(&[j]);
        assert!(!r.outcomes[0].admitted);
        assert!(r.outcomes[0].reject_reason.as_deref().unwrap().contains("unknown app"));
    }

    #[test]
    fn tenants_share_slots_max_min_fairly() {
        // One greedy tenant floods the queue; a second tenant's lone job
        // must not wait behind the entire flood under a backfilling
        // policy with fair shares.
        let mut jobs: Vec<JobSpec> = (0..10).map(|i| job(i, 0, 40_000_000, 0.0)).collect();
        jobs.push(job(10, 1, 10_000_000, 1.0));
        let r = Scheduler::new(grid(), Policy::FcfsBackfill).run(&jobs);
        let small = &r.outcomes[10];
        assert!(small.admitted);
        let flood_last_start =
            r.outcomes[..10].iter().filter_map(|o| o.placed_at).fold(0.0f64, f64::max);
        assert!(
            small.placed_at.unwrap() < flood_last_start,
            "tenant 1 should start before the flood fully drains ({} vs {})",
            small.placed_at.unwrap(),
            flood_last_start
        );
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn slowdown_stays_finite_for_zero_duration_jobs() {
        // A degenerate prediction (empty dataset, free compute) must
        // not poison the slowdown histogram with NaN or infinity.
        let mut o = JobOutcome {
            admitted: true,
            standalone: Some(0.0),
            deadline: Some(10.0),
            admission_estimate: Some(10.0),
            placed_at: Some(10.0),
            predicted: Some(0.0),
            disk_end: Some(10.0),
            network_end: Some(10.0),
            finish: Some(10.0),
            ..JobOutcome::submitted(&job(0, 0, 0, 10.0), "kmeans".into())
        };
        assert_eq!(o.turnaround(), Some(0.0));
        assert!(o.slowdown().unwrap().is_finite());
        assert!(o.completion_error().unwrap().is_finite());
        // Nonzero turnaround over a zero standalone: huge but finite.
        o.finish = Some(15.0);
        assert!(o.slowdown().unwrap().is_finite());
        assert!(o.slowdown().unwrap() > 1.0);
    }

    #[test]
    fn token_bucket_rejects_past_capacity_and_refills() {
        let quotas = vec![TenantQuota { capacity: 1.0, refill_per_sec: 0.5 }];
        let jobs =
            [job(0, 0, 1_000_000, 0.0), job(1, 0, 1_000_000, 1.0), job(2, 0, 1_000_000, 4.0)];
        let r = Scheduler::new(grid(), Policy::FcfsBackfill).with_quotas(quotas).run(&jobs);
        assert!(r.outcomes[0].admitted, "first job spends the initial token");
        assert!(!r.outcomes[1].admitted, "bucket only refilled to 0.5 by t=1");
        assert!(r.outcomes[1].reject_reason.as_deref().unwrap().starts_with("quota"));
        assert!(r.outcomes[2].admitted, "bucket refilled past 1 token by t=4");
        assert_eq!(r.trace.metrics.counter("sched_quota_rejections"), Some(1));
        assert_eq!(r.trace.metrics.counter("sched_quota_violations"), Some(0));
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn zero_quota_tenant_starves_without_harming_others() {
        // Tenant 0 has a zero-capacity bucket: every submission is
        // rejected at arrival and never occupies the grid, so tenant
        // 1's outcomes are bit-identical to a run where tenant 0 never
        // submitted at all.
        let quotas = vec![TenantQuota { capacity: 0.0, refill_per_sec: 0.0 }];
        let mut jobs: Vec<JobSpec> = (0..4).map(|i| job(i, 0, 30_000_000, i as f64)).collect();
        jobs.push(job(4, 1, 20_000_000, 0.5));
        jobs.push(job(5, 1, 10_000_000, 2.5));
        let r = Scheduler::new(grid(), Policy::FcfsBackfill).with_quotas(quotas.clone()).run(&jobs);
        for o in &r.outcomes[..4] {
            assert!(!o.admitted);
            assert!(o.reject_reason.as_deref().unwrap().starts_with("quota"));
            assert!(o.placed_at.is_none(), "a quota-rejected job must never occupy the grid");
        }
        let alone = Scheduler::new(grid(), Policy::FcfsBackfill)
            .with_quotas(quotas)
            .run(&[job(4, 1, 20_000_000, 0.5), job(5, 1, 10_000_000, 2.5)]);
        for (a, b) in r.outcomes[4..].iter().zip(alone.outcomes.iter()) {
            assert_eq!(a.finish, b.finish, "starved tenant must not perturb others");
            assert_eq!(a.placed_at, b.placed_at);
        }
        assert_eq!(r.trace.metrics.counter("sched_quota_violations"), Some(0));
    }

    #[test]
    fn degradation_stretches_transfers() {
        let clean = Scheduler::new(grid(), Policy::Fcfs).run(&[job(0, 0, 8_000_000, 0.0)]);
        let degraded = Scheduler::new(grid(), Policy::Fcfs)
            .with_degradation(Degradation { repo: 0, start: 0.0, factor: 0.25 })
            .with_degradation(Degradation { repo: 1, start: 0.0, factor: 0.25 })
            .run(&[job(0, 0, 8_000_000, 0.0)]);
        let (cf, df) = (clean.outcomes[0].finish.unwrap(), degraded.outcomes[0].finish.unwrap());
        assert!(df > cf + 1.0, "degraded transfer should finish later: {df} vs {cf}");
        assert!(degraded.violations.is_empty(), "{:?}", degraded.violations);
        degraded.trace.check_well_formed().unwrap();
    }

    #[test]
    fn migration_escapes_a_degraded_repository() {
        // The fast repository's paths collapse to 5% of nominal before
        // the lone job's transfer begins. With migration enabled the
        // job checkpoints and switches to the slow replica; the run
        // beats the stay-put one and records the event.
        let spec = [job(0, 0, 8_000_000, 0.0)];
        let collapse = Degradation { repo: 0, start: 0.0, factor: 0.05 };
        let stay = Scheduler::new(grid(), Policy::Fcfs).with_degradation(collapse).run(&spec);
        let moved = Scheduler::new(grid(), Policy::Fcfs)
            .with_degradation(collapse)
            .with_migration()
            .run(&spec);
        let m = moved.outcomes[0].migration.as_ref().expect("collapse should trigger migration");
        assert_eq!(&*m.from_repo, "repo-a");
        assert_eq!(&*m.to_repo, "repo-b");
        assert!((m.until - m.at - MIGRATION_OVERHEAD_SECS).abs() < 1e-9, "{m:?}");
        let (sf, mf) = (stay.outcomes[0].finish.unwrap(), moved.outcomes[0].finish.unwrap());
        assert!(mf < sf, "migrating should beat staying put: {mf} vs {sf}");
        assert_eq!(moved.trace.metrics.counter("sched_migrations"), Some(1));
        assert_eq!(moved.trace.metrics.counter("sched_checkpoints"), Some(1));
        assert!(moved.violations.is_empty(), "{:?}", moved.violations);
        moved.trace.check_well_formed().unwrap();
        // The trace records the checkpoint marker and the switch window.
        let kinds: Vec<SpanKind> = moved.trace.spans.iter().map(|s| s.kind).collect();
        assert!(kinds.contains(&SpanKind::Checkpoint));
        assert!(kinds.contains(&SpanKind::Migrate));
    }

    #[test]
    fn stable_bandwidth_never_migrates() {
        // Hysteresis: an uncontended transfer achieves its predicted
        // rate exactly, so the deviation trigger must never fire.
        let jobs = [job(0, 0, 8_000_000, 0.0), job(1, 1, 4_000_000, 200.0)];
        let r = Scheduler::new(grid(), Policy::Fcfs).with_migration().run(&jobs);
        assert_eq!(r.trace.metrics.counter("sched_migrations"), Some(0));
        assert!(r.outcomes.iter().all(|o| o.migration.is_none()));
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn a_slow_transfer_with_migration_on_runs_to_completion() {
        // One repository, collapsed to 0.05 % of nominal, so the lone
        // job's transfer takes ~16 000 simulated seconds and has
        // nowhere to migrate to. Migration wakes the loop once per
        // `MIGRATION_MIN_ELAPSED_SECS` while the transfer is eligible,
        // so the iteration count follows simulated time, not the job
        // count — every one of those iterations advances the clock and
        // none of them is a stall. The transfer set never changes, so all of
        // them share one solve per allocation (achieved and expected).
        let mut g = grid();
        g.repos.truncate(1);
        let mut core = SchedCore::new(
            Scheduler::new(g, Policy::Fcfs)
                .with_degradation(Degradation { repo: 0, start: 0.0, factor: 0.0005 })
                .with_migration(),
        );
        core.submit(job(0, 0, 8_000_000, 0.0)).unwrap();
        // A second arrival long after the first job is done drives the
        // loop through the whole transfer while the core is still ours
        // to read.
        core.submit(job(1, 0, 1_000_000, 1e6)).unwrap();
        let stats = core.pump_stats();
        assert!(stats.iterations > 10_200, "the repro needs a long transfer: {stats:?}");
        assert_eq!(stats.rate_solves, 2, "{stats:?}");
        let r = core.finish();
        let o = &r.outcomes[0];
        assert!(o.finish.is_some() && o.migration.is_none(), "{o:?}");
        assert!(o.network_end.unwrap() - o.disk_end.unwrap() > 10_000.0);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn an_unbounded_tenant_index_is_a_bad_job() {
        // The core sizes its per-tenant vectors by the index: `1 << 44`
        // used to abort inside an allocation, `usize::MAX` to overflow
        // `tenant + 1`.
        use crate::core::SubmitError;
        use crate::workload::MAX_TENANTS;
        let mut core = SchedCore::new(Scheduler::new(grid(), Policy::FcfsBackfill));
        let untouched = core.stats();
        for tenant in [1 << 44, usize::MAX, MAX_TENANTS] {
            let err = core.submit(job(0, tenant, 1_000_000, 0.0)).unwrap_err();
            assert!(
                matches!(err, SubmitError::BadJob { id: 0, reason } if reason.contains("tenant")),
                "{err}"
            );
            assert_eq!(core.stats(), untouched);
        }
        assert!(core.submit(job(0, MAX_TENANTS - 1, 1_000_000, 0.0)).unwrap().admitted);
    }

    #[test]
    fn a_refused_submission_leaves_no_trace() {
        // A job's row is made when it is accepted, so every refusal has
        // to fall before that: nothing a client can read moves, and the
        // id of a job refused for its arrival or its fields is free.
        use crate::core::SubmitError;
        let mut core = SchedCore::new(Scheduler::new(grid(), Policy::EdfAdmit));
        core.submit(job(0, 0, 20_000_000, 0.0)).unwrap();
        core.submit(job(5, 1, 20_000_000, 10.0)).unwrap();
        let view = |core: &SchedCore| {
            (core.stats(), core.pump_stats(), core.snapshot().quote("kmeans", 5_000_000, 2.0))
        };

        let before = view(&core);
        let dup = core.submit(job(5, 0, 1_000_000, 20.0));
        assert_eq!(dup, Err(SubmitError::Duplicate { id: 5 }));
        assert_eq!(view(&core), before);

        let late = core.submit(job(7, 0, 1_000_000, 5.0));
        assert!(matches!(late, Err(SubmitError::OutOfOrder { id: 7, last: (10.0, 5), .. })));
        assert_eq!(view(&core), before);
        core.submit(job(7, 0, 1_000_000, 10.0)).expect("the refused id is free");

        let before = view(&core);
        let empty = core.submit(job(8, 0, 0, 12.0));
        assert!(matches!(empty, Err(SubmitError::BadJob { id: 8, .. })), "{empty:?}");
        assert_eq!(view(&core), before);
        core.submit(job(8, 0, 1_000_000, 12.0)).expect("the refused id is free");

        let r = core.finish();
        assert_eq!(r.outcomes.iter().map(|o| o.id).collect::<Vec<_>>(), [0, 5, 7, 8]);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn preemption_lets_a_tight_deadline_jump_the_queue() {
        // A one-slot grid: the long loose-deadline job holds the only
        // node when a tight job arrives. With preemption on, the long
        // job is checkpointed off, the tight one runs, and the victim
        // resumes where it stopped (plus the restore overhead).
        let mut g = grid();
        g.sites.truncate(1);
        g.sites[0].site.max_nodes = 1;
        g.configs = vec![Configuration::new(1, 1)];
        let mut tight = job(1, 1, 1_000_000, 10.0);
        tight.deadline_slack = 1.5;
        let jobs = [job(0, 0, 20_000_000, 0.0), tight];
        let base = Scheduler::new(g.clone(), Policy::Fcfs).run(&jobs);
        let r = Scheduler::new(g, Policy::Fcfs).with_preemption().run(&jobs);
        let victim = &r.outcomes[0];
        assert_eq!(victim.preemptions.len(), 1, "long job should be preempted once");
        let p = &victim.preemptions[0];
        assert_eq!(p.preempted_at, 10.0);
        let resumed = p.resumed_at.expect("victim resumes after the tight job");
        assert!(resumed > 10.0);
        assert!(
            r.outcomes[1].finish.unwrap() < base.outcomes[1].finish.unwrap(),
            "the tight job should finish earlier than without preemption"
        );
        // The victim pays its time off the grid plus the restore pause.
        let delay = victim.finish.unwrap() - base.outcomes[0].finish.unwrap();
        let expected = (resumed - p.preempted_at) + PREEMPTION_OVERHEAD_SECS;
        assert!((delay - expected).abs() < 1e-6, "victim delayed {delay} s, expected {expected} s");
        assert!(r.outcomes[1].met_deadline().unwrap());
        assert_eq!(r.trace.metrics.counter("sched_preemptions"), Some(1));
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        r.trace.check_well_formed().unwrap();
        let kinds: Vec<SpanKind> = r.trace.spans.iter().map(|s| s.kind).collect();
        assert!(kinds.contains(&SpanKind::Preempted));
        assert!(kinds.contains(&SpanKind::Checkpoint));
    }

    #[test]
    fn default_configuration_is_unchanged_by_the_new_features() {
        // The extended scheduler with everything off must reproduce the
        // plain scheduler bit-for-bit, counters included.
        let jobs = WorkloadSpec::preset(LoadLevel::Medium, &["kmeans"], 7).generate();
        let a = Scheduler::new(grid(), Policy::EdfAdmit).run(&jobs);
        let b = Scheduler::new(grid(), Policy::EdfAdmit).run(&jobs);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.trace.metrics.counter("sched_quota_rejections"), None);
        assert_eq!(a.trace.metrics.counter("sched_migrations"), None);
        assert_eq!(a.trace.metrics.counter("sched_preemptions"), None);
        assert!(a.outcomes.iter().all(|o| o.preemptions.is_empty() && o.migration.is_none()));
    }
}
