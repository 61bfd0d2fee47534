//! The scheduling decision core.
//!
//! Jobs reach a scheduler one request at a time, prediction queries
//! interleave with submissions, and concurrent readers need a coherent
//! view of scheduler state without a lock on the hot path. Two types
//! serve that:
//!
//! * [`SchedCore`] — the event loop as an incremental state machine.
//!   [`SchedCore::submit`] feeds one job and advances the sim clock
//!   exactly to its arrival; [`SchedCore::finish`] drains the grid and
//!   produces the [`SchedResult`]. `Scheduler::run` loads a whole job
//!   list and drains, so the sim loop, `fg-serve` and the test suites
//!   all drive *this* code — and a submission stream fed one arrival at
//!   a time is bit-identical to the batch run, because arrivals are
//!   integration horizons in both.
//! * [`SchedSnapshot`] — an immutable, cheaply-cloned copy of what an
//!   admission is priced from: the clock, the bandwidth estimates and
//!   the fluid backlog, plus the core's pricing context (grid,
//!   predictor, policy, idle grid), which is built once and shared by
//!   `Arc`. [`SchedSnapshot::quote`] and the arrival block are the same
//!   call, `Pricing::price`, over the live core's state or the
//!   snapshot's copy of it — so a quote needs no mutable access and
//!   therefore no lock on the live core, which is what lets
//!   `fg-serve`'s session threads answer quotes while the core thread
//!   owns the clock.
//!
//! **Where a job's facts live.** Once, in the job table: a submitted
//! [`JobSpec`] is *moved* into a [`JobOutcome`] row of `SchedCore::jobs`
//! and every later decision (admission, placement, phase ends,
//! preemptions, a migration) is written into that row in place; `finish`
//! hands the table out as [`SchedResult::outcomes`]. Everything else
//! refers to a job by its row index: the pending-arrival list (with the
//! one spec field a row has no use for, the deadline slack), the queue's
//! entries, a running job. A suspended job is the running job it was
//! evicted as, phase and all; what its phase had left is measured from
//! the row's last preemption instant when it resumes. The grid is the
//! scheduler configuration's `Arc`, shared with every snapshot.
//!
//! **Where names live.** Once, in the core's name table (`Names`):
//! `SchedCore::new` copies every repository, site and application name
//! and every configuration label out of the grid into an `Arc<str>`,
//! and whatever carries a name out of the core — a row's `app`, a
//! [`PlacementInfo`], a [`MigrationEvent`], a [`CoreEvent`], an
//! [`Observation`], an [`AccuracySample`] — holds a clone of that `Arc`,
//! a reference-count bump. A finished job allocates no name. A submitted
//! app is looked up by name once, when its row is made; `app_of` keeps
//! the index beside the table (an app the grid has no model for keeps
//! the submitted name and is rejected at its arrival).
//!
//! The incremental/batch equivalence is structural, not approximate:
//! the loop never integrates the fluid network model past the next
//! arrival (arrivals bound the horizon), so stopping the machine at each
//! arrival instant splits no integration step that a batch run takes
//! whole. Equal-arrival submissions join the same arrival batch
//! mid-iteration. `tests/serve_differential.rs` pins the equivalence
//! bit-for-bit across workload shapes.
//!
//! An iteration of the loop costs what changed since the last one. The
//! fair-share rates are a pure function of the ordered list of
//! network-phase transfers and their rate caps, so they are re-solved
//! only when that list differs from the one they were solved for
//! (`RateMemo`, keyed on the inputs themselves; the buffers are the
//! core's, as is the completion batch's, so a steady-state iteration
//! allocates nothing). Every
//! placement — an admission's two prices, each start of the scheduling
//! pass — is the paper's scan, [`naive_best_placement_with`]: one walk
//! that prepares each (repository, site) pair once and prices its
//! configurations from the preparation, an admission's walk at both
//! bandwidth vectors. The pass keeps no placement cache because its
//! saturation early-out is exact, so a queued job is priced to success
//! once, when it starts (see `placement.rs`). [`PumpStats`] counts
//! both.

use crate::grid::{AppModel, GridSpec};
use crate::ledger::AccuracySample;
use crate::placement::{best_placements, naive_best_placement_with, FreeSlices, Placement};
use crate::policy::Policy;
use crate::queue::PolicyQueue;
use crate::sched::{
    Degradation, JobOutcome, MigrationEvent, PlacementInfo, PreemptionEvent, SchedResult,
    Scheduler, TenantQuota, MIGRATION_DEVIATION, MIGRATION_MARGIN, MIGRATION_MIN_ELAPSED_SECS,
    MIGRATION_OVERHEAD_SECS, PREEMPTION_OVERHEAD_SECS,
};
use crate::telemetry::{TelemetrySnapshot, TelemetryState, WAIT_BOUNDS};
use crate::workload::{check_job_fields, JobSpec};
use fg_cluster::{Configuration, DeploymentRef};
use fg_predict::bandwidth::{BandwidthEstimator, Ewma};
use fg_predict::{decide_migration, InterconnectParams, Observation, Prediction, Predictor};
use fg_sim::{FairShareSim, RateScratch, ResourceId, SimTime};
use fg_trace::{Counter, Gauge, Histogram, SpanKind, Trace, Tracer};
use serde::{Deserialize, Serialize};
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

/// Clock comparison slop, seconds.
pub(crate) const TIME_EPS: f64 = 1e-9;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Disk {
        until: f64,
    },
    Network,
    /// Checkpoint-and-switch pause of a mid-run migration; the transfer
    /// resumes (on the new repository) when `until` passes.
    Migrating {
        until: f64,
    },
    Compute {
        until: f64,
    },
}

#[derive(Debug, Clone)]
struct Running {
    /// The job's row in the job table.
    row: usize,
    tenant: usize,
    repo: usize,
    site: usize,
    config: Configuration,
    predicted: Prediction,
    placed_at: f64,
    phase: Phase,
    bytes: f64,
    net_started: f64,
    net_remaining: f64,
    net_cap: f64,
    /// The per-stream WAN bandwidth the placement prediction used;
    /// the baseline for converting an observed stretch back into an
    /// equivalent bandwidth sample.
    placed_bw: f64,
    disk_end: Option<f64>,
    network_end: Option<f64>,
    /// Bytes the fluid model expected this transfer to have moved
    /// under fair-share contention with *undegraded* rate caps — the
    /// migration trigger's baseline (accumulated only when migration
    /// is enabled).
    net_expected: f64,
    /// Suppress the bandwidth-feedback sample: a preempted or migrated
    /// transfer's elapsed time is not a clean observation.
    no_feedback: bool,
}

/// How a job got its nodes in a scheduling pass.
#[derive(Debug, Clone, Copy, PartialEq)]
enum StartKind {
    /// Round 1: the tenant was under its fair-share quota.
    UnderQuota,
    /// Round 2: past quota, but the nodes were otherwise idle.
    Backfill,
    /// The start was enabled by checkpointing a looser-deadline job
    /// off its nodes; deadline urgency overrides fair shares.
    Preempt,
}

/// The rate multiplier degradations impose on `repo`'s transfers at
/// instant `now` (1.0 when none applies).
fn degrade_factor(degradations: &[Degradation], repo: usize, now: f64) -> f64 {
    degradations
        .iter()
        .filter(|d| d.repo == repo && now >= d.start - TIME_EPS)
        .map(|d| d.factor)
        .fold(1.0, f64::min)
}

/// A network-phase transfer as the fair-share solver sees it: the
/// repository uplink and site ingress it crosses and its rate cap (as
/// bits, so equality is exact). The allocation is a pure function of the
/// ordered list of these — it never reads how many bytes a transfer has
/// left.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NetFlow {
    repo: usize,
    site: usize,
    cap_bits: u64,
}

/// Max-min rates remembered with the flow list they were solved for.
///
/// Keyed on the solver's *inputs*, not on a dirty flag: the transfer set
/// is mutated from seven places (three arms of `phase_transitions`,
/// `migration_check`, resume, preemption, and a degradation onset that
/// is a function of the clock alone), and a flag one of them forgot
/// would be a silently wrong rate, where comparing at most `slots`
/// entries per iteration cannot be wrong.
#[derive(Debug, Default)]
struct RateMemo {
    solved_for: Vec<NetFlow>,
    /// The list being asked about; swapped with `solved_for` on a solve,
    /// so neither is reallocated in steady state.
    asked: Vec<NetFlow>,
    scratch: RateScratch,
}

impl RateMemo {
    /// Make [`rates`](RateMemo::rates) answer `flows`, solving only when
    /// they differ from the list the held rates answer. Returns whether
    /// it solved.
    fn refresh(
        &mut self,
        net: &FairShareSim,
        nrepo: usize,
        flows: impl Iterator<Item = NetFlow>,
    ) -> bool {
        self.asked.clear();
        self.asked.extend(flows);
        let stale = self.solved_for != self.asked;
        if stale {
            solve_rates(net, nrepo, &self.asked, &mut self.scratch);
            std::mem::swap(&mut self.solved_for, &mut self.asked);
        }
        // Redundant guard, debug builds only (where the test suites
        // run): the memo must be indistinguishable from solving every
        // iteration afresh.
        if cfg!(debug_assertions) {
            let mut fresh = RateScratch::default();
            let fresh = solve_rates(net, nrepo, &self.solved_for, &mut fresh);
            assert!(
                fresh.iter().map(|r| r.to_bits()).eq(self.rates().iter().map(|r| r.to_bits())),
                "memoised fair-share rates diverged from a fresh solve of {:?}",
                self.solved_for
            );
        }
        stale
    }

    /// The rates of the list last passed to `refresh`, indexed like it.
    fn rates(&self) -> &[f64] {
        self.scratch.rates()
    }
}

/// Progressive filling over `flows` on the grid's links: resource `r`
/// is repository `r`'s uplink, resource `nrepo + s` site `s`'s ingress.
fn solve_rates<'s>(
    net: &FairShareSim,
    nrepo: usize,
    flows: &[NetFlow],
    scratch: &'s mut RateScratch,
) -> &'s [f64] {
    let flow = |k: usize| {
        let f = flows[k];
        (f64::from_bits(f.cap_bits), [ResourceId(f.repo), ResourceId(nrepo + f.site)])
    };
    net.fair_rates(flows.len(), flow, scratch)
}

/// How much work the event loop has done, in counts that repeat exactly
/// from run to run (unlike wall time, so a test on a shared machine can
/// bound them). Read with [`SchedCore::pump_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PumpStats {
    /// Event-loop iterations.
    pub iterations: u64,
    /// Progressive-filling solves: an iteration whose transfer set (and
    /// rate caps) equal the last solved one reuses its rates.
    pub rate_solves: u64,
    /// Placement scans the scheduling pass ran (the saturation
    /// early-out skips a pass before it scans).
    pub placement_scans: u64,
    /// Queued jobs started.
    pub starts: u64,
}

/// Why [`SchedCore::submit`] refused a job. The incremental API is a
/// live protocol surface, so malformed submissions get typed errors
/// instead of the batch entry point's panics.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitError {
    /// A job with this id was already submitted.
    Duplicate {
        /// The repeated submission id.
        id: usize,
    },
    /// Submissions must arrive in nondecreasing `(arrival, id)` order:
    /// the sim clock has already integrated past this instant.
    OutOfOrder {
        /// The offending submission id.
        id: usize,
        /// Its arrival instant.
        arrival: f64,
        /// The latest `(arrival, id)` already accepted.
        last: (f64, usize),
    },
    /// The arrival instant is NaN, infinite, or negative — the sim
    /// clock cannot order it.
    BadArrival {
        /// The offending submission id.
        id: usize,
        /// The unusable arrival value.
        arrival: f64,
    },
    /// A field fails [`JobSpec::validate`] — the rules a replayed trace
    /// is held to.
    BadJob {
        /// The offending submission id.
        id: usize,
        /// Which rule, naming the field.
        reason: &'static str,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Duplicate { id } => write!(f, "job id {id} already submitted"),
            SubmitError::OutOfOrder { id, arrival, last } => write!(
                f,
                "job {id} arrives at {arrival} behind the accepted stream (last arrival {} id {})",
                last.0, last.1
            ),
            SubmitError::BadArrival { id, arrival } => {
                write!(f, "job {id} has unusable arrival {arrival}")
            }
            SubmitError::BadJob { id, reason } => write!(f, "job {id} rejected: {reason}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// What admission decided about one submission, returned synchronously
/// by [`SchedCore::submit`] (the wire protocol's submit response).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubmitOutcome {
    /// The submission id.
    pub id: usize,
    /// Whether the job entered the queue.
    pub admitted: bool,
    /// Why it was rejected, when it was.
    pub reject_reason: Option<String>,
    /// Standalone predicted execution time (empty-grid baseline).
    pub standalone: Option<f64>,
    /// Deadline instant derived from the slack.
    pub deadline: Option<f64>,
    /// Predicted completion instant at submission.
    pub admission_estimate: Option<f64>,
}

/// A coarse live view of the core's progress (the wire protocol's
/// stats response).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoreStats {
    /// Sim-clock instant the machine has advanced to.
    pub now: f64,
    /// Last completion instant so far.
    pub makespan: f64,
    /// Jobs submitted.
    pub submitted: u64,
    /// Jobs admitted into the queue.
    pub admitted: u64,
    /// Jobs rejected at submission.
    pub rejected: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Jobs currently queued.
    pub queued: usize,
    /// Jobs currently occupying grid nodes.
    pub running: usize,
    /// Jobs checkpointed off their nodes awaiting resume.
    pub suspended: usize,
}

/// One scheduling decision, emitted in decision order when the event
/// log is enabled ([`SchedCore::with_event_log`]). `fg-serve` streams
/// these to subscribed clients as they happen.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CoreEvent {
    /// A submission was admitted or rejected.
    Submitted {
        /// Submission id.
        id: usize,
        /// Tenant index.
        tenant: usize,
        /// Whether the job entered the queue.
        admitted: bool,
        /// Rejection reason, when rejected.
        reject_reason: Option<String>,
        /// Predicted completion instant, when one was computed.
        estimate: Option<f64>,
    },
    /// A queued job occupied its nodes.
    Placed {
        /// Submission id.
        id: usize,
        /// Sim-clock instant.
        at: f64,
        /// Repository name.
        repo: Arc<str>,
        /// Site name.
        site: Arc<str>,
        /// Configuration label.
        config: Arc<str>,
        /// Predicted execution time of the chosen placement.
        predicted: f64,
    },
    /// A running job finished.
    Completed {
        /// Submission id.
        id: usize,
        /// Completion instant.
        at: f64,
        /// Whether the deadline was met, when one applied.
        met_deadline: Option<bool>,
    },
    /// A running job was checkpointed off its nodes.
    Preempted {
        /// Submission id.
        id: usize,
        /// Eviction instant.
        at: f64,
    },
    /// A suspended job re-occupied nodes.
    Resumed {
        /// Submission id.
        id: usize,
        /// Resume instant.
        at: f64,
    },
    /// A running transfer switched repositories.
    Migrated {
        /// Submission id.
        id: usize,
        /// Switch instant.
        at: f64,
        /// Repository the job was fetching from.
        from_repo: Arc<str>,
        /// Repository it fetches from afterwards.
        to_repo: Arc<str>,
    },
    /// The accuracy ledger detected predictor drift (only emitted when
    /// telemetry is armed; see [`Scheduler::with_telemetry`]).
    ///
    /// [`Scheduler::with_telemetry`]: crate::sched::Scheduler::with_telemetry
    DriftAlarm {
        /// The alarm the tripping completion raised.
        alarm: crate::ledger::DriftAlarm,
    },
}

/// Every name the core hands out, copied from the grid once at
/// construction and shared by reference count from then on. Indexed
/// like the grid's own `apps`, `repos`, `sites` and `configs`.
struct Names {
    apps: Vec<Arc<str>>,
    repos: Vec<Arc<str>>,
    sites: Vec<Arc<str>>,
    /// Configuration labels, `n-c`.
    configs: Vec<Arc<str>>,
}

impl Names {
    fn of(grid: &GridSpec) -> Names {
        Names {
            apps: grid.apps.iter().map(|(name, _)| name.as_str().into()).collect(),
            repos: grid.repos.iter().map(|r| r.site.name.as_str().into()).collect(),
            sites: grid.sites.iter().map(|s| s.site.name.as_str().into()).collect(),
            configs: grid.configs.iter().map(|c| c.label().into()).collect(),
        }
    }
}

/// The model of the job at `row`, for a job past admission: an app the
/// grid has no model for is rejected at its arrival, so nothing queued,
/// running or suspended lacks one.
fn model_of<'g>(grid: &'g GridSpec, app_of: &[Option<usize>], row: usize) -> &'g AppModel {
    let ix = app_of[row].expect("an admitted job's app has a model");
    &grid.apps[ix].1
}

/// The scheduler's per-run metric instruments, registered once at
/// construction in this order (the golden traces pin the registry
/// contents).
struct Instruments {
    submitted: Counter,
    admitted: Counter,
    rejected: Counter,
    completed: Counter,
    misses: Counter,
    backfill: Counter,
    depth: Gauge,
    depth_max: Gauge,
    wait: Histogram,
    slow: Histogram,
    quota_rej: Option<Counter>,
    quota_vio: Option<Counter>,
    preempt: Option<Counter>,
    migrate: Option<Counter>,
    ckpt: Option<Counter>,
}

/// The incremental scheduling state machine.
///
/// Construction takes the scheduler *configuration* (grid, policy,
/// feature opt-ins); jobs are fed either one at a time through
/// [`submit`](SchedCore::submit) (the service path; arrivals must be
/// nondecreasing) or wholesale through `Scheduler::run` (the batch
/// path, which sorts internally). Both paths execute the identical
/// event loop and produce bit-identical [`SchedResult`]s for the same
/// job stream.
pub struct SchedCore {
    cfg: Scheduler,
    names: Names,
    nrepo: usize,
    min_slots: usize,
    net: FairShareSim,
    free: FreeSlices,
    pricing: Arc<Pricing>,
    bw: Vec<f64>,
    estimators: Vec<Ewma>,
    used_slots: Vec<usize>,
    buckets: Vec<(TenantQuota, f64, f64)>,
    /// Checkpointed jobs waiting to re-occupy their nodes, each in the
    /// phase it was evicted in.
    suspended: Vec<Running>,
    tracer: Option<Tracer>,
    inst: Instruments,
    /// The job table: one row per submitted job, in submission order,
    /// made when the job is accepted and filled in as decisions fall.
    jobs: Vec<JobOutcome>,
    /// Each row's app as an index into the grid's `apps` (`None`: the
    /// grid has no model for it), resolved when the row is made.
    app_of: Vec<Option<usize>>,
    /// Ids of every row, for refusing a duplicate.
    ids: HashSet<usize>,
    /// `(row, deadline slack)` of the jobs not yet arrived, by
    /// `(arrival, id)`.
    pending: VecDeque<(usize, f64)>,
    queue: PolicyQueue,
    running: Vec<Running>,
    violations: Vec<String>,
    now: f64,
    makespan: f64,
    depth_max: usize,
    /// Iterations since the clock last advanced — the progress guard.
    stalled: usize,
    pump_stats: PumpStats,
    /// Indices into `running` of the network-phase transfers and the
    /// two memoised allocations (achieved rates under degraded caps;
    /// the migration baseline under nominal caps). Core-owned so a
    /// steady-state iteration allocates nothing.
    netidx: Vec<usize>,
    /// Indices into `running` of the jobs completing this iteration.
    finished: Vec<usize>,
    rates: RateMemo,
    expected_rates: RateMemo,
    /// True between an iteration's arrival batch and its tail
    /// (transitions, pass, integration): the machine parks here
    /// between incremental submissions so equal-arrival jobs join the
    /// same batch, as they do when the whole list is loaded up front.
    tail_pending: bool,
    events: Option<Vec<CoreEvent>>,
    telemetry: Option<TelemetryState>,
}

impl SchedCore {
    /// A fresh decision core for `scheduler`'s configuration, at sim
    /// time zero with an idle grid.
    pub fn new(scheduler: Scheduler) -> SchedCore {
        let grid = &scheduler.grid;
        assert!(
            !grid.repos.is_empty() && !grid.sites.is_empty() && !grid.configs.is_empty(),
            "grid must have repositories, sites, and configurations"
        );
        let nrepo = grid.repos.len();
        let min_slots = grid.min_config_slots();
        let capacities: Vec<f64> = grid
            .repos
            .iter()
            .map(|r| r.wan_capacity)
            .chain(grid.sites.iter().map(|s| s.ingress_capacity))
            .collect();
        let net = FairShareSim::new(capacities);
        let pricing = Pricing::new(&scheduler);
        let free = FreeSlices::new(pricing.idle_data.clone(), pricing.idle_cmp.clone());
        let bw = pricing.nominal_bw.clone();
        let estimators: Vec<Ewma> = (0..nrepo).map(|_| Ewma::new(scheduler.ewma_alpha)).collect();
        // Token buckets start full; refill lazily at each arrival.
        let buckets: Vec<(TenantQuota, f64, f64)> = scheduler
            .quotas
            .as_deref()
            .unwrap_or(&[])
            .iter()
            .map(|&q| (q, q.capacity, 0.0))
            .collect();

        let tracer = Tracer::new();
        let inst = Instruments {
            submitted: tracer.metrics.counter("sched_jobs_submitted"),
            admitted: tracer.metrics.counter("sched_jobs_admitted"),
            rejected: tracer.metrics.counter("sched_jobs_rejected"),
            completed: tracer.metrics.counter("sched_jobs_completed"),
            misses: tracer.metrics.counter("sched_deadline_misses"),
            backfill: tracer.metrics.counter("sched_backfill_starts"),
            depth: tracer.metrics.gauge("sched_queue_depth"),
            depth_max: tracer.metrics.gauge("sched_queue_depth_max"),
            wait: tracer.metrics.histogram("sched_wait_seconds", &WAIT_BOUNDS),
            slow: tracer
                .metrics
                .histogram("sched_slowdown", &[1.0, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0, 30.0]),
            // Feature counters exist only when the feature is on, so a
            // default-configured run's metrics snapshot (and its golden
            // traces) are unchanged.
            quota_rej: scheduler
                .quotas
                .as_ref()
                .map(|_| tracer.metrics.counter("sched_quota_rejections")),
            quota_vio: scheduler
                .quotas
                .as_ref()
                .map(|_| tracer.metrics.counter("sched_quota_violations")),
            preempt: scheduler.preemption.then(|| tracer.metrics.counter("sched_preemptions")),
            migrate: scheduler.migration.then(|| tracer.metrics.counter("sched_migrations")),
            ckpt: (scheduler.preemption || scheduler.migration)
                .then(|| tracer.metrics.counter("sched_checkpoints")),
        };

        let queue = PolicyQueue::new(scheduler.policy, min_slots);
        let telemetry = scheduler.telemetry.clone().map(TelemetryState::new);
        let names = Names::of(grid);
        SchedCore {
            cfg: scheduler,
            names,
            nrepo,
            min_slots,
            net,
            free,
            pricing: Arc::new(pricing),
            bw,
            estimators,
            used_slots: Vec::new(),
            buckets,
            suspended: Vec::new(),
            tracer: Some(tracer),
            inst,
            jobs: Vec::new(),
            app_of: Vec::new(),
            ids: HashSet::new(),
            pending: VecDeque::new(),
            queue,
            running: Vec::new(),
            violations: Vec::new(),
            now: 0.0,
            makespan: 0.0,
            depth_max: 0,
            stalled: 0,
            pump_stats: PumpStats::default(),
            netidx: Vec::new(),
            finished: Vec::new(),
            rates: RateMemo::default(),
            expected_rates: RateMemo::default(),
            tail_pending: false,
            events: None,
            telemetry,
        }
    }

    /// Record a [`CoreEvent`] per scheduling decision, drained with
    /// [`take_events`](SchedCore::take_events). Off by default: the
    /// batch path never pays for the log.
    pub fn with_event_log(mut self) -> SchedCore {
        self.events = Some(Vec::new());
        self
    }

    /// The sim-clock instant the machine has advanced to.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Drain the decision events recorded since the last call (empty
    /// unless [`with_event_log`](SchedCore::with_event_log) was used).
    pub fn take_events(&mut self) -> Vec<CoreEvent> {
        self.events.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Freeze the telemetry plane at the current instant (`None` when
    /// telemetry is off). `&mut` because reading the sliding windows
    /// rotates expired buckets out; the decision state is untouched.
    pub fn telemetry_snapshot(&mut self) -> Option<TelemetrySnapshot> {
        let now = self.now;
        self.telemetry.as_mut().map(|t| t.snapshot(now))
    }

    /// The telemetry change counter — bumps on every completion, so a
    /// publisher can skip snapshots that cannot have changed. Always 0
    /// when telemetry is off.
    pub fn telemetry_epoch(&self) -> u64 {
        self.telemetry.as_ref().map_or(0, TelemetryState::epoch)
    }

    /// The accuracy ledger's newest `n` retained samples, in ingestion
    /// order (empty when telemetry is off) — the flight recorder's
    /// ledger tail.
    pub fn ledger_tail(&self, n: usize) -> Vec<AccuracySample> {
        self.telemetry.as_ref().map_or_else(Vec::new, |t| t.ledger().tail(n))
    }

    /// Submit one job and advance the machine to its arrival instant.
    /// Returns the admission decision (the job's outcome so far).
    ///
    /// The incremental path requires nondecreasing `(arrival, id)`
    /// submission order — the clock cannot run backwards — and rejects
    /// duplicates, unusable arrivals and fields that fail
    /// [`JobSpec::validate`] with typed errors where the batch path
    /// panics; a refused job leaves no trace in the core.
    pub fn submit(&mut self, job: JobSpec) -> Result<SubmitOutcome, SubmitError> {
        if !job.arrival.is_finite() || job.arrival < 0.0 {
            return Err(SubmitError::BadArrival { id: job.id, arrival: job.arrival });
        }
        job.validate().map_err(|reason| SubmitError::BadJob { id: job.id, reason })?;
        if self.ids.contains(&job.id) {
            return Err(SubmitError::Duplicate { id: job.id });
        }
        // Rows are in accepted order here, so the last row is the latest
        // `(arrival, id)` accepted.
        if let Some(last) = self.jobs.last() {
            let cmp = last.arrival.total_cmp(&job.arrival).then(last.id.cmp(&job.id));
            if cmp == std::cmp::Ordering::Greater {
                return Err(SubmitError::OutOfOrder {
                    id: job.id,
                    arrival: job.arrival,
                    last: (last.arrival, last.id),
                });
            }
        }
        let row = self.jobs.len();
        self.ids.insert(job.id);
        self.pending.push_back((row, job.deadline_slack));
        self.push_row(&job);
        self.pump(false);
        let o = &self.jobs[row];
        Ok(SubmitOutcome {
            id: o.id,
            admitted: o.admitted,
            reject_reason: o.reject_reason.clone(),
            standalone: o.standalone,
            deadline: o.deadline,
            admission_estimate: o.admission_estimate,
        })
    }

    /// Load a whole job list for the batch entry point: rows in input
    /// order, arrivals sorted by `(arrival, id)`, duplicate ids a
    /// panic. The machine is not advanced; [`finish`] drains it.
    ///
    /// [`finish`]: SchedCore::finish
    pub(crate) fn submit_all(&mut self, jobs: &[JobSpec]) {
        assert!(
            self.jobs.is_empty(),
            "submit_all loads a fresh core; use submit for incremental streams"
        );
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by(|&a, &b| {
            jobs[a].arrival.total_cmp(&jobs[b].arrival).then(jobs[a].id.cmp(&jobs[b].id))
        });
        self.pending = order.into_iter().map(|row| (row, jobs[row].deadline_slack)).collect();
        self.ids.reserve(jobs.len());
        for j in jobs {
            assert!(self.ids.insert(j.id), "duplicate job id {}", j.id);
        }
        self.jobs.reserve_exact(jobs.len());
        self.app_of.reserve_exact(jobs.len());
        for j in jobs {
            self.push_row(j);
        }
    }

    /// Append `job`'s row to the job table, its app resolved against
    /// the grid: the one lookup by name the job ever costs.
    fn push_row(&mut self, job: &JobSpec) {
        let app_ix = self.cfg.grid.app_index(&job.app);
        let app = match app_ix {
            Some(ix) => Arc::clone(&self.names.apps[ix]),
            // Not the grid's to share: the job is rejected at arrival
            // under the name it came with.
            None => job.app.as_str().into(),
        };
        self.app_of.push(app_ix);
        self.jobs.push(JobOutcome::submitted(job, app));
    }

    /// A coarse live view of progress.
    pub fn stats(&self) -> CoreStats {
        CoreStats {
            now: self.now,
            makespan: self.makespan,
            submitted: self.inst.submitted.get(),
            admitted: self.inst.admitted.get(),
            rejected: self.inst.rejected.get(),
            completed: self.inst.completed.get(),
            queued: self.queue.len(),
            running: self.running.len(),
            suspended: self.suspended.len(),
        }
    }

    /// What the event loop has done so far, in exactly repeatable
    /// counts.
    pub fn pump_stats(&self) -> PumpStats {
        self.pump_stats
    }

    /// An immutable copy of what an admission is priced from at this
    /// instant, for `&self` quotes that never touch the live core.
    /// Building one copies the bandwidth estimates (the pricing context
    /// is an [`Arc`]), so a server can publish one per state change —
    /// behind an `Arc`, so readers share it instead of copying it again
    /// — and answer quotes on any number of threads.
    pub fn snapshot(&self) -> SchedSnapshot {
        SchedSnapshot {
            pricing: Arc::clone(&self.pricing),
            now: self.now,
            bw: self.bw.clone(),
            backlog_slot_secs: self.backlog_slot_secs(),
        }
    }

    /// The fluid backlog an admission waits behind: remaining predicted
    /// slot-seconds of the running set, in running order, plus the
    /// queue's running sum.
    fn backlog_slot_secs(&self) -> f64 {
        let running = self.running.iter().map(|r| {
            (r.placed_at + r.predicted.total() - self.now).max(0.0) * r.config.compute_nodes as f64
        });
        running.sum::<f64>() + self.queue.backlog_slot_secs()
    }

    /// Drain the grid — run the event loop until nothing is queued,
    /// running, suspended, or arriving — and produce the same
    /// [`SchedResult`] the batch entry point returns.
    pub fn finish(self) -> SchedResult {
        self.finish_with_events().0
    }

    /// [`finish`](SchedCore::finish), also returning the scheduling
    /// events the final drain produced (empty unless the event log is
    /// on) so a streaming server can flush them before the result.
    pub fn finish_with_events(mut self) -> (SchedResult, Vec<CoreEvent>) {
        self.pump(true);
        let events = self.take_events();
        let tracer = self.tracer.take().expect("finish consumes the tracer");
        self.inst.depth_max.set(self.depth_max as f64);
        self.inst.depth.set(self.queue.len() as f64);
        // Nothing reads the id set or the app indices again: release
        // them before the trace below sets the high-water mark.
        drop(self.ids);
        drop(self.app_of);
        let outcomes = self.jobs;
        let trace = build_trace(tracer, &outcomes, self.makespan);
        let telemetry = self.telemetry.take().map(|t| t.into_report(self.now));
        (
            SchedResult {
                outcomes,
                trace,
                makespan: self.makespan,
                violations: self.violations,
                telemetry,
            },
            events,
        )
    }

    /// Advance the event loop. With `drain` false, the machine stops
    /// once every known arrival is consumed, parked mid-iteration
    /// *before* the scheduling pass so later equal-arrival submissions
    /// join the same arrival batch (every due arrival is consumed before
    /// the pass runs). With `drain` true it runs to quiescence,
    /// recording stuck-forever violations.
    ///
    /// The fair-share rates are re-solved only when the transfer list
    /// changed (`RateMemo`) — for a job, in two of its four iterations,
    /// entering and leaving its transfer — and the index, flow and rate
    /// buffers are the core's own: a steady-state iteration allocates
    /// nothing.
    fn pump(&mut self, drain: bool) {
        loop {
            if !self.tail_pending {
                self.pump_stats.iterations += 1;
                // An iteration that advances the clock is progress, and
                // with migration on their number scales with simulated
                // seconds, not jobs — so the budget covers only the
                // iterations since the clock last moved.
                self.stalled += 1;
                let budget = 10_000 + 200 * self.jobs.len();
                assert!(self.stalled <= budget, "scheduler event loop failed to make progress");
                self.tail_pending = true;
            }
            // --- arrivals due at `now` ---
            self.process_due_arrivals();
            if !drain && self.pending.is_empty() {
                // Every known arrival is consumed; the next event may
                // be preceded by a future submission, so park here —
                // mid-iteration — without integrating past `now`.
                return;
            }
            self.tail_pending = false;
            // --- phase transitions and completions due at `now` ---
            self.phase_transitions();
            // --- mid-run migration check ---
            self.migration_check();
            // --- scheduling pass ---
            self.schedule_pass();
            self.inst.depth.set(self.queue.len() as f64);
            // --- horizon: next arrival, fixed-phase end, or drain ---
            let mut horizon =
                self.pending.front().map_or(f64::INFINITY, |&(row, _)| self.jobs[row].arrival);
            for r in &self.running {
                match r.phase {
                    Phase::Disk { until }
                    | Phase::Migrating { until }
                    | Phase::Compute { until } => horizon = horizon.min(until),
                    Phase::Network => {}
                }
            }
            // A degradation onset changes the fluid rates, so the step
            // must not integrate across it.
            for d in &self.cfg.degradations {
                if d.start > self.now + TIME_EPS {
                    horizon = horizon.min(d.start);
                }
            }
            // With migration on, wake periodically while an eligible
            // transfer is in flight: the trigger compares achieved
            // against expected bandwidth, and nothing else schedules an
            // event between a transfer's start and its completion.
            if self.cfg.migration
                && self
                    .running
                    .iter()
                    .any(|r| r.phase == Phase::Network && self.jobs[r.row].migration.is_none())
            {
                horizon = horizon.min(self.now + MIGRATION_MIN_ELAPSED_SECS);
            }
            self.netidx.clear();
            self.netidx.extend(
                self.running
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r.phase == Phase::Network)
                    .map(|(i, _)| i),
            );
            let rates: &[f64] = if self.netidx.is_empty() {
                &[]
            } else {
                let flows = self.netidx.iter().map(|&i| {
                    let r = &self.running[i];
                    let factor = degrade_factor(&self.cfg.degradations, r.repo, self.now);
                    NetFlow { repo: r.repo, site: r.site, cap_bits: (r.net_cap * factor).to_bits() }
                });
                let solved = self.rates.refresh(&self.net, self.nrepo, flows);
                self.pump_stats.rate_solves += u64::from(solved);
                self.rates.rates()
            };
            for (&i, &rate) in self.netidx.iter().zip(rates) {
                assert!(rate > 0.0, "max-min allocation starved an active transfer");
                horizon = horizon.min(self.now + self.running[i].net_remaining / rate);
            }
            if horizon.is_infinite() {
                // Nothing running and nothing arriving. Draining, any
                // queued or suspended job left is permanently stuck —
                // record and stop. Incrementally, a future submission
                // may still unstick things, so just stop.
                if drain {
                    for (id, _) in self.queue.by_id() {
                        self.violations
                            .push(format!("job {id} queued forever: no placement ever fits"));
                    }
                    for s in &self.suspended {
                        self.violations.push(format!(
                            "job {} suspended forever: its nodes never freed",
                            self.jobs[s.row].id
                        ));
                    }
                }
                return;
            }
            let dt = (horizon - self.now).max(0.0);
            // The migration trigger's baseline: what each transfer
            // would have moved this step under the same fair-share
            // contention with undegraded rate caps.
            if self.cfg.migration && !self.netidx.is_empty() && dt > 0.0 {
                let flows = self.netidx.iter().map(|&i| {
                    let r = &self.running[i];
                    NetFlow { repo: r.repo, site: r.site, cap_bits: r.net_cap.to_bits() }
                });
                let solved = self.expected_rates.refresh(&self.net, self.nrepo, flows);
                self.pump_stats.rate_solves += u64::from(solved);
                for (&i, &rate) in self.netidx.iter().zip(self.expected_rates.rates()) {
                    self.running[i].net_expected += rate * dt;
                }
            }
            for (&i, &rate) in self.netidx.iter().zip(rates) {
                self.running[i].net_remaining -= rate * dt;
            }
            if horizon > self.now {
                self.stalled = 0;
            }
            self.now = horizon;
        }
    }

    /// The arrival block: admit or reject every pending job whose
    /// arrival is due at `now`, writing the decision into its row.
    fn process_due_arrivals(&mut self) {
        while let Some(&(row, deadline_slack)) = self.pending.front() {
            if self.jobs[row].arrival > self.now + TIME_EPS {
                break;
            }
            self.pending.pop_front();
            self.inst.submitted.inc();
            let o = &self.jobs[row];
            let tenant = o.tenant;
            if tenant >= self.used_slots.len() {
                // Grown lazily: trailing zero-demand tenants never
                // change a water-filled allocation.
                self.used_slots.resize(tenant + 1, 0);
            }
            let model = self.app_of[row].map(|ix| &self.cfg.grid.apps[ix].1);
            let price = model.and_then(|model| {
                let backlog = self.backlog_slot_secs();
                self.pricing.price(
                    self.now,
                    &self.bw,
                    backlog,
                    model,
                    o.dataset_bytes,
                    deadline_slack,
                    o.arrival,
                )
            });
            let o = &mut self.jobs[row];
            o.standalone = price.as_ref().map(|(q, _)| q.standalone);
            o.deadline = price.as_ref().map(|&(_, deadline)| deadline);
            o.reject_reason = 'gate: {
                // Token-bucket gate: refill lazily, spend one token per
                // submission, reject (never queue) on an empty bucket.
                if let Some((q, tokens, last)) = self.buckets.get_mut(tenant) {
                    *tokens = (*tokens + q.refill_per_sec * (self.now - *last)).min(q.capacity);
                    *last = self.now;
                    if *tokens + TIME_EPS < 1.0 {
                        if let Some(c) = &self.inst.quota_rej {
                            c.inc();
                        }
                        break 'gate Some(format!(
                            "quota: tenant {tenant} bucket has {:.2} tokens, a submission needs 1",
                            *tokens
                        ));
                    }
                    *tokens -= 1.0;
                    if *tokens < -TIME_EPS {
                        // Structurally unreachable: the gate above
                        // rejects before the bucket can go negative.
                        if let Some(c) = &self.inst.quota_vio {
                            c.inc();
                        }
                    }
                }
                let Some((quote, deadline)) = price else {
                    break 'gate Some(if self.app_of[row].is_some() {
                        "no feasible placement on an empty grid".to_string()
                    } else {
                        format!("unknown app {:?}", o.app)
                    });
                };
                let estimate = quote.estimate;
                o.admission_estimate = Some(estimate);
                (quote.would_admit == Some(false)).then(|| {
                    format!(
                        "admission: predicted completion {estimate:.1}s past deadline {deadline:.1}s"
                    )
                })
            };
            o.admitted = o.reject_reason.is_none();
            if let Some(log) = self.events.as_mut() {
                log.push(CoreEvent::Submitted {
                    id: o.id,
                    tenant,
                    admitted: o.admitted,
                    reject_reason: o.reject_reason.clone(),
                    estimate: o.admission_estimate,
                });
            }
            if o.admitted {
                self.inst.admitted.inc();
                self.queue.push(o, row);
                self.depth_max = self.depth_max.max(self.queue.len());
                self.inst.depth.set(self.queue.len() as f64);
            } else {
                self.inst.rejected.inc();
            }
        }
    }

    /// The transition block: advance phases due at `now` and finalize
    /// completions.
    fn phase_transitions(&mut self) {
        self.finished.clear();
        for (ri, r) in self.running.iter_mut().enumerate() {
            match r.phase {
                Phase::Disk { until } if until <= self.now + TIME_EPS => {
                    r.disk_end = Some(self.now);
                    if r.predicted.t_network > TIME_EPS && r.bytes > 0.0 {
                        r.phase = Phase::Network;
                        r.net_started = self.now;
                        r.net_remaining = r.bytes;
                        r.net_cap = r.bytes / r.predicted.t_network;
                    } else {
                        r.network_end = Some(self.now);
                        r.phase =
                            Phase::Compute { until: self.now + r.predicted.t_compute.max(0.0) };
                    }
                }
                Phase::Network if r.net_remaining <= 1e-6 * r.bytes.max(1.0) => {
                    // Convert the observed stretch into an equivalent
                    // per-stream WAN bandwidth: the model's T̂_network
                    // scales as 1/b, so a transfer predicted at
                    // bandwidth b that took `elapsed` instead of `t̂_n`
                    // behaved like bandwidth `b * t̂_n / elapsed`.
                    // Uncontended transfers reproduce their prediction
                    // exactly and leave the estimate unchanged.
                    let elapsed = self.now - r.net_started;
                    if !r.no_feedback && elapsed > TIME_EPS && r.predicted.t_network > TIME_EPS {
                        let b_eff = r.placed_bw * r.predicted.t_network / elapsed;
                        self.estimators[r.repo].observe(b_eff);
                        self.bw[r.repo] = self.estimators[r.repo].estimate();
                    }
                    r.network_end = Some(self.now);
                    r.phase = Phase::Compute { until: self.now + r.predicted.t_compute.max(0.0) };
                }
                Phase::Migrating { until } if until <= self.now + TIME_EPS => {
                    r.phase = Phase::Network;
                }
                Phase::Compute { until } if until <= self.now + TIME_EPS => {
                    self.finished.push(ri);
                }
                _ => {}
            }
        }
        // Completions: release nodes, finalize outcomes.
        while let Some(ri) = self.finished.pop() {
            let r = self.running.remove(ri);
            self.free.release(r.repo, r.site, &r.config);
            self.used_slots[r.tenant] -= r.config.compute_nodes;
            self.inst.completed.inc();
            self.makespan = self.makespan.max(self.now);
            let o = &mut self.jobs[r.row];
            o.disk_end = r.disk_end;
            o.network_end = r.network_end;
            o.finish = Some(self.now);
            if let Some(w) = o.wait() {
                self.inst.wait.observe(w);
            }
            if let Some(s) = o.slowdown() {
                self.inst.slow.observe(s);
            }
            if o.met_deadline() == Some(false) {
                self.inst.misses.inc();
            }
            if let Some(log) = self.events.as_mut() {
                log.push(CoreEvent::Completed {
                    id: o.id,
                    at: self.now,
                    met_deadline: o.met_deadline(),
                });
            }
            // The completion as a test of the placement-time prediction,
            // read by the predictor and by the accuracy ledger. Only a
            // clean run is one: a preempted or migrated job's phase
            // boundaries say nothing about the prediction it was placed
            // on.
            let clean = o.preemptions.is_empty() && o.migration.is_none() && !r.no_feedback;
            let record = match (&o.placement, r.disk_end, r.network_end) {
                (Some(p), Some(de), Some(ne)) if clean => Some((
                    p,
                    [r.predicted.t_disk, r.predicted.t_network, r.predicted.t_compute],
                    [de - r.placed_at, ne - de, self.now - ne],
                )),
                _ => None,
            };
            if self.cfg.predictor.wants_observations() {
                // Independent of whether telemetry is armed. The
                // predictor may retrain here; every later scan prices
                // through it as it then is.
                if let Some((p, predicted, observed)) = record {
                    self.cfg.predictor.observe(&Observation {
                        app: Arc::clone(&o.app),
                        repo: Arc::clone(&p.repo_name),
                        data_nodes: r.config.data_nodes,
                        compute_nodes: r.config.compute_nodes,
                        wan_bw: r.placed_bw,
                        dataset_bytes: o.dataset_bytes,
                        predicted,
                        observed,
                    });
                }
            }
            if let Some(tel) = self.telemetry.as_mut() {
                let sample = record.map(|(p, predicted, observed)| AccuracySample {
                    seq: 0, // assigned by the ledger
                    id: o.id,
                    tenant: o.tenant,
                    app: Arc::clone(&o.app),
                    repo: Arc::clone(&p.repo_name),
                    config: Arc::clone(&p.config),
                    dataset_bytes: o.dataset_bytes,
                    predicted,
                    observed,
                    placed_at: r.placed_at,
                    finish: self.now,
                });
                let alarms = tel.on_completion(o, sample);
                if let Some(log) = self.events.as_mut() {
                    log.extend(alarms.into_iter().map(|alarm| CoreEvent::DriftAlarm { alarm }));
                }
            }
        }
    }

    /// The migration block: a transfer achieving well under its
    /// uncontended rate checkpoints its reduction object and switches
    /// replicas when `fg-predict`'s cost/benefit model favors the move
    /// (at most once per job).
    fn migration_check(&mut self) {
        if !self.cfg.migration {
            return;
        }
        let grid = &self.cfg.grid;
        for r in self.running.iter_mut() {
            if r.phase != Phase::Network {
                continue;
            }
            let o = &mut self.jobs[r.row];
            if o.migration.is_some() {
                continue;
            }
            let elapsed = self.now - r.net_started;
            if elapsed < MIGRATION_MIN_ELAPSED_SECS {
                continue;
            }
            let moved = r.bytes - r.net_remaining;
            if moved <= TIME_EPS || r.net_remaining <= 1e-6 * r.bytes.max(1.0) {
                continue;
            }
            let achieved = moved / elapsed;
            if r.net_expected <= TIME_EPS || moved >= (1.0 - MIGRATION_DEVIATION) * r.net_expected {
                continue;
            }
            let model = model_of(grid, &self.app_of, r.row);
            // Best alternative repository with free data nodes,
            // priced at its current bandwidth estimate.
            let mut best: Option<(usize, Prediction)> = None;
            for (ci, repo) in grid.repos.iter().enumerate() {
                if ci == r.repo || self.free.data()[ci] < r.config.data_nodes {
                    continue;
                }
                let candidate = DeploymentRef {
                    repository: &repo.site,
                    compute: &grid.sites[r.site].site,
                    stream_bw: self.bw[ci],
                    config: r.config,
                    cache: None,
                };
                let Ok(pred) = self.cfg.predictor.predict_deployment(
                    &model.profile,
                    model.classes,
                    candidate,
                    o.dataset_bytes,
                    &grid.factors,
                ) else {
                    continue;
                };
                if best.as_ref().is_none_or(|(_, b)| pred.total() < b.total()) {
                    best = Some((ci, pred));
                }
            }
            let Some((to, pred)) = best else { continue };
            // Remaining fraction of the transfer; the unstarted
            // compute scales by the same f on both sides so the
            // comparison hinges on the network remainder plus
            // the checkpoint move and restart retrieval.
            let f_rem = (r.net_remaining / r.bytes.max(1.0)).clamp(0.0, 1.0);
            let stay = r.net_remaining / achieved + f_rem * r.predicted.t_compute.max(0.0);
            let link = InterconnectParams::of_site(&grid.sites[r.site].site);
            let decision = decide_migration(stay, &pred, f_rem, model.profile.max_obj_bytes, &link);
            if !decision.worthwhile(MIGRATION_MARGIN) {
                continue;
            }
            // Commit: swap repositories, pause for the checkpoint
            // move, then resume the remaining bytes at the candidate's
            // uncontended rate.
            self.free.release_data(r.repo, r.config.data_nodes);
            self.free.alloc_data(to, r.config.data_nodes);
            let from_repo = Arc::clone(&self.names.repos[r.repo]);
            let to_repo = Arc::clone(&self.names.repos[to]);
            r.repo = to;
            r.placed_bw = self.bw[to];
            r.net_cap =
                if pred.t_network > TIME_EPS { r.bytes / pred.t_network } else { f64::INFINITY };
            r.no_feedback = true;
            r.phase = Phase::Migrating { until: self.now + MIGRATION_OVERHEAD_SECS };
            o.migration = Some(MigrationEvent {
                at: self.now,
                until: self.now + MIGRATION_OVERHEAD_SECS,
                from_repo: Arc::clone(&from_repo),
                to_repo: Arc::clone(&to_repo),
            });
            if let Some(c) = &self.inst.migrate {
                c.inc();
            }
            if let Some(c) = &self.inst.ckpt {
                c.inc();
            }
            if let Some(log) = self.events.as_mut() {
                log.push(CoreEvent::Migrated { id: o.id, at: self.now, from_repo, to_repo });
            }
        }
    }

    /// The scheduling pass: start every job the policy
    /// and fair shares allow, cheapest placement first within the
    /// policy order. Checkpointed jobs resume first; with preemption
    /// enabled, a head-of-queue job with a tighter deadline may evict
    /// a looser-deadline running job.
    fn schedule_pass(&mut self) {
        loop {
            // Resume checkpointed jobs first: they already hold an
            // admission, so their nodes have priority over new starts.
            // The restore pause is charged up front.
            let mut si = 0;
            while si < self.suspended.len() {
                let s = &self.suspended[si];
                let fits = s.config.data_nodes <= self.free.data()[s.repo]
                    && s.config.compute_nodes <= self.free.cmp()[s.site];
                if !fits {
                    si += 1;
                    continue;
                }
                let mut job = self.suspended.remove(si);
                self.free.alloc(job.repo, job.site, &job.config);
                self.used_slots[job.tenant] += job.config.compute_nodes;
                job.no_feedback = true;
                let o = &mut self.jobs[job.row];
                let p = o.preemptions.last_mut().expect("suspended job recorded its preemption");
                p.resumed_at = Some(self.now);
                // What the evicted phase had left, restarted after the
                // restore pause; a transfer keeps its remaining bytes.
                let resumed = |until: f64| {
                    self.now + PREEMPTION_OVERHEAD_SECS + (until - p.preempted_at).max(0.0)
                };
                job.phase = match job.phase {
                    Phase::Disk { until } => Phase::Disk { until: resumed(until) },
                    Phase::Network | Phase::Migrating { .. } => {
                        Phase::Migrating { until: self.now + PREEMPTION_OVERHEAD_SECS }
                    }
                    Phase::Compute { until } => Phase::Compute { until: resumed(until) },
                };
                if let Some(log) = self.events.as_mut() {
                    log.push(CoreEvent::Resumed { id: o.id, at: self.now });
                }
                self.running.push(job);
            }
            if self.queue.is_empty() {
                return;
            }
            let grid = &self.cfg.grid;
            // Saturation early-out: when no configuration in the menu
            // fits the largest free data slice *and* the largest free
            // compute slice, every placement query below would return
            // `None` (any site may pair with any repository, so the
            // maxima bound every candidate), and the quota
            // computation, the policy order walk, and both rounds are
            // pure overhead — skip them. Preemption is the one path
            // that can start a job without free nodes (it evicts a
            // victim first), so the shortcut only applies when
            // preemption is off. Decision-neutral by construction: it
            // suppresses only work that provably finds no start.
            if !self.cfg.preemption
                && !grid.configs.iter().any(|c| {
                    c.data_nodes <= self.free.max_data() && c.compute_nodes <= self.free.max_cmp()
                })
            {
                return;
            }
            // Every placement query of the pass is the paper's scan over
            // the slices free right now (or, for preemption, free once a
            // victim leaves) at the current bandwidth estimates, the same
            // scan an admission is priced with. It tests a candidate's
            // feasibility before it predicts it, so a query nothing fits
            // costs `repos × sites × configs` integer compares.
            let scans = &mut self.pump_stats.placement_scans;
            let (predictor, bw) = (self.cfg.predictor.as_ref(), &self.bw);
            let (jobs, app_of) = (&self.jobs, &self.app_of);
            let mut scan = |row: usize, free: &FreeSlices, quota_cap: Option<usize>| {
                *scans += 1;
                let model = model_of(grid, app_of, row);
                let (data, cmp) = (free.data(), free.cmp());
                let bytes = jobs[row].dataset_bytes;
                naive_best_placement_with(predictor, grid, model, bytes, data, cmp, bw, quota_cap)
            };
            // Max-min fair slot quotas over the tenants that want
            // slots. A queued job demands what it could use when placed
            // unconstrained — the largest configuration — so a tenant
            // alone on an idle grid is never capped below the best
            // placement by its own conservative demand. A suspended job
            // still demands the slots it will re-occupy.
            let ntenant = self.used_slots.len();
            let max_slots = grid.max_config_slots();
            let mut demands = vec![0usize; ntenant];
            for r in self.running.iter() {
                demands[r.tenant] += r.config.compute_nodes;
            }
            for s in self.suspended.iter() {
                demands[s.tenant] += s.config.compute_nodes;
            }
            for (t, d) in demands.iter_mut().enumerate() {
                *d += self.queue.queued_for(t) * max_slots;
            }
            let quota = fair_quota(self.pricing.total_slots, &demands);

            let headroom = |t: usize| quota[t].saturating_sub(self.used_slots[t]);

            // Round 1: jobs whose tenant is under quota, capped so the
            // start cannot push the tenant past its quota — the walk
            // over the under-quota tenants only, so a capped tenant's
            // jobs are never visited.
            let mut start: Option<(usize, Placement, StartKind)> = None;
            if self.cfg.policy.head_blocking() {
                // Only the global queue head may start; later jobs wait.
                if let Some((_, row)) = self.queue.head() {
                    let cap = headroom(self.jobs[row].tenant);
                    if cap >= self.min_slots {
                        if let Some(p) = scan(row, &self.free, Some(cap)) {
                            start = Some((row, p, StartKind::UnderQuota));
                        }
                    }
                }
            } else {
                let under_quota = (0..ntenant).filter(|&t| headroom(t) >= self.min_slots);
                for (_, row) in self.queue.walk(under_quota) {
                    let cap = headroom(self.jobs[row].tenant);
                    if let Some(p) = scan(row, &self.free, Some(cap)) {
                        start = Some((row, p, StartKind::UnderQuota));
                        break;
                    }
                }
                // Round 2: only when no under-quota start exists may a
                // backfilling policy start a job past its tenant's quota
                // — fairness must not cost work conservation.
                if start.is_none() {
                    for (_, row) in self.queue.walk(0..ntenant) {
                        if let Some(p) = scan(row, &self.free, None) {
                            start = Some((row, p, StartKind::Backfill));
                            break;
                        }
                    }
                }
            }
            // Preemption: when nothing can start, the head job by
            // policy order may evict a running job with a strictly
            // looser deadline. The victim (loosest deadline first) is
            // checkpointed off its nodes and the head job starts on
            // them in the same pass — deadline urgency overrides the
            // fair-share quota, so the start is exempt from the
            // fairness checks below.
            let preempting = start.is_none() && self.cfg.preemption;
            if let Some((_, head_row)) = preempting.then(|| self.queue.head()).flatten() {
                if let Some(qd) = self.jobs[head_row].deadline {
                    let deadline = |i: usize| self.jobs[self.running[i].row].deadline;
                    let mut victims: Vec<usize> = (0..self.running.len())
                        .filter(|&i| deadline(i).is_some_and(|d| d > qd + TIME_EPS))
                        .collect();
                    victims.sort_by(|&a, &b| {
                        let (da, db) = (deadline(a).unwrap(), deadline(b).unwrap());
                        db.total_cmp(&da).then(self.running[a].row.cmp(&self.running[b].row))
                    });
                    for vi in victims {
                        let v = &self.running[vi];
                        // Hypothetical slices: the victim's nodes
                        // returned, nothing committed yet.
                        let mut hyp = self.free.clone();
                        hyp.release(v.repo, v.site, &v.config);
                        let Some(p) = scan(head_row, &hyp, None) else { continue };
                        let v = self.running.remove(vi);
                        self.free.release(v.repo, v.site, &v.config);
                        self.used_slots[v.tenant] -= v.config.compute_nodes;
                        let o = &mut self.jobs[v.row];
                        o.preemptions
                            .push(PreemptionEvent { preempted_at: self.now, resumed_at: None });
                        if let Some(c) = &self.inst.preempt {
                            c.inc();
                        }
                        if let Some(c) = &self.inst.ckpt {
                            c.inc();
                        }
                        if let Some(evs) = self.events.as_mut() {
                            evs.push(CoreEvent::Preempted { id: o.id, at: self.now });
                        }
                        self.suspended.push(v);
                        start = Some((head_row, p, StartKind::Preempt));
                        break;
                    }
                }
            }
            let Some((row, placement, kind)) = start else {
                // Redundant guard for the work-conservation invariant:
                // with a backfilling policy, no queued job may fit the
                // free nodes once the pass declares itself done. It
                // asks round 2's question of every queued job again, and
                // round 2 just proved no start exists, so it is pure
                // double-checking — debug builds
                // only, where the test suite runs; a release sweep over
                // a long saturated backlog would re-scan the whole
                // queue after every pass.
                if cfg!(debug_assertions) && !self.cfg.policy.head_blocking() {
                    let (data, cmp) = (self.free.data(), self.free.cmp());
                    for (id, row) in self.queue.by_id() {
                        let model = model_of(grid, &self.app_of, row);
                        let bytes = self.jobs[row].dataset_bytes;
                        if naive_best_placement_with(
                            predictor, grid, model, bytes, data, cmp, bw, None,
                        )
                        .is_some()
                        {
                            self.violations.push(format!(
                                "work conservation: job {id} fits free nodes but was not started at t={:.3}",
                                self.now
                            ));
                        }
                    }
                }
                return;
            };

            let o = &mut self.jobs[row];
            self.queue.remove(o, row);
            let (id, tenant) = (o.id, o.tenant);
            match kind {
                StartKind::Backfill => {
                    self.inst.backfill.inc();
                    if quota[tenant].saturating_sub(self.used_slots[tenant]) >= self.min_slots {
                        self.violations.push(format!(
                            "fair share: job {id} backfilled past quota although tenant {tenant} had headroom at t={:.3}",
                            self.now
                        ));
                    }
                }
                StartKind::UnderQuota
                    if self.used_slots[tenant] + placement.cfg.compute_nodes > quota[tenant] =>
                {
                    self.violations.push(format!(
                        "fair share: job {id} pushed tenant {tenant} past its quota at t={:.3}",
                        self.now
                    ));
                }
                StartKind::UnderQuota | StartKind::Preempt => {}
            }
            self.free.alloc(placement.repo, placement.site, &placement.cfg);
            self.used_slots[tenant] += placement.cfg.compute_nodes;
            // The scan chose a configuration of the grid's menu; equal
            // entries have equal labels.
            let config = grid.configs.iter().position(|c| *c == placement.cfg);
            let info = PlacementInfo {
                repo: placement.repo,
                site: placement.site,
                repo_name: Arc::clone(&self.names.repos[placement.repo]),
                site_name: Arc::clone(&self.names.sites[placement.site]),
                config: Arc::clone(&self.names.configs[config.expect("a menu configuration")]),
                data_nodes: placement.cfg.data_nodes,
                compute_nodes: placement.cfg.compute_nodes,
            };
            if let Some(log) = self.events.as_mut() {
                log.push(CoreEvent::Placed {
                    id,
                    at: self.now,
                    repo: Arc::clone(&info.repo_name),
                    site: Arc::clone(&info.site_name),
                    config: Arc::clone(&info.config),
                    predicted: placement.predicted.total(),
                });
            }
            o.placed_at = Some(self.now);
            o.predicted = Some(placement.predicted.total());
            o.placement = Some(info);
            self.pump_stats.starts += 1;
            self.running.push(Running {
                row,
                tenant,
                repo: placement.repo,
                site: placement.site,
                config: placement.cfg,
                predicted: placement.predicted,
                placed_at: self.now,
                phase: Phase::Disk { until: self.now + placement.predicted.t_disk.max(0.0) },
                bytes: o.dataset_bytes as f64,
                net_started: self.now,
                net_remaining: 0.0,
                placed_bw: self.bw[placement.repo],
                net_cap: f64::INFINITY,
                disk_end: None,
                network_end: None,
                net_expected: 0.0,
                no_feedback: false,
            });
        }
    }
}

/// A job's admission price — the answer to "if a job with this app and
/// dataset arrived right now, what would the scheduler predict?". The
/// arrival block and [`SchedSnapshot::quote`] get it from the same
/// call, so for a job actually submitted at the snapshot's instant the
/// quote *is* the admission estimate (`tests/quote_admission.rs` and
/// `tests/serve_differential.rs` pin this bit for bit).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictionQuote {
    /// Standalone predicted execution time (empty grid, nominal
    /// bandwidth) — the deadline/slowdown baseline.
    pub standalone: f64,
    /// Load-corrected execution prediction (best placement on the
    /// whole grid at current bandwidth estimates).
    pub corrected: f64,
    /// Predicted completion instant: snapshot time plus fluid backlog
    /// plus the corrected prediction.
    pub estimate: f64,
    /// Whether an admitting policy would accept the job at the given
    /// deadline slack (`None` when the policy never rejects).
    pub would_admit: Option<bool>,
}

/// What an admission is priced from that never changes while a core
/// runs: the grid, the predictor, the policy, and the grid idle — every
/// data and compute node free, every repository at its nominal
/// bandwidth. Built once per core and shared by `Arc` with its
/// snapshots.
#[derive(Debug)]
struct Pricing {
    grid: Arc<GridSpec>,
    predictor: Arc<dyn Predictor>,
    policy: Policy,
    idle_data: Vec<usize>,
    idle_cmp: Vec<usize>,
    nominal_bw: Vec<f64>,
    total_slots: usize,
}

impl Pricing {
    fn new(scheduler: &Scheduler) -> Pricing {
        let grid = &scheduler.grid;
        Pricing {
            grid: Arc::clone(grid),
            predictor: Arc::clone(&scheduler.predictor),
            policy: scheduler.policy,
            idle_data: grid.repos.iter().map(|r| r.site.max_nodes).collect(),
            idle_cmp: grid.sites.iter().map(|s| s.site.max_nodes).collect(),
            nominal_bw: grid.repos.iter().map(|r| r.wan.stream_bw).collect(),
            total_slots: grid.total_compute_slots(),
        }
    }

    /// Price one admission at instant `now`, bandwidth estimates `bw`
    /// and fluid backlog `backlog_slot_secs`, with the deadline instant
    /// (`anchor` plus slack × standalone) its verdict was judged
    /// against. Both predictions are the paper's enumeration over the
    /// *whole* grid — a job is assumed to eventually get its best
    /// placement, not the currently free one: standalone at nominal
    /// bandwidth, corrected at `bw` (falling back to standalone when no
    /// candidate prices at it), both from one walk that prices each
    /// prepared pair at the two vectors. The wait term is the fluid
    /// backlog spread over every slot. `None` when nothing places even
    /// on an idle grid.
    #[allow(clippy::too_many_arguments)]
    fn price(
        &self,
        now: f64,
        bw: &[f64],
        backlog_slot_secs: f64,
        model: &AppModel,
        dataset_bytes: u64,
        deadline_slack: f64,
        anchor: f64,
    ) -> Option<(PredictionQuote, f64)> {
        let [standalone, corrected] = best_placements(
            self.predictor.as_ref(),
            &self.grid,
            model,
            dataset_bytes,
            &self.idle_data,
            &self.idle_cmp,
            [&self.nominal_bw, bw],
            None,
        )
        .map(|best| best.map(|p| p.predicted.total()));
        let standalone = standalone?;
        let corrected = corrected.unwrap_or(standalone);
        let estimate = now + backlog_slot_secs / self.total_slots as f64 + corrected;
        let deadline = anchor + deadline_slack * standalone;
        let would_admit = self.policy.admits().then_some(estimate <= deadline + TIME_EPS);
        Some((PredictionQuote { standalone, corrected, estimate, would_admit }, deadline))
    }
}

/// An immutable copy of what the core prices admissions from, detached
/// from the event loop. Every method takes `&self`: a server can share
/// one among its connection threads and answer quotes concurrently,
/// without locking the live core.
#[derive(Debug, Clone)]
pub struct SchedSnapshot {
    pricing: Arc<Pricing>,
    now: f64,
    bw: Vec<f64>,
    backlog_slot_secs: f64,
}

impl SchedSnapshot {
    /// The sim-clock instant the snapshot was taken at.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Quote the admission price a job with this app and dataset would
    /// receive if it arrived at the snapshot instant, with an
    /// admit/reject verdict at `deadline_slack` when the policy
    /// rejects. `None` when [`SchedCore::submit`] would refuse or
    /// reject the job outright: a dataset size or slack that fails
    /// [`JobSpec::validate`], an unknown app, or nothing placing even
    /// on an idle grid.
    pub fn quote(
        &self,
        app: &str,
        dataset_bytes: u64,
        deadline_slack: f64,
    ) -> Option<PredictionQuote> {
        check_job_fields(self.now, dataset_bytes, deadline_slack).ok()?;
        let model = self.pricing.grid.app(app)?;
        let (now, bw, backlog) = (self.now, &self.bw, self.backlog_slot_secs);
        let price = self.pricing.price(now, bw, backlog, model, dataset_bytes, deadline_slack, now);
        price.map(|(quote, _)| quote)
    }
}

/// Integer max-min water-filling, computed in bulk. The reference
/// formulation hands out one slot at a time to the tenant with the
/// smallest allocation still under its demand (ties: lowest index) —
/// `O(total × tenants)`, which a scheduling pass pays on every
/// iteration. This closed form finds the water level directly: the
/// largest `L` with `Σ min(demand, L) <= total` satisfies everyone
/// below the level, and the leftover slots go one each to the
/// lowest-indexed tenants still above it — exactly where the
/// round-robin loop would have stopped, so the result is bit-identical
/// (`fair_quota_matches_the_slot_by_slot_reference` pins this).
pub(crate) fn fair_quota(total: usize, demands: &[usize]) -> Vec<usize> {
    let want: usize = demands.iter().sum();
    if want <= total {
        return demands.to_vec();
    }
    // want > total implies demands is non-empty and the loop below
    // always finds a level before running out of sorted demands.
    let mut sorted = demands.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    let mut satisfied = 0usize; // slots consumed by demands under the level
    let mut level = 0usize;
    let mut remainder = 0usize;
    for (k, &d) in sorted.iter().enumerate() {
        if satisfied + (n - k) * d <= total {
            satisfied += d;
        } else {
            level = (total - satisfied) / (n - k);
            remainder = (total - satisfied) % (n - k);
            break;
        }
    }
    let mut alloc: Vec<usize> = demands.iter().map(|&d| d.min(level)).collect();
    if remainder > 0 {
        for (i, &d) in demands.iter().enumerate() {
            if d > level {
                alloc[i] += 1;
                remainder -= 1;
                if remainder == 0 {
                    break;
                }
            }
        }
    }
    alloc
}

/// Post-hoc span tree: one `Run` root, one `Job` span per submission in
/// arrival order with `JobQueued` and phase children, integer attrs for
/// the figures and exporters.
pub(crate) fn build_trace(mut tracer: Tracer, outcomes: &[JobOutcome], makespan: f64) -> Trace {
    let t = SimTime::from_secs_f64;
    let end_time = outcomes.iter().map(|o| o.finish.unwrap_or(o.arrival)).fold(makespan, f64::max);
    // The root, and per job its span, its wait and at most three
    // phases; only a preemption or a migration adds to that.
    tracer.reserve(1 + 5 * outcomes.len());
    let run = tracer.begin(SpanKind::Run, None, SimTime::ZERO);
    let mut order: Vec<usize> = (0..outcomes.len()).collect();
    order.sort_by(|&a, &b| {
        outcomes[a]
            .arrival
            .total_cmp(&outcomes[b].arrival)
            .then(outcomes[a].id.cmp(&outcomes[b].id))
    });
    for &i in &order {
        let o = &outcomes[i];
        let job = tracer.begin(SpanKind::Job, None, t(o.arrival));
        let optional = [o.standalone.is_some(), o.predicted.is_some(), o.met_deadline().is_some()];
        tracer.reserve_attrs(job, 4 + optional.iter().filter(|&&set| set).count());
        tracer.attr(job, "job_id", o.id as u64);
        tracer.attr(job, "tenant", o.tenant as u64);
        tracer.attr(job, "dataset_bytes", o.dataset_bytes);
        tracer.attr(job, "admitted", u64::from(o.admitted));
        if let Some(s) = o.standalone {
            tracer.attr(job, "standalone_ms", (s * 1e3).round() as u64);
        }
        if let Some(p) = o.predicted {
            tracer.attr(job, "predicted_ms", (p * 1e3).round() as u64);
        }
        if let Some(met) = o.met_deadline() {
            tracer.attr(job, "met_deadline", u64::from(met));
        }
        match (o.placed_at, o.disk_end, o.network_end, o.finish) {
            (Some(placed), Some(disk), Some(netw), Some(finish)) => {
                let queued = tracer.record(SpanKind::JobQueued, None, t(o.arrival), t(placed));
                let _ = queued;
                tracer.record(SpanKind::Retrieval, None, t(placed), t(disk));
                if netw > disk {
                    tracer.record(SpanKind::Network, None, t(disk), t(netw));
                }
                tracer.record(SpanKind::Compute, None, t(netw), t(finish));
                // Disruption history: a zero-length `Checkpoint` marker
                // at each eviction or migration instant, plus the
                // off-grid / switching window it opened.
                for p in &o.preemptions {
                    let at = t(p.preempted_at);
                    tracer.record(SpanKind::Checkpoint, None, at, at);
                    tracer.record(SpanKind::Preempted, None, at, t(p.resumed_at.unwrap_or(finish)));
                }
                if let Some(m) = &o.migration {
                    tracer.record(SpanKind::Checkpoint, None, t(m.at), t(m.at));
                    tracer.record(SpanKind::Migrate, None, t(m.at), t(m.until));
                }
                tracer.end(job, t(finish));
            }
            _ => {
                // Rejected (or stuck) jobs: zero-length span at arrival.
                tracer.end(job, t(o.arrival));
            }
        }
    }
    tracer.end(run, t(end_time));
    tracer.finish(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{RepoSpec, SiteSpec};
    use fg_cluster::{ComputeSite, Configuration, RepositorySite, Wan};
    use fg_predict::{AnalyticalPredictor, AppClasses, Profile};
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn models() -> Vec<(String, AppModel)> {
        let kmeans = Profile {
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
        };
        let em = Profile {
            app: "em".into(),
            t_compute: 500.0,
            t_ro: 3.0,
            max_obj_bytes: 40_000,
            passes: 10,
            ..kmeans.clone()
        };
        vec![
            ("em".into(), AppModel { profile: em, classes: AppClasses::LINEAR_CONSTANT_LINEAR }),
            (
                "kmeans".into(),
                AppModel { profile: kmeans, classes: AppClasses::CONSTANT_LINEAR_CONSTANT },
            ),
        ]
    }

    /// An admission's one walk at (nominal, current) is two
    /// single-vector scans: over random grids, menus (some fitting
    /// nowhere) and current-bandwidth vectors — entries no target
    /// accepts included, so a repository, or every repository, fails to
    /// price at the current estimates and `corrected` falls back to
    /// `standalone` — every field of the price bit-equals the one built
    /// from `naive_best_placement_with` called twice.
    #[test]
    fn an_admission_walk_is_two_single_vector_scans() {
        let case = (
            collection::vec((1usize..9, 2e5f64..2e6, 0usize..8, 0.25f64..2.0), 1..4),
            collection::vec(1usize..17, 1..4),
            collection::vec(any::<bool>(), 5..6),
            (0usize..2, 0usize..4, 0.5f64..4.0, 0.0f64..5e3),
        );
        let (mut priced, mut unplaced, mut fell_back, mut moved) = (0u64, 0u64, 0u64, 0u64);
        for n in 0..256 {
            let mut rng = TestRng::for_case(n);
            let (repos, sites, menu, (app, size, slack, backlog)) = case.generate(&mut rng);
            let grid = GridSpec {
                repos: repos
                    .iter()
                    .enumerate()
                    .map(|(i, &(nodes, bw, _, _))| RepoSpec {
                        site: RepositorySite::pentium_repository(&format!("repo-{i}"), nodes),
                        wan: Wan::per_stream(bw),
                        wan_capacity: 4.0 * bw,
                    })
                    .collect(),
                sites: sites
                    .iter()
                    .enumerate()
                    .map(|(i, &nodes)| SiteSpec {
                        site: ComputeSite::pentium_myrinet(&format!("site-{i}"), nodes),
                        ingress_capacity: 8e6,
                    })
                    .collect(),
                configs: [(1, 1), (1, 2), (2, 4), (4, 8), (8, 16)]
                    .iter()
                    .zip(&menu)
                    .filter(|(_, &keep)| keep)
                    .map(|(&(d, c), _)| Configuration::new(d, c))
                    .collect(),
                apps: models(),
                factors: HashMap::new(),
            };
            let scheduler = Scheduler::new(grid, Policy::EdfAdmit);
            let pricing = Pricing::new(&scheduler);
            let grid = &scheduler.grid;
            // The current estimates: drifted, or (one draw in four per
            // repository) something no target accepts.
            let current: Vec<f64> = repos
                .iter()
                .map(|&(_, bw, broken, drift)| match broken {
                    0 => 0.0,
                    1 => f64::NAN,
                    _ => bw * drift,
                })
                .collect();
            let (_, model) = &grid.apps[app];
            let bytes = [1u64 << 20, 64 << 20, 800 << 20, 12_800 << 20][size];
            let scan = |bw: &[f64]| {
                naive_best_placement_with(
                    &AnalyticalPredictor,
                    grid,
                    model,
                    bytes,
                    &pricing.idle_data,
                    &pricing.idle_cmp,
                    bw,
                    None,
                )
                .map(|p| p.predicted.total())
            };
            let got = pricing.price(100.0, &current, backlog, model, bytes, slack, 90.0);
            let Some(standalone) = scan(&pricing.nominal_bw) else {
                assert_eq!(got, None, "case {n}");
                unplaced += 1;
                continue;
            };
            let at_current = scan(&current);
            let corrected = at_current.unwrap_or(standalone);
            let estimate = 100.0 + backlog / grid.total_compute_slots() as f64 + corrected;
            let deadline = 90.0 + slack * standalone;
            let (quote, got_deadline) = got.expect("the standalone scan placed");
            assert_eq!(quote.standalone.to_bits(), standalone.to_bits(), "case {n}");
            assert_eq!(quote.corrected.to_bits(), corrected.to_bits(), "case {n}");
            assert_eq!(quote.estimate.to_bits(), estimate.to_bits(), "case {n}");
            assert_eq!(got_deadline.to_bits(), deadline.to_bits(), "case {n}");
            assert_eq!(quote.would_admit, Some(estimate <= deadline + TIME_EPS), "case {n}");
            priced += 1;
            fell_back += u64::from(at_current.is_none());
            moved += u64::from(corrected != standalone);
        }
        // The generator reaches what the claim is about.
        assert!(priced > 150, "{priced} priced");
        assert!(unplaced >= 5, "{unplaced} placing nowhere");
        assert!(fell_back >= 5, "{fell_back} fallbacks");
        assert!(moved > 100, "{moved} corrected predictions away from standalone");
    }

    #[test]
    fn fair_quota_water_fills() {
        assert_eq!(fair_quota(10, &[4, 4, 4]), vec![4, 3, 3]);
        assert_eq!(fair_quota(12, &[2, 8, 8]), vec![2, 5, 5]);
        assert_eq!(fair_quota(12, &[1, 2, 3]), vec![1, 2, 3]);
        assert_eq!(fair_quota(3, &[5, 5, 5]), vec![1, 1, 1]);
        assert_eq!(fair_quota(0, &[5, 5]), vec![0, 0]);
        assert_eq!(fair_quota(7, &[0, 9, 3]), vec![0, 4, 3]);
        assert_eq!(fair_quota(10, &[2, 8, 8]), vec![2, 4, 4]);
        assert_eq!(fair_quota(24, &[2, 2, 2]), vec![2, 2, 2]);
        assert_eq!(fair_quota(0, &[5]), vec![0]);
        assert_eq!(fair_quota(5, &[]), Vec::<usize>::new());
        assert_eq!(fair_quota(7, &[0, 3, 0, 9]), vec![0, 3, 0, 4]);
        assert_eq!(fair_quota(3, &[5, 5, 5, 5]), vec![1, 1, 1, 0]);
    }

    /// The slot-by-slot reference the closed form replaces.
    fn fair_quota_reference(total: usize, demands: &[usize]) -> Vec<usize> {
        let mut alloc = vec![0usize; demands.len()];
        let mut left = total;
        while left > 0 {
            let candidate = (0..demands.len())
                .filter(|&i| alloc[i] < demands[i])
                .min_by_key(|&i| (alloc[i], i));
            match candidate {
                Some(i) => {
                    alloc[i] += 1;
                    left -= 1;
                }
                None => break,
            }
        }
        alloc
    }

    proptest! {
        #[test]
        fn fair_quota_matches_the_slot_by_slot_reference(
            total in 0usize..64,
            demands in proptest::collection::vec(0usize..16, 0..8),
        ) {
            prop_assert_eq!(fair_quota(total, &demands), fair_quota_reference(total, &demands));
        }

        /// Growing the tenant vector with trailing zero demands never
        /// changes a real tenant's allocation — the property that lets
        /// the incremental core size `used_slots` lazily.
        #[test]
        fn trailing_zero_demands_are_neutral(
            total in 0usize..64,
            demands in proptest::collection::vec(0usize..16, 0..8),
            extra in 0usize..4,
        ) {
            let mut grown = demands.clone();
            grown.resize(demands.len() + extra, 0);
            let base = fair_quota(total, &demands);
            let wide = fair_quota(total, &grown);
            prop_assert_eq!(&wide[..demands.len()], &base[..]);
            prop_assert!(wide[demands.len()..].iter().all(|&a| a == 0));
        }
    }
}
