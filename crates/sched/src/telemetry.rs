//! Live telemetry over the decision core: per-tenant SLO gauges fed
//! by completions, windowed queue-wait quantiles, and the
//! [`AccuracyLedger`]'s drift detector — everything a running
//! `fg-serve` instance streams to metrics subscribers.
//!
//! Armed through [`Scheduler::with_telemetry`]; off by default, so
//! batch runs (and the golden traces pinned to them) pay nothing and
//! change nothing. Telemetry is strictly observational: it never
//! touches a scheduling decision, which is what lets `fg-serve` arm
//! it unconditionally while staying bit-identical to a direct
//! [`Scheduler::run`].
//!
//! [`Scheduler::with_telemetry`]: crate::sched::Scheduler::with_telemetry

use crate::ledger::{AccuracyLedger, AccuracySample, DriftAlarm, DriftConfig, KeyDrift};
use crate::sched::JobOutcome;
use fg_trace::{SlidingHistogram, WindowSpec};
use serde::{Deserialize, Serialize};

/// Telemetry tuning: the drift detector plus the queue-wait window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryConfig {
    /// Accuracy-ledger and drift-detector tuning.
    pub drift: DriftConfig,
    /// Sliding window for per-tenant queue-wait quantiles (sim-clock
    /// seconds).
    pub wait_window: WindowSpec,
    /// Value-bucket bounds for the windowed wait histograms, seconds.
    pub wait_bounds: Vec<f64>,
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig {
            drift: DriftConfig::default(),
            // One hour of sim time in one-minute buckets.
            wait_window: WindowSpec::new(60.0, 60),
            wait_bounds: vec![1.0, 5.0, 15.0, 60.0, 300.0, 1800.0],
        }
    }
}

/// One tenant's live SLO gauges.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSlo {
    /// Tenant index.
    pub tenant: usize,
    /// Jobs completed.
    pub completed: u64,
    /// Completions that missed their deadline.
    pub deadline_violations: u64,
    /// `deadline_violations / completed` (0 before the first
    /// completion).
    pub violation_rate: f64,
    /// Mean relative error of the admission-time completion estimate
    /// (`|finish − estimate| / turnaround`), over completions that had
    /// an estimate — "how honest were our quotes".
    pub mean_quote_error: f64,
    /// P99 queue wait over the sliding window, seconds; `None` when
    /// the window holds no completions.
    pub queue_wait_p99: Option<f64>,
}

/// A frozen, serializable view of the telemetry plane at one instant —
/// the payload of `fg-serve`'s `MetricsSnapshot` frames.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Sim-clock instant the snapshot was taken at.
    pub now: f64,
    /// Monotone change counter: bumps on every completion, so a
    /// subscriber (or the serving session) can skip snapshots that
    /// cannot have changed.
    pub epoch: u64,
    /// Accuracy samples ingested so far.
    pub samples: u64,
    /// Per-tenant SLO gauges, indexed by tenant.
    pub tenants: Vec<TenantSlo>,
    /// Per-`(app, repository)` residual statistics.
    pub keys: Vec<KeyDrift>,
    /// Every drift alarm raised so far, in firing order.
    pub alarms: Vec<DriftAlarm>,
}

/// Per-tenant cumulative accumulators.
#[derive(Debug, Clone, Default, PartialEq)]
struct TenantAcc {
    completed: u64,
    violations: u64,
    err_sum: f64,
    err_count: u64,
}

/// The live telemetry state owned by a [`SchedCore`] when armed.
///
/// [`SchedCore`]: crate::core::SchedCore
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryState {
    cfg: TelemetryConfig,
    ledger: AccuracyLedger,
    tenants: Vec<TenantAcc>,
    waits: Vec<SlidingHistogram>,
    epoch: u64,
}

impl TelemetryState {
    /// Fresh state under `cfg`.
    pub fn new(cfg: TelemetryConfig) -> TelemetryState {
        let ledger = AccuracyLedger::new(cfg.drift);
        TelemetryState { cfg, ledger, tenants: Vec::new(), waits: Vec::new(), epoch: 0 }
    }

    /// The accuracy ledger.
    pub fn ledger(&self) -> &AccuracyLedger {
        &self.ledger
    }

    /// The change counter (bumps on every completion).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    fn tenant_mut(&mut self, tenant: usize) -> &mut TenantAcc {
        while self.tenants.len() <= tenant {
            self.tenants.push(TenantAcc::default());
            self.waits.push(SlidingHistogram::new(self.cfg.wait_window, &self.cfg.wait_bounds));
        }
        &mut self.tenants[tenant]
    }

    /// Fold one completed job in: SLO accumulators always, the
    /// accuracy ledger when the observation was clean (`sample` is
    /// `Some`). Returns the drift alarms the sample tripped.
    pub fn on_completion(
        &mut self,
        outcome: &JobOutcome,
        sample: Option<AccuracySample>,
    ) -> Vec<DriftAlarm> {
        self.epoch += 1;
        let finish = outcome.finish.expect("completion hook runs on completed outcomes");
        let acc = self.tenant_mut(outcome.tenant);
        acc.completed += 1;
        if outcome.met_deadline() == Some(false) {
            acc.violations += 1;
        }
        if let Some(err) = outcome.completion_error() {
            acc.err_sum += err;
            acc.err_count += 1;
        }
        if let Some(w) = outcome.wait() {
            self.waits[outcome.tenant].observe(finish, w);
        }
        match sample {
            Some(s) => self.ledger.ingest(s),
            None => Vec::new(),
        }
    }

    /// Freeze the plane at instant `now`. Takes `&mut self` because
    /// reading the sliding windows rotates expired buckets out.
    pub fn snapshot(&mut self, now: f64) -> TelemetrySnapshot {
        let mut tenants = Vec::with_capacity(self.tenants.len());
        for (t, acc) in self.tenants.iter().enumerate() {
            let violation_rate =
                if acc.completed == 0 { 0.0 } else { acc.violations as f64 / acc.completed as f64 };
            let mean_quote_error =
                if acc.err_count == 0 { 0.0 } else { acc.err_sum / acc.err_count as f64 };
            tenants.push(TenantSlo {
                tenant: t,
                completed: acc.completed,
                deadline_violations: acc.violations,
                violation_rate,
                mean_quote_error,
                queue_wait_p99: None, // filled below (waits needs &mut)
            });
        }
        for (t, w) in self.waits.iter_mut().enumerate() {
            tenants[t].queue_wait_p99 = w.quantile(now, 0.99);
        }
        TelemetrySnapshot {
            now,
            epoch: self.epoch,
            samples: self.ledger.total(),
            tenants,
            keys: self.ledger.key_drift(),
            alarms: self.ledger.alarms().to_vec(),
        }
    }

    /// What a drained run hands back: the plane frozen at `now`, and
    /// the ledger itself, moved out.
    pub fn into_report(mut self, now: f64) -> TelemetryReport {
        let snapshot = self.snapshot(now);
        TelemetryReport { snapshot, ledger: self.ledger }
    }
}

/// What a telemetry-armed run hands back in
/// [`SchedResult`](crate::sched::SchedResult): the final snapshot plus
/// the full ledger (for dumping the training corpus or auditing the
/// alarms).
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryReport {
    /// The plane frozen at drain time.
    pub snapshot: TelemetrySnapshot,
    /// The accuracy ledger, rings and statistics intact.
    pub ledger: AccuracyLedger,
}
