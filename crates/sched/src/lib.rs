//! # fg-sched — multi-tenant job scheduling over the prediction model
//!
//! The paper's prediction framework exists to drive *resource
//! selection*, but selection for a single job in an idle grid is the
//! easy case. Real grid deployments face streams of concurrent jobs
//! from many tenants competing for repositories, WAN links, and compute
//! sites, and observed transfer rates degrade under load in ways a
//! static profile misses. This crate makes the predictor earn its keep
//! online:
//!
//! * [`workload`] — seeded, deterministic job streams: per-tenant
//!   arrival processes (homogeneous or sinusoidally-modulated Poisson,
//!   bag-of-tasks burst sessions), heavy-tailed dataset-size
//!   distributions (lognormal, Pareto, body+tail mixtures alongside
//!   the legacy log-uniform), [`LoadLevel`] × [`WorkloadShape`]
//!   presets shaped like published grid traces, and deadline-slack
//!   distributions.
//! * [`replay`] — the JSONL trace schema: dump any generated workload
//!   to a self-describing text trace and replay external traces
//!   through the same validated [`replay::Workload`] path, so recorded
//!   and synthetic traffic are interchangeable inputs to the
//!   scheduler.
//! * [`grid`] — the static grid description: replicated repositories
//!   with capacitated WAN uplinks, compute sites with capacitated
//!   ingress, the configuration menu, and per-app prediction models.
//! * [`policy`] — pluggable queueing disciplines: FCFS, FCFS with
//!   backfilling, shortest-predicted-job-first, and deadline EDF with
//!   predictor-based admission control.
//! * [`sched`] — the sim-clock event loop. Placement ranks every
//!   (repository, site, configuration) triple that fits the free node
//!   slices via `fg-predict`'s fallible ranking; concurrent transfer
//!   phases are stretched by max-min fair sharing of the capacitated
//!   links ([`fg_sim::FairShareSim`]'s fluid model); the achieved
//!   per-stream bandwidth of every completed transfer feeds a per-repo
//!   [`fg_predict::bandwidth`] estimator so later placements and
//!   admission decisions use load-corrected predictions. Every job gets
//!   an [`fg_trace`] span tree and the registry gains queue-depth
//!   gauges, admission counters, and wait/slowdown histograms.
//!   Opt-in extensions (all default-off): deadline-driven preemption
//!   with checkpoint/resume, mid-run replica migration gated by
//!   `fg-predict`'s cost/benefit model, per-tenant token-bucket
//!   submission quotas, and WAN-degradation injection for experiments.
//!
//! Everything is deterministic: the same seed and workload preset
//! produce a bit-identical schedule, trace, and figure.

#![warn(missing_docs)]

pub mod core;
pub mod grid;
pub mod ledger;
pub mod placement;
pub mod policy;
mod queue;
pub mod replay;
pub mod sched;
pub mod telemetry;
pub mod workload;

pub use crate::core::{
    CoreEvent, CoreStats, PredictionQuote, PumpStats, SchedCore, SchedSnapshot, SubmitError,
    SubmitOutcome,
};
pub use grid::{AppModel, GridSpec, RepoSpec, SiteSpec};
pub use ledger::{
    AccuracyLedger, AccuracySample, Component, DriftAlarm, DriftConfig, KeyDrift, KeyLedger,
    ResidualStat, LEDGER_VERSION,
};
pub use placement::{
    naive_best_placement_with, FreeSlices, Placement, PlacementEngine, PlacementStats,
};
pub use policy::Policy;
pub use replay::{ReplayError, Workload, WorkloadStats};
pub use sched::{
    Degradation, JobOutcome, MigrationEvent, PlacementInfo, PreemptionEvent, SchedResult,
    Scheduler, TenantQuota, MIGRATION_DEVIATION, MIGRATION_MARGIN, MIGRATION_MIN_ELAPSED_SECS,
    MIGRATION_OVERHEAD_SECS, PREEMPTION_OVERHEAD_SECS,
};
pub use telemetry::{
    TelemetryConfig, TelemetryReport, TelemetrySnapshot, TelemetryState, TenantSlo,
};
pub use workload::{
    ArrivalProcess, JobSpec, LoadLevel, Sinusoid, SizeDist, TenantSpec, WorkloadError,
    WorkloadShape, WorkloadSpec, MAX_TENANTS,
};
