//! Seeded, deterministic multi-tenant job streams.
//!
//! Grid-trace characterizations (Guazzone et al., *Mining the Workload
//! of Real Grid Computing Systems*) report three dominant structures in
//! real grid traffic: heavy-tailed job sizes (lognormal bodies with
//! Pareto tails), diurnal/weekly arrival cycles, and bursty
//! bag-of-tasks sessions. This module composes all three from explicit
//! building blocks — [`SizeDist`] for dataset sizes,
//! [`ArrivalProcess`] (optionally modulated by a [`Sinusoid`]) for
//! arrivals — while keeping the original log-uniform/Poisson presets
//! available bit-identically through [`TenantSpec::legacy`] and
//! [`WorkloadSpec::preset`] so golden fixtures stay valid.
//!
//! Every random choice flows through [`fg_sim::rng::stream_rng`] keyed
//! by the workload seed and the tenant name, so adding a tenant never
//! perturbs the others and the same spec always generates the
//! identical stream.

use fg_sim::rng::stream_rng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Floor on sampled dataset sizes (megabytes): heavy-tail inversions
/// and lognormal draws are clamped here so no job degenerates to an
/// empty transfer.
const MIN_MB: f64 = 0.01;

/// Why a workload spec cannot generate a job stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadError {
    /// The app mix is empty: no job could name an application.
    NoApps,
    /// A tenant submits zero jobs — almost always a forgotten field;
    /// a tenant meant to be silent should be removed from the spec.
    NoJobs {
        /// The offending tenant's name.
        tenant: String,
    },
    /// A tenant's distribution parameters are out of range.
    BadTenant {
        /// The offending tenant's name.
        tenant: String,
        /// Which constraint failed.
        reason: &'static str,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::NoApps => write!(f, "workload needs at least one app in its mix"),
            WorkloadError::NoJobs { tenant } => {
                write!(f, "tenant {tenant:?} submits zero jobs; drop it from the spec instead")
            }
            WorkloadError::BadTenant { tenant, reason } => {
                write!(f, "tenant {tenant:?}: {reason}")
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

/// Dataset-size distribution for one tenant's jobs, in megabytes.
///
/// `LogUniform` is the original stand-in; the other variants are the
/// shapes grid-trace mining actually reports: lognormal bodies, Pareto
/// tails, and their mixture. All samples are clamped to
/// `[0.01, cap_mb]` so a wild tail draw cannot produce a dataset the
/// simulator would spend hours transferring.
#[derive(Debug, Clone, PartialEq)]
pub enum SizeDist {
    /// `exp(U(ln lo, ln hi))` — the legacy shape.
    LogUniform {
        /// Lower bound (MB), must be positive.
        lo_mb: f64,
        /// Upper bound (MB), must be `>= lo_mb`.
        hi_mb: f64,
    },
    /// `median · exp(σ·Z)` with `Z ~ N(0,1)` via Box-Muller.
    LogNormal {
        /// Median size (MB): `exp(μ)` of the underlying normal.
        median_mb: f64,
        /// Log-space standard deviation, `>= 0`.
        sigma: f64,
        /// Clamp ceiling (MB), `>= median_mb`.
        cap_mb: f64,
    },
    /// `min / (1-U)^(1/α)` — a pure power-law tail.
    Pareto {
        /// Scale: the smallest possible sample (MB).
        min_mb: f64,
        /// Tail index; smaller is heavier. Must be positive.
        alpha: f64,
        /// Clamp ceiling (MB), `>= min_mb`.
        cap_mb: f64,
    },
    /// Lognormal body with probability `1 - tail_weight`, Pareto tail
    /// with probability `tail_weight` — the mixture Guazzone fits to
    /// real grid job sizes.
    BodyTail {
        /// Body median (MB).
        median_mb: f64,
        /// Body log-space standard deviation, `>= 0`.
        sigma: f64,
        /// Probability a job is drawn from the tail, in `[0, 1]`.
        tail_weight: f64,
        /// Tail scale (MB): smallest tail sample.
        tail_min_mb: f64,
        /// Tail index; smaller is heavier. Must be positive.
        tail_alpha: f64,
        /// Clamp ceiling (MB) for both components.
        cap_mb: f64,
    },
}

impl SizeDist {
    /// Validate the parameters, reporting the first violated
    /// constraint. NaN fails every ordered comparison, so each bound
    /// rejects it along with the out-of-range values.
    fn validate(&self) -> Result<(), &'static str> {
        match *self {
            SizeDist::LogUniform { lo_mb, hi_mb } => {
                if lo_mb.is_nan() || lo_mb <= 0.0 {
                    return Err("dataset sizes must be positive");
                }
                if hi_mb.is_nan() || hi_mb < lo_mb {
                    return Err("dataset range must satisfy lo <= hi");
                }
            }
            SizeDist::LogNormal { median_mb, sigma, cap_mb } => {
                if median_mb.is_nan() || median_mb <= 0.0 {
                    return Err("lognormal median must be positive");
                }
                if sigma.is_nan() || sigma < 0.0 || sigma.is_infinite() {
                    return Err("lognormal sigma must be finite and >= 0");
                }
                if cap_mb.is_nan() || cap_mb < median_mb || cap_mb.is_infinite() {
                    return Err("size cap must be finite and >= the median");
                }
            }
            SizeDist::Pareto { min_mb, alpha, cap_mb } => {
                if min_mb.is_nan() || min_mb <= 0.0 {
                    return Err("pareto scale must be positive");
                }
                if alpha.is_nan() || alpha <= 0.0 || alpha.is_infinite() {
                    return Err("pareto tail index must be finite and positive");
                }
                if cap_mb.is_nan() || cap_mb < min_mb || cap_mb.is_infinite() {
                    return Err("size cap must be finite and >= the pareto scale");
                }
            }
            SizeDist::BodyTail {
                median_mb,
                sigma,
                tail_weight,
                tail_min_mb,
                tail_alpha,
                cap_mb,
            } => {
                if median_mb.is_nan() || median_mb <= 0.0 {
                    return Err("body median must be positive");
                }
                if sigma.is_nan() || sigma < 0.0 || sigma.is_infinite() {
                    return Err("body sigma must be finite and >= 0");
                }
                if tail_weight.is_nan() || !(0.0..=1.0).contains(&tail_weight) {
                    return Err("tail weight must be in [0, 1]");
                }
                if tail_min_mb.is_nan() || tail_min_mb <= 0.0 {
                    return Err("tail scale must be positive");
                }
                if tail_alpha.is_nan() || tail_alpha <= 0.0 || tail_alpha.is_infinite() {
                    return Err("tail index must be finite and positive");
                }
                if cap_mb.is_nan()
                    || cap_mb < median_mb
                    || cap_mb < tail_min_mb
                    || cap_mb.is_infinite()
                {
                    return Err("size cap must be finite and >= both component scales");
                }
            }
        }
        Ok(())
    }

    /// Draw one size in megabytes. The `LogUniform` path makes exactly
    /// the draws the legacy generator made (one `gen_range`, or none
    /// when the range is a point) so seeded legacy streams are
    /// bit-identical.
    fn sample_mb(&self, rng: &mut rand::rngs::StdRng) -> f64 {
        match *self {
            SizeDist::LogUniform { lo_mb, hi_mb } => uniform(rng, lo_mb.ln(), hi_mb.ln()).exp(),
            SizeDist::LogNormal { median_mb, sigma, cap_mb } => {
                (median_mb * (sigma * standard_normal(rng)).exp()).clamp(MIN_MB, cap_mb)
            }
            SizeDist::Pareto { min_mb, alpha, cap_mb } => {
                let u: f64 = rng.gen_range(0.0..1.0);
                pareto_inv(min_mb, alpha, u).clamp(MIN_MB, cap_mb)
            }
            SizeDist::BodyTail {
                median_mb,
                sigma,
                tail_weight,
                tail_min_mb,
                tail_alpha,
                cap_mb,
            } => {
                let pick: f64 = rng.gen_range(0.0..1.0);
                let mb = if pick < tail_weight {
                    let u: f64 = rng.gen_range(0.0..1.0);
                    pareto_inv(tail_min_mb, tail_alpha, u)
                } else {
                    median_mb * (sigma * standard_normal(rng)).exp()
                };
                mb.clamp(MIN_MB, cap_mb)
            }
        }
    }
}

/// Multiplicative sinusoidal arrival-rate modulation: daily and weekly
/// cycles with a shared phase. `factor(t)` scales the base rate, so
/// amplitude 0.6 means the peak-hour rate is 1.6× the base and the
/// trough 0.4×.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sinusoid {
    /// Daily-cycle amplitude, in `[0, 1)` so the rate never hits zero.
    pub daily: f64,
    /// Weekly-cycle amplitude, in `[0, 1)`.
    pub weekly: f64,
    /// Phase offset (radians) applied to both cycles, so tenants can
    /// peak at different hours.
    pub phase: f64,
}

/// Seconds per day and per week, the two modulation periods.
const DAY_SECS: f64 = 86_400.0;
const WEEK_SECS: f64 = 604_800.0;

impl Sinusoid {
    /// No modulation: a flat rate.
    pub const NONE: Sinusoid = Sinusoid { daily: 0.0, weekly: 0.0, phase: 0.0 };

    /// True when both amplitudes are zero — the generator then uses
    /// the single-draw inversion path, preserving legacy streams.
    fn is_none(&self) -> bool {
        self.daily == 0.0 && self.weekly == 0.0
    }

    /// Rate multiplier at instant `t`.
    pub fn factor(&self, t: f64) -> f64 {
        (1.0 + self.daily * (2.0 * std::f64::consts::PI * t / DAY_SECS + self.phase).sin())
            * (1.0 + self.weekly * (2.0 * std::f64::consts::PI * t / WEEK_SECS + self.phase).sin())
    }

    /// Upper bound on `factor`, the thinning envelope.
    fn max_factor(&self) -> f64 {
        (1.0 + self.daily) * (1.0 + self.weekly)
    }

    fn validate(&self) -> Result<(), &'static str> {
        if self.daily.is_nan() || !(0.0..1.0).contains(&self.daily) {
            return Err("daily modulation amplitude must be in [0, 1)");
        }
        if self.weekly.is_nan() || !(0.0..1.0).contains(&self.weekly) {
            return Err("weekly modulation amplitude must be in [0, 1)");
        }
        if !self.phase.is_finite() {
            return Err("modulation phase must be finite");
        }
        Ok(())
    }
}

/// How a tenant's job arrivals are spaced.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Independent exponential gaps — optionally a non-homogeneous
    /// Poisson process when `modulation` is set, realized by
    /// Lewis-Shedler thinning against the peak rate.
    Poisson {
        /// Mean gap at the base (unmodulated) rate, seconds.
        mean_gap: f64,
        /// Sinusoidal rate modulation; [`Sinusoid::NONE`] for a
        /// homogeneous process.
        modulation: Sinusoid,
    },
    /// Bag-of-tasks sessions: session starts follow a (possibly
    /// modulated) Poisson process; each session submits a
    /// geometrically-sized burst of jobs separated by short
    /// exponential gaps.
    Bursty {
        /// Mean gap between session starts, seconds.
        mean_session_gap: f64,
        /// Mean burst size (jobs per session), `>= 1`.
        burst_mean: f64,
        /// Mean gap between jobs inside a burst, seconds.
        mean_intra_gap: f64,
        /// Sinusoidal modulation of the session-start rate.
        modulation: Sinusoid,
    },
}

/// Per-tenant generator state threaded through [`ArrivalProcess::next`]:
/// how many jobs remain in the current burst.
#[derive(Debug, Clone, Copy, Default)]
struct ArrivalState {
    remaining_in_burst: usize,
}

impl ArrivalProcess {
    /// A homogeneous Poisson process with the given mean gap — the
    /// legacy arrival model.
    pub fn poisson(mean_gap: f64) -> ArrivalProcess {
        ArrivalProcess::Poisson { mean_gap, modulation: Sinusoid::NONE }
    }

    /// Scale all mean gaps by `factor` (slower when `factor > 1`) —
    /// how scaled presets keep the aggregate rate constant as the
    /// tenant count grows.
    pub fn scale_gaps(&self, factor: f64) -> ArrivalProcess {
        match *self {
            ArrivalProcess::Poisson { mean_gap, modulation } => {
                ArrivalProcess::Poisson { mean_gap: mean_gap * factor, modulation }
            }
            ArrivalProcess::Bursty { mean_session_gap, burst_mean, mean_intra_gap, modulation } => {
                ArrivalProcess::Bursty {
                    mean_session_gap: mean_session_gap * factor,
                    burst_mean,
                    mean_intra_gap,
                    modulation,
                }
            }
        }
    }

    fn validate(&self) -> Result<(), &'static str> {
        match *self {
            ArrivalProcess::Poisson { mean_gap, ref modulation } => {
                if mean_gap.is_nan() || mean_gap <= 0.0 || mean_gap.is_infinite() {
                    return Err("mean inter-arrival must be positive");
                }
                modulation.validate()
            }
            ArrivalProcess::Bursty {
                mean_session_gap,
                burst_mean,
                mean_intra_gap,
                ref modulation,
            } => {
                if mean_session_gap.is_nan()
                    || mean_session_gap <= 0.0
                    || mean_session_gap.is_infinite()
                {
                    return Err("mean session gap must be positive");
                }
                if burst_mean.is_nan() || burst_mean < 1.0 || burst_mean.is_infinite() {
                    return Err("mean burst size must be >= 1");
                }
                if mean_intra_gap.is_nan() || mean_intra_gap <= 0.0 || mean_intra_gap.is_infinite()
                {
                    return Err("mean intra-burst gap must be positive");
                }
                modulation.validate()
            }
        }
    }

    /// Advance `now` to the next arrival instant, drawing from `rng`.
    /// The unmodulated Poisson path draws exactly one uniform — the
    /// legacy draw sequence — so existing seeded streams never move.
    fn next(&self, state: &mut ArrivalState, rng: &mut rand::rngs::StdRng, now: f64) -> f64 {
        match *self {
            ArrivalProcess::Poisson { mean_gap, ref modulation } => {
                modulated_gap(rng, now, mean_gap, modulation)
            }
            ArrivalProcess::Bursty {
                mean_session_gap,
                burst_mean,
                mean_intra_gap,
                ref modulation,
            } => {
                if state.remaining_in_burst > 0 {
                    state.remaining_in_burst -= 1;
                    let u: f64 = rng.gen_range(0.0..1.0);
                    now + exp_interarrival(mean_intra_gap, u)
                } else {
                    let t = modulated_gap(rng, now, mean_session_gap, modulation);
                    let u: f64 = rng.gen_range(0.0..1.0);
                    state.remaining_in_burst = geometric_extra(burst_mean, u);
                    t
                }
            }
        }
    }
}

/// Uniform sample over `[lo, hi)`, degenerating to `lo` when the range
/// is empty (the vendored RNG rejects empty ranges).
fn uniform(rng: &mut rand::rngs::StdRng, lo: f64, hi: f64) -> f64 {
    if hi > lo {
        rng.gen_range(lo..hi)
    } else {
        lo
    }
}

/// Exponential inter-arrival gap from a uniform draw `u ∈ [0, 1)` via
/// inversion, `-mean · ln(1 - u)`. The closed left endpoint is a real
/// hazard: `gen_range(0.0..1.0)` can return exactly 0.0, where the
/// inversion collapses to a zero gap and two "independent" arrivals
/// land on the same instant. Remap that single point to
/// `f64::EPSILON` — the smallest draw for which `1 - u` rounds away
/// from 1.0 — so the gap stays strictly positive while every other
/// draw (and thus every existing seeded stream) is untouched.
fn exp_interarrival(mean: f64, u: f64) -> f64 {
    let u = if u == 0.0 { f64::EPSILON } else { u };
    -mean * (1.0 - u).ln()
}

/// Standard normal via Box-Muller (two uniform draws). The first draw
/// gets the same zero-endpoint remap as [`exp_interarrival`] so
/// `ln(u)` stays finite.
fn standard_normal(rng: &mut rand::rngs::StdRng) -> f64 {
    let u1: f64 = rng.gen_range(0.0..1.0);
    let u1 = if u1 == 0.0 { f64::EPSILON } else { u1 };
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Pareto inversion `min / (1-u)^(1/alpha)`; `u ∈ [0, 1)` keeps the
/// denominator positive.
fn pareto_inv(min: f64, alpha: f64, u: f64) -> f64 {
    min / (1.0 - u).powf(1.0 / alpha)
}

/// Extra jobs beyond the first in a geometric burst with mean size
/// `burst_mean` (so support starts at 0): inversion of
/// `Geom(p = 1/burst_mean)`.
fn geometric_extra(burst_mean: f64, u: f64) -> usize {
    if burst_mean <= 1.0 {
        return 0;
    }
    // P(size > k) = (1-p)^k with p = 1/mean; invert the survival
    // function. u = 0 maps to 0 extras (ln(1) = 0).
    let p = 1.0 / burst_mean;
    let extras = ((1.0 - u).ln() / (1.0 - p).ln()).floor();
    // A draw pathologically close to 1.0 could ask for an absurd
    // burst; 64× the mean is beyond any plausible tail draw.
    extras.min(64.0 * burst_mean) as usize
}

/// One gap of a (possibly modulated) Poisson process starting at
/// `now`, returning the arrival instant. Zero-amplitude modulation
/// takes the single-draw inversion path — bit-identical to the legacy
/// generator. Otherwise Lewis-Shedler thinning: propose candidates at
/// the peak rate, accept each with probability `factor(t) / max`.
fn modulated_gap(
    rng: &mut rand::rngs::StdRng,
    now: f64,
    mean_gap: f64,
    modulation: &Sinusoid,
) -> f64 {
    if modulation.is_none() {
        let u: f64 = rng.gen_range(0.0..1.0);
        return now + exp_interarrival(mean_gap, u);
    }
    let max = modulation.max_factor();
    let mut t = now;
    loop {
        let u: f64 = rng.gen_range(0.0..1.0);
        t += exp_interarrival(mean_gap / max, u);
        let accept: f64 = rng.gen_range(0.0..1.0);
        if accept * max <= modulation.factor(t) {
            return t;
        }
    }
}

/// One tenant's submission behaviour: an arrival process, a size
/// distribution, and a deadline-slack range.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant name; also the RNG stream label.
    pub name: String,
    /// How many jobs the tenant submits.
    pub jobs: usize,
    /// How arrivals are spaced.
    pub arrival: ArrivalProcess,
    /// How dataset sizes are drawn.
    pub size: SizeDist,
    /// Deadline slack range: the deadline is the arrival plus slack
    /// times the job's standalone predicted execution time. Sampled
    /// uniformly; values must be `>= 1`.
    pub deadline_slack: (f64, f64),
}

impl TenantSpec {
    /// The original tenant shape — homogeneous Poisson arrivals and a
    /// log-uniform size range — kept as a compat constructor so every
    /// pre-existing preset (and the golden fixtures generated from
    /// them) stays bit-identical.
    pub fn legacy(
        name: &str,
        jobs: usize,
        mean_interarrival: f64,
        dataset_mb: (f64, f64),
        deadline_slack: (f64, f64),
    ) -> TenantSpec {
        TenantSpec {
            name: name.to_string(),
            jobs,
            arrival: ArrivalProcess::poisson(mean_interarrival),
            size: SizeDist::LogUniform { lo_mb: dataset_mb.0, hi_mb: dataset_mb.1 },
            deadline_slack,
        }
    }
}

/// Workload intensity presets for the three-load-level experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadLevel {
    /// Arrivals sparse enough that jobs rarely overlap.
    Light,
    /// Moderate overlap: queues form but drain.
    Medium,
    /// Arrival rate near (or past) the grid's service rate.
    Heavy,
}

impl LoadLevel {
    /// All levels, light to heavy.
    pub const ALL: [LoadLevel; 3] = [LoadLevel::Light, LoadLevel::Medium, LoadLevel::Heavy];

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            LoadLevel::Light => "light",
            LoadLevel::Medium => "medium",
            LoadLevel::Heavy => "heavy",
        }
    }

    /// Mean inter-arrival time per tenant at this level (seconds).
    fn mean_interarrival(self) -> f64 {
        match self {
            LoadLevel::Light => 400.0,
            LoadLevel::Medium => 100.0,
            LoadLevel::Heavy => 25.0,
        }
    }
}

/// Which traffic shape a preset generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadShape {
    /// The legacy log-uniform/Poisson preset (compat shape).
    Uniform,
    /// Lognormal/Pareto size mixtures under diurnal modulation.
    HeavyTail,
    /// Bag-of-tasks burst sessions with heavy-tailed sizes.
    Bursty,
}

impl WorkloadShape {
    /// All shapes, tamest first.
    pub const ALL: [WorkloadShape; 3] =
        [WorkloadShape::Uniform, WorkloadShape::HeavyTail, WorkloadShape::Bursty];

    /// The trace-shaped presets (everything but the legacy compat
    /// shape) — what the re-verification suites parameterize over.
    pub const TRACE_SHAPED: [WorkloadShape; 2] = [WorkloadShape::HeavyTail, WorkloadShape::Bursty];

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadShape::Uniform => "uniform",
            WorkloadShape::HeavyTail => "heavy-tail",
            WorkloadShape::Bursty => "bursty",
        }
    }
}

/// A full workload description: tenants, app mix, and the seed.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// The tenants submitting jobs.
    pub tenants: Vec<TenantSpec>,
    /// App mix: each job picks one of these names uniformly.
    pub apps: Vec<String>,
    /// Base seed for every stream.
    pub seed: u64,
}

/// One generated job, in global submission order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Submission-order id, `0..`.
    pub id: usize,
    /// Index of the submitting tenant in the workload's tenant list.
    pub tenant: usize,
    /// Application name (must have an `AppModel` in the grid).
    pub app: String,
    /// Logical dataset size in bytes.
    pub dataset_bytes: u64,
    /// Arrival instant (seconds of simulated time).
    pub arrival: f64,
    /// Deadline slack multiplier over the standalone predicted time.
    pub deadline_slack: f64,
}

/// Tenant indices a job may carry: `0..MAX_TENANTS`. The scheduler keeps
/// its per-tenant state in vectors indexed by tenant, sized to the
/// largest index seen, so an unbounded index from the wire is an
/// unbounded allocation. 4 096 is 80 × the largest tenant count any
/// workload, figure or test uses. What the last index costs: 32 bytes
/// per index below it in the core (a slot count and an empty queue set,
/// 128 kB), and with telemetry armed ≈ 2.1 kB more per index (the SLO
/// accumulators and one idle sliding wait histogram — 60 empty 32-byte
/// time buckets plus its bounds — under the default
/// [`TelemetryConfig`](crate::TelemetryConfig)), ≈ 8.5 MB.
pub const MAX_TENANTS: usize = 4096;

impl JobSpec {
    /// The field rules every job is held to wherever it enters — a
    /// replayed trace, [`SchedCore::submit`](crate::SchedCore::submit),
    /// a quote. `Err` names the field.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.tenant >= MAX_TENANTS {
            return Err("tenant index must be below MAX_TENANTS");
        }
        check_job_fields(self.arrival, self.dataset_bytes, self.deadline_slack)
    }
}

/// [`JobSpec::validate`] over bare fields, for a quote that has no
/// `JobSpec` to borrow.
pub(crate) fn check_job_fields(
    arrival: f64,
    dataset_bytes: u64,
    deadline_slack: f64,
) -> Result<(), &'static str> {
    if !arrival.is_finite() || arrival < 0.0 {
        return Err("arrival must be finite and >= 0");
    }
    if dataset_bytes == 0 {
        return Err("dataset must be non-empty");
    }
    if !deadline_slack.is_finite() || deadline_slack < 1.0 {
        return Err("deadline slack must be finite and >= 1");
    }
    Ok(())
}

impl WorkloadSpec {
    /// The canonical three-tenant preset at a given load level: one
    /// high-rate small-job tenant, one medium tenant, and one tenant
    /// submitting fewer but larger jobs — loosely the shape grid-trace
    /// characterizations report (many small analyses, a tail of bulk
    /// jobs). This is the legacy compat preset: its streams are
    /// bit-identical to every earlier release, which the golden
    /// fixtures depend on.
    pub fn preset(load: LoadLevel, apps: &[&str], seed: u64) -> WorkloadSpec {
        let base = load.mean_interarrival();
        WorkloadSpec {
            tenants: vec![
                TenantSpec::legacy("tenant-small", 10, base * 0.6, (16.0, 64.0), (2.0, 4.0)),
                TenantSpec::legacy("tenant-mid", 8, base, (32.0, 128.0), (2.0, 5.0)),
                TenantSpec::legacy("tenant-bulk", 5, base * 1.8, (96.0, 384.0), (3.0, 8.0)),
            ],
            apps: apps.iter().map(|a| a.to_string()).collect(),
            seed,
        }
    }

    /// A trace-shaped three-tenant preset: the same aggregate base
    /// rate as [`WorkloadSpec::preset`], but with the traffic
    /// structures real grid traces exhibit.
    ///
    /// - [`WorkloadShape::Uniform`] delegates to the legacy preset.
    /// - [`WorkloadShape::HeavyTail`] draws sizes from lognormal and
    ///   lognormal+Pareto mixtures under diurnal (and one weekly)
    ///   sinusoidal arrival modulation, with tenants peaking at
    ///   different hours.
    /// - [`WorkloadShape::Bursty`] adds bag-of-tasks sessions: two
    ///   tenants submit in geometric bursts, one stays diurnal.
    pub fn shaped(shape: WorkloadShape, load: LoadLevel, apps: &[&str], seed: u64) -> WorkloadSpec {
        let base = load.mean_interarrival();
        let tenants = match shape {
            WorkloadShape::Uniform => return WorkloadSpec::preset(load, apps, seed),
            WorkloadShape::HeavyTail => vec![
                TenantSpec {
                    name: "ht-interactive".into(),
                    jobs: 10,
                    arrival: ArrivalProcess::Poisson {
                        mean_gap: base * 0.6,
                        modulation: Sinusoid { daily: 0.6, weekly: 0.0, phase: 0.0 },
                    },
                    size: SizeDist::LogNormal { median_mb: 24.0, sigma: 0.7, cap_mb: 512.0 },
                    deadline_slack: (2.0, 4.0),
                },
                TenantSpec {
                    name: "ht-batch".into(),
                    jobs: 8,
                    arrival: ArrivalProcess::Poisson {
                        mean_gap: base,
                        modulation: Sinusoid { daily: 0.4, weekly: 0.3, phase: 1.3 },
                    },
                    size: SizeDist::BodyTail {
                        median_mb: 40.0,
                        sigma: 0.9,
                        tail_weight: 0.15,
                        tail_min_mb: 192.0,
                        tail_alpha: 1.1,
                        cap_mb: 4096.0,
                    },
                    deadline_slack: (2.0, 5.0),
                },
                TenantSpec {
                    name: "ht-bulk".into(),
                    jobs: 5,
                    arrival: ArrivalProcess::Poisson {
                        mean_gap: base * 1.8,
                        modulation: Sinusoid { daily: 0.5, weekly: 0.0, phase: 2.6 },
                    },
                    size: SizeDist::Pareto { min_mb: 96.0, alpha: 1.3, cap_mb: 8192.0 },
                    deadline_slack: (3.0, 8.0),
                },
            ],
            WorkloadShape::Bursty => vec![
                TenantSpec {
                    name: "bot-sweeper".into(),
                    jobs: 10,
                    arrival: ArrivalProcess::Bursty {
                        mean_session_gap: base * 0.6 * 6.0,
                        burst_mean: 6.0,
                        mean_intra_gap: 3.0,
                        modulation: Sinusoid::NONE,
                    },
                    size: SizeDist::LogNormal { median_mb: 20.0, sigma: 0.5, cap_mb: 256.0 },
                    deadline_slack: (2.0, 4.0),
                },
                TenantSpec {
                    name: "bot-pilot".into(),
                    jobs: 8,
                    arrival: ArrivalProcess::Bursty {
                        mean_session_gap: base * 4.0,
                        burst_mean: 4.0,
                        mean_intra_gap: 8.0,
                        modulation: Sinusoid { daily: 0.5, weekly: 0.0, phase: 0.7 },
                    },
                    size: SizeDist::BodyTail {
                        median_mb: 32.0,
                        sigma: 0.8,
                        tail_weight: 0.12,
                        tail_min_mb: 160.0,
                        tail_alpha: 1.2,
                        cap_mb: 4096.0,
                    },
                    deadline_slack: (2.0, 5.0),
                },
                TenantSpec {
                    name: "bot-steady".into(),
                    jobs: 5,
                    arrival: ArrivalProcess::Poisson {
                        mean_gap: base * 1.8,
                        modulation: Sinusoid { daily: 0.4, weekly: 0.0, phase: 2.0 },
                    },
                    size: SizeDist::Pareto { min_mb: 80.0, alpha: 1.4, cap_mb: 8192.0 },
                    deadline_slack: (3.0, 8.0),
                },
            ],
        };
        WorkloadSpec { tenants, apps: apps.iter().map(|a| a.to_string()).collect(), seed }
    }

    /// [`WorkloadSpec::shaped`] widened to `tenants` clones of its
    /// shapes (round-robin over the three shape tenants), each
    /// submitting `jobs_per_tenant` jobs — the benchmark harness's knob
    /// for million-job traces. Per-tenant inter-arrival means are
    /// scaled by `tenants / 3` so the *aggregate* arrival rate stays
    /// what the load level dictates regardless of the tenant count.
    pub fn shaped_scaled(
        shape: WorkloadShape,
        load: LoadLevel,
        apps: &[&str],
        seed: u64,
        tenants: usize,
        jobs_per_tenant: usize,
    ) -> WorkloadSpec {
        assert!(tenants > 0 && jobs_per_tenant > 0, "a scaled preset needs tenants and jobs");
        let base = WorkloadSpec::shaped(shape, load, apps, seed);
        let shapes = base.tenants;
        let scale = tenants as f64 / shapes.len() as f64;
        WorkloadSpec {
            tenants: (0..tenants)
                .map(|i| {
                    let shape = &shapes[i % shapes.len()];
                    TenantSpec {
                        name: format!("{}-{i:05}", shape.name),
                        jobs: jobs_per_tenant,
                        arrival: shape.arrival.scale_gaps(scale),
                        size: shape.size.clone(),
                        deadline_slack: shape.deadline_slack,
                    }
                })
                .collect(),
            apps: base.apps,
            seed,
        }
    }

    /// Check the spec without generating: an empty app mix, a zero-job
    /// tenant, or out-of-range distribution parameters are reported as
    /// a typed [`WorkloadError`] naming the offender.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        if self.apps.is_empty() {
            return Err(WorkloadError::NoApps);
        }
        for tenant in &self.tenants {
            let fail = |reason: &'static str| WorkloadError::BadTenant {
                tenant: tenant.name.clone(),
                reason,
            };
            if tenant.jobs == 0 {
                return Err(WorkloadError::NoJobs { tenant: tenant.name.clone() });
            }
            tenant.arrival.validate().map_err(fail)?;
            tenant.size.validate().map_err(fail)?;
            // Each bound is written to reject NaN along with the
            // out-of-range values (a NaN parameter fails every
            // ordered comparison).
            if tenant.deadline_slack.0.is_nan() || tenant.deadline_slack.0 < 1.0 {
                return Err(fail("deadline slack must be >= 1"));
            }
            if tenant.deadline_slack.1.is_nan() || tenant.deadline_slack.1 < tenant.deadline_slack.0
            {
                return Err(fail("deadline-slack range must satisfy lo <= hi"));
            }
        }
        Ok(())
    }

    /// Generate the job stream: per-tenant streams merged and sorted by
    /// arrival (ties broken by tenant index, then per-tenant sequence),
    /// with ids assigned in that global order. Panics on an invalid
    /// spec; [`WorkloadSpec::try_generate`] reports the problem
    /// instead.
    pub fn generate(&self) -> Vec<JobSpec> {
        self.try_generate().unwrap_or_else(|e| panic!("invalid workload spec: {e}"))
    }

    /// [`WorkloadSpec::generate`], but an invalid spec — empty app mix,
    /// zero-job tenant, bad distribution parameters — is a
    /// [`WorkloadError`] rather than a panic.
    pub fn try_generate(&self) -> Result<Vec<JobSpec>, WorkloadError> {
        self.validate()?;
        let mut jobs: Vec<(f64, usize, usize, JobSpec)> = Vec::new();
        for (ti, tenant) in self.tenants.iter().enumerate() {
            let mut rng = stream_rng(self.seed, &format!("workload-{}", tenant.name));
            let mut state = ArrivalState::default();
            let mut now = 0.0f64;
            for seq in 0..tenant.jobs {
                now = tenant.arrival.next(&mut state, &mut rng, now);
                let mb = tenant.size.sample_mb(&mut rng);
                let slack = uniform(&mut rng, tenant.deadline_slack.0, tenant.deadline_slack.1);
                let app = self.apps[rng.gen_range(0..self.apps.len())].clone();
                jobs.push((
                    now,
                    ti,
                    seq,
                    JobSpec {
                        id: 0, // assigned after the global sort
                        tenant: ti,
                        app,
                        dataset_bytes: (mb * 1e6).round() as u64,
                        arrival: now,
                        deadline_slack: slack,
                    },
                ));
            }
        }
        jobs.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        Ok(jobs
            .into_iter()
            .enumerate()
            .map(|(id, (_, _, _, mut j))| {
                j.id = id;
                j
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WorkloadSpec {
        WorkloadSpec::preset(LoadLevel::Medium, &["kmeans", "em"], 7)
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(spec().generate(), spec().generate());
    }

    #[test]
    fn seeds_change_the_stream() {
        let mut other = spec();
        other.seed = 8;
        assert_ne!(spec().generate(), other.generate());
    }

    #[test]
    fn jobs_are_sorted_with_positional_ids() {
        let jobs = spec().generate();
        assert_eq!(jobs.len(), 23);
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id, i);
            if i > 0 {
                assert!(j.arrival >= jobs[i - 1].arrival);
            }
        }
    }

    #[test]
    fn samples_respect_the_spec_ranges() {
        let s = spec();
        for j in s.generate() {
            let t = &s.tenants[j.tenant];
            let mb = j.dataset_bytes as f64 / 1e6;
            let SizeDist::LogUniform { lo_mb, hi_mb } = t.size else {
                panic!("legacy preset must be log-uniform");
            };
            assert!(mb >= lo_mb * 0.99 && mb <= hi_mb * 1.01, "size {mb}");
            assert!(
                j.deadline_slack >= t.deadline_slack.0 && j.deadline_slack <= t.deadline_slack.1
            );
            assert!(s.apps.contains(&j.app));
            assert!(j.arrival > 0.0);
        }
    }

    #[test]
    fn heavier_load_arrives_faster() {
        let light = WorkloadSpec::preset(LoadLevel::Light, &["kmeans"], 7).generate();
        let heavy = WorkloadSpec::preset(LoadLevel::Heavy, &["kmeans"], 7).generate();
        let span = |jobs: &[JobSpec]| jobs.last().unwrap().arrival;
        assert!(span(&heavy) < span(&light));
    }

    #[test]
    fn empty_app_mix_is_a_typed_error_not_a_panic() {
        let mut s = spec();
        s.apps.clear();
        assert_eq!(s.try_generate().unwrap_err(), WorkloadError::NoApps);
    }

    #[test]
    fn zero_job_tenants_are_rejected_up_front() {
        // Regression: a tenant with `jobs: 0` used to pass validation
        // silently and simply vanish from the stream — almost always a
        // forgotten field, now surfaced by name.
        let mut s = spec();
        s.tenants[1].jobs = 0;
        assert_eq!(
            s.try_generate().unwrap_err(),
            WorkloadError::NoJobs { tenant: "tenant-mid".into() }
        );
    }

    #[test]
    fn bad_tenant_parameters_name_the_offender() {
        let mut s = spec();
        s.tenants[2].arrival = ArrivalProcess::poisson(0.0);
        match s.try_generate().unwrap_err() {
            WorkloadError::BadTenant { tenant, .. } => assert_eq!(tenant, "tenant-bulk"),
            other => panic!("expected BadTenant, got {other:?}"),
        }
    }

    #[test]
    fn bad_modulation_and_burst_parameters_are_typed_errors() {
        let mut s = spec();
        s.tenants[0].arrival = ArrivalProcess::Poisson {
            mean_gap: 100.0,
            modulation: Sinusoid { daily: 1.0, weekly: 0.0, phase: 0.0 },
        };
        match s.try_generate().unwrap_err() {
            WorkloadError::BadTenant { tenant, reason } => {
                assert_eq!(tenant, "tenant-small");
                assert!(reason.contains("daily"), "{reason}");
            }
            other => panic!("expected BadTenant, got {other:?}"),
        }
        let mut s = spec();
        s.tenants[0].arrival = ArrivalProcess::Bursty {
            mean_session_gap: 100.0,
            burst_mean: 0.5,
            mean_intra_gap: 2.0,
            modulation: Sinusoid::NONE,
        };
        match s.try_generate().unwrap_err() {
            WorkloadError::BadTenant { reason, .. } => {
                assert!(reason.contains("burst"), "{reason}")
            }
            other => panic!("expected BadTenant, got {other:?}"),
        }
        let mut s = spec();
        s.tenants[0].size = SizeDist::Pareto { min_mb: 16.0, alpha: f64::NAN, cap_mb: 1024.0 };
        match s.try_generate().unwrap_err() {
            WorkloadError::BadTenant { reason, .. } => {
                assert!(reason.contains("tail index"), "{reason}")
            }
            other => panic!("expected BadTenant, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "invalid workload spec")]
    fn generate_still_panics_with_a_clear_message() {
        let mut s = spec();
        s.apps.clear();
        s.generate();
    }

    #[test]
    fn interarrival_gaps_are_strictly_positive_even_at_the_closed_endpoint() {
        // Regression: `gen_range(0.0..1.0)` includes 0.0, where
        // `-ln(1 - u)` is exactly zero — a zero gap stacked two
        // arrivals on one instant. The remapped endpoint must yield a
        // strictly positive gap, and every other draw is unchanged.
        let edge = exp_interarrival(100.0, 0.0);
        assert!(edge > 0.0, "u = 0 must not collapse to a zero gap ({edge})");
        assert_eq!(edge, -100.0 * (1.0 - f64::EPSILON).ln());
        assert_eq!(exp_interarrival(100.0, 0.5), -100.0 * 0.5f64.ln());
        // The smallest nonzero draw a 53-bit uniform can produce
        // (2^-53) already yields a positive gap on its own, so
        // remapping only the exact-zero point is sufficient.
        assert!(exp_interarrival(100.0, f64::EPSILON / 2.0) > 0.0);
    }

    #[test]
    fn shaped_scaled_keeps_the_aggregate_rate() {
        let s = WorkloadSpec::shaped_scaled(
            WorkloadShape::Uniform,
            LoadLevel::Heavy,
            &["kmeans"],
            3,
            30,
            10,
        );
        assert_eq!(s.tenants.len(), 30);
        assert!(s.validate().is_ok());
        let jobs = s.generate();
        assert_eq!(jobs.len(), 300);
        // Aggregate arrival rate ~ the 3-tenant preset's: each clone's
        // mean gap is scaled by 30/3 = 10.
        assert!(matches!(
            s.tenants[0].arrival,
            ArrivalProcess::Poisson { mean_gap, .. } if mean_gap == 25.0 * 0.6 * 10.0
        ));
        // Names stay unique so RNG streams never collide.
        let mut names: Vec<&str> = s.tenants.iter().map(|t| t.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 30);
    }

    #[test]
    fn adding_a_tenant_does_not_perturb_existing_streams() {
        let base = spec().generate();
        let mut widened = spec();
        widened.tenants.push(TenantSpec::legacy("tenant-extra", 3, 100.0, (4.0, 8.0), (1.5, 2.0)));
        let wide = widened.generate();
        // Every original (tenant, arrival, bytes) triple survives.
        for j in &base {
            assert!(wide.iter().any(|w| w.tenant == j.tenant
                && w.arrival == j.arrival
                && w.dataset_bytes == j.dataset_bytes));
        }
    }

    #[test]
    fn legacy_constructor_matches_the_expanded_form() {
        let a = TenantSpec::legacy("t", 4, 50.0, (8.0, 32.0), (2.0, 3.0));
        assert_eq!(a.arrival, ArrivalProcess::poisson(50.0));
        assert_eq!(a.size, SizeDist::LogUniform { lo_mb: 8.0, hi_mb: 32.0 });
    }

    #[test]
    fn shaped_uniform_is_the_legacy_preset() {
        let apps = ["kmeans", "em"];
        let legacy = WorkloadSpec::preset(LoadLevel::Medium, &apps, 7).generate();
        let shaped =
            WorkloadSpec::shaped(WorkloadShape::Uniform, LoadLevel::Medium, &apps, 7).generate();
        assert_eq!(legacy, shaped);
    }

    #[test]
    fn every_shape_generates_a_valid_sorted_stream() {
        let apps = ["kmeans", "em", "apriori"];
        for shape in WorkloadShape::ALL {
            for load in LoadLevel::ALL {
                let s = WorkloadSpec::shaped(shape, load, &apps, 11);
                assert!(s.validate().is_ok(), "{} {}", shape.name(), load.name());
                let jobs = s.generate();
                assert_eq!(jobs.len(), 23, "{}", shape.name());
                for (i, j) in jobs.iter().enumerate() {
                    assert_eq!(j.id, i);
                    assert!(j.arrival.is_finite() && j.arrival > 0.0);
                    assert!(j.dataset_bytes > 0);
                    assert!(j.deadline_slack >= 1.0);
                    if i > 0 {
                        assert!(j.arrival >= jobs[i - 1].arrival);
                    }
                }
            }
        }
    }

    #[test]
    fn bursty_tenants_cluster_their_arrivals() {
        // A burst session's intra-gaps (mean 3 s) are two orders of
        // magnitude below its session gaps (mean 90 s): the sorted gap
        // sequence must show both clusters.
        let s = WorkloadSpec::shaped_scaled(
            WorkloadShape::Bursty,
            LoadLevel::Medium,
            &["kmeans"],
            5,
            3,
            60,
        );
        let jobs = s.generate();
        let sweeper: Vec<f64> = jobs.iter().filter(|j| j.tenant == 0).map(|j| j.arrival).collect();
        let gaps: Vec<f64> = sweeper.windows(2).map(|w| w[1] - w[0]).collect();
        let short = gaps.iter().filter(|g| **g < 15.0).count();
        let long = gaps.iter().filter(|g| **g > 60.0).count();
        assert!(short > gaps.len() / 2, "bursts should dominate gaps: {short}/{}", gaps.len());
        assert!(long > 0, "session gaps should appear");
    }

    #[test]
    fn sinusoid_factor_stays_within_the_envelope() {
        let m = Sinusoid { daily: 0.6, weekly: 0.3, phase: 0.9 };
        for i in 0..2000 {
            let t = i as f64 * 700.0;
            let f = m.factor(t);
            assert!(f > 0.0 && f <= m.max_factor() + 1e-12, "t={t} f={f}");
        }
    }

    #[test]
    fn geometric_burst_sizes_have_the_right_mean() {
        // Inversion sanity: average extras over a uniform grid of u
        // should land near mean - 1.
        let mean = 6.0;
        let n = 100_000;
        let sum: f64 = (0..n).map(|i| geometric_extra(mean, i as f64 / n as f64) as f64).sum();
        let avg = sum / n as f64;
        assert!((avg - (mean - 1.0)).abs() < 0.15, "avg extras {avg}");
        assert_eq!(geometric_extra(1.0, 0.9999), 0);
    }
}
