//! `sim-batch` and `sim-learn`: the scheduler simulator's host time
//! per simulated job, driven by `SchedCore::submit` per job and
//! `finish()`, with no serve layer on top.

use super::{Segment, Workload};
use crate::inputs::Ctx;
use crate::measure::{timed, Fnv};
use crate::trace::{Off, Tracer};
use fg_cluster::DeploymentRef;
use fg_learn::LearnedPredictor;
use fg_predict::{
    AnalyticalPredictor, AppClasses, Observation, Prediction, Predictor, Profile, ScalingFactors,
    SelectionError,
};
use fg_sched::{
    Degradation, JobOutcome, JobSpec, LoadLevel, Policy, SchedCore, SchedResult, Scheduler,
    TelemetryConfig, WorkloadSpec,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Jobs per segment in both simulator workloads.
pub const JOBS: usize = 60_000;

/// FNV digest of a run's outcomes: every decision and instant, bit
/// for bit.
pub fn outcome_digest(outcomes: &[JobOutcome], makespan: f64, violations: usize) -> u64 {
    let mut h = Fnv::new();
    for o in outcomes {
        h.word(o.id as u64);
        h.word(u64::from(o.admitted));
        h.opt(o.standalone);
        h.opt(o.admission_estimate);
        h.opt(o.placed_at);
        h.opt(o.predicted);
        h.opt(o.finish);
        if let Some(p) = &o.placement {
            h.word(((p.repo as u64) << 32) | ((p.site as u64) << 16) | p.compute_nodes as u64);
        }
    }
    h.f64(makespan);
    h.word(violations as u64);
    h.0
}

/// Why a run differs from the reference `Scheduler::run`, if it does.
pub fn reference_mismatch(
    reference: &SchedResult,
    outcomes: &[JobOutcome],
    makespan: f64,
    violations: &[String],
) -> Option<String> {
    if !reference.violations.is_empty() || !violations.is_empty() {
        return Some(format!("violations: {:?} / {violations:?}", reference.violations));
    }
    if reference.makespan.to_bits() != makespan.to_bits() {
        return Some(format!("makespan {} vs {makespan}", reference.makespan));
    }
    if reference.outcomes.len() != outcomes.len() {
        return Some(format!("{} outcomes vs {}", reference.outcomes.len(), outcomes.len()));
    }
    reference
        .outcomes
        .iter()
        .zip(outcomes)
        .find(|(a, b)| a != b)
        .map(|(a, b)| format!("job {}: {a:?} vs {b:?}", a.id))
}

/// Mean relative error, in percent, of the placement-time prediction
/// against the simulated execution, over jobs that ran undisturbed.
pub fn pred_err_pct(outcomes: &[JobOutcome]) -> f64 {
    let errs: Vec<f64> = outcomes
        .iter()
        .filter(|o| o.preemptions.is_empty() && o.migration.is_none())
        .filter_map(|o| {
            let actual = o.finish? - o.placed_at?;
            Some(fg_predict::relative_error(actual, o.predicted?))
        })
        .collect();
    100.0 * errs.iter().sum::<f64>() / errs.len().max(1) as f64
}

/// Which simulator workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 50 tenants × 1 200 jobs, heavy load, `FcfsBackfill`, analytical
    /// predictor: a deep backlog, so `pump`, the placement engine, the
    /// policy queue and the fair-share model do all the work.
    Batch,
    /// 12 tenants × 5 000 jobs, medium load, `EdfAdmit`, telemetry on,
    /// repository 0 degraded to 15 % from the median arrival, learned
    /// predictor: ridge refits, epoch bumps that invalidate placement
    /// memos, and ledger ingest dominate instead.
    Learn,
}

impl Kind {
    /// A fresh predictor of the configuration's kind, and the same
    /// object as a `LearnedPredictor` when it is one.
    pub fn predictor(self) -> (Arc<dyn Predictor>, Option<Arc<LearnedPredictor>>) {
        match self {
            Kind::Batch => (Arc::new(AnalyticalPredictor), None),
            Kind::Learn => {
                let p = Arc::new(LearnedPredictor::default());
                (Arc::clone(&p) as Arc<dyn Predictor>, Some(p))
            }
        }
    }
}

/// A simulator workload's inputs.
pub struct Sim {
    pub kind: Kind,
    ctx: Ctx,
    pub jobs: Vec<JobSpec>,
    /// The latest run, kept for the output checks.
    pub last: Option<SchedResult>,
    /// The predictor the latest `Learn` run trained.
    pub learned: Option<Arc<LearnedPredictor>>,
}

impl Sim {
    pub fn spec(ctx: &Ctx, kind: Kind) -> WorkloadSpec {
        match kind {
            Kind::Batch => ctx.spec(LoadLevel::Heavy, 50, JOBS / 50),
            Kind::Learn => ctx.spec(LoadLevel::Medium, 12, JOBS / 12),
        }
    }

    /// Load the workload as a recorded trace (spec → JSONL → replay).
    pub fn new(ctx: Ctx, kind: Kind) -> Sim {
        let jobs = ctx.replayed(&Sim::spec(&ctx, kind));
        Sim::over(ctx, kind, jobs)
    }

    /// A simulator run over exactly `jobs`.
    pub fn over(ctx: Ctx, kind: Kind, jobs: Vec<JobSpec>) -> Sim {
        Sim { kind, ctx, jobs, last: None, learned: None }
    }

    /// The scheduler configuration, pricing through `predictor`.
    pub fn scheduler(&self, predictor: Arc<dyn Predictor>) -> Scheduler {
        match self.kind {
            Kind::Batch => self.ctx.scheduler(Policy::FcfsBackfill).with_predictor(predictor),
            Kind::Learn => self
                .ctx
                .scheduler(Policy::EdfAdmit)
                .with_telemetry(TelemetryConfig::default())
                .with_degradation(Degradation {
                    repo: 0,
                    start: self.jobs[self.jobs.len() / 2].arrival,
                    factor: 0.15,
                })
                .with_predictor(predictor),
        }
    }

    /// Simulate the jobs with a fresh predictor, wrapped by `wrap`:
    /// `SchedCore::new`, one `submit` per job (the op), `finish()` —
    /// each a timed call, so `lat` gains two entries more than there
    /// are jobs.
    pub fn run<T: Tracer>(
        &mut self,
        t: &mut T,
        wrap: impl FnOnce(Arc<dyn Predictor>) -> Arc<dyn Predictor>,
        lat: &mut Vec<u64>,
    ) -> Segment {
        let (predictor, learned) = self.kind.predictor();
        self.learned = learned;
        let cfg = self.scheduler(wrap(predictor));
        let stream = self.jobs.clone();
        let mut failed = 0;
        let start = Instant::now();
        let (mut core, ns) = timed(|| t.span("sched.core.new", || SchedCore::new(cfg)));
        lat.push(ns);
        for (i, job) in stream.into_iter().enumerate() {
            t.set_op(i as u64);
            let (res, ns) = timed(|| t.span("sched.core.submit", || core.submit(job)));
            lat.push(ns);
            failed += u64::from(res.is_err());
        }
        let (result, ns) = timed(|| t.span("sched.core.finish", || core.finish()));
        lat.push(ns);
        let secs = start.elapsed().as_secs_f64();
        failed += result.violations.len() as u64;
        let digest = outcome_digest(&result.outcomes, result.makespan, result.violations.len());
        self.last = Some(result);
        Segment { secs, failed, digest }
    }

    /// The latest run must equal `Scheduler::run` over the same jobs,
    /// and a `Learn` run must have trained and drifted — otherwise the
    /// workload is not measuring what it says.
    pub fn verify(&self) -> Result<f64, String> {
        let reference = self.scheduler(self.kind.predictor().0).run(&self.jobs);
        let last = self.last.as_ref().ok_or("no segment ran")?;
        if let Some(why) =
            reference_mismatch(&reference, &last.outcomes, last.makespan, &last.violations)
        {
            return Err(format!("submit+finish differs from Scheduler::run: {why}"));
        }
        if self.kind == Kind::Learn {
            let learned = self.learned.as_ref().ok_or("no learned predictor")?;
            let alarms = self.drift_alarms();
            if learned.trained_keys() == 0 || learned.epoch() == 0 || alarms == 0 {
                return Err(format!(
                    "sim-learn did not learn: {} trained keys, {} epoch bumps, {alarms} drift \
                     alarms",
                    learned.trained_keys(),
                    learned.epoch()
                ));
            }
        }
        Ok(pred_err_pct(&last.outcomes))
    }

    /// Drift alarms the latest run's ledger raised.
    pub fn drift_alarms(&self) -> usize {
        self.last.as_ref().and_then(|r| r.telemetry.as_ref()).map_or(0, |t| t.ledger.alarms().len())
    }
}

macro_rules! sim_workload {
    ($name:ident, $kind:expr, $segments:expr) => {
        pub struct $name(Sim);

        impl Workload for $name {
            const OPS: usize = JOBS;
            const SEGMENTS: usize = $segments;
            const SETUP_REPS: usize = 8;

            fn setup(seed: u64) -> Self {
                $name(Sim::new(Ctx::new(seed), $kind))
            }

            fn segment(&mut self, lat: &mut Vec<u64>) -> Segment {
                self.0.run(&mut Off, |predictor| predictor, lat)
            }

            fn verify(&mut self) -> Result<f64, String> {
                self.0.verify()
            }
        }
    };
}
sim_workload!(SimBatch, Kind::Batch, 10);
sim_workload!(SimLearn, Kind::Learn, 12);

/// A predictor wrapper for the traced pass: the scheduler calls back
/// into it, so it can count and stamp the calls the benchmark cannot
/// see from outside `SchedCore::submit`.
#[derive(Debug)]
pub struct SpyPredictor {
    inner: Arc<dyn Predictor>,
    origin: Instant,
    /// `predict_deployment` calls.
    pub predicts: AtomicU64,
    /// (start ns, end ns) of every `observe` call, against `origin`.
    pub observes: Mutex<Vec<(u64, u64)>>,
    /// The observations themselves, to drive other predictors with.
    pub observations: Mutex<Vec<Observation>>,
}

impl SpyPredictor {
    pub fn new(inner: Arc<dyn Predictor>, origin: Instant) -> SpyPredictor {
        SpyPredictor {
            inner,
            origin,
            predicts: AtomicU64::new(0),
            observes: Mutex::default(),
            observations: Mutex::default(),
        }
    }
}

impl Predictor for SpyPredictor {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn predict_deployment(
        &self,
        profile: &Profile,
        classes: AppClasses,
        d: DeploymentRef<'_>,
        dataset_bytes: u64,
        factors: &HashMap<String, ScalingFactors>,
    ) -> Result<Prediction, SelectionError> {
        // A statistic, published to nobody: Relaxed.
        self.predicts.fetch_add(1, Ordering::Relaxed);
        self.inner.predict_deployment(profile, classes, d, dataset_bytes, factors)
    }

    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }

    fn wants_observations(&self) -> bool {
        self.inner.wants_observations()
    }

    fn observe(&self, obs: &Observation) {
        let start = self.origin.elapsed().as_nanos() as u64;
        self.inner.observe(obs);
        let end = self.origin.elapsed().as_nanos() as u64;
        self.observes.lock().expect("spy lock").push((start, end));
        self.observations.lock().expect("spy lock").push(obs.clone());
    }
}
