//! `replay-wire`: the write side of the service. A heavy-tail trace is
//! submitted job by job to a fresh server and drained, through the
//! wire (the workload) or through the sans-IO chain (the traced pass).

use super::chain::{SansIo, SpanNames};
use super::quote::Session;
use super::sim::{outcome_digest, pred_err_pct, reference_mismatch};
use super::{Segment, Workload};
use crate::inputs::Ctx;
use crate::measure::timed;
use crate::trace::Tracer;
use fg_sched::{JobSpec, LoadLevel, Policy, SchedResult};
use fg_serve::{DrainedRun, Request, Response, ServerEngine};
use std::time::Instant;

/// Submissions per segment (20 tenants × 150 jobs); the drain is one
/// more op.
pub const SUBMITS: usize = 3_000;

/// The trace both the wire workload and the sans-IO chain replay.
pub fn trace(ctx: &Ctx) -> Vec<JobSpec> {
    ctx.spec(LoadLevel::Heavy, 20, SUBMITS / 20).generate()
}

fn drained_digest(d: &DrainedRun) -> u64 {
    outcome_digest(&d.outcomes, d.makespan, d.violations.len())
}

/// A drained run must equal a direct `Scheduler::run` over the same
/// jobs: outcomes, makespan, violations. Returns that reference run.
pub fn check_drained(
    ctx: &Ctx,
    jobs: &[JobSpec],
    drained: &DrainedRun,
) -> Result<SchedResult, String> {
    let direct = ctx.scheduler(Policy::EdfAdmit).run(jobs);
    match reference_mismatch(&direct, &drained.outcomes, drained.makespan, &drained.violations) {
        Some(why) => Err(format!("served drain differs from Scheduler::run: {why}")),
        None => Ok(direct),
    }
}

/// `replay-wire`: 3 000 `ServeClient::submit` + 1 `drain` per segment,
/// each segment on a fresh server.
pub struct ReplayWire {
    ctx: Ctx,
    jobs: Vec<JobSpec>,
    /// Started during set-up (and, for later segments, before the
    /// segment's clock starts); a segment consumes it.
    next: Option<Session>,
    last: Option<DrainedRun>,
}

impl ReplayWire {
    /// The trace, and `session` as the first segment's server.
    pub fn over(ctx: Ctx, session: Session) -> ReplayWire {
        let jobs = trace(&ctx);
        ReplayWire { ctx, jobs, next: Some(session), last: None }
    }
}

impl Workload for ReplayWire {
    const OPS: usize = SUBMITS + 1;
    const SEGMENTS: usize = 60;
    const SETUP_REPS: usize = 24;

    fn setup(seed: u64) -> Self {
        let ctx = Ctx::new(seed);
        let session = Session::start(ctx.scheduler(Policy::EdfAdmit)).expect("server start-up");
        ReplayWire::over(ctx, session)
    }

    fn segment(&mut self, lat: &mut Vec<u64>) -> Segment {
        let mut session = self.next.take().unwrap_or_else(|| {
            Session::start(self.ctx.scheduler(Policy::EdfAdmit)).expect("server start-up")
        });
        let jobs = self.jobs.clone();
        let client = session.client();
        let mut failed = 0;
        let start = Instant::now();
        for job in jobs {
            let (res, ns) = timed(|| client.submit(job));
            lat.push(ns);
            failed += u64::from(res.is_err());
        }
        let (drained, ns) = timed(|| client.drain());
        lat.push(ns);
        let secs = start.elapsed().as_secs_f64();
        drop(session);
        match drained {
            Ok(d) => {
                failed += d.violations.len() as u64;
                let digest = drained_digest(&d);
                self.last = Some(d);
                Segment { secs, failed, digest }
            }
            Err(_) => Segment { secs, failed: failed + 1, digest: 0 },
        }
    }

    fn verify(&mut self) -> Result<f64, String> {
        let drained = self.last.as_ref().ok_or("no segment drained")?;
        check_drained(&self.ctx, &self.jobs, drained)?;
        Ok(pred_err_pct(&drained.outcomes))
    }
}

/// The sans-IO path of a submission and of the final drain: what the
/// wire workload does, minus the server's threads, with a span around
/// every layer call.
pub struct SubmitChain {
    jobs: Vec<JobSpec>,
    chain: SansIo,
    /// Payload size of the `Drained` response.
    pub drained_bytes: usize,
    pub drained: Option<DrainedRun>,
}

impl SubmitChain {
    pub fn new(ctx: &Ctx, jobs: Vec<JobSpec>) -> SubmitChain {
        SubmitChain {
            jobs,
            chain: SansIo::new(ServerEngine::new(ctx.scheduler(Policy::EdfAdmit))),
            drained_bytes: 0,
            drained: None,
        }
    }

    /// Submit every job, then drain; each request under an `op.submit`
    /// or `op.drain` span.
    pub fn run<T: Tracer>(&mut self, t: &mut T, lat: &mut Vec<u64>) -> Segment {
        const SUBMIT: SpanNames = [
            "serve.msg.encode_submit",
            "serve.msg.decode_submit",
            "serve.engine.handle_submit",
            "serve.msg.encode_submitted",
            "serve.msg.decode_submitted",
        ];
        const DRAIN: SpanNames = [
            "serve.msg.encode_drain",
            "serve.msg.decode_drain",
            "serve.engine.drain",
            "serve.msg.encode_drained",
            "serve.msg.decode_drained",
        ];
        let jobs = std::mem::take(&mut self.jobs);
        let mut failed = 0;
        let start = Instant::now();
        for (i, job) in jobs.into_iter().enumerate() {
            t.set_op(i as u64);
            let op = t.enter("op.submit");
            let (res, ns) = timed(|| self.chain.call(t, Request::Submit { job }, SUBMIT));
            t.exit(op);
            lat.push(ns);
            failed += u64::from(!matches!(res, Ok((Response::Submitted { .. }, _))));
        }
        t.set_op(lat.len() as u64);
        let op = t.enter("op.drain");
        let (res, ns) = timed(|| self.chain.call(t, Request::Drain, DRAIN));
        t.exit(op);
        lat.push(ns);
        let secs = start.elapsed().as_secs_f64();
        match res {
            Ok((Response::Drained { result }, bytes)) => {
                failed += result.violations.len() as u64;
                self.drained_bytes = bytes;
                let digest = drained_digest(&result);
                self.drained = Some(result);
                Segment { secs, failed, digest }
            }
            _ => Segment { secs, failed: failed + 1, digest: 0 },
        }
    }
}
