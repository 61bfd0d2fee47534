//! `quote-engine` and `quote-wire`: the same quote requests, once
//! through the sans-IO codec-and-engine chain on one thread, once
//! through `Server::start` and one closed-loop `ServeClient`.

use super::chain::{SansIo, SpanNames};
use super::{Segment, Workload};
use crate::inputs::{Ctx, QUOTE_SLACK};
use crate::measure::{timed, Fnv};
use crate::trace::{Off, Tracer};
use fg_predict::relative_error;
use fg_sched::{JobSpec, Policy, PredictionQuote, SchedSnapshot, Scheduler};
use fg_serve::{Request, Response, ServeClient, Server, ServerEngine};
use std::time::Instant;

/// A served quote is checked against the snapshot this often.
const CHECK_EVERY: usize = 1_000;

/// Give up on a server that never publishes its first snapshot.
const STARTUP_RETRY_LIMIT: u64 = 1_000_000;

fn quote_digest(quotes: &[PredictionQuote]) -> u64 {
    let mut h = Fnv::new();
    for q in quotes {
        h.f64(q.standalone);
        h.f64(q.corrected);
        h.f64(q.estimate);
        h.word(q.would_admit.map_or(2, u64::from));
    }
    h.0
}

fn same_bits(a: &PredictionQuote, b: &PredictionQuote) -> bool {
    quote_digest(std::slice::from_ref(a)) == quote_digest(std::slice::from_ref(b))
}

/// Every `CHECK_EVERY`th quote must equal `SchedSnapshot::quote` on the
/// same state, bit for bit.
fn check_against(
    snapshot: &SchedSnapshot,
    apps: &[String],
    stream: &[(usize, u64)],
    quotes: &[PredictionQuote],
) -> Result<(), String> {
    for (i, served) in quotes.iter().enumerate().step_by(CHECK_EVERY) {
        let (app, bytes) = stream[i];
        let direct = snapshot.quote(&apps[app], bytes, QUOTE_SLACK);
        if !direct.as_ref().is_some_and(|d| same_bits(d, served)) {
            return Err(format!(
                "quote {i} ({} × {bytes} B): served {served:?}, snapshot says {direct:?}",
                apps[app]
            ));
        }
    }
    Ok(())
}

/// `pred_err_pct` of the quote workloads. A quote's `estimate` is a
/// prediction of when the job would complete if it were submitted
/// now; the observed run is a `Scheduler::run` over the preload plus
/// that job, arriving at the snapshot's instant. Every distinct
/// request of the cycle is scored with the quote the service gave it,
/// whatever order `--seed` dealt. The preload leaves a backlog behind
/// which EDF admission turns nearly every quoted job away at the
/// quoted slack, and a job turned away has no run to score, so the
/// scored job asks for a deadline it cannot miss: it is admitted,
/// queues behind the backlog, and its completion is what the estimate
/// predicted.
fn quote_err_pct(
    ctx: &Ctx,
    preload: &[JobSpec],
    now: f64,
    stream: &[(usize, u64)],
    quotes: &[PredictionQuote],
) -> Result<f64, String> {
    let apps = ctx.apps();
    let requests = ctx.quote_cycle();
    let mut sum = 0.0;
    for request in &requests {
        let served = stream.iter().position(|r| r == request).ok_or("a request was never dealt")?;
        let mut jobs = preload.to_vec();
        jobs.push(JobSpec {
            id: jobs.len(),
            tenant: 0,
            app: apps[request.0].to_string(),
            dataset_bytes: request.1,
            arrival: now,
            deadline_slack: 1e6,
        });
        let run = ctx.scheduler(Policy::EdfAdmit).run(&jobs);
        let finish = run.outcomes.last().and_then(|o| o.finish).ok_or("a scored job never ran")?;
        sum += relative_error(finish - now, quotes[served].estimate - now);
    }
    Ok(100.0 * sum / requests.len() as f64)
}

/// An engine in the state both quote workloads price against.
fn preloaded_engine(ctx: &Ctx, preload: &[JobSpec]) -> ServerEngine {
    let mut engine = ServerEngine::new(ctx.scheduler(Policy::EdfAdmit));
    for job in preload {
        let (resp, _) = engine.handle(Request::Submit { job: job.clone() });
        assert!(matches!(resp, Response::Submitted { .. }), "preload submit refused: {resp:?}");
    }
    engine
}

/// The quote stream through the sans-IO chain.
pub struct QuoteChain {
    ctx: Ctx,
    apps: Vec<String>,
    stream: Vec<(usize, u64)>,
    preload: Vec<JobSpec>,
    chain: SansIo,
    quotes: Vec<PredictionQuote>,
}

impl QuoteChain {
    /// A chain over `ops` requests, its engine preloaded.
    pub fn new(ctx: Ctx, ops: usize) -> QuoteChain {
        let preload = ctx.preload();
        QuoteChain {
            apps: ctx.apps().into_iter().map(String::from).collect(),
            stream: ctx.quote_stream(ops),
            chain: SansIo::new(preloaded_engine(&ctx, &preload)),
            quotes: Vec::with_capacity(ops),
            preload,
            ctx,
        }
    }

    fn op<T: Tracer>(&mut self, t: &mut T, i: usize) -> Result<PredictionQuote, String> {
        const QUOTE: SpanNames = [
            "serve.msg.encode_request",
            "serve.msg.decode_request",
            "serve.engine.handle_quote",
            "serve.msg.encode_response",
            "serve.msg.decode_response",
        ];
        let (app, dataset_bytes) = self.stream[i];
        let req = Request::Quote {
            app: self.apps[app].clone(),
            dataset_bytes,
            deadline_slack: QUOTE_SLACK,
        };
        match self.chain.call(t, req, QUOTE)? {
            (Response::Quoted { quote: Some(q) }, _) => Ok(q),
            (other, _) => Err(format!("quote {i} answered {other:?}")),
        }
    }

    /// Run the chain's ops in order, each under an `op.quote` span.
    pub fn run<T: Tracer>(&mut self, t: &mut T, lat: &mut Vec<u64>) -> Segment {
        self.quotes.clear();
        let mut failed = 0;
        let start = Instant::now();
        for i in 0..self.stream.len() {
            t.set_op(i as u64);
            let op = t.enter("op.quote");
            let (res, ns) = timed(|| self.op(t, i));
            t.exit(op);
            lat.push(ns);
            match res {
                Ok(q) => self.quotes.push(q),
                Err(_) => failed += 1,
            }
        }
        let secs = start.elapsed().as_secs_f64();
        Segment { secs, failed, digest: quote_digest(&self.quotes) }
    }

    pub fn verify(&self) -> Result<f64, String> {
        let snapshot = self.chain.engine.snapshot().ok_or("engine drained")?;
        check_against(&snapshot, &self.apps, &self.stream, &self.quotes)?;
        quote_err_pct(&self.ctx, &self.preload, snapshot.now(), &self.stream, &self.quotes)
    }
}

/// `quote-engine`: the CPU cost of a served quote with no thread in
/// the way.
pub struct QuoteEngine(QuoteChain);

impl Workload for QuoteEngine {
    const OPS: usize = 50_000;
    const SEGMENTS: usize = 36;
    const SETUP_REPS: usize = 24;

    fn setup(seed: u64) -> Self {
        QuoteEngine(QuoteChain::new(Ctx::new(seed), Self::OPS))
    }

    fn segment(&mut self, lat: &mut Vec<u64>) -> Segment {
        self.0.run(&mut Off, lat)
    }

    fn verify(&mut self) -> Result<f64, String> {
        self.0.verify()
    }
}

/// A started server with one connected client that has seen a
/// successful reply.
pub struct Session {
    client: Option<ServeClient>,
    server: Option<Server>,
    /// `stats()` calls that failed before the first one succeeded.
    pub startup_retries: u64,
    /// `Server::start` until the first successful reply, ms.
    pub start_ms: f64,
    /// `ServeClient::connect` alone, us.
    pub connect_us: f64,
}

impl Session {
    /// `Server::start`, connect, and the start-up guard: a request
    /// issued straight after `start` can reach the query pool before
    /// the core thread's first `publish` and be answered
    /// `Error("session already drained")` (README.md, "Start-up
    /// race"). Poll `stats()` until it succeeds so no timed op meets
    /// that window.
    pub fn start(cfg: Scheduler) -> Result<Session, String> {
        let start = Instant::now();
        let server = Server::start(cfg);
        let (mut client, connect_ns) = timed(|| ServeClient::connect(&server));
        let mut startup_retries = 0;
        while let Err(e) = client.stats() {
            startup_retries += 1;
            if startup_retries > STARTUP_RETRY_LIMIT {
                return Err(format!("server never became ready: {e}"));
            }
            std::thread::yield_now();
        }
        Ok(Session {
            client: Some(client),
            server: Some(server),
            startup_retries,
            start_ms: start.elapsed().as_secs_f64() * 1e3,
            connect_us: connect_ns as f64 / 1e3,
        })
    }

    pub fn client(&mut self) -> &mut ServeClient {
        self.client.as_mut().expect("the client lives until the session drops")
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // Hang up first: `shutdown` joins the session thread, which
        // ends when the client's end of the pipe closes.
        drop(self.client.take());
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// `quote-wire`: the quote stream through the threaded server, one
/// client, closed loop.
pub struct QuoteWire {
    ctx: Ctx,
    apps: Vec<String>,
    stream: Vec<(usize, u64)>,
    preload: Vec<JobSpec>,
    pub session: Session,
    quotes: Vec<PredictionQuote>,
}

impl QuoteWire {
    /// Preload `session` and deal the stream.
    pub fn over(ctx: Ctx, mut session: Session) -> QuoteWire {
        let preload = ctx.preload();
        for job in &preload {
            session.client().submit(job.clone()).expect("preload submit");
        }
        QuoteWire {
            apps: ctx.apps().into_iter().map(String::from).collect(),
            stream: ctx.quote_stream(Self::OPS),
            preload,
            session,
            quotes: Vec::with_capacity(Self::OPS),
            ctx,
        }
    }
}

impl Workload for QuoteWire {
    const OPS: usize = 2_500;
    const SEGMENTS: usize = 250;
    const SETUP_REPS: usize = 24;

    fn setup(seed: u64) -> Self {
        let ctx = Ctx::new(seed);
        let session = Session::start(ctx.scheduler(Policy::EdfAdmit)).expect("server start-up");
        QuoteWire::over(ctx, session)
    }

    fn segment(&mut self, lat: &mut Vec<u64>) -> Segment {
        self.quotes.clear();
        let client = self.session.client();
        let mut failed = 0;
        let start = Instant::now();
        for &(app, bytes) in &self.stream {
            let (res, ns) = timed(|| client.quote(&self.apps[app], bytes, QUOTE_SLACK));
            lat.push(ns);
            match res {
                Ok(Some(q)) => self.quotes.push(q),
                Ok(None) | Err(_) => failed += 1,
            }
        }
        let secs = start.elapsed().as_secs_f64();
        Segment { secs, failed, digest: quote_digest(&self.quotes) }
    }

    /// The served quotes must equal what a local engine in the same
    /// state quotes: the server adds threads, not arithmetic.
    fn verify(&mut self) -> Result<f64, String> {
        let snapshot =
            preloaded_engine(&self.ctx, &self.preload).snapshot().ok_or("engine drained")?;
        check_against(&snapshot, &self.apps, &self.stream, &self.quotes)?;
        quote_err_pct(&self.ctx, &self.preload, snapshot.now(), &self.stream, &self.quotes)
    }
}
