//! The traced pass: per-layer metrics, measured from outside by
//! timing calls into each crate's public functions.
//!
//! Each workload re-runs a fifth of its own ops under the span
//! recorder — the quote workloads through the sans-IO quote chain,
//! `replay-wire` through the sans-IO submit chain, the simulator
//! workloads through `SchedCore`, `paper-sweep` through its own loop —
//! and adds direct probes of the functions its ops spend their time
//! in. A layer its ops never enter is left unmeasured, and the runner
//! reports 0 for it.
//!
//! The server's threads are out of reach from outside, so the two wire
//! workloads are traced through the sans-IO chains, and the handoff
//! metrics are the measured round trip minus the chain.

use crate::cpu::Cpus;
use crate::inputs::{Ctx, CONTENT_SEED, QUOTE_SLACK};
use crate::measure::{median, median_ns, ns_per_call, quantile_sorted, sort, timed};
use crate::trace::{Off, Recorder};
use crate::workloads::quote::{QuoteChain, QuoteEngine, QuoteWire, Session};
use crate::workloads::replay::{self, ReplayWire, SubmitChain};
use crate::workloads::sim::{self, Kind, Sim, SpyPredictor};
use crate::workloads::sweep::{self, Sweep};
use crate::workloads::{Segment, Workload};
use fg_bench::{pentium_deployment, PaperApp};
use fg_cluster::{Deployment, DeploymentRef};
use fg_learn::{fit_ridge, HybridPredictor, LearnConfig, LearnedPredictor};
use fg_predict::{try_predict_deployment, try_rank_deployments, Observation, Predictor, Profile};
use fg_sched::{
    naive_best_placement_with, AccuracyLedger, DriftConfig, FreeSlices, JobSpec, PlacementEngine,
    Policy, SchedCore, TelemetryConfig, Workload as Trace,
};
use fg_sim::{Engine, FairShareSim, Flow, ResourceId, SimDuration, SimTime};
use rand::Rng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The share of a segment's ops the traced pass re-runs.
const TRACED_SHARE: usize = 5;
/// Jobs in the small run of `sched.core.scale_ratio`.
const SMALL_SIM_JOBS: usize = sim::JOBS / 8;

/// What the traced pass produced.
#[derive(Default)]
pub struct Layers {
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Every recorded span, as JSON lines.
    pub spans: String,
    /// Human-readable results of the checks that are printed, not
    /// enforced.
    pub notes: Vec<String>,
}

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    fn count(&mut self, segment: &Segment, ops: usize) {
        self.attempted += ops as u64;
        self.failed += segment.failed;
    }

    /// Keep the spans of the workload's traced chain, and record how
    /// much slower than its untraced twin the traced run was.
    fn keep(&mut self, rec: &Recorder, plain: &Segment, traced: &Segment) -> f64 {
        let tracing = (traced.secs / plain.secs - 1.0) * 100.0;
        self.set("bench.trace_overhead_pct", tracing);
        self.set("trace.span.count", rec.len() as f64);
        rec.write_jsonl(&mut self.spans);
        tracing
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The demo grid, timing the profile runs every workload but
/// `paper-sweep` starts with.
fn profiled(p: &mut Layers, seed: u64) -> Ctx {
    let (ctx, ns) = timed(|| Ctx::new(seed));
    p.set("bench.figures.sched_models_ms", ms(ns));
    ctx
}

/// Run workload `name`'s traced pass.
pub fn run(name: &str, seed: u64, cpus: &Cpus) -> Result<Layers, String> {
    let mut p = Layers::default();
    match name {
        "quote-engine" => {
            let ctx = profiled(&mut p, seed);
            quote_chain(&mut p, &ctx, QuoteEngine::OPS / TRACED_SHARE)?;
            quote_probes(&mut p, &ctx);
        }
        "quote-wire" => {
            let ctx = profiled(&mut p, seed);
            let chain_p50_ns = quote_chain(&mut p, &ctx, QuoteWire::OPS / TRACED_SHARE)?;
            quote_wire(&mut p, &ctx, cpus, chain_p50_ns)?;
            quote_probes(&mut p, &ctx);
        }
        "replay-wire" => {
            let ctx = profiled(&mut p, seed);
            let chain_p50_ns = submit_chain(&mut p, &ctx)?;
            replay_wire(&mut p, &ctx, cpus, chain_p50_ns)?;
            decision_core(&mut p, &ctx);
        }
        "sim-batch" | "sim-learn" => {
            let ctx = profiled(&mut p, seed);
            let kind = if name == "sim-learn" { Kind::Learn } else { Kind::Batch };
            simulator(&mut p, &ctx, kind)?;
        }
        "paper-sweep" => paper_sweep(&mut p, seed)?,
        _ => unreachable!("the runner admits only declared workloads"),
    }
    p.set("bench.cpus_allowed", cpus.allowed() as f64);
    Ok(p)
}

fn app_bytes(ctx: &Ctx, jobs: &[JobSpec]) -> Vec<(usize, u64)> {
    let apps = ctx.apps();
    jobs.iter()
        .map(|j| (apps.iter().position(|a| *a == j.app).expect("known app"), j.dataset_bytes))
        .collect()
}

/// `ops` quotes through the sans-IO chain, untraced then traced: the
/// stage budget of a served quote. Returns the untraced p50 (ns).
fn quote_chain(p: &mut Layers, ctx: &Ctx, ops: usize) -> Result<f64, String> {
    let mut chain = QuoteChain::new(ctx.clone(), ops);
    let mut lat = Vec::with_capacity(ops);
    chain.run(&mut Off, &mut lat); // warm-up
    lat.clear();
    let plain = chain.run(&mut Off, &mut lat);
    let p50 = median_ns(&mut lat);
    let mut rec = Recorder::new("quote");
    lat.clear();
    let traced = chain.run(&mut rec, &mut lat);
    chain.verify()?;
    if plain.digest != traced.digest {
        return Err("quote chain: traced and untraced passes disagree".into());
    }
    p.count(&plain, ops);
    p.count(&traced, ops);

    const STAGES: [(&str, &str); 7] = [
        ("serve.msg.encode_request_ns", "serve.msg.encode_request"),
        ("serve.msg.decode_request_ns", "serve.msg.decode_request"),
        ("serve.engine.handle_quote_ns", "serve.engine.handle_quote"),
        ("serve.msg.encode_response_ns", "serve.msg.encode_response"),
        ("serve.msg.decode_response_ns", "serve.msg.decode_response"),
        ("serve.frame.encode_ns", "serve.frame.encode"),
        ("serve.frame.decode_ns", "serve.frame.decode"),
    ];
    for (metric, span) in STAGES {
        p.set(metric, rec.p50_ns(span));
    }
    let tracing = p.keep(&rec, &plain, &traced);

    // The stage budget must account for the op: the named stages'
    // self times, summed per op, against the untraced op. A gap beyond
    // 5 % plus the tracing overhead means a stage is missing.
    let stages: Vec<&str> = STAGES.iter().map(|(_, span)| *span).collect();
    let stage_sum = rec.p50_per_op_ns(&stages);
    let gap = (stage_sum / p50 - 1.0) * 100.0;
    let verdict = if gap.abs() <= 5.0 + tracing.max(0.0) { "ok" } else { "EXCEEDED" };
    p.notes.push(format!(
        "stage-sum check {verdict}: stages sum to {stage_sum:.0} ns, untraced op p50 {p50:.0} ns, \
         gap {gap:+.1} % (allowed: 5 % + {tracing:.1} % tracing overhead)"
    ));
    Ok(p50)
}

/// One segment of `quote-wire`, and one with the server's threads on
/// a second CPU: the round trips the chain is subtracted from.
fn quote_wire(p: &mut Layers, ctx: &Ctx, cpus: &Cpus, chain_p50_ns: f64) -> Result<(), String> {
    let round_trips = |p: &mut Layers, session: Session| -> Result<Vec<f64>, String> {
        let mut quotes = QuoteWire::over(ctx.clone(), session);
        let mut lat = Vec::with_capacity(QuoteWire::OPS);
        quotes.segment(&mut lat); // warm-up
        lat.clear();
        let seg = quotes.segment(&mut lat);
        quotes.verify()?;
        p.count(&seg, QuoteWire::OPS);
        Ok(sort(lat.iter().map(|&ns| ns as f64).collect()))
    };
    let cfg = || ctx.scheduler(Policy::EdfAdmit);

    let session = Session::start(cfg())?;
    p.set("serve.server.start_ms", session.start_ms);
    p.set("serve.server.startup_retries", session.startup_retries as f64);
    p.set("serve.client.connect_us", session.connect_us);
    let rtt = round_trips(p, session)?;
    p.set("serve.server.handoff_us", (quantile_sorted(&rtt, 0.5) - chain_p50_ns) / 1e3);
    p.set("serve.server.rtt_p99_us", quantile_sorted(&rtt, 0.99) / 1e3);

    if let Some(session) = cpus.beside(|| Session::start(cfg()))? {
        let rtt = round_trips(p, session?)?;
        p.set("serve.server.rtt_beside_us", quantile_sorted(&rtt, 0.5) / 1e3);
    }
    Ok(())
}

/// A fifth of `replay-wire`'s submissions and a drain through the
/// sans-IO chain, untraced then traced. Returns the untraced p50 of a
/// submission (ns).
fn submit_chain(p: &mut Layers, ctx: &Ctx) -> Result<f64, String> {
    let mut jobs = replay::trace(ctx);
    jobs.truncate(replay::SUBMITS / TRACED_SHARE);
    let ops = jobs.len() + 1;
    let mut lat = Vec::with_capacity(ops);
    SubmitChain::new(ctx, jobs.clone()).run(&mut Off, &mut lat); // warm-up
    lat.clear();
    let plain = SubmitChain::new(ctx, jobs.clone()).run(&mut Off, &mut lat);
    let p50 = median_ns(&mut lat[..jobs.len()]);

    let mut chain = SubmitChain::new(ctx, jobs.clone());
    let mut rec = Recorder::new("submit");
    lat.clear();
    let traced = chain.run(&mut rec, &mut lat);
    let drained = chain.drained.as_ref().ok_or("submit chain: no drained run")?;
    let direct = replay::check_drained(ctx, &jobs, drained)?;
    if plain.digest != traced.digest {
        return Err("submit chain: traced and untraced passes disagree".into());
    }
    p.count(&plain, ops);
    p.count(&traced, ops);

    p.set(
        "serve.msg.submit_codec_ns",
        rec.p50_per_op_ns(&[
            "serve.msg.encode_submit",
            "serve.msg.decode_submit",
            "serve.msg.encode_submitted",
            "serve.msg.decode_submitted",
        ]),
    );
    p.set(
        "serve.msg.events_codec_ns",
        rec.p50_per_op_ns(&["serve.msg.encode_events", "serve.msg.decode_events"]),
    );
    p.set("serve.msg.drained_decode_ms", rec.p50_ns("serve.msg.decode_drained") / 1e6);
    p.set("serve.msg.drained_bytes", chain.drained_bytes as f64);
    p.set("serve.engine.handle_submit_ns", rec.p50_ns("serve.engine.handle_submit"));
    p.set("serve.engine.drain_ms", rec.p50_ns("serve.engine.drain") / 1e6);
    p.set("serve.frame.encode_ns", rec.p50_ns("serve.frame.encode"));
    p.set("serve.frame.decode_ns", rec.p50_ns("serve.frame.decode"));
    // The drain's payload carries the run's trace as JSONL.
    let (text, ns) = timed(|| fg_trace::to_jsonl(&direct.trace));
    black_box(text);
    p.set("trace.export.to_jsonl_ms", ms(ns));
    p.keep(&rec, &plain, &traced);
    Ok(p50)
}

/// One segment of `replay-wire`, and one with the server's threads on
/// a second CPU.
fn replay_wire(p: &mut Layers, ctx: &Ctx, cpus: &Cpus, chain_p50_ns: f64) -> Result<(), String> {
    let submit_p50_ns = |p: &mut Layers, session: Session| -> Result<f64, String> {
        let mut submits = ReplayWire::over(ctx.clone(), session);
        let mut lat = Vec::with_capacity(ReplayWire::OPS);
        let seg = submits.segment(&mut lat);
        submits.verify()?;
        p.count(&seg, ReplayWire::OPS);
        Ok(median_ns(&mut lat[..replay::SUBMITS]))
    };
    let cfg = || ctx.scheduler(Policy::EdfAdmit);

    let session = Session::start(cfg())?;
    p.set("serve.server.start_ms", session.start_ms);
    p.set("serve.server.startup_retries", session.startup_retries as f64);
    p.set("serve.client.connect_us", session.connect_us);
    let wire_p50_ns = submit_p50_ns(p, session)?;
    p.set("serve.server.submit_handoff_us", (wire_p50_ns - chain_p50_ns) / 1e3);

    if let Some(session) = cpus.beside(|| Session::start(cfg()))? {
        let wire_p50_ns = submit_p50_ns(p, session?)?;
        p.set("serve.server.submit_beside_us", wire_p50_ns / 1e3);
    }
    Ok(())
}

/// A fifth of a simulator workload's jobs under the recorder, and the
/// probes of what `SchedCore` spends a job's time in.
fn simulator(p: &mut Layers, ctx: &Ctx, kind: Kind) -> Result<(), String> {
    let chain = if kind == Kind::Learn { "sim-learn" } else { "sim-batch" };
    // Loading the trace, as set-up does it, timed step by step.
    let spec = Sim::spec(ctx, kind);
    let n = sim::JOBS as f64;
    let (generated, ns) = timed(|| Trace::from_spec(&spec).expect("preset specs are valid"));
    p.set("sched.workload.generate_ns_per_job", ns as f64 / n);
    let (text, ns) = timed(|| generated.dump_jsonl());
    p.set("sched.replay.dump_ns_per_job", ns as f64 / n);
    let (parsed, ns) = timed(|| Trace::replay(&text).expect("a dumped workload replays"));
    p.set("sched.replay.parse_ns_per_job", ns as f64 / n);
    let jobs = parsed.jobs;

    let ops = sim::JOBS / TRACED_SHARE;
    let mut sim = Sim::over(ctx.clone(), kind, jobs[..ops].to_vec());
    let mut lat = Vec::with_capacity(ops + 2);
    sim.run(&mut Off, |predictor| predictor, &mut lat); // warm-up
    lat.clear();
    let plain = sim.run(&mut Off, |predictor| predictor, &mut lat);
    p.count(&plain, ops);

    let mut rec = Recorder::new(chain);
    let origin = rec.origin();
    let mut spy = None;
    lat.clear();
    let traced = sim.run(
        &mut rec,
        |predictor| spy.insert(Arc::new(SpyPredictor::new(predictor, origin))).clone(),
        &mut lat,
    );
    let spy = spy.expect("run wraps its predictor");
    p.count(&traced, ops);
    sim.verify()?;
    if plain.digest != traced.digest {
        return Err(format!("{chain}: traced and untraced passes disagree"));
    }
    rec.adopt("learn.predictor.observe", &spy.observes.lock().expect("spy lock"));

    p.set("sched.core.submit_p50_ns", rec.p50_ns("sched.core.submit"));
    p.set("sched.core.submit_p99_ns", rec.self_quantile_ns("sched.core.submit", 0.99));
    p.set("sched.core.finish_ms", rec.p50_ns("sched.core.finish") / 1e6);
    p.set("sched.core.new_ms", rec.p50_ns("sched.core.new") / 1e6);
    let result = sim.last.as_ref().ok_or("no simulator run")?;
    let (text, ns) = timed(|| fg_trace::to_jsonl(&result.trace));
    black_box(text);
    p.set("trace.export.to_jsonl_ms", ms(ns));
    p.keep(&rec, &plain, &traced);

    let observations = std::mem::take(&mut *spy.observations.lock().expect("spy lock"));
    if kind == Kind::Learn {
        let trained = sim.learned.clone().ok_or("sim-learn ran without its predictor")?;
        p.set("learn.predictor.observe_us", rec.p50_ns("learn.predictor.observe") / 1e3);
        p.set(
            "learn.predictor.predict_calls",
            spy.predicts.load(std::sync::atomic::Ordering::Relaxed) as f64,
        );
        p.set("learn.predictor.epoch_bumps", trained.epoch() as f64);
        p.set("learn.predictor.trained_keys", trained.trained_keys() as f64);
        p.set("sched.ledger.drift_alarms", sim.drift_alarms() as f64);
        learning(p, ctx, &sim, &trained, &observations);
    }
    scale_ratio(p, ctx, kind, &jobs);
    placement(p, ctx, kind, &app_bytes(ctx, &jobs), &observations);
    fair_share(p, ctx);
    Ok(())
}

/// Direct probes of fg-learn and the accuracy ledger, over what the
/// traced `sim-learn` run produced.
fn learning(
    p: &mut Layers,
    ctx: &Ctx,
    sim: &Sim,
    trained: &LearnedPredictor,
    observations: &[Observation],
) {
    let cfg = LearnConfig::default();
    let candidates = candidates(ctx);
    let (_, model) = &ctx.grid.apps[0];
    p.set(
        "learn.predictor.predict_ns",
        ns_per_call(200, candidates.len(), {
            let mut i = 0;
            move || {
                let d = candidates[i % candidates.len()];
                i += 1;
                black_box(
                    trained
                        .predict_deployment(
                            &model.profile,
                            model.classes,
                            d,
                            200 << 20,
                            &ctx.grid.factors,
                        )
                        .ok(),
                );
            }
        }),
    );

    let hybrid = HybridPredictor::default();
    let mut i = 0;
    p.set(
        "learn.hybrid.observe_ns",
        ns_per_call(100, 64, || {
            hybrid.observe(&observations[i % observations.len()]);
            i += 1;
        }),
    );

    let (text, ns) = timed(|| trained.dump_jsonl());
    p.set("learn.predictor.dump_ms", ms(ns));
    let (replayed, ns) = timed(|| LearnedPredictor::replay_jsonl(&text));
    black_box(replayed.ok());
    p.set("learn.predictor.replay_ms", ms(ns));

    // A full-capacity ridge fit: 512 rows × 5 features.
    let mut rng = fg_sim::rng::stream_rng(CONTENT_SEED, "benchmark-ridge");
    let xs: Vec<Vec<f64>> = (0..cfg.capacity)
        .map(|_| {
            let (s, n, c) = (rng.gen_range(1.0..4096.0), rng.gen_range(1..5), rng.gen_range(1..17));
            vec![1.0, s / n as f64, s / (n as f64 * 0.8), s / c as f64, c as f64]
        })
        .collect();
    let ys: Vec<f64> = xs.iter().map(|x| 0.5 + 0.04 * x[1] + 0.9 * x[2] + 0.3 * x[3]).collect();
    p.set(
        "learn.ridge.fit_us",
        ns_per_call(50, 1, || {
            black_box(fit_ridge(&xs, &ys, cfg.lambda).ok());
        }) / 1e3,
    );

    let ledger = &sim
        .last
        .as_ref()
        .and_then(|r| r.telemetry.as_ref())
        .expect("sim-learn runs with telemetry")
        .ledger;
    let samples = ledger.tail(usize::MAX);
    let mut fresh = AccuracyLedger::new(DriftConfig::default());
    let n = samples.len().max(1);
    let (_, ns) = timed(|| {
        for s in samples {
            black_box(fresh.ingest(s));
        }
    });
    p.set("sched.ledger.ingest_ns", ns as f64 / n as f64);
    let (text, ns) = timed(|| ledger.dump_jsonl());
    p.set("sched.ledger.dump_ms", ms(ns));
    let (replayed, ns) = timed(|| AccuracyLedger::replay_jsonl(&text));
    black_box(replayed.ok());
    p.set("sched.ledger.replay_ms", ms(ns));
}

/// Every (repository, site, configuration) of the grid at nominal
/// bandwidth: what one placement scan prices.
fn candidates(ctx: &Ctx) -> Vec<DeploymentRef<'_>> {
    let grid = &ctx.grid;
    let mut out = Vec::new();
    for repo in &grid.repos {
        for site in &grid.sites {
            for &config in &grid.configs {
                if config.data_nodes <= repo.site.max_nodes
                    && config.compute_nodes <= site.site.max_nodes
                {
                    out.push(DeploymentRef {
                        repository: &repo.site,
                        compute: &site.site,
                        stream_bw: repo.wan.stream_bw,
                        config,
                        cache: None,
                    });
                }
            }
        }
    }
    out
}

/// jobs/s at `SMALL_SIM_JOBS` ÷ jobs/s at a full segment: above 1, the
/// simulator's cost per job grows with the trace.
fn scale_ratio(p: &mut Layers, ctx: &Ctx, kind: Kind, jobs: &[JobSpec]) {
    let mut rate = |n: usize, reps: usize| {
        let mut sim = Sim::over(ctx.clone(), kind, jobs[..n].to_vec());
        let mut secs = Vec::new();
        for _ in 0..reps {
            let seg = sim.run(&mut Off, |predictor| predictor, &mut Vec::with_capacity(n + 2));
            p.count(&seg, n);
            secs.push(seg.secs);
        }
        n as f64 / median(&secs)
    };
    let small = rate(SMALL_SIM_JOBS, 5);
    let full = rate(sim::JOBS, 1);
    p.set("sched.core.scale_ratio", small / full);
}

/// `PlacementEngine` driven from outside with the workload's (app,
/// bytes) sequence and `bench_placement`'s bandwidth nudges. The
/// scheduler asks again for every queued job on every pass, so the
/// drive slides a window of `WINDOW` requests along the sequence, one
/// step per pass. `sim-learn` prices through a learned predictor that
/// keeps being shown the traced run's observations, so its epoch keeps
/// moving.
fn placement(
    p: &mut Layers,
    ctx: &Ctx,
    kind: Kind,
    requests: &[(usize, u64)],
    observations: &[Observation],
) {
    const QUERIES: usize = 20_000;
    const NAIVE_QUERIES: usize = 2_000;
    const OBSERVE_EVERY: usize = 8;
    const WINDOW: usize = 8;
    let grid = &ctx.grid;
    let free = FreeSlices::new(
        grid.repos.iter().map(|r| r.site.max_nodes).collect(),
        grid.sites.iter().map(|s| s.site.max_nodes).collect(),
    );
    let nominal: Vec<f64> = grid.repos.iter().map(|r| r.wan.stream_bw).collect();
    let (predictor, _) = kind.predictor();

    let mut engine = PlacementEngine::new(grid);
    let mut bw = nominal.clone();
    let mut cached = Vec::with_capacity(QUERIES);
    for q in 0..QUERIES {
        if q % 64 == 63 {
            let r = (q / 64) % bw.len();
            bw[r] = nominal[r] * (0.6 + 0.05 * ((q / 64 % 8) as f64));
        }
        if !observations.is_empty() && q % OBSERVE_EVERY == 0 {
            predictor.observe(&observations[(q / OBSERVE_EVERY) % observations.len()]);
        }
        let (app, bytes) = requests[(q / WINDOW + q % WINDOW) % requests.len()];
        let (placed, ns) = timed(|| {
            engine.best_placement(
                predictor.as_ref(),
                grid,
                &grid.apps[app].0,
                bytes,
                &free,
                &bw,
                None,
            )
        });
        black_box(placed);
        cached.push(ns as f64);
    }
    let stats = engine.stats();
    p.set("sched.placement.best_cached_ns", median(&cached));
    p.set("sched.placement.rebuild_ratio", stats.rebuilds as f64 / stats.queries.max(1) as f64);

    let naive: Vec<f64> = (0..NAIVE_QUERIES)
        .map(|q| {
            let (app, bytes) = requests[q % requests.len()];
            let (placed, ns) = timed(|| {
                naive_best_placement_with(
                    predictor.as_ref(),
                    grid,
                    &grid.apps[app].1,
                    bytes,
                    free.data(),
                    free.cmp(),
                    &nominal,
                    None,
                )
            });
            black_box(placed);
            ns as f64
        })
        .collect();
    p.set("sched.placement.best_naive_ns", median(&naive));
}

/// A decision core in the state a quote is priced against, with
/// telemetry on as the server runs it.
fn preloaded_core(ctx: &Ctx) -> SchedCore {
    let cfg = ctx.scheduler(Policy::EdfAdmit).with_telemetry(TelemetryConfig::default());
    let mut core = SchedCore::new(cfg).with_event_log();
    for job in ctx.preload() {
        core.submit(job).expect("preload submit");
    }
    core
}

/// What the per-submit publish and `ServerEngine::handle(Quote)` do
/// inside the decision core: snapshot and telemetry snapshot.
fn decision_core(p: &mut Layers, ctx: &Ctx) -> SchedCore {
    let mut core = preloaded_core(ctx);
    p.set(
        "sched.core.snapshot_ns",
        ns_per_call(200, 64, || {
            black_box(core.snapshot());
        }),
    );
    p.set(
        "sched.telemetry.snapshot_us",
        ns_per_call(200, 16, || {
            black_box(core.telemetry_snapshot());
        }) / 1e3,
    );
    core
}

/// What a quote costs below the serve layer: the decision core's
/// snapshot and quote, and fg-predict's selection layer (a quote
/// prices every candidate twice).
fn quote_probes(p: &mut Layers, ctx: &Ctx) {
    let snapshot = decision_core(p, ctx).snapshot();
    let requests = ctx.quote_cycle();
    let apps = ctx.apps();
    let mut i = 0;
    p.set(
        "sched.core.quote_ns",
        ns_per_call(200, 64, || {
            let (app, bytes) = requests[i % requests.len()];
            i += 1;
            black_box(snapshot.quote(apps[app], bytes, QUOTE_SLACK));
        }),
    );

    let grid = &ctx.grid;
    let candidates = candidates(ctx);
    let (_, model) = &grid.apps[0];
    let mut i = 0;
    p.set(
        "predict.selection.predict_deployment_ns",
        ns_per_call(200, candidates.len(), || {
            let d = candidates[i % candidates.len()];
            i += 1;
            black_box(
                try_predict_deployment(&model.profile, model.classes, d, 200 << 20, &grid.factors)
                    .ok(),
            );
        }),
    );
    let menu: Vec<Deployment> = candidates
        .iter()
        .map(|d| {
            Deployment::new(
                d.repository.clone(),
                d.compute.clone(),
                fg_cluster::Wan::per_stream(d.stream_bw),
                d.config,
            )
        })
        .collect();
    p.set(
        "predict.selection.rank_us",
        ns_per_call(200, 4, || {
            black_box(
                try_rank_deployments(
                    &model.profile,
                    model.classes,
                    &menu,
                    200 << 20,
                    &grid.factors,
                )
                .ok(),
            );
        }) / 1e3,
    );
}

/// Every fifth op of the paper sweep under the recorder, and the
/// middleware-side probes that go with it.
fn paper_sweep(p: &mut Layers, seed: u64) -> Result<(), String> {
    let (datasets, ns) = timed(sweep::generate);
    p.set("apps.generate_ms", ms(ns));

    let mut sweep = Sweep::every(TRACED_SHARE, seed);
    let ops = sweep.ops();
    let mut lat = Vec::with_capacity(ops);
    let plain = sweep.run(&mut Off, &mut lat);
    let mut rec = Recorder::new("sweep");
    lat.clear();
    let traced = sweep.run(&mut rec, &mut lat);
    sweep.verify()?;
    if plain.digest != traced.digest {
        return Err("sweep: traced and untraced passes disagree".into());
    }
    p.count(&plain, ops);
    p.count(&traced, ops);
    for (metric, span) in [
        ("middleware.exec.run_ms.kmeans", "middleware.exec.run.kmeans"),
        ("middleware.exec.run_ms.vortex", "middleware.exec.run.vortex"),
        ("middleware.exec.run_ms.defect", "middleware.exec.run.defect"),
        ("middleware.exec.run_ms.em", "middleware.exec.run.em"),
        ("middleware.exec.run_ms.knn", "middleware.exec.run.knn"),
    ] {
        p.set(metric, rec.p50_ns(span) / 1e6);
    }
    p.set("predict.model.predict_ns", rec.p50_ns("predict.model.predict"));
    // Two spans on a 7 ms op cost less than the machine's noise, so
    // expect an overhead near zero, of either sign.
    p.keep(&rec, &plain, &traced);

    // The middleware's own tracing: every app once at 2-4.
    let (reports, ns) = timed(|| {
        PaperApp::PAPER_FIVE
            .iter()
            .zip(&datasets)
            .map(|(app, ds)| app.execute_traced(pentium_deployment(2, 4, 40e6), ds).0)
            .collect::<Vec<_>>()
    });
    p.set("middleware.exec.run_traced_ms", ms(ns));
    p.set(
        "predict.profile.from_report_us",
        ns_per_call(100, 16, || {
            black_box(Profile::from_report(&reports[0]));
        }) / 1e3,
    );

    // Re-assembling the largest generated dataset from its payloads.
    let largest = datasets.iter().max_by_key(|d| d.physical_bytes()).expect("five datasets");
    p.set(
        "chunks.dataset.build_ms",
        ns_per_call(20, 1, || {
            let mut b = fg_chunks::DatasetBuilder::new(&largest.id, &largest.kind, largest.scale);
            for c in &largest.chunks {
                b.push_chunk(bytes::Bytes::copy_from_slice(&c.payload), c.elements, c.span);
            }
            black_box(b.build());
        }) / 1e6,
    );

    // fg-sim's event engine, which the executor runs on: 200 k events,
    // 100 k scheduled up front at seeded instants, each scheduling one
    // follow-up.
    const EVENTS: u64 = 100_000;
    let mut rng = fg_sim::rng::stream_rng(CONTENT_SEED, "benchmark-engine");
    let mut engine: Engine<bool> = Engine::new();
    for _ in 0..EVENTS {
        engine.schedule_at(
            SimTime::ZERO + SimDuration::from_nanos(rng.gen_range(0..1u64 << 40)),
            true,
        );
    }
    let start = Instant::now();
    engine.run(|engine, spawns| {
        if spawns {
            engine.schedule_after(SimDuration::from_nanos(1_000), false);
        }
    });
    p.set("sim.engine.events_per_s", engine.processed() as f64 / start.elapsed().as_secs_f64());
    Ok(())
}

/// fg-sim: the fair-share allocation `SchedCore` asks for with 32
/// transfers in flight.
fn fair_share(p: &mut Layers, ctx: &Ctx) {
    let grid = &ctx.grid;
    let nrepo = grid.repos.len();
    let capacities: Vec<f64> = grid
        .repos
        .iter()
        .map(|r| r.wan_capacity)
        .chain(grid.sites.iter().map(|s| s.ingress_capacity))
        .collect();
    let net = FairShareSim::new(capacities);
    let mut rng = fg_sim::rng::stream_rng(CONTENT_SEED, "benchmark-fairshare");
    let flows: Vec<Flow> = (0..32)
        .map(|_| Flow {
            arrival: SimTime::ZERO,
            demand: rng.gen_range(1e6..1e9),
            rate_cap: rng.gen_range(1e5..4e6),
            resources: vec![
                ResourceId(rng.gen_range(0..nrepo)),
                ResourceId(nrepo + rng.gen_range(0..grid.sites.len())),
            ],
        })
        .collect();
    let active: Vec<usize> = (0..flows.len()).collect();
    p.set(
        "sim.fairshare.rates_us",
        ns_per_call(200, 16, || {
            black_box(net.instantaneous_rates(&flows, &active));
        }) / 1e3,
    );
}
