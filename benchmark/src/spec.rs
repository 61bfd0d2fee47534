//! The benchmark's contract: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the
//! repository root is this table, printed by the `manifest`
//! subcommand; the runner refuses to report a metric that is not here.

use std::fmt::Write as _;

/// Seconds one run measures for (`run_seconds`).
pub const RUN_SECONDS: u64 = 12;

/// Default `--seed`. 7 is the held-out one: not used while a change
/// is written, run once before it lands.
pub const DEFAULT_SEED: u64 = 42;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which an end-to-end metric may
    /// get worse; 0 for per-layer metrics, which have no bound.
    pub bound: f64,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, higher_is_better: false, bound: 0.0 }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, higher_is_better: true, bound: 0.0 }
}

/// (name, why), in the order `run` executes them.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "quote-engine",
        "50k-quote segments through the sans-IO codec+engine chain on one thread: the CPU cost \
         of a served quote, where pricing, JSON and framing work shows and handoff work must not",
    ),
    (
        "quote-wire",
        "the same quotes through Server::start and one closed-loop client: over half the round \
         trip is session/pool/pipe handoff, so only here can fewer wake-ups or copies show",
    ),
    (
        "replay-wire",
        "3000 wire submits + a drain on a fresh EdfAdmit server per segment: the write side \
         (submit, per-submit publish, event/Drained JSON), where quote-side gains get paid for",
    ),
    (
        "sim-batch",
        "60k heavy-tail jobs, FcfsBackfill, SchedCore::submit per job + finish, no serve layer: \
         pump, placement engine, policy queue and fair-share model under a deep backlog",
    ),
    (
        "sim-learn",
        "60k jobs with telemetry, a mid-run WAN degradation and the learned predictor: ridge \
         refits, epoch bumps invalidating placement memos and ledger ingest dominate instead",
    ),
    (
        "paper-sweep",
        "the paper's loop: five apps x 14 configurations executed on the simulated middleware \
         and predicted from the 1-1 profile; the only workload whose ops run the executor",
    ),
];

pub const END_TO_END: [Metric; 5] = [
    Metric { name: "ops_per_s", unit: "1/s", higher_is_better: true, bound: 0.20 },
    Metric { name: "op_p50_us", unit: "us", higher_is_better: false, bound: 0.20 },
    Metric { name: "setup_s", unit: "s", higher_is_better: false, bound: 0.25 },
    Metric { name: "peak_rss_mb", unit: "MB", higher_is_better: false, bound: 0.05 },
    Metric { name: "pred_err_pct", unit: "%", higher_is_better: false, bound: 0.01 },
];

/// A workload's traced pass measures the layers its own ops run
/// through and reports 0 for the rest.
pub const PER_LAYER: [Metric; 67] = [
    // fg-serve: frame and message codecs, on the quote chain.
    lower("serve.frame.encode_ns", "ns"),
    lower("serve.frame.decode_ns", "ns"),
    lower("serve.msg.encode_request_ns", "ns"),
    lower("serve.msg.decode_request_ns", "ns"),
    lower("serve.msg.encode_response_ns", "ns"),
    lower("serve.msg.decode_response_ns", "ns"),
    // ... and on the submit chain.
    lower("serve.msg.submit_codec_ns", "ns"),
    lower("serve.msg.events_codec_ns", "ns"),
    lower("serve.msg.drained_decode_ms", "ms"),
    lower("serve.msg.drained_bytes", "count"),
    // fg-serve: the sans-IO engine.
    lower("serve.engine.handle_quote_ns", "ns"),
    lower("serve.engine.handle_submit_ns", "ns"),
    lower("serve.engine.drain_ms", "ms"),
    // fg-serve: the threaded server, as round trip minus chain; and
    // the round trip with the server's threads on a second CPU.
    lower("serve.server.handoff_us", "us"),
    lower("serve.server.rtt_p99_us", "us"),
    lower("serve.server.submit_handoff_us", "us"),
    lower("serve.server.rtt_beside_us", "us"),
    lower("serve.server.submit_beside_us", "us"),
    lower("serve.server.start_ms", "ms"),
    lower("serve.server.startup_retries", "count"),
    lower("serve.client.connect_us", "us"),
    // fg-sched: the decision core.
    lower("sched.core.snapshot_ns", "ns"),
    lower("sched.telemetry.snapshot_us", "us"),
    lower("sched.core.quote_ns", "ns"),
    lower("sched.core.submit_p50_ns", "ns"),
    lower("sched.core.submit_p99_ns", "ns"),
    lower("sched.core.finish_ms", "ms"),
    lower("sched.core.new_ms", "ms"),
    lower("sched.core.scale_ratio", "ratio"),
    // fg-sched: placement, workload generation, replay, ledger.
    lower("sched.placement.best_cached_ns", "ns"),
    lower("sched.placement.best_naive_ns", "ns"),
    lower("sched.placement.rebuild_ratio", "ratio"),
    lower("sched.workload.generate_ns_per_job", "ns"),
    lower("sched.replay.dump_ns_per_job", "ns"),
    lower("sched.replay.parse_ns_per_job", "ns"),
    lower("sched.ledger.ingest_ns", "ns"),
    lower("sched.ledger.dump_ms", "ms"),
    lower("sched.ledger.replay_ms", "ms"),
    higher("sched.ledger.drift_alarms", "count"),
    // fg-learn.
    lower("learn.ridge.fit_us", "us"),
    lower("learn.predictor.observe_us", "us"),
    lower("learn.predictor.predict_ns", "ns"),
    lower("learn.predictor.predict_calls", "count"),
    lower("learn.predictor.epoch_bumps", "count"),
    higher("learn.predictor.trained_keys", "count"),
    lower("learn.hybrid.observe_ns", "ns"),
    lower("learn.predictor.dump_ms", "ms"),
    lower("learn.predictor.replay_ms", "ms"),
    // fg-predict.
    lower("predict.selection.predict_deployment_ns", "ns"),
    lower("predict.selection.rank_us", "us"),
    lower("predict.model.predict_ns", "ns"),
    lower("predict.profile.from_report_us", "us"),
    // fg-middleware, fg-apps, fg-chunks, fg-bench.
    lower("middleware.exec.run_ms.kmeans", "ms"),
    lower("middleware.exec.run_ms.vortex", "ms"),
    lower("middleware.exec.run_ms.defect", "ms"),
    lower("middleware.exec.run_ms.em", "ms"),
    lower("middleware.exec.run_ms.knn", "ms"),
    lower("middleware.exec.run_traced_ms", "ms"),
    lower("apps.generate_ms", "ms"),
    lower("chunks.dataset.build_ms", "ms"),
    lower("bench.figures.sched_models_ms", "ms"),
    // fg-sim.
    lower("sim.fairshare.rates_us", "us"),
    higher("sim.engine.events_per_s", "1/s"),
    // fg-trace.
    lower("trace.export.to_jsonl_ms", "ms"),
    // The benchmark's own instrument.
    lower("trace.span.count", "count"),
    lower("bench.trace_overhead_pct", "%"),
    higher("bench.cpus_allowed", "count"),
];

pub fn workload_names() -> impl Iterator<Item = &'static str> {
    WORKLOADS.iter().map(|(name, _)| *name)
}

/// The metric names a run reports, in order: end-to-end with
/// `--trace 0`, per-layer with `--trace 1`, both without the flag.
pub fn declared(trace: Option<bool>) -> Vec<&'static str> {
    let end_to_end = END_TO_END.iter().filter(|_| trace != Some(true));
    let per_layer = PER_LAYER.iter().filter(|_| trace != Some(false));
    end_to_end.chain(per_layer).map(|m| m.name).collect()
}

/// The unit of a declared metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name).map(|m| m.unit)
}

/// `BENCHMARK.json`, from the tables above.
pub fn manifest() -> String {
    fn metric_lines(out: &mut String, metrics: &[Metric], bounded: bool) {
        for (i, m) in metrics.iter().enumerate() {
            let better = if m.higher_is_better { "higher" } else { "lower" };
            let bound = if bounded { format!(", \"bound\": {}", m.bound) } else { String::new() };
            let comma = if i + 1 < metrics.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"{bound}}}{comma}",
                m.name, m.unit
            );
        }
    }
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(out, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}");
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    metric_lines(&mut out, &END_TO_END, true);
    out.push_str("  ],\n  \"per_layer\": [\n");
    metric_lines(&mut out, &PER_LAYER, false);
    out.push_str("  ]\n}\n");
    out
}
