//! The repository's benchmark. One command runs every workload, each
//! in a child process of its own, prints every metric as
//! `workload/metric value unit`, checks the outputs, and writes
//! `benchmark/out/results.json` plus one span file per workload:
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run [--seed N] [--workload W]
//! ```
//!
//! `README.md` beside this package explains the workloads, the
//! estimators and the span files; `BENCHMARK.json` at the repository
//! root is the contract (`manifest` prints it).

mod cpu;
mod inputs;
mod layers;
mod measure;
mod spec;
mod trace;
mod workloads;

use cpu::Cpus;
use measure::{median_ns, peak_rss_mb, MIN_SEGMENTS, RSS_AFTER_SEGMENTS};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::quote::{QuoteEngine, QuoteWire};
use workloads::replay::ReplayWire;
use workloads::sim::{SimBatch, SimLearn};
use workloads::sweep::Sweep;
use workloads::Workload;

const USAGE: &str = "usage: fg-benchmark run [--seed N] [--workload W] [--seconds S] [--trace 0|1]
       fg-benchmark noise [--runs K] [--seed N]
       fg-benchmark manifest

run       every workload (or just W), each in its own process: the timed
          phase, then the traced pass
noise     the timed benchmark K times (default 5) on seeds N, N+1, ..., as
          the acceptance check runs it: min / median / max and spread / bound
manifest  print BENCHMARK.json

--seed N  deals the order of requests and ops (default 42; 7 is held out)

The harness that gates changes appends two more flags to `run`:
--seconds S  scales every workload's segment count by S / run_seconds
--trace 0|1  the timed phase alone (0) or the traced pass alone (1)";

#[derive(Clone)]
struct Args {
    seed: u64,
    seconds: f64,
    workload: Option<String>,
    /// `Some(false)`: timed phase only; `Some(true)`: traced pass only.
    trace: Option<bool>,
    runs: usize,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        seed: spec::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        workload: None,
        trace: None,
        runs: 5,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|_| bad())?;
                if !(out.seconds > 0.0 && out.seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--workload" => {
                if !spec::workload_names().any(|w| w == value) {
                    return Err(format!("unknown workload {value:?}"));
                }
                out.workload = Some(value);
            }
            "--trace" => {
                out.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--runs" => {
                out.runs = value.parse().map_err(|_| bad())?;
                if out.runs < 2 {
                    return Err(format!("{flag} {value}: a spread needs at least 2 runs"));
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(out)
}

/// One workload's result.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
}

/// The contract's last line. An unmeasured per-layer metric reads 0:
/// the workload spends nothing there.
fn contract_line(report: &Report, metrics: &[(&'static str, Option<f64>)]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.failed == 0,
        report.attempted,
        report.failed
    );
    for (i, (name, value)) in metrics.iter().enumerate() {
        let unit = spec::unit_of(name).expect("declared metrics have units");
        let sep = if i == 0 { "" } else { ", " };
        let value = value.unwrap_or(0.0);
        let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    out
}

/// The timed phase of one workload, tracing off.
///
/// Every segment repeats the same ops on the same state (the digests
/// prove it), so op `i` of every segment is the same work, and the
/// fastest of its repetitions is what that work costs when no
/// neighbour is in the way. Throughput and latency are taken from
/// those per-op bests; see `measure.rs` and README.md for why. How
/// many repetitions there are is a constant of the workload, scaled
/// only by `--seconds`: a minimum falls as its sample grows, so every
/// commit must take it over the same number.
fn timed_phase<W: Workload>(args: &Args, report: &mut Report) -> Result<(), String> {
    // Cut the count, never the size.
    let scale = args.seconds / spec::RUN_SECONDS as f64;
    let segments = ((W::SEGMENTS as f64 * scale).round() as usize).max(MIN_SEGMENTS);
    let setup = |secs: &mut Vec<f64>| {
        let start = Instant::now();
        let workload = W::setup(args.seed);
        secs.push(start.elapsed().as_secs_f64());
        workload
    };
    let mut setup_secs = Vec::with_capacity(W::SETUP_REPS);
    let mut workload = setup(&mut setup_secs);

    let mut lat = Vec::with_capacity(W::OPS + 2);
    let warm_up = workload.segment(&mut lat);
    let timed_calls = lat.len();
    let mut failed = warm_up.failed;
    let mut best_ns = vec![u64::MAX; timed_calls];
    let mut segment_secs = Vec::with_capacity(segments);
    let mut peak_rss = 0.0;
    for done in 1..=segments {
        lat.clear();
        let seg = workload.segment(&mut lat);
        if lat.len() != timed_calls {
            return Err(format!("segment timed {} calls, the warm-up {timed_calls}", lat.len()));
        }
        if seg.digest != warm_up.digest {
            return Err(format!(
                "segment {done} produced digest {:016x}, the warm-up {:016x}",
                seg.digest, warm_up.digest
            ));
        }
        failed += seg.failed;
        segment_secs.push(seg.secs);
        for (best, &ns) in best_ns.iter_mut().zip(&lat) {
            *best = (*best).min(ns);
        }
        if done == RSS_AFTER_SEGMENTS {
            // Read at a fixed point, before any further set-up: the
            // allocator's high-water mark creeps with every further
            // segment, and not by the same amount on every run.
            peak_rss = peak_rss_mb()?;
        }
        // Set-up is repeated from scratch, results dropped, between
        // segments, spread evenly over the run: repetitions in one
        // burst would all share one noisy stretch's fate.
        while done >= RSS_AFTER_SEGMENTS && setup_secs.len() * segments < done * W::SETUP_REPS {
            drop(setup(&mut setup_secs));
        }
    }
    let pred_err_pct = workload.verify()?;

    let quiet_secs = best_ns.iter().map(|&ns| ns as f64).sum::<f64>() / 1e9;
    let sorted = measure::sort(segment_secs);
    eprintln!(
        "# {} segments of {} ops: fastest {:.4} s, median {:.4} s, slowest {:.4} s, sum of per-op \
         bests {quiet_secs:.4} s; {} set-ups; outcome digest {:016x}",
        sorted.len(),
        W::OPS,
        sorted[0],
        measure::median(&sorted),
        sorted[sorted.len() - 1],
        setup_secs.len(),
        warm_up.digest
    );
    report.attempted += ((segments + 1) * W::OPS) as u64;
    report.failed += failed;
    report.metrics.extend([
        ("ops_per_s", W::OPS as f64 / quiet_secs),
        ("op_p50_us", median_ns(&mut best_ns) / 1e3),
        ("setup_s", measure::sort(setup_secs)[0]),
        ("peak_rss_mb", peak_rss),
        ("pred_err_pct", pred_err_pct),
    ]);
    Ok(())
}

fn out_dir() -> PathBuf {
    // `cargo run` exports the package directory; fall back to the path
    // from the repository root, where the command is meant to run.
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| "benchmark".into(), PathBuf::from)
        .join("out")
}

fn write_out(file: &str, text: &str) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The traced pass: per-layer metrics and the span file.
fn traced_pass(name: &str, args: &Args, cpus: &Cpus, report: &mut Report) -> Result<(), String> {
    let layers = layers::run(name, args.seed, cpus)?;
    for note in &layers.notes {
        eprintln!("# {note}");
    }
    write_out(&format!("{name}.spans.jsonl"), &layers.spans)?;
    report.attempted += layers.attempted;
    report.failed += layers.failed;
    report.metrics.extend(layers.metrics);
    Ok(())
}

/// The declared metrics of the run's mode, in the contract's order,
/// with what the run measured of them. A per-layer metric may go
/// unmeasured (the workload's ops never enter that layer); anything
/// else out of line is an error.
fn in_contract_order(
    trace: Option<bool>,
    measured: &[(&'static str, f64)],
) -> Result<Vec<(&'static str, Option<f64>)>, String> {
    let declared = spec::declared(trace);
    if let Some((stray, _)) = measured.iter().find(|(m, _)| !declared.contains(m)) {
        return Err(format!("measured {stray}, which BENCHMARK.json does not promise"));
    }
    declared
        .into_iter()
        .map(|metric| {
            let mut values = measured.iter().filter(|(m, _)| *m == metric).map(|(_, v)| *v);
            let value = values.next();
            if values.next().is_some() {
                return Err(format!("measured {metric} twice"));
            }
            if value.is_none() && spec::END_TO_END.iter().any(|m| m.name == metric) {
                return Err(format!("did not measure {metric}"));
            }
            Ok((metric, value))
        })
        .collect()
}

/// Run one workload in this process and print its metrics and the
/// contract's last line.
fn run_workload(name: &str, args: &Args) -> ExitCode {
    let cpus = match Cpus::settle() {
        Ok(cpus) => cpus,
        Err(why) => {
            eprintln!("{name}: cannot pin to one CPU under SCHED_BATCH: {why}");
            return ExitCode::FAILURE;
        }
    };
    let mut report = Report { attempted: 0, failed: 0, metrics: Vec::new() };
    let mut result = Ok(());
    if args.trace != Some(true) {
        result = match name {
            "quote-engine" => timed_phase::<QuoteEngine>(args, &mut report),
            "quote-wire" => timed_phase::<QuoteWire>(args, &mut report),
            "replay-wire" => timed_phase::<ReplayWire>(args, &mut report),
            "sim-batch" => timed_phase::<SimBatch>(args, &mut report),
            "sim-learn" => timed_phase::<SimLearn>(args, &mut report),
            "paper-sweep" => timed_phase::<Sweep>(args, &mut report),
            _ => unreachable!("parse() admits only declared workloads"),
        };
    }
    if result.is_ok() && args.trace != Some(false) {
        result = traced_pass(name, args, &cpus, &mut report);
    }
    let metrics = match result.and_then(|()| in_contract_order(args.trace, &report.metrics)) {
        Ok(metrics) => metrics,
        Err(why) => {
            eprintln!("{name}: output check failed: {why}");
            return ExitCode::FAILURE;
        }
    };
    for (metric, value) in &metrics {
        if let Some(value) = value {
            let unit = spec::unit_of(metric).expect("declared metrics have units");
            println!("{name}/{metric} {value} {unit}");
        }
    }
    println!("{}", contract_line(&report, &metrics));
    if report.failed > 0 {
        eprintln!("{name}: {} of {} ops failed", report.failed, report.attempted);
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Run `name` in a child process (so its `peak_rss_mb` is its own) and
/// return the contract line it printed.
fn spawn_workload(name: &str, seed: u64, args: &Args, echo: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", name, "--seed", &seed.to_string()]);
    cmd.args(["--seconds", &args.seconds.to_string()]);
    if let Some(trace) = args.trace {
        cmd.args(["--trace", if trace { "1" } else { "0" }]);
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run workload {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (metrics, last) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", stdout.trim_end()));
    if echo && !metrics.is_empty() {
        println!("{metrics}");
    }
    if !out.status.success() {
        return Err(format!("workload {name} failed ({})", out.status));
    }
    Ok(last.to_string())
}

/// `run` without `--workload`: every workload, results.json.
fn run_all(args: &Args) -> ExitCode {
    let mut results = format!("{{\n  \"seed\": {},\n  \"workloads\": {{\n", args.seed);
    for (i, name) in spec::workload_names().enumerate() {
        match spawn_workload(name, args.seed, args, true) {
            Ok(line) => {
                let sep = if i == 0 { "" } else { ",\n" };
                let _ = write!(results, "{sep}    \"{name}\": {line}");
            }
            Err(why) => {
                eprintln!("{why}");
                return ExitCode::FAILURE;
            }
        }
    }
    results.push_str("\n  }\n}\n");
    if let Err(why) = write_out("results.json", &results) {
        eprintln!("{why}");
        return ExitCode::FAILURE;
    }
    eprintln!("# wrote {}", out_dir().join("results.json").display());
    ExitCode::SUCCESS
}

/// Python's `statistics.quantiles(values, n=4)`, the driver's spread.
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = measure::sort(values.to_vec());
    let at = |q: usize| {
        let pos = q as f64 * (v.len() + 1) as f64 / 4.0;
        let j = (pos as usize).clamp(1, v.len() - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(2), at(3))
}

/// `noise`: the timed benchmark K times on K seeds, as the acceptance
/// check runs it, and how far apart the runs land relative to each
/// metric's bound.
fn noise(args: &Args) -> ExitCode {
    let timed_only = Args { trace: Some(false), ..args.clone() };
    println!("workload/metric min median max iqr/median (iqr/median)/bound");
    let mut worst: f64 = 0.0;
    for name in spec::workload_names() {
        let mut runs: Vec<Vec<f64>> = vec![Vec::new(); spec::END_TO_END.len()];
        for k in 0..args.runs {
            let line = match spawn_workload(name, args.seed + k as u64, &timed_only, false) {
                Ok(line) => line,
                Err(why) => {
                    eprintln!("{why}");
                    return ExitCode::FAILURE;
                }
            };
            let parsed = serde_json::value_from_str(&line).ok();
            for (metric, values) in spec::END_TO_END.iter().zip(&mut runs) {
                let value = parsed
                    .as_ref()
                    .and_then(|v| v.get("metrics")?.get(metric.name)?.get("value")?.as_f64());
                match value {
                    Some(v) => values.push(v),
                    None => {
                        eprintln!("{name}: no {} in {line:?}", metric.name);
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        for (metric, values) in spec::END_TO_END.iter().zip(&runs) {
            let (q1, q2, q3) = quartiles(values);
            let spread = (q3 - q1) / q2;
            let sorted = measure::sort(values.clone());
            if metric.name != "setup_s" {
                worst = worst.max(spread / metric.bound);
            }
            println!(
                "{name}/{} {:.6} {:.6} {:.6} {:.4} {:.2}",
                metric.name,
                sorted[0],
                q2,
                sorted[sorted.len() - 1],
                spread,
                spread / metric.bound
            );
        }
    }
    println!("# worst spread/bound (setup_s aside): {worst:.2}; the target is below 0.33");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let command = argv.next();
    let args = match parse(argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (command.as_deref(), &args.workload) {
        (Some("run"), Some(name)) => run_workload(name, &args),
        (Some("run"), None) => run_all(&args),
        (Some("noise"), _) => noise(&args),
        (Some("manifest"), _) => {
            print!("{}", spec::manifest());
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
