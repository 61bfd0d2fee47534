//! Multi-tenant scheduling driven by the prediction framework: a
//! three-tenant job stream over the seven applications, placed onto a
//! two-repository / two-site demo grid, under four queueing policies.
//!
//! Shows the whole `fg-sched` surface: profiling apps into prediction
//! models, generating a seeded workload, running the contention-aware
//! event loop, and reading outcomes, metrics, and per-job spans.
//!
//! ```text
//! cargo run --release --example scheduler
//! ```

use fg_bench::figures::sched_models;
use freeride_g::sched::{GridSpec, JobOutcome, LoadLevel, Policy, Scheduler, WorkloadSpec};

fn mean<'a>(
    values: impl Iterator<Item = &'a JobOutcome>,
    f: impl Fn(&JobOutcome) -> Option<f64>,
) -> f64 {
    let v: Vec<f64> = values.filter_map(f).collect();
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn main() {
    // One prediction model per application, from small 1-1 profile runs.
    let models = sched_models();
    let apps: Vec<&str> = models.iter().map(|(n, _)| n.as_str()).collect();
    let workload = WorkloadSpec::preset(LoadLevel::Heavy, &apps, 42);
    let jobs = workload.generate();
    println!(
        "workload: {} jobs from {} tenants over {} apps (heavy load, seed {})\n",
        jobs.len(),
        workload.tenants.len(),
        apps.len(),
        workload.seed
    );

    println!(
        "{:<14} {:>9} {:>10} {:>10} {:>9} {:>9}",
        "policy", "admitted", "slowdown", "est. err", "deadline", "makespan"
    );
    for policy in Policy::ALL {
        let grid = GridSpec::demo(models.clone());
        let result = Scheduler::new(grid, policy).run(&jobs);
        assert!(result.violations.is_empty(), "{:?}", result.violations);
        let admitted: Vec<&JobOutcome> = result.outcomes.iter().filter(|o| o.admitted).collect();
        let met = admitted.iter().filter(|o| o.met_deadline() == Some(true)).count();
        println!(
            "{:<14} {:>6}/{:<2} {:>9.2}x {:>9.1}% {:>8.0}% {:>8.0}s",
            policy.name(),
            admitted.len(),
            result.outcomes.len(),
            mean(admitted.iter().copied(), |o| o.slowdown()),
            100.0 * mean(admitted.iter().copied(), |o| o.completion_error()),
            100.0 * met as f64 / admitted.len().max(1) as f64,
            result.makespan,
        );
    }

    // Walk one run's outcomes in detail: the EDF + admission policy.
    let grid = GridSpec::demo(models);
    let result = Scheduler::new(grid, Policy::EdfAdmit).run(&jobs);
    println!("\nedf-admit, first six jobs:");
    for o in result.outcomes.iter().take(6) {
        match (o.placed_at, o.finish) {
            (Some(placed), Some(finish)) => println!(
                "  job {:>2} [{}] {:>7.1} MB  arrived {:>6.1}s  waited {:>6.1}s  \
                 ran {:>6.1}s on {}  ({})",
                o.id,
                o.app,
                o.dataset_bytes as f64 / 1e6,
                o.arrival,
                placed - o.arrival,
                finish - placed,
                o.placement.as_ref().map(|p| &*p.config).unwrap_or("?"),
                if o.met_deadline() == Some(true) { "met deadline" } else { "missed deadline" },
            ),
            _ => println!(
                "  job {:>2} [{}] rejected: {}",
                o.id,
                o.app,
                o.reject_reason.as_deref().unwrap_or("?")
            ),
        }
    }

    let m = &result.trace.metrics;
    println!(
        "\nmetrics: {} submitted, {} admitted, {} rejected, {} backfill starts, peak queue {}",
        m.counter("sched_jobs_submitted").unwrap_or(0),
        m.counter("sched_jobs_admitted").unwrap_or(0),
        m.counter("sched_jobs_rejected").unwrap_or(0),
        m.counter("sched_backfill_starts").unwrap_or(0),
        m.gauge("sched_queue_depth_max").unwrap_or(0.0),
    );
    println!(
        "trace: {} spans (one job span per submission, phase children)",
        result.trace.spans.len()
    );
}
