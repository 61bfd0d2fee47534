//! Preemptive migration, checkpoint/resume, and per-tenant quotas: the
//! scheduler's opt-in extensions working together under a sustained
//! bandwidth collapse on the fast repository.
//!
//! Two identical runs of a medium three-tenant workload, both with
//! repository 0 degraded to 10% of nominal from t=0: one pinned to its
//! initial placements, one allowed to checkpoint a transfer that falls
//! behind the fluid model's expectation and resume it from the other
//! replica when `fg-predict`'s cost/benefit model says the switch pays
//! for itself.
//!
//! ```text
//! cargo run --release --example migration
//! ```

use fg_bench::figures::sched_models;
use freeride_g::sched::{
    Degradation, GridSpec, JobOutcome, LoadLevel, Policy, Scheduler, TenantQuota, WorkloadSpec,
};

fn mean_slowdown(outcomes: &[JobOutcome]) -> f64 {
    let v: Vec<f64> = outcomes.iter().filter_map(|o| o.slowdown()).collect();
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn main() {
    let models = sched_models();
    let apps: Vec<&str> = models.iter().map(|(n, _)| n.as_str()).collect();
    let jobs = WorkloadSpec::preset(LoadLevel::Medium, &apps, 42).generate();

    // Token-bucket submission quotas (generous here — tighten capacity /
    // refill to see `quota:` rejections), deadline-driven preemption
    // with a 2 s checkpoint/restore overhead, and the fast repository
    // degraded to 10% for the whole run.
    let build = |migrate: bool| {
        let mut s = Scheduler::new(GridSpec::demo(models.clone()), Policy::FcfsBackfill)
            .with_quotas(vec![TenantQuota { capacity: 1000.0, refill_per_sec: 1.0 }; 3])
            .with_preemption()
            .with_degradation(Degradation { repo: 0, start: 0.0, factor: 0.1 });
        if migrate {
            s = s.with_migration();
        }
        s
    };

    let stay = build(false).run(&jobs);
    let moved = build(true).run(&jobs);
    assert!(stay.violations.is_empty() && moved.violations.is_empty());

    println!("{} jobs, repository 0 degraded to 10% from t=0\n", jobs.len());
    println!(
        "{:<12} {:>10} {:>11} {:>12} {:>10}",
        "run", "slowdown", "migrations", "preemptions", "makespan"
    );
    for (name, r) in [("stay-put", &stay), ("migrate", &moved)] {
        println!(
            "{:<12} {:>9.2}x {:>11} {:>12} {:>9.0}s",
            name,
            mean_slowdown(&r.outcomes),
            r.trace.metrics.counter("sched_migrations").unwrap_or(0),
            r.trace.metrics.counter("sched_preemptions").unwrap_or(0),
            r.makespan,
        );
    }

    // Every migration is recorded on the job outcome and as
    // Checkpoint/Migrate spans in the trace.
    if let Some(o) = moved.outcomes.iter().find(|o| o.migration.is_some()) {
        let m = o.migration.as_ref().unwrap();
        println!(
            "\nexample: job {} ({}) checkpointed at t={:.1}s, moved {} -> {}, resumed at t={:.1}s",
            o.id, o.app, m.at, m.from_repo, m.to_repo, m.until
        );
    }
    println!(
        "quota rejections: {}, quota violations: {}",
        moved.trace.metrics.counter("sched_quota_rejections").unwrap_or(0),
        moved.trace.metrics.counter("sched_quota_violations").unwrap_or(0),
    );
}
