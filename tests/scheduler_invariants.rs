//! End-to-end invariants of the multi-tenant scheduler: determinism,
//! work conservation, fair-share discipline, admission consistency, and
//! trace well-formedness, across policies, load levels, and seeds —
//! over the legacy uniform preset and the trace-shaped (heavy-tail,
//! bursty) presets alike.

use fg_bench::figures::sched_models;
use freeride_g::sched::{
    GridSpec, JobSpec, LoadLevel, Policy, SchedCore, Scheduler, WorkloadShape, WorkloadSpec,
};

fn grid() -> GridSpec {
    GridSpec::demo(sched_models())
}

fn apps() -> Vec<String> {
    sched_models().into_iter().map(|(n, _)| n).collect()
}

#[test]
fn same_seed_gives_bit_identical_schedules_and_traces() {
    let apps = apps();
    let names: Vec<&str> = apps.iter().map(|s| s.as_str()).collect();
    let jobs = WorkloadSpec::preset(LoadLevel::Heavy, &names, 42).generate();
    for policy in Policy::ALL {
        let a = Scheduler::new(grid(), policy).run(&jobs);
        let b = Scheduler::new(grid(), policy).run(&jobs);
        let aj = serde_json::to_string(&*a.outcomes).expect("serialize outcomes");
        let bj = serde_json::to_string(&*b.outcomes).expect("serialize outcomes");
        assert_eq!(aj, bj, "outcomes differ across identical runs ({})", policy.name());
        assert_eq!(
            freeride_g::trace::to_jsonl(&a.trace),
            freeride_g::trace::to_jsonl(&b.trace),
            "traces differ across identical runs ({})",
            policy.name()
        );
        assert_eq!(a.makespan, b.makespan);
    }
}

#[test]
fn empty_workload_is_a_noop_for_every_policy() {
    for policy in Policy::ALL {
        let r = Scheduler::new(grid(), policy).run(&[]);
        assert!(r.outcomes.is_empty());
        assert_eq!(r.makespan, 0.0);
        assert!(r.violations.is_empty());
        r.trace.check_well_formed().expect("empty-run trace well-formed");
    }
}

#[test]
fn no_violations_across_policies_loads_and_seeds() {
    let apps = apps();
    let names: Vec<&str> = apps.iter().map(|s| s.as_str()).collect();
    for seed in [7, 42, 1234] {
        for load in LoadLevel::ALL {
            let jobs = WorkloadSpec::preset(load, &names, seed).generate();
            for policy in Policy::ALL {
                let r = Scheduler::new(grid(), policy).run(&jobs);
                assert!(
                    r.violations.is_empty(),
                    "{} {} seed {seed}: {:?}",
                    policy.name(),
                    load.name(),
                    r.violations
                );
                r.trace.check_well_formed().unwrap_or_else(|e| {
                    panic!("{} {} seed {seed}: malformed trace: {e}", policy.name(), load.name())
                });
                // Every admitted job completes; every rejection carries
                // a reason; metrics agree with outcomes.
                let admitted = r.outcomes.iter().filter(|o| o.admitted).count() as u64;
                let rejected = r.outcomes.iter().filter(|o| !o.admitted).count() as u64;
                assert!(r.outcomes.iter().all(|o| o.admitted == o.finish.is_some()
                    && (o.admitted || o.reject_reason.is_some())));
                let m = &r.trace.metrics;
                assert_eq!(m.counter("sched_jobs_admitted"), Some(admitted));
                assert_eq!(m.counter("sched_jobs_rejected"), Some(rejected));
                assert_eq!(m.counter("sched_jobs_completed"), Some(admitted));
                assert_eq!(m.counter("sched_jobs_submitted"), Some(r.outcomes.len() as u64));
            }
        }
    }
}

#[test]
fn admitted_jobs_run_the_three_phases_in_order() {
    let apps = apps();
    let names: Vec<&str> = apps.iter().map(|s| s.as_str()).collect();
    let jobs = WorkloadSpec::preset(LoadLevel::Medium, &names, 42).generate();
    let r = Scheduler::new(grid(), Policy::FcfsBackfill).run(&jobs);
    for o in r.outcomes.iter().filter(|o| o.admitted) {
        let placed = o.placed_at.unwrap();
        let disk = o.disk_end.unwrap();
        let net = o.network_end.unwrap();
        let finish = o.finish.unwrap();
        assert!(o.arrival <= placed + 1e-9);
        assert!(placed <= disk && disk <= net && net <= finish, "job {}", o.id);
        // The achieved network phase can only be stretched by
        // contention, never shorter than the placement prediction says.
        let slowdown = o.slowdown().unwrap();
        assert!(slowdown >= 1.0 - 1e-6, "job {} ran faster than standalone: {slowdown}", o.id);
    }
}

#[test]
fn trace_shaped_streams_uphold_every_invariant() {
    // The re-verification bar for the workload rework: the invariant
    // battery above, re-run over the heavy-tail and bursty presets.
    // Giant Pareto datasets and burst pile-ups exercise backfill and
    // admission paths the uniform preset never reaches.
    let apps = apps();
    let names: Vec<&str> = apps.iter().map(|s| s.as_str()).collect();
    for shape in WorkloadShape::TRACE_SHAPED {
        for load in LoadLevel::ALL {
            let jobs = WorkloadSpec::shaped(shape, load, &names, 42).generate();
            for policy in Policy::ALL {
                let label = format!("{} {} {}", shape.name(), load.name(), policy.name());
                let r = Scheduler::new(grid(), policy).run(&jobs);
                assert!(r.violations.is_empty(), "{label}: {:?}", r.violations);
                r.trace
                    .check_well_formed()
                    .unwrap_or_else(|e| panic!("{label}: malformed trace: {e}"));
                let admitted = r.outcomes.iter().filter(|o| o.admitted).count() as u64;
                assert!(r.outcomes.iter().all(|o| o.admitted == o.finish.is_some()
                    && (o.admitted || o.reject_reason.is_some())));
                let m = &r.trace.metrics;
                assert_eq!(m.counter("sched_jobs_admitted"), Some(admitted));
                assert_eq!(m.counter("sched_jobs_completed"), Some(admitted));
                assert_eq!(m.counter("sched_jobs_submitted"), Some(r.outcomes.len() as u64));
                for o in r.outcomes.iter().filter(|o| o.admitted) {
                    let placed = o.placed_at.unwrap();
                    assert!(o.arrival <= placed + 1e-9, "{label}: job {}", o.id);
                    assert!(
                        placed <= o.disk_end.unwrap()
                            && o.disk_end.unwrap() <= o.network_end.unwrap()
                            && o.network_end.unwrap() <= o.finish.unwrap(),
                        "{label}: job {} phases out of order",
                        o.id
                    );
                    assert!(o.slowdown().unwrap() >= 1.0 - 1e-6, "{label}: job {}", o.id);
                }
            }
        }
    }
}

/// The event loop pays for what changed, in counts that repeat exactly
/// (so a shared CI runner can enforce them where it cannot enforce a
/// time): the pass scans once per start — a query that survives the
/// saturation early-out places, so no job is priced twice — and the
/// fair-share rates are solved when a transfer enters or leaves the
/// network phase, two of a job's four iterations, not every iteration.
#[test]
fn the_loop_scans_once_per_start_and_solves_rates_only_when_transfers_change() {
    let apps = apps();
    let names: Vec<&str> = apps.iter().map(|s| s.as_str()).collect();
    let jobs =
        WorkloadSpec::shaped(WorkloadShape::HeavyTail, LoadLevel::Heavy, &names, 42).generate();
    let mut core = SchedCore::new(Scheduler::new(grid(), Policy::FcfsBackfill));
    for j in &jobs {
        assert!(core.submit(j.clone()).expect("generated streams arrive in order").admitted);
    }
    // One more arrival, long after the backlog has drained, runs the
    // loop through every completion while the core can still be read
    // (`finish` consumes it).
    let last = jobs.last().expect("non-empty stream");
    core.submit(JobSpec { id: jobs.len(), arrival: last.arrival + 1e9, ..last.clone() })
        .expect("a later arrival");
    let stats = core.pump_stats();
    assert_eq!(stats.starts, jobs.len() as u64, "{stats:?}");
    assert_eq!(stats.placement_scans, stats.starts, "{stats:?}");
    assert!(stats.rate_solves <= 2 * stats.starts + 1, "{stats:?}");
    assert!(stats.rate_solves * 3 <= stats.iterations * 2, "{stats:?}");
    assert!(core.finish().violations.is_empty());
}

#[test]
fn rejected_jobs_never_occupy_the_grid() {
    let apps = apps();
    let names: Vec<&str> = apps.iter().map(|s| s.as_str()).collect();
    let jobs = WorkloadSpec::preset(LoadLevel::Heavy, &names, 42).generate();
    let r = Scheduler::new(grid(), Policy::EdfAdmit).run(&jobs);
    let rejected: Vec<_> = r.outcomes.iter().filter(|o| !o.admitted).collect();
    assert!(!rejected.is_empty(), "heavy preset should trip admission control");
    for o in &rejected {
        assert!(o.placement.is_none() && o.placed_at.is_none() && o.finish.is_none());
        assert!(o.reject_reason.as_deref().unwrap().starts_with("admission"));
        // Rejections still carry the evidence for the decision.
        assert!(o.standalone.is_some() && o.deadline.is_some());
        assert!(o.admission_estimate.unwrap() > o.deadline.unwrap());
    }
}
