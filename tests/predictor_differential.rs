//! Differential harness for the pluggable-predictor refactor: every
//! decision path now prices deployments through the [`Predictor`]
//! trait object, and this suite pins the refactor as a pure
//! re-plumbing. A default-configured scheduler must be bit-identical —
//! outcomes, makespan, violations, and the rendered trace — to one
//! explicitly wired with the analytical predictor, across all seven
//! paper applications and all three workload shapes; and a *stateful*
//! predictor must ride the same seam across the wire and be trained
//! only when it asks to be.

use fg_bench::figures::{sched_models, workload_jobs};
use fg_learn::HybridPredictor;
use freeride_g::predict::{AnalyticalPredictor, Predictor};
use freeride_g::sched::{Degradation, GridSpec, Policy, Scheduler, WorkloadShape};
use freeride_g::trace::to_jsonl;
use std::sync::Arc;

/// Every observable surface of a run, bitwise: outcomes (PartialEq is
/// field-exact), makespan bits, violations, and the rendered JSONL
/// trace (spans and the metrics snapshot).
fn assert_runs_identical(
    a: &freeride_g::sched::sched::SchedResult,
    b: &freeride_g::sched::sched::SchedResult,
    label: &str,
) {
    assert_eq!(a.outcomes, b.outcomes, "{label}: outcomes diverged");
    assert_eq!(
        a.makespan.to_bits(),
        b.makespan.to_bits(),
        "{label}: makespan diverged ({} vs {})",
        a.makespan,
        b.makespan
    );
    assert_eq!(a.violations, b.violations, "{label}: violations diverged");
    assert_eq!(to_jsonl(&a.trace), to_jsonl(&b.trace), "{label}: trace diverged");
}

fn grid() -> GridSpec {
    GridSpec::demo(sched_models())
}

/// The headline pin: for all 7 apps × 3 shapes (the shaped preset
/// spreads all seven applications over 12 tenants), the default
/// scheduler and one explicitly carrying the analytical predictor
/// produce bit-identical runs under every policy the figures use.
#[test]
fn default_run_is_bit_identical_to_explicit_analytical() {
    for shape in WorkloadShape::ALL {
        let jobs = workload_jobs(shape);
        for policy in [Policy::Fcfs, Policy::FcfsBackfill, Policy::EdfAdmit] {
            let implicit = Scheduler::new(grid(), policy).run(&jobs);
            let explicit = Scheduler::new(grid(), policy)
                .with_predictor(Arc::new(AnalyticalPredictor))
                .run(&jobs);
            assert_runs_identical(&implicit, &explicit, &format!("{}/{policy:?}", shape.name()));
        }
    }
}

/// The full feature stack — quotas, preemption, migration, degradation
/// — rides the same seam; the explicit analytical predictor must not
/// perturb any of it.
#[test]
fn feature_stack_is_unperturbed_by_the_explicit_predictor() {
    for shape in WorkloadShape::ALL {
        let jobs = workload_jobs(shape);
        let build = || {
            Scheduler::new(grid(), Policy::FcfsBackfill)
                .with_quotas(vec![
                    freeride_g::sched::TenantQuota {
                        capacity: 1000.0,
                        refill_per_sec: 1.0
                    };
                    12
                ])
                .with_preemption()
                .with_migration()
                .with_degradation(Degradation { repo: 0, start: 0.0, factor: 0.1 })
        };
        let implicit = build().run(&jobs);
        let explicit = build().with_predictor(Arc::new(AnalyticalPredictor)).run(&jobs);
        assert_runs_identical(&implicit, &explicit, &format!("{}/stack", shape.name()));
    }
}

/// The predictor seam survives the wire: fg-serve's config object is
/// the `Scheduler` itself, so a predictor-carrying scheduler served
/// through the full protocol stack must (a) produce a schedule
/// bit-identical to driving an identically-configured scheduler
/// directly and (b) train the served predictor instance online.
#[test]
fn served_runs_carry_the_predictor_and_train_it() {
    let jobs = workload_jobs(WorkloadShape::Uniform);
    let build = |pred: Arc<dyn Predictor>| {
        Scheduler::new(grid(), Policy::EdfAdmit)
            .with_predictor(pred)
            .with_degradation(Degradation { repo: 0, start: 0.0, factor: 0.2 })
    };
    let direct = build(Arc::new(HybridPredictor::default())).run(&jobs);

    let served_pred = Arc::new(HybridPredictor::default());
    let server = fg_serve::Server::start(build(served_pred.clone()));
    let served = fg_serve::replay(&server, &jobs, Some(7)).expect("replay succeeds");
    server.shutdown();

    assert_eq!(
        serde_json::to_string(&*direct.outcomes).unwrap(),
        serde_json::to_string(&served.drained.outcomes).unwrap(),
        "served outcomes diverged from the direct run"
    );
    assert_eq!(direct.makespan.to_bits(), served.drained.makespan.to_bits());
    assert_eq!(direct.trace.metrics, served.drained.metrics);
    assert!(served_pred.epoch() > 0, "the served predictor never trained");
}

/// The scheduler feeds observations only to predictors that ask for
/// them: a default run observes nothing (the analytical predictor's
/// epoch never moves), while a hybrid run trains.
#[test]
fn observations_flow_only_on_request() {
    let jobs = workload_jobs(WorkloadShape::Uniform);
    let analytical = Arc::new(AnalyticalPredictor);
    let s = Scheduler::new(grid(), Policy::Fcfs).with_predictor(analytical.clone());
    s.run(&jobs);
    assert_eq!(analytical.epoch(), 0);

    let hybrid = Arc::new(HybridPredictor::default());
    let s = Scheduler::new(grid(), Policy::Fcfs)
        .with_predictor(hybrid.clone())
        .with_degradation(Degradation { repo: 0, start: 0.0, factor: 0.2 });
    s.run(&jobs);
    assert!(hybrid.epoch() > 0, "a degraded run must train the hybrid");
}
