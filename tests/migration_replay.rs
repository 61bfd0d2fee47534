//! Differential replay harness for checkpoint → migrate → resume.
//!
//! A generalized reduction's progress is completely captured by its
//! reduction objects, so suspending a run at any chunk boundary,
//! shipping the checkpoint through its serialized wire format, and
//! resuming it — on the same replica or a different one — must
//! reproduce the uninterrupted run's final state *bit for bit*. The
//! first half of this suite proves that differentially for all seven
//! paper applications, at pseudo-random split points, under empty and
//! non-empty fault schedules.
//!
//! The second half turns migration, preemption, and quotas on inside
//! the scheduler and re-checks every invariant the base scheduler suite
//! pins (`tests/scheduler_invariants.rs`): no fairness or
//! work-conservation violations, well-formed traces, metrics that agree
//! with outcomes, ordered phases, rejected jobs never occupying the
//! grid, and bit-identical reruns.

use fg_bench::figures::{migrate_run, workload_migrate_run};
use fg_bench::PaperApp;
use freeride_g::apps::{ann, apriori, defect, em, kmeans, knn, vortex};
use freeride_g::chunks::Dataset;
use freeride_g::cluster::{ComputeSite, Configuration, Deployment, RepositorySite, Wan};
use freeride_g::middleware::{
    Checkpoint, Executor, ReductionApp, RunMode, StopPoint, MIGRATION_OVERHEAD,
};
use freeride_g::sched::{LoadLevel, Policy, WorkloadShape};
use freeride_g::sim::{FaultSchedule, SimDuration, SimTime};
use freeride_g::trace::{to_jsonl, SpanKind};
use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};
use std::fmt::Write as _;

const SCALE: f64 = 0.01;
const NOMINAL_MB: f64 = 8.0;

/// Home replica: no compute-side storage, so every pass refetches over
/// the WAN and mid-run faults (and replica switches) stay observable.
fn home_deployment() -> Deployment {
    let mut site = ComputeSite::pentium_myrinet("cs", 16);
    site.node_storage_bytes = 0;
    Deployment::new(
        RepositorySite::pentium_repository("repo", 8),
        site,
        Wan::per_stream(40e6),
        Configuration::new(2, 4),
    )
}

/// A second replica of the same dataset behind a faster link; resuming
/// here is a migration.
fn away_deployment() -> Deployment {
    let mut site = ComputeSite::pentium_myrinet("cs", 16);
    site.node_storage_bytes = 0;
    Deployment::new(
        RepositorySite::pentium_repository("repo-b", 8),
        site,
        Wan::per_stream(80e6),
        Configuration::new(2, 4),
    )
}

/// Render a serialized value with floats spelled as raw bit patterns,
/// so comparing two renderings is a *bit*-equality check (`f64`'s
/// `PartialEq` would conflate `0.0` with `-0.0`).
fn canon(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push('n'),
        Value::Bool(b) => {
            let _ = write!(out, "b{b}");
        }
        Value::Int(i) => {
            let _ = write!(out, "i{i}");
        }
        Value::UInt(u) => {
            let _ = write!(out, "u{u}");
        }
        Value::Float(f) => {
            let _ = write!(out, "f{:016x}", f.to_bits());
        }
        Value::Str(s) => {
            let _ = write!(out, "s{s:?}");
        }
        Value::Array(xs) => {
            out.push('[');
            for x in xs {
                canon(x, out);
                out.push(',');
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (k, x) in fields {
                let _ = write!(out, "{k:?}:");
                canon(x, out);
                out.push(',');
            }
            out.push('}');
        }
    }
}

fn state_bits<S: Serialize>(state: &S) -> String {
    let mut out = String::new();
    canon(&serde_json::to_value(state).expect("state serializes"), &mut out);
    out
}

fn lcg_next(s: &mut u64) -> u64 {
    *s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *s >> 33
}

/// The differential: run uninterrupted, then split at each point, push
/// the checkpoint through its wire format, and resume on the home and
/// the away replica. Every final state must be bit-identical to the
/// uninterrupted one.
fn differential_replay<A>(
    app: &A,
    ds: &Dataset,
    schedule: &FaultSchedule,
    n_splits: usize,
    lcg: &mut u64,
) where
    A: ReductionApp,
    A::State: Serialize + Deserialize,
    A::Obj: Serialize + Deserialize,
{
    let home = Executor::new(home_deployment());
    let full = RunMode::Full { controller: None, trace: false };
    let unsplit = home.run_with(app, ds, schedule, full).finished();
    let want = state_bits(&unsplit.final_state);
    let passes = unsplit.report.num_passes();
    assert!(passes >= 1);

    for _ in 0..n_splits {
        let pass = (lcg_next(lcg) as usize) % passes;
        let cursor = (lcg_next(lcg) as usize) % (ds.num_chunks() + 1);
        let label = format!("{} split (pass {pass}, chunk {cursor})", app.name());

        let ck = home
            .run_with(app, ds, schedule, RunMode::Suspend(StopPoint { pass, cursor }))
            .expect_suspended(&label);
        assert_eq!(ck.pass_idx, pass);
        assert_eq!(ck.cursor, cursor);

        // The checkpoint travels serialized: the resumes below consume
        // what came back out of the wire format, not the original.
        let wire = serde_json::to_value(&ck).expect("checkpoint serializes");
        let back: Checkpoint<A::State, A::Obj> =
            serde_json::from_value(&wire).unwrap_or_else(|e| panic!("{label}: round-trip: {e}"));
        let resume =
            |ex: &Executor, ck| ex.run_with(app, ds, schedule, RunMode::Resume(ck)).finished();
        let resumed = resume(&home, back);
        assert_eq!(state_bits(&resumed.final_state), want, "{label}: same-replica resume");
        assert_eq!(resumed.report.num_passes(), passes, "{label}: pass count");

        let moved: Checkpoint<A::State, A::Obj> =
            serde_json::from_value(&wire).expect("second decode of the same wire value");
        let away = Executor::new(away_deployment());
        let migrated = resume(&away, moved);
        assert_eq!(state_bits(&migrated.final_state), want, "{label}: cross-replica resume");
        if cursor < ds.num_chunks() {
            assert_eq!(
                migrated.report.passes[pass].migration, MIGRATION_OVERHEAD,
                "{label}: replica switch must charge the migration overhead"
            );
        }
    }
}

/// Monomorphization shim: build the fixed experiment instance of each
/// paper application (same parameters as `PaperApp::execute`) and hand
/// it to the generic harness.
fn replay_app(
    app: PaperApp,
    ds: &Dataset,
    schedule: &FaultSchedule,
    n_splits: usize,
    lcg: &mut u64,
) {
    match app {
        PaperApp::KMeans => {
            differential_replay(&kmeans::KMeans::paper(7), ds, schedule, n_splits, lcg)
        }
        PaperApp::Em => differential_replay(&em::Em::paper(7), ds, schedule, n_splits, lcg),
        PaperApp::Knn => differential_replay(&knn::Knn::paper(7), ds, schedule, n_splits, lcg),
        PaperApp::Vortex => {
            differential_replay(&vortex::VortexDetect::default(), ds, schedule, n_splits, lcg)
        }
        PaperApp::Defect => {
            differential_replay(&defect::DefectDetect::for_dataset(ds), ds, schedule, n_splits, lcg)
        }
        PaperApp::Apriori => {
            differential_replay(&apriori::Apriori::standard(), ds, schedule, n_splits, lcg)
        }
        PaperApp::Ann => differential_replay(&ann::AnnTrain::paper(7), ds, schedule, n_splits, lcg),
    }
}

#[test]
fn every_app_replays_bit_identically_without_faults() {
    let mut lcg = 0x5eed_0001;
    for app in PaperApp::ALL {
        let ds = app.generate(&format!("mr-clean-{}", app.name()), NOMINAL_MB, SCALE, 23);
        replay_app(app, &ds, &FaultSchedule::none(), 3, &mut lcg);
    }
}

#[test]
fn every_app_replays_bit_identically_under_faults() {
    // One of two data nodes crashed from the start, a permanent WAN
    // degradation window, and a compute straggler — all three fault
    // dimensions live across the split.
    let schedule = FaultSchedule::none()
        .crash(1, SimTime::ZERO)
        .degrade(SimTime::ZERO, SimTime::MAX, 0.5)
        .straggler(2, 3.0);
    let mut lcg = 0x5eed_0002;
    for app in PaperApp::ALL {
        let ds = app.generate(&format!("mr-fault-{}", app.name()), NOMINAL_MB, SCALE, 29);
        replay_app(app, &ds, &schedule, 2, &mut lcg);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(14))]

    /// Random fault schedules *and* random split points, with the
    /// application rotating per case: whatever timing the schedule
    /// produces, the replayed run lands on the same bits.
    #[test]
    fn random_fault_schedules_replay_bit_identically(seed in 0u64..1000) {
        let app = PaperApp::ALL[(seed % 7) as usize];
        let ds = app.generate(&format!("mr-prop-{}", app.name()), NOMINAL_MB, SCALE, 31);
        let schedule = FaultSchedule::random(seed, 2, 4, SimDuration::from_secs(120));
        let mut lcg = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        replay_app(app, &ds, &schedule, 2, &mut lcg);
    }
}

// ---------------------------------------------------------------------
// Scheduler half: the PR-3 invariants must survive migration,
// preemption, quotas, and degradation all being switched on at once.
// ---------------------------------------------------------------------

/// Every invariant the base suite checks per run, applied to a
/// migration-enabled scheduler result.
fn check_sched_invariants(r: &freeride_g::sched::SchedResult, label: &str) {
    assert!(r.violations.is_empty(), "{label}: violations: {:?}", r.violations);
    r.trace.check_well_formed().unwrap_or_else(|e| panic!("{label}: malformed trace: {e}"));

    let admitted = r.outcomes.iter().filter(|o| o.admitted).count() as u64;
    let rejected = r.outcomes.iter().filter(|o| !o.admitted).count() as u64;
    let m = &r.trace.metrics;
    assert_eq!(m.counter("sched_jobs_admitted"), Some(admitted), "{label}");
    assert_eq!(m.counter("sched_jobs_rejected"), Some(rejected), "{label}");
    assert_eq!(m.counter("sched_jobs_completed"), Some(admitted), "{label}");
    assert_eq!(m.counter("sched_jobs_submitted"), Some(r.outcomes.len() as u64), "{label}");
    // Quotas are on in these runs, and the violation counter is the
    // structural "never exceeded" guarantee.
    assert_eq!(m.counter("sched_quota_violations"), Some(0), "{label}");

    for o in &r.outcomes {
        assert_eq!(o.admitted, o.finish.is_some(), "{label} job {}", o.id);
        if !o.admitted {
            assert!(o.reject_reason.is_some(), "{label} job {}: rejection needs a reason", o.id);
            assert!(
                o.placement.is_none() && o.placed_at.is_none(),
                "{label} job {}: a rejected job must never occupy the grid",
                o.id
            );
            continue;
        }
        // Phases stay ordered even when the job was checkpointed off
        // the grid or switched replicas along the way.
        let (placed, disk, net, fin) =
            (o.placed_at.unwrap(), o.disk_end.unwrap(), o.network_end.unwrap(), o.finish.unwrap());
        assert!(
            o.arrival <= placed && placed <= disk && disk <= net && net <= fin,
            "{label} job {}: phases out of order: {placed} {disk} {net} {fin}",
            o.id
        );
        assert!(o.slowdown().unwrap() >= 1.0 - 1e-6, "{label} job {}", o.id);
        for p in &o.preemptions {
            let resumed = p.resumed_at.unwrap_or(fin);
            assert!(
                placed <= p.preempted_at && p.preempted_at <= resumed && resumed <= fin,
                "{label} job {}: preemption window out of range",
                o.id
            );
        }
        if let Some(mig) = &o.migration {
            assert!(
                placed <= mig.at && mig.at < mig.until && mig.until <= fin,
                "{label} job {}: migration window out of range",
                o.id
            );
            assert_ne!(mig.from_repo, mig.to_repo, "{label} job {}", o.id);
        }
    }
}

#[test]
fn migration_enabled_scheduler_keeps_every_pr3_invariant() {
    for policy in Policy::ALL {
        for load in [LoadLevel::Light, LoadLevel::Medium] {
            let r = migrate_run(policy, load, true, true);
            check_sched_invariants(&r, &format!("{} {}", policy.name(), load.name()));
        }
    }
    // One heavy run: the busiest mix of preemptions and migrations.
    let r = migrate_run(Policy::FcfsBackfill, LoadLevel::Heavy, true, true);
    check_sched_invariants(&r, "fcfs-backfill heavy");
}

#[test]
fn migration_enabled_scheduler_is_deterministic() {
    let a = migrate_run(Policy::FcfsBackfill, LoadLevel::Medium, true, true);
    let b = migrate_run(Policy::FcfsBackfill, LoadLevel::Medium, true, true);
    assert_eq!(
        serde_json::to_string(&a.outcomes).unwrap(),
        serde_json::to_string(&b.outcomes).unwrap(),
        "outcomes must be bit-identical across reruns"
    );
    assert_eq!(to_jsonl(&a.trace), to_jsonl(&b.trace), "traces must be bit-identical");
}

#[test]
fn migration_keeps_every_invariant_under_trace_shaped_traffic() {
    // Re-verification over the workload rework: the full stack —
    // quotas, preemption, degradation, migration — driven by the
    // heavy-tail and bursty presets instead of the uniform one. Burst
    // pile-ups maximize preemption pressure and Pareto giants make
    // individual checkpoints enormous; the invariants must not care.
    for shape in WorkloadShape::TRACE_SHAPED {
        let r = workload_migrate_run(shape, true);
        let label = format!("workload-migrate {}", shape.name());
        check_sched_invariants(&r, &label);
        assert!(
            r.trace.metrics.counter("sched_migrations").unwrap() >= 1,
            "{label}: the degraded repository must trigger at least one migration"
        );
    }
}

#[test]
fn trace_shaped_migration_runs_are_deterministic() {
    let a = workload_migrate_run(WorkloadShape::Bursty, true);
    let b = workload_migrate_run(WorkloadShape::Bursty, true);
    assert_eq!(
        serde_json::to_string(&a.outcomes).unwrap(),
        serde_json::to_string(&b.outcomes).unwrap(),
        "bursty migration outcomes must be bit-identical across reruns"
    );
    assert_eq!(to_jsonl(&a.trace), to_jsonl(&b.trace), "bursty migration traces must match");
}

#[test]
fn migration_runs_exercise_all_three_new_span_kinds() {
    let r = migrate_run(Policy::FcfsBackfill, LoadLevel::Heavy, true, true);
    let kinds: Vec<SpanKind> = r.trace.spans.iter().map(|s| s.kind).collect();
    for kind in [SpanKind::Checkpoint, SpanKind::Preempted, SpanKind::Migrate] {
        assert!(kinds.contains(&kind), "heavy degraded run must record {kind:?} spans");
    }
    assert!(r.trace.metrics.counter("sched_migrations").unwrap() >= 1);
    assert!(r.trace.metrics.counter("sched_preemptions").unwrap() >= 1);
}
