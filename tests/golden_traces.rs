//! Golden-trace regression suite: one pinned trace per application.
//!
//! Each test runs the fixed golden configuration (8 MB nominal at 1%
//! scale, seed 3, 2 data nodes x 4 compute nodes, 1 MB/s WAN — see
//! `fg_bench::scenario::golden_trace_run`), serializes the trace to
//! JSON lines, and compares it byte for byte against the committed
//! fixture in `tests/golden/`. Any change to the executor's phase
//! arithmetic, the span structure, or the export format shows up as a
//! fixture diff.
//!
//! To bless a new baseline after an intentional change:
//!
//! ```text
//! FG_BLESS=1 cargo test --test golden_traces
//! ```

//! Scheduler migration traces are pinned the same way: one fixture per
//! policy for the migration-enabled, degraded medium-load run
//! (`migrate-<policy>.trace.jsonl`), covering the `Preempted`,
//! `Checkpoint`, and `Migrate` span kinds. Those runs preempt only in
//! the network and migrating phases, so one more fixture
//! (`preempt-fcfs-backfill-heavy.trace.jsonl`) pins a run whose
//! preemptions land in the disk and compute phases too: the phase ends
//! after each resume pin what the eviction left of the phase.

use fg_bench::figures::migrate_run;
use fg_bench::scenario::golden_trace_run;
use fg_bench::PaperApp;
use freeride_g::middleware::ExecutionReport;
use freeride_g::predict::Profile;
use freeride_g::sched::{LoadLevel, Policy, SchedResult};
use freeride_g::trace::{from_jsonl, to_jsonl, SpanKind};
use std::path::PathBuf;

fn fixture_path(app: PaperApp) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{}.trace.jsonl", app.name()))
}

fn check_golden(app: PaperApp) {
    let (report, trace) = golden_trace_run(app);

    // The trace must stand on its own before it is worth pinning.
    trace.check_well_formed().expect("golden trace must be well-formed");
    let rebuilt = ExecutionReport::from_trace(&trace).expect("report reconstructable from trace");
    assert_eq!(rebuilt, report, "trace must reproduce the report exactly");
    assert_eq!(
        Profile::from_trace(&trace).expect("profile from trace"),
        Profile::from_report(&report),
        "trace-derived profile must equal the report-derived one"
    );

    let rendered = to_jsonl(&trace);
    let parsed = from_jsonl(&rendered).expect("exported trace must parse back");
    assert_eq!(parsed, trace, "jsonl export must round-trip");

    let path = fixture_path(app);
    if std::env::var_os("FG_BLESS").is_some() {
        std::fs::write(&path, &rendered).unwrap_or_else(|e| panic!("bless {path:?}: {e}"));
        return;
    }
    let pinned = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("{path:?}: {e}\nrun `FG_BLESS=1 cargo test --test golden_traces` to create it")
    });
    assert_eq!(
        rendered,
        pinned,
        "golden trace for {} drifted; if intentional, re-bless with \
         `FG_BLESS=1 cargo test --test golden_traces`",
        app.name()
    );
}

/// Pin one migration-enabled scheduler trace per policy: the medium
/// preset with repository 0 degraded from t=0, quotas, preemption, and
/// migration all on. Returns the span kinds the trace exercised so the
/// coverage test below can check the union.
fn check_migration_golden(policy: Policy) -> Vec<SpanKind> {
    let r = migrate_run(policy, LoadLevel::Medium, true, true);
    check_sched_golden(&r, &format!("migrate-{}", policy.name()));
    r.trace.spans.iter().map(|s| s.kind).collect()
}

/// Compare a scheduler run's trace against `tests/golden/<name>.trace.jsonl`.
fn check_sched_golden(r: &SchedResult, name: &str) {
    r.trace.check_well_formed().expect("scheduler trace must be well-formed");
    assert!(r.violations.is_empty(), "{name}: {:?}", r.violations);

    let rendered = to_jsonl(&r.trace);
    let parsed = from_jsonl(&rendered).expect("exported trace must parse back");
    assert_eq!(parsed, *r.trace, "jsonl export must round-trip");

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.trace.jsonl"));
    if std::env::var_os("FG_BLESS").is_some() {
        std::fs::write(&path, &rendered).unwrap_or_else(|e| panic!("bless {path:?}: {e}"));
    } else {
        let pinned = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("{path:?}: {e}\nrun `FG_BLESS=1 cargo test --test golden_traces` to create it")
        });
        assert_eq!(
            rendered, pinned,
            "scheduler trace {name} drifted; if intentional, re-bless with \
             `FG_BLESS=1 cargo test --test golden_traces`"
        );
    }
}

/// Pin a preemption in every phase: the heavy preset under
/// FCFS-backfill with preemption armed (no migration, no degradation)
/// evicts jobs in their disk, network and compute phases.
#[test]
fn golden_preemption_trace_in_every_phase() {
    let r = migrate_run(Policy::FcfsBackfill, LoadLevel::Heavy, false, false);
    // The phase a job was in when evicted, from where the preemption
    // instant falls among its (final) phase ends.
    let mut hits = [0usize; 3];
    for o in r.outcomes.iter() {
        for p in &o.preemptions {
            let (disk, net) = (o.disk_end.unwrap(), o.network_end.unwrap());
            hits[usize::from(disk <= p.preempted_at) + usize::from(net <= p.preempted_at)] += 1;
        }
    }
    let [disk, network, compute] = hits;
    assert!(disk > 0 && network > 0 && compute > 0, "preemptions by phase: {hits:?}");
    check_sched_golden(&r, "preempt-fcfs-backfill-heavy");
}

#[test]
fn golden_migration_trace_fcfs() {
    let kinds = check_migration_golden(Policy::Fcfs);
    assert!(kinds.contains(&SpanKind::Checkpoint) && kinds.contains(&SpanKind::Migrate));
}

#[test]
fn golden_migration_trace_fcfs_backfill() {
    let kinds = check_migration_golden(Policy::FcfsBackfill);
    assert!(kinds.contains(&SpanKind::Checkpoint) && kinds.contains(&SpanKind::Migrate));
}

#[test]
fn golden_migration_trace_spjf() {
    let kinds = check_migration_golden(Policy::Spjf);
    assert!(kinds.contains(&SpanKind::Checkpoint) && kinds.contains(&SpanKind::Migrate));
}

#[test]
fn golden_migration_trace_edf_admit() {
    let kinds = check_migration_golden(Policy::EdfAdmit);
    assert!(kinds.contains(&SpanKind::Checkpoint) && kinds.contains(&SpanKind::Migrate));
}

#[test]
fn golden_migration_traces_cover_the_new_span_kinds() {
    let kinds: Vec<SpanKind> =
        Policy::ALL.iter().flat_map(|&p| check_migration_golden(p)).collect();
    for kind in [SpanKind::Preempted, SpanKind::Checkpoint, SpanKind::Migrate] {
        assert!(kinds.contains(&kind), "pinned migration traces must exercise {kind:?}");
    }
}

#[test]
fn golden_trace_kmeans() {
    check_golden(PaperApp::KMeans);
}

#[test]
fn golden_trace_em() {
    check_golden(PaperApp::Em);
}

#[test]
fn golden_trace_knn() {
    check_golden(PaperApp::Knn);
}

#[test]
fn golden_trace_vortex() {
    check_golden(PaperApp::Vortex);
}

#[test]
fn golden_trace_defect() {
    check_golden(PaperApp::Defect);
}

#[test]
fn golden_trace_apriori() {
    check_golden(PaperApp::Apriori);
}

#[test]
fn golden_trace_ann() {
    check_golden(PaperApp::Ann);
}
