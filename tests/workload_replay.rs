//! The JSONL trace round trip, checked from outside the crate: dumping
//! a synthetic workload and replaying it reproduces the in-memory
//! workload bit for bit, the replayed stream drives the scheduler to a
//! bit-identical schedule, and corrupted trace *text* — truncation,
//! field corruption, reordering, garbage — is rejected with a typed
//! error naming the line, mirroring the checkpoint corrupt-input tests
//! in `tests/serialization.rs`.

use fg_bench::figures::sched_models;
use freeride_g::sched::{
    GridSpec, LoadLevel, Policy, ReplayError, Scheduler, Workload, WorkloadShape, WorkloadSpec,
};

fn app_names() -> Vec<String> {
    sched_models().into_iter().map(|(n, _)| n).collect()
}

fn shaped_workload(shape: WorkloadShape, load: LoadLevel, seed: u64) -> Workload {
    let apps = app_names();
    let names: Vec<&str> = apps.iter().map(|s| s.as_str()).collect();
    Workload::from_spec(&WorkloadSpec::shaped(shape, load, &names, seed)).expect("valid preset")
}

#[test]
fn dump_replay_is_bit_exact_across_every_preset() {
    for shape in WorkloadShape::ALL {
        for load in LoadLevel::ALL {
            for seed in [7, 42, 1234] {
                let w = shaped_workload(shape, load, seed);
                let text = w.dump_jsonl();
                let r = Workload::replay(&text).unwrap_or_else(|e| {
                    panic!("{} {} seed {seed}: {e}", shape.name(), load.name())
                });
                assert_eq!(w, r, "{} {} seed {seed}", shape.name(), load.name());
                assert_eq!(text, r.dump_jsonl(), "dump must be a fixpoint");
            }
        }
    }
}

#[test]
fn replayed_traces_schedule_bit_identically_to_synthetic_ones() {
    // Recorded and synthetic traffic must be interchangeable: running
    // the scheduler on a replayed trace reproduces the run on the
    // original jobs, outcome for outcome and span for span.
    for shape in WorkloadShape::TRACE_SHAPED {
        let w = shaped_workload(shape, LoadLevel::Heavy, 42);
        let r = Workload::replay(&w.dump_jsonl()).expect("replay");
        let a = Scheduler::new(GridSpec::demo(sched_models()), Policy::EdfAdmit).run(&w.jobs);
        let b = Scheduler::new(GridSpec::demo(sched_models()), Policy::EdfAdmit).run(&r.jobs);
        assert_eq!(
            serde_json::to_string(&*a.outcomes).unwrap(),
            serde_json::to_string(&*b.outcomes).unwrap(),
            "{}: replayed outcomes diverged",
            shape.name()
        );
        assert_eq!(
            freeride_g::trace::to_jsonl(&a.trace),
            freeride_g::trace::to_jsonl(&b.trace),
            "{}: replayed trace diverged",
            shape.name()
        );
    }
}

#[test]
fn an_external_hand_written_trace_replays_and_schedules() {
    // The README quickstart case: a trace produced by some other
    // system, not by dump_jsonl. Only the schema matters.
    let text = concat!(
        r#"{"schema":1,"kind":"fg-workload","seed":0,"apps":["kmeans","em"],"tenants":["prod","batch"],"jobs":3}"#,
        "\n",
        r#"{"id":0,"tenant":0,"app":"kmeans","dataset_bytes":48000000,"arrival":5.0,"deadline_slack":3.0}"#,
        "\n",
        r#"{"id":1,"tenant":1,"app":"em","dataset_bytes":96000000,"arrival":11.5,"deadline_slack":2.5}"#,
        "\n",
        r#"{"id":2,"tenant":0,"app":"kmeans","dataset_bytes":16000000,"arrival":40.0,"deadline_slack":4.0}"#,
        "\n",
    );
    let w = Workload::replay(text).expect("external trace replays");
    assert_eq!(w.tenants, vec!["prod".to_string(), "batch".to_string()]);
    assert_eq!(w.jobs.len(), 3);
    let r = Scheduler::new(GridSpec::demo(sched_models()), Policy::FcfsBackfill).run(&w.jobs);
    assert!(r.violations.is_empty(), "{:?}", r.violations);
    assert!(r.outcomes.iter().all(|o| o.admitted));
}

#[test]
fn truncating_the_trace_at_any_line_is_a_typed_error() {
    // Mirror of the checkpoint truncation sweep: cutting the text
    // after any prefix of lines must fail loudly — as a truncation,
    // a silent tenant, or (for the empty prefix) a missing header —
    // never replay to a plausible shorter workload.
    let w = shaped_workload(WorkloadShape::Bursty, LoadLevel::Medium, 7);
    let text = w.dump_jsonl();
    let lines: Vec<&str> = text.lines().collect();
    for keep in 0..lines.len() {
        let cut = lines[..keep].join("\n");
        let err = Workload::replay(&cut)
            .err()
            .unwrap_or_else(|| panic!("prefix of {keep} lines must not replay"));
        match err {
            ReplayError::Header(_) if keep == 0 => {}
            ReplayError::Truncated { expected, got } => {
                assert_eq!(expected, w.jobs.len());
                assert_eq!(got, keep.saturating_sub(1));
            }
            ReplayError::SilentTenant { .. } => {}
            other => panic!("prefix {keep}: unexpected error {other:?}"),
        }
    }
}

#[test]
fn corrupting_any_job_line_is_rejected_by_line_number() {
    let w = shaped_workload(WorkloadShape::HeavyTail, LoadLevel::Medium, 7);
    let text = w.dump_jsonl();
    let lines: Vec<String> = text.lines().map(|s| s.to_string()).collect();

    // Structural JSON damage on a mid-trace line.
    let mut broken = lines.clone();
    broken[5] = broken[5][..broken[5].len() / 2].to_string();
    match Workload::replay(&broken.join("\n")) {
        Err(ReplayError::Line { line, .. }) => assert_eq!(line, 6),
        other => panic!("expected Line error, got {other:?}"),
    }

    // Field corruption the JSON parser happily accepts: a NaN arrival
    // (the vendored encoder's sentinel form) must die in validation.
    let mut nan = lines.clone();
    nan[3] = nan[3].replacen("\"arrival\":", "\"arrival\":\"nan\",\"was\":", 1);
    match Workload::replay(&nan.join("\n")) {
        Err(ReplayError::BadJob { line, reason }) => {
            assert_eq!(line, 4);
            assert!(reason.contains("arrival"), "{reason}");
        }
        other => panic!("expected BadJob, got {other:?}"),
    }

    // Swapping two adjacent job lines breaks either the id sequence or
    // the arrival order — both typed, both naming a line.
    let mut swapped = lines.clone();
    swapped.swap(4, 5);
    match Workload::replay(&swapped.join("\n")) {
        Err(ReplayError::BadId { line, .. }) | Err(ReplayError::OutOfOrder { line }) => {
            assert_eq!(line, 5)
        }
        other => panic!("expected BadId/OutOfOrder, got {other:?}"),
    }

    // Appending a duplicate of the last job line past the declared
    // count is trailing data, not a quietly longer workload.
    let trailing = format!("{}{}\n", text, lines.last().unwrap());
    assert!(matches!(Workload::replay(&trailing), Err(ReplayError::TrailingData { .. })));
}

#[test]
fn foreign_and_future_headers_are_refused() {
    let w = shaped_workload(WorkloadShape::Uniform, LoadLevel::Light, 7);
    let text = w.dump_jsonl();
    let body: Vec<&str> = text.lines().skip(1).collect();

    let foreign = format!(
        "{}\n{}\n",
        r#"{"schema":1,"kind":"fg-span","seed":7,"apps":[],"tenants":[],"jobs":0}"#,
        body.join("\n")
    );
    assert!(matches!(Workload::replay(&foreign), Err(ReplayError::Header(_))));

    let future = text.replacen("\"schema\":1", "\"schema\":2", 1);
    match Workload::replay(&future) {
        Err(ReplayError::Header(reason)) => assert!(reason.contains("schema"), "{reason}"),
        other => panic!("expected Header error, got {other:?}"),
    }
}

#[test]
fn replay_errors_render_actionable_messages() {
    let msgs = [
        ReplayError::Header("empty trace".into()).to_string(),
        ReplayError::Line { line: 4, reason: "bad json".into() }.to_string(),
        ReplayError::Truncated { expected: 23, got: 7 }.to_string(),
        ReplayError::TrailingData { line: 25 }.to_string(),
        ReplayError::OutOfOrder { line: 9 }.to_string(),
        ReplayError::BadId { line: 9, expected: 8, got: 17 }.to_string(),
        ReplayError::BadJob { line: 2, reason: "dataset must be non-empty" }.to_string(),
        ReplayError::SilentTenant { tenant: "ghost".into() }.to_string(),
    ];
    for m in &msgs {
        assert!(!m.is_empty());
    }
    assert!(msgs[2].contains("23") && msgs[2].contains('7'));
    assert!(msgs[5].contains("17"));
}
