//! The JSONL records, checked as one family: every reader refuses every
//! other format's dump by its `kind` on line 1, refuses a future
//! version, empty input, a blank first line and garbage on line k by
//! the same rules (`serde_json::jsonl`); every dump is a
//! `dump → replay → dump` fixpoint; and each format's header line and
//! the full dump of a fixed input are pinned byte for byte — the
//! digests were taken from the dump functions as they stood before the
//! formats shared one writer.

use fg_learn::{HybridPredictor, LearnedPredictor};
use fg_serve::{IncidentBundle, IncidentReason, RecordedEvent, INCIDENT_VERSION};
use freeride_g::predict::{Observation, Predictor};
use freeride_g::sched::{
    AccuracyLedger, AccuracySample, CoreEvent, CoreStats, DriftConfig, LoadLevel, ReplayError,
    Workload, WorkloadShape, WorkloadSpec,
};
use freeride_g::trace::{from_jsonl, to_jsonl, Trace};
use serde_json::jsonl;

/// FNV-1a, 64-bit.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

fn workload() -> Workload {
    let spec = WorkloadSpec::shaped(WorkloadShape::Bursty, LoadLevel::Medium, &["kmeans", "em"], 7);
    Workload::from_spec(&spec).expect("valid preset")
}

fn sample(id: usize, net_obs: f64) -> AccuracySample {
    AccuracySample {
        seq: 0,
        id,
        tenant: id % 3,
        app: "kmeans".into(),
        repo: if id.is_multiple_of(4) { "repo-b" } else { "repo-a" }.into(),
        config: "4x4".into(),
        dataset_bytes: 1 << 28,
        predicted: [1.0, 10.0, 5.0],
        observed: [1.0 + id as f64 / 64.0, net_obs, 5.0],
        placed_at: id as f64 * 10.0,
        finish: id as f64 * 10.0 + 16.0,
    }
}

fn ledger() -> AccuracyLedger {
    let mut ledger = AccuracyLedger::new(DriftConfig::default());
    for i in 0..30 {
        ledger.ingest(sample(i, 10.0 + (i % 7) as f64));
    }
    for i in 30..45 {
        ledger.ingest(sample(i, 120.0));
    }
    assert!(!ledger.alarms().is_empty(), "the fixture trips the detector");
    ledger
}

fn observation(i: usize) -> Observation {
    let (n, c) = (1 + i % 4, 1 + (i * 3) % 8);
    let bw = 4e5 * (1 + i % 3) as f64;
    let bytes = (64 + 32 * i as u64) << 20;
    let mb = bytes as f64 / 1e6;
    let observed = [
        0.5 + 0.01 * mb / n as f64,
        1.1 * mb / (n as f64 * bw / 1e6),
        0.02 * mb / c as f64 + 0.1 * c as f64,
    ];
    Observation {
        app: "kmeans".into(),
        repo: if i.is_multiple_of(2) { "osu" } else { "mit" }.into(),
        data_nodes: n,
        compute_nodes: c,
        wan_bw: bw,
        dataset_bytes: bytes,
        predicted: observed.map(|v| v * 0.9),
        observed,
    }
}

fn learned() -> LearnedPredictor {
    let pred = LearnedPredictor::default();
    (0..40).for_each(|i| pred.observe(&observation(i)));
    assert!(pred.trained_keys() > 0, "the fixture fits a model");
    pred
}

fn hybrid() -> HybridPredictor {
    let pred = HybridPredictor::default();
    (0..40).for_each(|i| pred.observe(&observation(i)));
    pred
}

fn bundle() -> IncidentBundle {
    let ledger = ledger();
    IncidentBundle {
        version: INCIDENT_VERSION,
        reason: IncidentReason::Drift { alarm: ledger.alarms()[0].clone() },
        at: 466.0,
        stats: Some(CoreStats {
            now: 466.0,
            makespan: 450.0,
            submitted: 45,
            admitted: 44,
            rejected: 1,
            completed: 40,
            queued: 2,
            running: 2,
            suspended: 0,
        }),
        events: vec![
            RecordedEvent {
                seq: 7,
                event: CoreEvent::Completed { id: 3, at: 40.5, met_deadline: Some(true) },
            },
            RecordedEvent { seq: 8, event: CoreEvent::Preempted { id: 4, at: 41.0 } },
        ],
        ledger_tail: ledger.tail(3),
        alarms: ledger.alarms().to_vec(),
    }
}

/// A pinned span trace: the golden k-means run.
const TRACE: &str = include_str!("golden/kmeans.trace.jsonl");

/// Every format's dump of its fixed input, by kind (the span trace has
/// no header; `fg-trace` is only the name its reader's errors use).
fn dumps() -> Vec<(&'static str, String)> {
    vec![
        ("fg-workload", workload().dump_jsonl()),
        ("fg-accuracy-ledger", ledger().dump_jsonl()),
        ("fg-learn-model", learned().dump_jsonl()),
        ("fg-hybrid-model", hybrid().dump_jsonl()),
        ("fg-trace", TRACE.to_string()),
        ("fg-incident", bundle().to_jsonl()),
    ]
}

/// A reader's verdict: the failing line (if the error names one) and
/// the reason.
type Verdict = Result<(), (Option<usize>, String)>;

fn lined(e: jsonl::Error) -> (Option<usize>, String) {
    (e.line, e.reason)
}

/// A reader, by the kind it reads.
type Reader = (&'static str, fn(&str) -> Verdict);

/// The five readers.
fn readers() -> [Reader; 5] {
    [
        ("fg-workload", |t| {
            Workload::replay(t).map(drop).map_err(|e| match e {
                ReplayError::Header(reason) => (Some(1), reason),
                ReplayError::Line { line, reason } => (Some(line), reason),
                other => (None, other.to_string()),
            })
        }),
        ("fg-accuracy-ledger", |t| AccuracyLedger::replay_jsonl(t).map(drop).map_err(lined)),
        ("fg-learn-model", |t| LearnedPredictor::replay_jsonl(t).map(drop).map_err(lined)),
        ("fg-hybrid-model", |t| HybridPredictor::replay_jsonl(t).map(drop).map_err(lined)),
        ("fg-trace", |t| from_jsonl(t).map(drop).map_err(lined)),
    ]
}

fn own_dump(kind: &str) -> String {
    dumps().into_iter().find(|(k, _)| *k == kind).expect("every reader has a format").1
}

#[test]
fn every_reader_refuses_every_other_format_by_kind_on_line_1() {
    let dumps = dumps();
    for (reads, read) in readers() {
        for (kind, dump) in dumps.iter().filter(|(kind, _)| *kind != reads) {
            let (line, reason) = read(dump).expect_err(&format!("{reads} read a {kind} dump"));
            assert_eq!(line, Some(1), "{reads} ← {kind}: {reason}");
            assert!(reason.contains(&format!("{reads:?}")), "{reads} ← {kind}: {reason}");
            if *kind == "fg-trace" {
                // Headerless: there is no kind to name, only its absence.
                assert!(reason.starts_with("no \"kind\" member"), "{reads} ← {kind}: {reason}");
            } else {
                assert_eq!(reason, format!("kind {kind:?} is not {reads:?}"), "{reads} ← {kind}");
            }
        }
    }
}

#[test]
fn every_headed_reader_refuses_a_future_version_no_input_and_a_blank_first_line() {
    for (reads, read) in readers().into_iter().filter(|(k, _)| *k != "fg-trace") {
        let dump = own_dump(reads);
        let key = if reads == "fg-workload" { "schema" } else { "version" };
        let future = dump.replacen(&format!("\"{key}\":1"), &format!("\"{key}\":2"), 1);
        assert_eq!(
            read(&future),
            Err((Some(1), format!("{key} 2 unsupported (this build reads 1)"))),
            "{reads}"
        );
        let found =
            |what: &str| Err((Some(1), format!("expected the {reads:?} header, found {what}")));
        assert_eq!(read(""), found("no input"), "{reads}");
        assert_eq!(read(&format!("\n{dump}")), found("a blank line"), "{reads}");
    }
    // The trace has no header: empty input is the empty trace, and a
    // blank line is skipped wherever it stands.
    assert_eq!(
        from_jsonl(""),
        Ok(Trace { meta: None, spans: Vec::new(), metrics: Default::default() })
    );
    assert_eq!(from_jsonl(&format!("\n{TRACE}")), from_jsonl(TRACE));
}

#[test]
fn garbage_on_line_k_is_an_error_naming_k() {
    for (reads, read) in readers() {
        let dump = own_dump(reads);
        let mut lines: Vec<&str> = dump.lines().collect();
        for k in [2, lines.len()] {
            let kept = std::mem::replace(&mut lines[k - 1], "{\"garbage");
            let (line, reason) = read(&lines.join("\n")).expect_err(reads);
            assert_eq!(line, Some(k), "{reads}: {reason}");
            lines[k - 1] = kept;
        }
        assert_eq!(read(&lines.join("\n")), Ok(()), "{reads}: restored");
    }
}

#[test]
fn dump_replay_dump_is_a_fixpoint_for_every_format() {
    let w = workload().dump_jsonl();
    assert_eq!(Workload::replay(&w).unwrap().dump_jsonl(), w);
    let l = ledger().dump_jsonl();
    assert_eq!(AccuracyLedger::replay_jsonl(&l).unwrap().dump_jsonl(), l);
    let m = learned().dump_jsonl();
    assert_eq!(LearnedPredictor::replay_jsonl(&m).unwrap().dump_jsonl(), m);
    let h = hybrid().dump_jsonl();
    assert_eq!(HybridPredictor::replay_jsonl(&h).unwrap().dump_jsonl(), h);
    assert_eq!(to_jsonl(&from_jsonl(TRACE).unwrap()), TRACE);
}

#[test]
fn every_dump_keeps_its_header_line_and_its_bytes() {
    let pins: [(&str, String, &str, usize, u64); 5] = [
        (
            "workload",
            workload().dump_jsonl(),
            r#"{"schema":1,"kind":"fg-workload","seed":7,"apps":["kmeans","em"],"tenants":["bot-sweeper","bot-pilot","bot-steady"],"jobs":23}"#,
            2944,
            0xaa4c_259c_12df_7774,
        ),
        (
            "ledger",
            ledger().dump_jsonl(),
            r#"{"kind":"fg-accuracy-ledger","version":1,"config":{"alpha":0.25,"min_samples":8,"z_threshold":4.0,"residual_threshold":3.0,"capacity":256},"total":45}"#,
            9572,
            0x34a7_4781_5624_ad82,
        ),
        (
            "learned",
            learned().dump_jsonl(),
            r#"{"kind":"fg-learn-model","version":1,"config":{"min_samples":8,"capacity":512,"lambda":1e-6,"trust":2.0}}"#,
            6359,
            0xa976_4603_d382_fa5d,
        ),
        (
            "hybrid",
            hybrid().dump_jsonl(),
            r#"{"kind":"fg-hybrid-model","version":1,"config":{"alpha":0.3,"min_ratio":0.25,"max_ratio":4.0}}"#,
            319,
            0x4b94_dd5e_a2c4_da4d,
        ),
        (
            "incident",
            bundle().to_jsonl(),
            r#"{"kind":"fg-incident","version":1,"reason":{"Drift":{"alarm":{"app":"kmeans","repo":"repo-a","component":"Net","at":316.0,"job_id":30,"residual":11.0,"z":50.422860606623416,"mean":2.9878747799000562,"samples":23}}},"at":466.0,"stats":{"now":466.0,"makespan":450.0,"submitted":45,"admitted":44,"rejected":1,"completed":40,"queued":2,"running":2,"suspended":0}}"#,
            1426,
            0x4ad6_0e53_8b9e_84df,
        ),
    ];
    for (name, dump, header, len, digest) in pins {
        assert_eq!(dump.lines().next(), Some(header), "{name}: header line");
        assert_eq!((dump.len(), fnv1a(&dump)), (len, digest), "{name}: dump bytes moved");
    }
}

/// ROADMAP aim 3: no panic reachable from a replayed file. The header's
/// job count is a claim, not an allocation size.
#[test]
fn a_hostile_job_count_is_a_truncation_not_an_abort() {
    for jobs in [1usize << 40, usize::MAX] {
        let text = format!(
            r#"{{"schema":1,"kind":"fg-workload","seed":0,"apps":["kmeans"],"tenants":["t"],"jobs":{jobs}}}"#
        );
        assert_eq!(Workload::replay(&text), Err(ReplayError::Truncated { expected: jobs, got: 0 }));
    }
}

/// The two structural rules the exporters index by — a span's id is its
/// position, its parent precedes it — hold for every trace
/// `from_jsonl` accepts.
#[test]
fn a_span_tree_the_exporters_cannot_index_is_refused_by_line() {
    let golden = from_jsonl(TRACE).unwrap();
    let line_of = |text: &str, id: u64| {
        let prefix = format!("{{\"Span\":{{\"id\":{id},");
        text.lines().position(|l| l.starts_with(&prefix)).unwrap() + 1
    };
    // What breaks the tree, how, the id of the span refused, and why.
    type Case = (&'static str, fn(&mut Trace), u64, String);
    let why = |at: u64, id: u64, parent: u64| {
        format!("span {id} (parent Some({parent})): not span {at} after its parent")
    };
    let cases: [Case; 4] = [
        ("a missing span", |t| drop(t.spans.remove(1)), 2, why(1, 2, 1)),
        ("a renumbered span", |t| t.spans[3].id = 7, 7, why(3, 7, 2)),
        ("a later parent", |t| t.spans[2].parent = Some(5), 2, why(2, 2, 5)),
        ("an absent parent", |t| t.spans[2].parent = Some(999), 2, why(2, 2, 999)),
    ];
    for (what, break_it, id, reason) in cases {
        let mut trace = golden.clone();
        break_it(&mut trace);
        let text = to_jsonl(&trace);
        let expected = jsonl::Error::at(line_of(&text, id), reason);
        assert_eq!(from_jsonl(&text), Err(expected), "{what}");
    }
}

#[test]
fn every_golden_trace_parses_unchanged() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if !path.to_string_lossy().ends_with(".trace.jsonl") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let trace = from_jsonl(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        trace.check_well_formed().unwrap_or_else(|e| panic!("{path:?}: {e}"));
        assert_eq!(to_jsonl(&trace), text, "{path:?}");
        seen += 1;
    }
    assert_eq!(seen, 12);
}
