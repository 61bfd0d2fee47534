//! The bytes of every JSON document the service writes, pinned.
//!
//! `golden/wire_messages.jsonl` was produced by the encoder of the
//! commit *before* the codec was rewritten to stream (the parent of the
//! change that added this file), so it is an independent witness: one
//! line per wire-message shape plus one line of each JSONL dump format.
//! Each line must decode and re-encode to itself byte for byte, the
//! sample built here must still encode to it, and the pretty rendering
//! must parse back to the same value.
//!
//! To add a case, append it to [`cases`] and re-bless:
//!
//! ```text
//! FG_BLESS=1 cargo test -p fg-serve --test wire_golden
//! ```
//!
//! and check that `git diff` shows only the new line.

use fg_sched::{
    AccuracySample, Component, CoreEvent, CoreStats, DriftAlarm, JobOutcome, JobSpec, KeyDrift,
    MigrationEvent, PlacementInfo, PredictionQuote, PreemptionEvent, SubmitOutcome,
    TelemetrySnapshot, TenantSlo,
};
use fg_serve::msg::{DrainedRun, EventBatch, Request, Response, ServeMetrics, SubscribeMetrics};
use fg_trace::Metrics;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// Every escape class the printer knows (quote, backslash, the five
/// short escapes, `\u00XX` for the other controls), characters it must
/// *not* escape (`/`, DEL), and 2-, 3- and 4-byte UTF-8.
const AWKWARD: &str = "q\"b\\n\nr\rt\tb\u{08}f\u{0c}c\u{01}\u{1f}/\u{7f} é→🦀 {\"k\":[1,2]}";

/// Smallest positive subnormal.
const SUBNORMAL: f64 = 5e-324;

/// Mirror of `fg_sched::ledger`'s private dump-line enum (same variant
/// names and payloads, so the same bytes).
#[derive(Serialize, Deserialize)]
enum DumpLine {
    Sample(AccuracySample),
    Alarm(DriftAlarm),
}

/// Mirror of `fg_learn::predictor`'s private dump line, `KeyLine`. Its
/// `coefs` is `Option<[[f64; 5]; 3]>` there; a fixed array and a `Vec`
/// encode as the same JSON sequence, and the pinned `ridge/fitted` line
/// (written by the old encoder, see above) holds ragged vectors, so the
/// inner arrays stay `Vec`s here.
#[derive(Serialize, Deserialize)]
struct KeyLine {
    app: String,
    repo: String,
    samples: Vec<SampleRow>,
    coefs: Option<[Vec<f64>; 3]>,
}

/// Mirror of `fg_learn::predictor`'s private training row.
#[derive(Serialize, Deserialize)]
struct SampleRow {
    data_nodes: usize,
    compute_nodes: usize,
    wan_bw: f64,
    dataset_bytes: u64,
    observed: [f64; 3],
}

/// Mirror of `fg_learn::predictor`'s private hybrid correction state.
#[derive(Serialize, Deserialize)]
struct HybridKey {
    app: String,
    repo: String,
    factors: [f64; 3],
    samples: u64,
}

type Recode = fn(&str) -> Result<String, serde_json::Error>;

struct Case {
    name: &'static str,
    /// The sample, encoded by this build.
    line: String,
    /// Decode as the case's type, re-encode compactly.
    recode: Recode,
    /// Decode, render pretty, parse the pretty text, re-encode compactly.
    via_pretty: Recode,
}

fn case<T: Serialize + Deserialize>(name: &'static str, value: &T) -> Case {
    Case {
        name,
        line: serde_json::to_string(value).expect("sample serializes"),
        recode: |s| serde_json::to_string(&serde_json::from_str::<T>(s)?),
        via_pretty: |s| {
            let pretty = serde_json::to_string_pretty(&serde_json::from_str::<T>(s)?)?;
            serde_json::to_string(&serde_json::from_str::<T>(&pretty)?)
        },
    }
}

fn alarm() -> DriftAlarm {
    DriftAlarm {
        app: "kmeans".into(),
        repo: AWKWARD.into(),
        component: Component::Net,
        at: 1234.5,
        job_id: 77,
        residual: -3.25,
        z: f64::INFINITY,
        mean: -0.0,
        samples: 9,
    }
}

fn stats() -> CoreStats {
    CoreStats {
        now: 0.1,
        makespan: 1e300,
        submitted: u64::MAX,
        admitted: 3,
        rejected: 2,
        completed: 1,
        queued: 0,
        running: usize::MAX,
        suspended: 4,
    }
}

fn outcome() -> JobOutcome {
    JobOutcome {
        id: 5,
        tenant: 2,
        app: "em".into(),
        arrival: 1.0 / 3.0,
        dataset_bytes: 1 << 40,
        admitted: true,
        reject_reason: None,
        standalone: Some(12.5),
        deadline: Some(f64::INFINITY),
        admission_estimate: Some(SUBNORMAL),
        placement: Some(PlacementInfo {
            repo: 1,
            site: 0,
            repo_name: "repo-b".into(),
            site_name: "απόστολος".into(),
            config: "2-4".into(),
            data_nodes: 2,
            compute_nodes: 4,
        }),
        placed_at: Some(2.0),
        predicted: Some(-0.0),
        disk_end: Some(2.5),
        network_end: Some(40e6),
        finish: None,
        preemptions: vec![
            PreemptionEvent { preempted_at: 3.0, resumed_at: Some(4.0) },
            PreemptionEvent { preempted_at: 5.0, resumed_at: None },
        ],
        migration: Some(MigrationEvent {
            at: 6.0,
            until: 6.5,
            from_repo: "repo-a".into(),
            to_repo: "repo-b".into(),
        }),
    }
}

fn rejected_outcome() -> JobOutcome {
    JobOutcome {
        id: 6,
        tenant: 0,
        app: AWKWARD.into(),
        arrival: f64::NAN,
        dataset_bytes: 0,
        admitted: false,
        reject_reason: Some("unknown app".into()),
        standalone: None,
        deadline: None,
        admission_estimate: None,
        placement: None,
        placed_at: None,
        predicted: None,
        disk_end: None,
        network_end: None,
        finish: None,
        preemptions: Vec::new(),
        migration: None,
    }
}

/// A run's metrics, through the recorders: an awkward name sorts
/// after a plain one, and a histogram has an overflow count.
fn metrics() -> Metrics {
    let mut m = Metrics::default();
    m.add("admitted", 44);
    m.add(AWKWARD, u64::MAX);
    m.set("queue_depth", -0.0);
    m.set("wan_bw", SUBNORMAL);
    for wait in [0.5, 3.0, 1e300] {
        m.observe("wait_seconds", &[1.0, 10.0], wait);
    }
    m
}

fn telemetry() -> TelemetrySnapshot {
    TelemetrySnapshot {
        now: 99.75,
        epoch: 17,
        samples: 400,
        tenants: vec![
            TenantSlo {
                tenant: 0,
                completed: 10,
                deadline_violations: 1,
                violation_rate: 0.1,
                mean_quote_error: 2.5e-10,
                queue_wait_p99: Some(30.0),
            },
            TenantSlo {
                tenant: 1,
                completed: 0,
                deadline_violations: 0,
                violation_rate: 0.0,
                mean_quote_error: f64::NAN,
                queue_wait_p99: None,
            },
        ],
        keys: vec![KeyDrift {
            app: "knn".into(),
            repo: "repo-a".into(),
            total: 400,
            mean: [0.0, -0.0, SUBNORMAL],
            var: [1e-300, f64::NEG_INFINITY, 1.0],
        }],
        alarms: vec![alarm()],
    }
}

fn sample() -> AccuracySample {
    AccuracySample {
        seq: 41,
        id: 7,
        tenant: 3,
        app: "vortex".into(),
        repo: "repo-a".into(),
        config: "4-8".into(),
        dataset_bytes: 1 << 28,
        predicted: [1.0, 10.0, 5.0],
        observed: [1.25, 0.1 + 0.2, 4.999999999999999],
        placed_at: 70.0,
        finish: 86.0,
    }
}

fn cases() -> Vec<Case> {
    let job = JobSpec {
        id: 12,
        tenant: 1,
        app: "kmeans".into(),
        dataset_bytes: 268_435_456,
        arrival: 17.25,
        deadline_slack: 2.5,
    };
    let every_event = EventBatch {
        events: vec![
            CoreEvent::Submitted {
                id: 1,
                tenant: 0,
                admitted: true,
                reject_reason: None,
                estimate: Some(55.5),
            },
            CoreEvent::Submitted {
                id: 2,
                tenant: 1,
                admitted: false,
                reject_reason: Some(AWKWARD.into()),
                estimate: None,
            },
            CoreEvent::Placed {
                id: 1,
                at: 0.5,
                repo: "repo-a".into(),
                site: "cs".into(),
                config: "1-1".into(),
                predicted: 42.0,
            },
            CoreEvent::Completed { id: 1, at: 43.0, met_deadline: Some(false) },
            CoreEvent::Completed { id: 3, at: 44.0, met_deadline: None },
            CoreEvent::Preempted { id: 4, at: 45.0 },
            CoreEvent::Resumed { id: 4, at: 46.0 },
            CoreEvent::Migrated {
                id: 5,
                at: 47.0,
                from_repo: "repo-a".into(),
                to_repo: "repo-b".into(),
            },
            CoreEvent::DriftAlarm { alarm: alarm() },
        ],
    };
    let quote = |would_admit| PredictionQuote {
        standalone: 12.000000000000002,
        corrected: 1.0 / 3.0,
        estimate: 1e21,
        would_admit,
    };
    vec![
        case("request/submit", &Request::Submit { job: job.clone() }),
        case(
            "request/quote",
            &Request::Quote { app: "kmeans".into(), dataset_bytes: u64::MAX, deadline_slack: 2.0 },
        ),
        case(
            "request/quote-awkward",
            &Request::Quote {
                app: AWKWARD.into(),
                dataset_bytes: 0,
                deadline_slack: f64::NEG_INFINITY,
            },
        ),
        case("request/stats", &Request::Stats),
        case("request/drain", &Request::Drain),
        case(
            "response/submitted-admitted",
            &Response::Submitted {
                outcome: SubmitOutcome {
                    id: 12,
                    admitted: true,
                    reject_reason: None,
                    standalone: Some(20.0),
                    deadline: Some(67.25),
                    admission_estimate: Some(SUBNORMAL),
                },
            },
        ),
        case(
            "response/submitted-rejected",
            &Response::Submitted {
                outcome: SubmitOutcome {
                    id: 13,
                    admitted: false,
                    reject_reason: Some("deadline infeasible".into()),
                    standalone: Some(f64::NAN),
                    deadline: None,
                    admission_estimate: None,
                },
            },
        ),
        case("response/submit-failed", &Response::SubmitFailed { reason: AWKWARD.into() }),
        case("response/quoted-none", &Response::Quoted { quote: None }),
        case("response/quoted-some", &Response::Quoted { quote: Some(quote(Some(true))) }),
        case("response/quoted-no-policy", &Response::Quoted { quote: Some(quote(None)) }),
        case("response/stats", &Response::Stats { stats: stats() }),
        case(
            "response/drained",
            &Response::Drained {
                result: DrainedRun {
                    outcomes: vec![outcome(), rejected_outcome()],
                    metrics: metrics(),
                    makespan: 86.0,
                    violations: vec!["none".into(), AWKWARD.into()],
                },
            },
        ),
        case(
            "response/drained-empty",
            &Response::Drained {
                result: DrainedRun {
                    outcomes: Vec::new(),
                    metrics: Metrics::default(),
                    makespan: -0.0,
                    violations: Vec::new(),
                },
            },
        ),
        case("response/error", &Response::Error { reason: "session already drained".into() }),
        case("events/every-variant", &every_event),
        case("events/empty", &EventBatch { events: Vec::new() }),
        case("subscribe", &SubscribeMetrics { min_epoch: u64::MAX }),
        case("metrics", &ServeMetrics { epoch: 17, stats: stats(), telemetry: telemetry() }),
        case("workload/job", &job),
        case("ledger/sample", &DumpLine::Sample(sample())),
        case("ledger/alarm", &DumpLine::Alarm(alarm())),
        case(
            "ridge/fitted",
            &KeyLine {
                app: "kmeans".into(),
                repo: "repo-a".into(),
                samples: vec![SampleRow {
                    data_nodes: 2,
                    compute_nodes: 4,
                    wan_bw: 40e6,
                    dataset_bytes: 1 << 28,
                    observed: [1.5, 6.7108864, 3.0000000000000004],
                }],
                coefs: Some([vec![0.1, -2.0e-9], vec![], vec![SUBNORMAL, 1e300, -0.0]]),
            },
        ),
        case(
            "ridge/unfitted",
            &KeyLine { app: "em".into(), repo: "repo-b".into(), samples: Vec::new(), coefs: None },
        ),
        case(
            "hybrid/key",
            &HybridKey {
                app: "knn".into(),
                repo: "repo-a".into(),
                factors: [1.0, 0.25, 3.9999999999999996],
                samples: 1234,
            },
        ),
    ]
}

#[test]
fn every_pinned_document_is_a_byte_fixpoint() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/wire_messages.jsonl");
    let cases = cases();
    if std::env::var_os("FG_BLESS").is_some() {
        let text: String = cases.iter().map(|c| format!("{}\n", c.line)).collect();
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("bless {path:?}: {e}"));
        return;
    }
    let pinned = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    let lines: Vec<&str> = pinned.lines().collect();
    assert_eq!(lines.len(), cases.len(), "one pinned line per case");
    for (case, line) in cases.iter().zip(lines) {
        let name = case.name;
        assert_eq!(case.line, line, "{name}: the encoding of the sample drifted");
        let recoded = (case.recode)(line).unwrap_or_else(|e| panic!("{name}: decode: {e}"));
        assert_eq!(recoded, line, "{name}: encode(decode(line)) must be the line");
        let back = (case.via_pretty)(line).unwrap_or_else(|e| panic!("{name}: pretty: {e}"));
        assert_eq!(back, line, "{name}: the pretty form must parse back to the same value");
    }
}
