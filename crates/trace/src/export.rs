//! Trace exporters: JSON-lines (lossless, parse-back equals the
//! in-memory trace) and Chrome `trace_event` (for chrome://tracing and
//! Perfetto).

use crate::metrics::Metrics;
use crate::span::{NodeRef, NodeRole, RunMeta, Span, Trace};
use serde::{Deserialize, Value, Writer};
use serde_json::jsonl;

/// One line of the JSON-lines format, externally tagged by record type:
/// what [`from_jsonl`] reads a line into ([`to_jsonl`] writes the same
/// tags around borrowed payloads).
#[derive(Debug, Clone, PartialEq, Deserialize)]
enum Record {
    /// The run header.
    Meta(RunMeta),
    /// One span.
    Span(Span),
    /// The final metrics snapshot.
    Metrics(Metrics),
}

/// Serialize a trace as JSON lines: the meta record (if any), every span
/// in id order, then the metrics snapshot (if non-empty). Timestamps are
/// integer nanoseconds and floats print shortest-roundtrip, so
/// [`from_jsonl`] reconstructs the trace exactly.
pub fn to_jsonl(trace: &Trace) -> String {
    let mut out = Writer::new();
    if let Some(meta) = &trace.meta {
        jsonl::tagged(&mut out, "Meta", meta);
    }
    for span in &trace.spans {
        jsonl::tagged(&mut out, "Span", span);
    }
    if trace.metrics != Metrics::default() {
        jsonl::tagged(&mut out, "Metrics", &trace.metrics);
    }
    out.into_string()
}

/// Parse a JSON-lines trace back into memory. Inverse of [`to_jsonl`].
/// A span the exporters could not index — an id that is not its
/// position, a parent that does not precede it — and a metrics record
/// no recorder could have written (see [`Metrics::check`], which its
/// decoder runs) are refused by line.
pub fn from_jsonl(text: &str) -> Result<Trace, jsonl::Error> {
    let mut trace = Trace { meta: None, spans: Vec::new(), metrics: Default::default() };
    for (n, line) in jsonl::headerless("fg-trace", text)? {
        match jsonl::parse(n, line)? {
            Record::Meta(meta) => trace.meta = Some(meta),
            Record::Span(span) => {
                let (at, id, parent) = (trace.spans.len() as u64, span.id, span.parent);
                if id != at || parent.is_some_and(|p| p >= at) {
                    let why =
                        format!("span {id} (parent {parent:?}): not span {at} after its parent");
                    return Err(jsonl::Error::at(n, why));
                }
                trace.spans.push(span);
            }
            Record::Metrics(metrics) => trace.metrics = metrics,
        }
    }
    Ok(trace)
}

/// The `tid` a node's events appear under in the Chrome export. Role
/// blocks of 100 keep every node on its own named track.
pub fn chrome_tid(node: Option<NodeRef>) -> u64 {
    match node {
        None => 0,
        Some(NodeRef { role: NodeRole::Data, index }) => 100 + index as u64,
        Some(NodeRef { role: NodeRole::Compute, index }) => 200 + index as u64,
        Some(NodeRef { role: NodeRole::Cache, index }) => 300 + index as u64,
        Some(NodeRef { role: NodeRole::Master, .. }) => 400,
    }
}

fn chrome_track_name(node: Option<NodeRef>) -> String {
    match node {
        None => "phases".to_string(),
        Some(n) => n.to_string(),
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn event(ph: &str, name: &str, ts_us: f64, tid: u64) -> Value {
    obj(vec![
        ("name", Value::Str(name.to_string())),
        ("cat", Value::Str("freeride-g".to_string())),
        ("ph", Value::Str(ph.to_string())),
        ("ts", Value::Float(ts_us)),
        ("pid", Value::UInt(0)),
        ("tid", Value::UInt(tid)),
    ])
}

/// Export the trace in Chrome `trace_event` JSON format (load in
/// chrome://tracing or <https://ui.perfetto.dev>). Spans become matched
/// `B`/`E` duration-event pairs, emitted depth-first so each track's
/// events nest; per-node spans land on per-node named tracks.
pub fn to_chrome_json(trace: &Trace) -> String {
    let mut events: Vec<Value> = Vec::new();

    // Named tracks for every tid that appears.
    let mut named: Vec<u64> = Vec::new();
    for span in &trace.spans {
        let tid = chrome_tid(span.node);
        if !named.contains(&tid) {
            named.push(tid);
            events.push(obj(vec![
                ("name", Value::Str("thread_name".to_string())),
                ("ph", Value::Str("M".to_string())),
                ("pid", Value::UInt(0)),
                ("tid", Value::UInt(tid)),
                ("args", obj(vec![("name", Value::Str(chrome_track_name(span.node)))])),
            ]));
        }
    }

    // Depth-first emission keeps B/E pairs properly nested per track.
    let mut children: Vec<Vec<&Span>> = vec![Vec::new(); trace.spans.len()];
    let mut roots: Vec<&Span> = Vec::new();
    for span in &trace.spans {
        match span.parent {
            Some(p) => children[p as usize].push(span),
            None => roots.push(span),
        }
    }
    fn emit(span: &Span, children: &[Vec<&Span>], events: &mut Vec<Value>) {
        let tid = chrome_tid(span.node);
        let name = span.kind.label();
        let mut begin = event("B", name, span.start.as_nanos() as f64 / 1e3, tid);
        if !span.attrs.is_empty() {
            if let Value::Object(fields) = &mut begin {
                fields.push((
                    "args".to_string(),
                    Value::Object(
                        span.attrs.iter().map(|(k, v)| (k.to_string(), Value::UInt(*v))).collect(),
                    ),
                ));
            }
        }
        events.push(begin);
        for child in &children[span.id as usize] {
            emit(child, children, events);
        }
        events.push(event("E", name, span.end.as_nanos() as f64 / 1e3, tid));
    }
    for root in roots {
        emit(root, &children, &mut events);
    }

    let mut doc = vec![
        ("traceEvents".to_string(), Value::Array(events)),
        ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
    ];
    if let Some(meta) = &trace.meta {
        doc.push(("otherData".to_string(), serde_json::to_value(meta).expect("meta is JSON")));
    }
    serde_json::to_string(&Value::Object(doc)).expect("serialize chrome trace")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanKind, Tracer};
    use fg_sim::SimTime;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn sample() -> Trace {
        let mut tr = Tracer::new();
        tr.metrics.add("passes", 1);
        tr.metrics.set("wan_bw", 1.25e6);
        tr.metrics.observe("pass_seconds", &[1.0, 10.0], 2.5);
        let run = tr.begin(SpanKind::Run, None, t(0));
        let pass = tr.begin(SpanKind::Pass, None, t(0));
        let read = tr.record(SpanKind::NodeRead, Some(NodeRef::data(1)), t(0), t(500));
        tr.attr(read, "bytes", 4096);
        tr.record(SpanKind::Compute, None, t(500), t(900));
        tr.end(pass, t(1000));
        tr.end(run, t(1000));
        tr.finish(Some(RunMeta {
            app: "kmeans".into(),
            dataset: "d".into(),
            dataset_bytes: 4096,
            data_nodes: 2,
            compute_nodes: 4,
            wan_bw: 1.25e6,
            repo_machine: "pentium-700".into(),
            compute_machine: "pentium-700".into(),
            cache_mode: "Local".into(),
        }))
    }

    #[test]
    fn jsonl_roundtrip_is_exact() {
        use std::borrow::Cow;
        let trace = sample();
        let text = to_jsonl(&trace);
        let back = from_jsonl(&text).unwrap();
        assert_eq!(back, trace);
        // Equal, though a tracer's attribute keys are the callers'
        // literals and a parsed trace owns its own.
        let key = |t: &Trace| t.spans.iter().find_map(|s| s.attrs.first()).unwrap().0.clone();
        assert!(matches!(key(&trace), Cow::Borrowed("bytes")));
        assert!(matches!(key(&back), Cow::Owned(k) if k == "bytes"));
        assert_eq!(to_jsonl(&back), text);
    }

    #[test]
    fn jsonl_roundtrip_without_meta_or_metrics() {
        let mut tr = Tracer::new();
        let run = tr.begin(SpanKind::Run, None, t(3));
        tr.end(run, t(9));
        let trace = tr.finish(None);
        let back = from_jsonl(&to_jsonl(&trace)).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn jsonl_rejects_garbage() {
        assert!(from_jsonl("{\"nope\": 1}\n").is_err());
        assert!(from_jsonl("not json").is_err());
    }

    #[test]
    fn jsonl_refuses_metrics_no_recorder_could_write() {
        use crate::metrics::{Histogram, Metrics};
        let counters = |names: &[&str]| Metrics {
            counters: names.iter().map(|&n| (n.to_string(), 1)).collect(),
            ..Metrics::default()
        };
        let hist = |name: &str, bounds: &[f64], counts: usize| Histogram {
            name: name.into(),
            bounds: bounds.to_vec(),
            counts: vec![0; counts],
            sum: 0.0,
        };
        let histograms = |histograms| Metrics { histograms, ..Metrics::default() };
        let bad = [
            counters(&["z", "a"]),
            counters(&["a", "a"]),
            Metrics { gauges: vec![("b".into(), 1.0), ("a".into(), 2.0)], ..Metrics::default() },
            histograms(vec![hist("h", &[1.0], 2), hist("h", &[1.0], 2)]),
            histograms(vec![hist("h", &[2.0, 1.0], 3)]),
            histograms(vec![hist("h", &[1.0, 1.0], 3)]),
            histograms(vec![hist("h", &[1.0, f64::INFINITY], 3)]),
            histograms(vec![hist("h", &[1.0, 2.0], 1)]),
        ];
        for metrics in bad {
            let mut trace = sample();
            trace.metrics = metrics;
            let text = to_jsonl(&trace);
            let err = from_jsonl(&text).expect_err(&text);
            assert_eq!(err.line, Some(text.lines().count()), "{}", err.reason);
        }
    }

    #[test]
    fn chrome_export_has_matched_begin_end_pairs() {
        let json = to_chrome_json(&sample());
        let doc = serde_json::value_from_str(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        // Walk in file order, one stack per tid: every E must close the
        // innermost B of its track.
        let mut stacks: Vec<(u64, Vec<String>)> = Vec::new();
        for ev in events {
            let ph = match ev.get("ph").unwrap() {
                Value::Str(s) => s.clone(),
                other => panic!("ph not a string: {other:?}"),
            };
            if ph == "M" {
                continue;
            }
            let tid = match ev.get("tid").unwrap() {
                Value::UInt(u) => *u,
                other => panic!("tid not an integer: {other:?}"),
            };
            let name = match ev.get("name").unwrap() {
                Value::Str(s) => s.clone(),
                other => panic!("name not a string: {other:?}"),
            };
            let stack = match stacks.iter_mut().find(|(t, _)| *t == tid) {
                Some((_, s)) => s,
                None => {
                    stacks.push((tid, Vec::new()));
                    &mut stacks.last_mut().unwrap().1
                }
            };
            match ph.as_str() {
                "B" => stack.push(name),
                "E" => assert_eq!(stack.pop().as_deref(), Some(name.as_str()), "unmatched E"),
                other => panic!("unexpected phase {other}"),
            }
        }
        for (tid, stack) in &stacks {
            assert!(stack.is_empty(), "unclosed B events on tid {tid}: {stack:?}");
        }
    }

    #[test]
    fn chrome_export_names_node_tracks() {
        let json = to_chrome_json(&sample());
        assert!(json.contains("\"data-1\""));
        assert!(json.contains("\"phases\""));
        assert!(json.contains("\"displayTimeUnit\""));
        // Attributes ride along as args on the B event.
        assert!(json.contains("\"bytes\""));
    }

    #[test]
    fn chrome_tids_are_disjoint_by_role() {
        assert_eq!(chrome_tid(None), 0);
        assert_ne!(chrome_tid(Some(NodeRef::data(3))), chrome_tid(Some(NodeRef::compute(3))));
        assert_ne!(chrome_tid(Some(NodeRef::compute(0))), chrome_tid(Some(NodeRef::master())));
    }
}
