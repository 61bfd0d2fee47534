//! Spans: where the virtual time of a run went.
//!
//! A span is a named interval on the simulation clock, optionally
//! attributed to one node of the deployment, nested under a parent span.
//! The executor emits one `Run` span per execution, one `Pass` span per
//! pass, one phase span per non-zero phase (retrieval, network, cache
//! I/O, compute, gather, global reduce, recovery components), and
//! per-node detail spans under the phases. Because timestamps are
//! integer-nanosecond [`SimTime`]s, phase durations recovered from a
//! trace equal the executor's own accounting bit for bit.

use crate::metrics::Metrics;
use fg_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Which side of the deployment a span is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum NodeRole {
    /// A repository (origin) data node.
    Data,
    /// A compute node.
    Compute,
    /// A non-local caching-site node.
    Cache,
    /// The master (compute node 0) acting in its master role.
    Master,
}

/// A node reference: role plus index within that role.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeRef {
    /// The node's role.
    pub role: NodeRole,
    /// Index within the role (data node 0..n, compute node 0..c, ...).
    pub index: usize,
}

impl NodeRef {
    /// A data-node reference.
    pub fn data(index: usize) -> NodeRef {
        NodeRef { role: NodeRole::Data, index }
    }
    /// A compute-node reference.
    pub fn compute(index: usize) -> NodeRef {
        NodeRef { role: NodeRole::Compute, index }
    }
    /// A caching-site-node reference.
    pub fn cache(index: usize) -> NodeRef {
        NodeRef { role: NodeRole::Cache, index }
    }
    /// The master node.
    pub fn master() -> NodeRef {
        NodeRef { role: NodeRole::Master, index: 0 }
    }
}

impl std::fmt::Display for NodeRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.role {
            NodeRole::Data => write!(f, "data-{}", self.index),
            NodeRole::Compute => write!(f, "compute-{}", self.index),
            NodeRole::Cache => write!(f, "cache-{}", self.index),
            NodeRole::Master => write!(f, "master"),
        }
    }
}

/// What a span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanKind {
    /// The whole execution.
    Run,
    /// One pass over the data.
    Pass,
    /// Crash-detection timeouts and backoff (recovery component).
    FaultDetection,
    /// Origin-repository retrieval makespan.
    Retrieval,
    /// Origin WAN transfer makespan.
    Network,
    /// Non-local caching-site disk makespan.
    CacheDisk,
    /// Non-local caching-site WAN makespan.
    CacheNetwork,
    /// Local-reduction makespan across compute nodes.
    Compute,
    /// Reduction-object gather at the master (`T_ro`).
    Gather,
    /// Global reduction at the master (`T_g`).
    GlobalReduce,
    /// Master re-execution of abandoned straggler chunks (recovery).
    StragglerRecovery,
    /// One data node reading its chunk share (child of `Retrieval` or
    /// `CacheDisk`).
    NodeRead,
    /// One sender→receiver WAN flow (child of `Network` or
    /// `CacheNetwork`).
    NodeTransfer,
    /// One compute node's local reduction (child of `Compute`).
    NodeCompute,
    /// One node's serialized object send (child of `Gather`).
    NodeSend,
    /// The master re-running one abandoned node's chunks (child of
    /// `StragglerRecovery`).
    NodeReexec,
    /// One scheduled job's lifetime, submission to completion (child of
    /// `Run` in a scheduler trace; parents `JobQueued` and phase spans).
    Job,
    /// Time a job spent queued before placement (child of `Job`).
    JobQueued,
    /// A running job evicted from the grid, waiting to resume (child of
    /// `Job` in a scheduler trace).
    Preempted,
    /// Snapshot of a job's reduction state taken before a preemption or
    /// a migration (child of `Job`; zero-length marker).
    Checkpoint,
    /// A running job moving its remaining work to another replica
    /// (child of `Job`; covers the checkpoint-transfer-restart window).
    Migrate,
}

impl SpanKind {
    /// Stable lowercase label (used by the exporters).
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Run => "run",
            SpanKind::Pass => "pass",
            SpanKind::FaultDetection => "fault-detection",
            SpanKind::Retrieval => "retrieval",
            SpanKind::Network => "network",
            SpanKind::CacheDisk => "cache-disk",
            SpanKind::CacheNetwork => "cache-network",
            SpanKind::Compute => "compute",
            SpanKind::Gather => "gather",
            SpanKind::GlobalReduce => "global-reduce",
            SpanKind::StragglerRecovery => "straggler-recovery",
            SpanKind::NodeRead => "node-read",
            SpanKind::NodeTransfer => "node-transfer",
            SpanKind::NodeCompute => "node-compute",
            SpanKind::NodeSend => "node-send",
            SpanKind::NodeReexec => "node-reexec",
            SpanKind::Job => "job",
            SpanKind::JobQueued => "job-queued",
            SpanKind::Preempted => "preempted",
            SpanKind::Checkpoint => "checkpoint",
            SpanKind::Migrate => "migrate",
        }
    }
}

/// One interval on the simulation clock.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Sequential id; equals the span's index in [`Trace::spans`].
    pub id: u64,
    /// Enclosing span, if any (the `Run` span has none).
    pub parent: Option<u64>,
    /// What the span measures.
    pub kind: SpanKind,
    /// Node attribution, if the interval belongs to one node.
    pub node: Option<NodeRef>,
    /// Start instant.
    pub start: SimTime,
    /// End instant (`>= start`).
    pub end: SimTime,
    /// Integer-valued attributes (chunk counts, byte counts, ...). A
    /// key a [`Tracer`] attached is the caller's literal, borrowed; only
    /// a parsed trace owns its keys.
    #[serde(default)]
    pub attrs: Vec<(Cow<'static, str>, u64)>,
}

impl Span {
    /// The span's length.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }

    /// Look up an integer attribute.
    pub fn attr(&self, key: &str) -> Option<u64> {
        self.attrs.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }
}

/// Run-level header mirrored from the execution report, so a trace is
/// self-describing (and a report can be rebuilt from it alone).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunMeta {
    /// Application name.
    pub app: String,
    /// Dataset identifier.
    pub dataset: String,
    /// Logical dataset size in bytes.
    pub dataset_bytes: u64,
    /// Data nodes used.
    pub data_nodes: usize,
    /// Compute nodes used.
    pub compute_nodes: usize,
    /// Per-data-node WAN bandwidth, bytes/sec.
    pub wan_bw: f64,
    /// Repository machine type name.
    pub repo_machine: String,
    /// Compute machine type name.
    pub compute_machine: String,
    /// Cache mode, as the middleware names it (`"Local"`, ...).
    pub cache_mode: String,
}

/// A completed trace: spans plus a metrics snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Run-level header, when the producer attached one.
    pub meta: Option<RunMeta>,
    /// All spans, in creation (= start-time) order, `spans[i].id == i`.
    pub spans: Vec<Span>,
    /// Counter/gauge/histogram values at the end of the run.
    #[serde(default)]
    pub metrics: Metrics,
}

impl Trace {
    /// The root (`Run`) span, if the trace has any spans.
    pub fn root(&self) -> Option<&Span> {
        self.spans.iter().find(|s| s.parent.is_none())
    }

    /// The `Pass` spans, in pass order.
    pub fn passes(&self) -> Vec<&Span> {
        self.spans.iter().filter(|s| s.kind == SpanKind::Pass).collect()
    }

    /// Direct children of span `id`, in creation order.
    pub fn children(&self, id: u64) -> Vec<&Span> {
        self.spans.iter().filter(|s| s.parent == Some(id)).collect()
    }

    /// Exact sum of the durations of every span of `kind`. Integer
    /// nanosecond arithmetic: for phase kinds this equals the
    /// corresponding `ExecutionReport` component sum bit for bit.
    pub fn component_sum(&self, kind: SpanKind) -> SimDuration {
        self.spans.iter().filter(|s| s.kind == kind).map(Span::duration).sum()
    }

    /// Structural validation: ids are positional, parents precede
    /// children and contain them, ends don't precede starts, and each
    /// node's spans start in non-decreasing order.
    pub fn check_well_formed(&self) -> Result<(), String> {
        let mut last_start_per_node: Vec<(NodeRef, SimTime)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.id != i as u64 {
                return Err(format!("span {} stored at index {i}", s.id));
            }
            if s.end < s.start {
                return Err(format!("span {} ends before it starts", s.id));
            }
            if let Some(p) = s.parent {
                if p >= s.id {
                    return Err(format!("span {} has non-preceding parent {p}", s.id));
                }
                let parent = &self.spans[p as usize];
                if s.start < parent.start || s.end > parent.end {
                    return Err(format!(
                        "span {} [{}, {}] escapes parent {p} [{}, {}]",
                        s.id, s.start, s.end, parent.start, parent.end
                    ));
                }
            }
            if let Some(node) = s.node {
                match last_start_per_node.iter_mut().find(|(n, _)| *n == node) {
                    Some((_, last)) => {
                        if s.start < *last {
                            return Err(format!(
                                "span {} starts at {} before node's previous span at {}",
                                s.id, s.start, last
                            ));
                        }
                        *last = s.start;
                    }
                    None => last_start_per_node.push((node, s.start)),
                }
            }
        }
        Ok(())
    }
}

/// Builds a [`Trace`] while a run executes. `begin`/`end` maintain a
/// stack of open spans; `record` emits an already-closed child of the
/// innermost open span.
#[derive(Default)]
pub struct Tracer {
    spans: Vec<Span>,
    stack: Vec<u64>,
    /// Counters, gauges and histograms recorded alongside the spans.
    pub metrics: Metrics,
}

impl Tracer {
    /// A fresh tracer with no spans and empty metrics.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Open a span starting at `start`; it becomes the parent of
    /// subsequent spans until [`Tracer::end`] closes it.
    pub fn begin(&mut self, kind: SpanKind, node: Option<NodeRef>, start: SimTime) -> u64 {
        let id = self.spans.len() as u64;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            kind,
            node,
            start,
            end: start,
            attrs: Vec::new(),
        });
        self.stack.push(id);
        id
    }

    /// Close the innermost open span (must be `id`) at `end`.
    pub fn end(&mut self, id: u64, end: SimTime) {
        assert_eq!(self.stack.pop(), Some(id), "span end out of order");
        let span = &mut self.spans[id as usize];
        assert!(end >= span.start, "span {} would end before it starts", id);
        span.end = end;
    }

    /// Emit a closed span `[start, end]` as a child of the innermost
    /// open span.
    pub fn record(
        &mut self,
        kind: SpanKind,
        node: Option<NodeRef>,
        start: SimTime,
        end: SimTime,
    ) -> u64 {
        assert!(end >= start, "recorded span ends before it starts");
        let id = self.spans.len() as u64;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            kind,
            node,
            start,
            end,
            attrs: Vec::new(),
        });
        id
    }

    /// Attach an integer attribute to span `id`.
    pub fn attr(&mut self, id: u64, key: &'static str, value: u64) {
        self.spans[id as usize].attrs.push((Cow::Borrowed(key), value));
    }

    /// Make room for `spans` more spans, for a producer that knows how
    /// many it is about to emit.
    pub fn reserve(&mut self, spans: usize) {
        self.spans.reserve_exact(spans);
    }

    /// Make room for exactly `attrs` more attributes on span `id`.
    pub fn reserve_attrs(&mut self, id: u64, attrs: usize) {
        self.spans[id as usize].attrs.reserve_exact(attrs);
    }

    /// Finish the trace. Panics if any span is still open.
    pub fn finish(self, meta: Option<RunMeta>) -> Trace {
        assert!(self.stack.is_empty(), "{} span(s) left open", self.stack.len());
        Trace { meta, spans: self.spans, metrics: self.metrics }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn nested_spans_build_a_tree() {
        let mut tr = Tracer::new();
        let run = tr.begin(SpanKind::Run, None, t(0));
        let pass = tr.begin(SpanKind::Pass, None, t(0));
        let read = tr.record(SpanKind::NodeRead, Some(NodeRef::data(1)), t(0), t(5));
        tr.attr(read, "chunks", 3);
        tr.end(pass, t(10));
        tr.end(run, t(10));
        let trace = tr.finish(None);
        trace.check_well_formed().unwrap();
        assert_eq!(trace.root().unwrap().kind, SpanKind::Run);
        assert_eq!(trace.passes().len(), 1);
        assert_eq!(trace.children(pass).len(), 1);
        assert_eq!(trace.spans[read as usize].attr("chunks"), Some(3));
        assert_eq!(trace.spans[read as usize].parent, Some(pass));
    }

    #[test]
    fn component_sum_is_exact() {
        let mut tr = Tracer::new();
        let run = tr.begin(SpanKind::Run, None, t(0));
        tr.record(SpanKind::Retrieval, None, t(0), t(7));
        tr.record(SpanKind::Retrieval, None, t(7), t(10));
        tr.end(run, t(10));
        let trace = tr.finish(None);
        assert_eq!(trace.component_sum(SpanKind::Retrieval), SimDuration::from_nanos(10));
        assert_eq!(trace.component_sum(SpanKind::Network), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "span end out of order")]
    fn mismatched_end_panics() {
        let mut tr = Tracer::new();
        let a = tr.begin(SpanKind::Run, None, t(0));
        let _b = tr.begin(SpanKind::Pass, None, t(0));
        tr.end(a, t(5));
    }

    #[test]
    #[should_panic(expected = "left open")]
    fn open_span_fails_finish() {
        let mut tr = Tracer::new();
        tr.begin(SpanKind::Run, None, t(0));
        tr.finish(None);
    }

    #[test]
    fn well_formedness_catches_escaping_children() {
        let mut tr = Tracer::new();
        let run = tr.begin(SpanKind::Run, None, t(5));
        tr.record(SpanKind::Pass, None, t(5), t(9));
        tr.end(run, t(9));
        let mut trace = tr.finish(None);
        trace.check_well_formed().unwrap();
        trace.spans[1].end = t(11); // past the parent's end
        assert!(trace.check_well_formed().unwrap_err().contains("escapes parent"));
    }

    #[test]
    fn well_formedness_catches_per_node_regression() {
        let mut tr = Tracer::new();
        let run = tr.begin(SpanKind::Run, None, t(0));
        tr.record(SpanKind::NodeRead, Some(NodeRef::data(0)), t(6), t(8));
        tr.record(SpanKind::NodeRead, Some(NodeRef::data(0)), t(2), t(8));
        tr.end(run, t(8));
        let trace = tr.finish(None);
        assert!(trace.check_well_formed().unwrap_err().contains("before node's previous"));
    }
}
