//! The benchmark's span recorder.
//!
//! One span per call into a layer's public function: name, start,
//! end, the span that was open when it started, and the op it belongs
//! to. Spans stay in memory and are written out once, when the run
//! ends. A layer's *self time* is its span minus the part its child
//! spans cover.
//!
//! The op loops are generic over [`Tracer`]: [`Off`] compiles to the
//! bare calls (that is the timed phase), [`Recorder`] is the traced
//! pass.

use std::fmt::Write as _;
use std::time::Instant;

/// What an op loop calls at every layer boundary.
pub trait Tracer {
    /// Open a span; the returned handle closes it.
    fn enter(&mut self, name: &'static str) -> usize;
    /// Close the span `enter` returned.
    fn exit(&mut self, span: usize);
    /// Spans opened from now on belong to op `op`.
    fn set_op(&mut self, op: u64);

    /// Run `f` inside a span.
    #[inline(always)]
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let s = self.enter(name);
        let r = f();
        self.exit(s);
        r
    }
}

/// Tracing off: every call is a no-op the optimiser removes.
pub struct Off;

impl Tracer for Off {
    #[inline(always)]
    fn enter(&mut self, _: &'static str) -> usize {
        0
    }
    #[inline(always)]
    fn exit(&mut self, _: usize) {}
    #[inline(always)]
    fn set_op(&mut self, _: u64) {}
}

const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    op: u64,
}

/// Tracing on: spans of one chain of calls, in start order.
pub struct Recorder {
    chain: &'static str,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
}

impl Recorder {
    pub fn new(chain: &'static str) -> Recorder {
        Recorder { chain, t0: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    /// The recorder's time origin, for code that must stamp spans on
    /// another thread of control (see [`Recorder::adopt`]).
    pub fn origin(&self) -> Instant {
        self.t0
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Insert spans that were stamped elsewhere against
    /// [`origin`](Recorder::origin) — calls the program under test
    /// made *back* into benchmark code (a predictor wrapper) while one
    /// of this recorder's spans was open. Each becomes a child of the
    /// latest-started recorded span that contains it.
    pub fn adopt(&mut self, name: &'static str, stamps: &[(u64, u64)]) {
        let recorded = self.spans.len();
        for &(start_ns, end_ns) in stamps {
            let before = self.spans[..recorded].partition_point(|s| s.start_ns <= start_ns);
            let parent = self.spans[..before].iter().rposition(|s| s.end_ns >= end_ns);
            let (parent, op) = match parent {
                Some(p) => (p as u32, self.spans[p].op),
                None => (NO_PARENT, 0),
            };
            self.spans.push(Span { name, start_ns, end_ns, parent, op });
        }
    }

    /// Self time of every span, indexed like the spans.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = s.parent as usize;
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Sorted self times (ns) of the spans called `name`.
    fn self_times(&self, name: &str) -> Vec<f64> {
        let own = self.self_ns();
        let mut v: Vec<f64> = self
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &ns)| ns as f64)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Quantile `q` of the self time (ns) of the spans called `name`;
    /// 0 when there is none.
    pub fn self_quantile_ns(&self, name: &str, q: f64) -> f64 {
        crate::measure::quantile_sorted(&self.self_times(name), q)
    }

    /// Median self time (ns) of the spans called `name`.
    pub fn p50_ns(&self, name: &str) -> f64 {
        self.self_quantile_ns(name, 0.5)
    }

    /// Median, over ops, of the summed self time (ns) the op spent in
    /// spans whose name is in `names`. Ops without such a span are
    /// left out.
    pub fn p50_per_op_ns(&self, names: &[&str]) -> f64 {
        let own = self.self_ns();
        let mut per_op: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
        for (s, &ns) in self.spans.iter().zip(&own) {
            if names.contains(&s.name) {
                *per_op.entry(s.op).or_default() += ns as f64;
            }
        }
        let mut v: Vec<f64> = per_op.into_values().collect();
        v.sort_by(f64::total_cmp);
        crate::measure::quantile_sorted(&v, 0.5)
    }

    /// Append the spans as JSON lines:
    /// `{"chain","id","parent","op","name","start_ns","end_ns"}`,
    /// `parent` null for a top-level span.
    pub fn write_jsonl(&self, out: &mut String) {
        for (id, s) in self.spans.iter().enumerate() {
            let parent =
                if s.parent == NO_PARENT { "null".to_string() } else { s.parent.to_string() };
            let _ = writeln!(
                out,
                "{{\"chain\":\"{}\",\"id\":{id},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                self.chain, s.op, s.name, s.start_ns, s.end_ns
            );
        }
    }
}

impl Tracer for Recorder {
    fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(id as u32);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op: self.op });
        id
    }

    fn exit(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
        let closed = self.open.pop();
        debug_assert_eq!(closed, Some(span as u32), "spans close in LIFO order");
    }

    fn set_op(&mut self, op: u64) {
        self.op = op;
    }
}
