//! `fg-trace`: structured tracing and metrics for the FREERIDE-G
//! runtime.
//!
//! The prediction model in the paper is profile-driven: one instrumented
//! run yields the `(t_d, t_n, t_c, T_ro, T_g, r)` breakdown that
//! parameterizes every prediction. This crate records that breakdown as
//! a tree of [`Span`]s on the simulated clock — nested phases
//! (retrieval, network, cache, compute, gather, global reduce, recovery)
//! with per-node attribution — plus the run's [`Metrics`]: counters,
//! gauges, and fixed-bucket histograms, one plain value owned by
//! whoever records the run. Traces serialize losslessly to
//! JSON lines ([`to_jsonl`] / [`from_jsonl`]) and to Chrome
//! `trace_event` JSON ([`to_chrome_json`]) for chrome://tracing and
//! Perfetto.
//!
//! Timestamps are [`fg_sim::SimTime`] (integer nanoseconds), so
//! component sums over a trace are exact: summing a phase's spans
//! reproduces the corresponding `ExecutionReport` field bit-for-bit.

#![warn(missing_docs)]

pub mod export;
pub mod metrics;
pub mod span;
pub mod window;

pub use export::{chrome_tid, from_jsonl, to_chrome_json, to_jsonl};
pub use metrics::{Histogram, Metrics};
pub use span::{NodeRef, NodeRole, RunMeta, Span, SpanKind, Trace, Tracer};
pub use window::{SlidingHistogram, WindowSpec};
