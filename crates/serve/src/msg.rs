//! The message layer: typed requests, responses, and streamed event
//! batches, carried as externally-tagged JSON inside [`frame`] frames.
//!
//! Encoding is canonical — `serde_json`'s field order follows the
//! struct declaration and floats print in shortest-round-trip form —
//! so encode→frame→decode is an identity on every variant
//! (`tests/protocol.rs` pins this by property).
//!
//! [`frame`]: crate::frame

use crate::frame::{Frame, FrameKind, WireError};
use fg_sched::JobSpec;
use fg_sched::{
    CoreEvent, CoreStats, JobOutcome, PredictionQuote, SchedResult, SubmitOutcome,
    TelemetrySnapshot,
};
use fg_trace::Metrics;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A client-to-server request (frame kind 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Submit a job to the live scheduler; arrivals must be
    /// non-decreasing in `(arrival, id)` order across the session.
    Submit {
        /// The job, in the same shape the workload generator emits.
        job: JobSpec,
    },
    /// Ask what admission estimate a hypothetical job would receive
    /// right now, without submitting anything. Answered by the
    /// session thread from the published snapshot — never by the core
    /// thread.
    Quote {
        /// Application name from the grid's menu.
        app: String,
        /// Dataset size in bytes.
        dataset_bytes: u64,
        /// Deadline slack multiplier (deadline = now + slack × standalone).
        deadline_slack: f64,
    },
    /// Ask for the live counters. Also answered from the snapshot.
    Stats,
    /// Run the event loop to completion and return the full result;
    /// terminates the session's scheduling state.
    Drain,
}

/// A server-to-client reply (frame kind 2), echoing the request's
/// sequence number.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// The submission was processed (admitted or rejected by policy —
    /// see [`SubmitOutcome::admitted`]).
    Submitted {
        /// What the scheduler decided at submission.
        outcome: SubmitOutcome,
    },
    /// The submission was invalid (duplicate id, out-of-order arrival,
    /// non-finite arrival) and did not enter the machine.
    SubmitFailed {
        /// The [`fg_sched::SubmitError`], rendered.
        reason: String,
    },
    /// The quoted prediction; `None` when the app is unknown or
    /// nothing places even on an empty grid.
    Quoted {
        /// The quote.
        quote: Option<PredictionQuote>,
    },
    /// The live counters.
    Stats {
        /// The counters.
        stats: CoreStats,
    },
    /// The drained run.
    Drained {
        /// The run's rows and metrics.
        result: DrainedRun,
    },
    /// The request could not be served (e.g. it arrived after drain).
    Error {
        /// What went wrong.
        reason: String,
    },
}

/// A batch of scheduling events streamed ahead of a response (frame
/// kind 3). Event frames carry their own sequence counter, independent
/// of the request/response numbering.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventBatch {
    /// The events, in decision order.
    pub events: Vec<CoreEvent>,
}

/// A metrics subscription (frame kind 4): ask the server to push a
/// [`ServeMetrics`] snapshot whenever the telemetry plane has changed
/// since the last one this session saw.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubscribeMetrics {
    /// Suppress snapshots whose epoch is at or below this value
    /// (0 subscribes from the beginning). Lets a reconnecting client
    /// skip the state it already drained.
    pub min_epoch: u64,
}

/// A telemetry snapshot on the wire (frame kind 5): the live counters
/// plus the full telemetry plane — per-tenant SLO gauges (deadline
/// violation rate, mean quote error, windowed queue-wait P99),
/// per-key drift statistics, and every alarm raised so far.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeMetrics {
    /// The telemetry change counter at snapshot time; a subscriber
    /// sees strictly increasing epochs.
    pub epoch: u64,
    /// The core's coarse progress counters.
    pub stats: CoreStats,
    /// The telemetry plane.
    pub telemetry: TelemetrySnapshot,
}

/// The result of a drained run, flattened for the wire: the job table,
/// the run's metrics, its makespan and its violations. The span tree
/// does not travel: it is a pure function of the rows, the metrics and
/// the makespan, which is exactly what [`fg_sched::SchedTrace`] builds
/// it from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DrainedRun {
    /// One outcome per submitted job, in submission-id order.
    pub outcomes: Vec<JobOutcome>,
    /// The run's metrics snapshot (queue depth, admission counters,
    /// wait and slowdown histograms). A record no recorder could have
    /// written fails to decode.
    pub metrics: Metrics,
    /// Last completion instant.
    pub makespan: f64,
    /// Invariant violations detected during the run.
    pub violations: Vec<String>,
}

impl DrainedRun {
    /// Flatten a [`SchedResult`] for the wire, consuming it: the
    /// outcomes move instead of being copied, and no span tree is
    /// built.
    pub fn from_result(r: SchedResult) -> DrainedRun {
        // The trace shares the job table: once it gives up its metrics
        // the table moves out of its `Arc` (it is copied only if a
        // caller kept another handle on it).
        let metrics = r.trace.into_metrics();
        DrainedRun {
            outcomes: Arc::unwrap_or_clone(r.outcomes),
            metrics,
            makespan: r.makespan,
            violations: r.violations,
        }
    }
}

fn decode_payload<T: Deserialize>(frame: &Frame, ord: u64, what: &str) -> Result<T, WireError> {
    let text = std::str::from_utf8(&frame.payload).map_err(|e| WireError::BadPayload {
        frame: ord,
        seq: frame.seq,
        reason: format!("{what}: payload is not UTF-8: {e}"),
    })?;
    serde_json::from_str(text).map_err(|e| WireError::BadPayload {
        frame: ord,
        seq: frame.seq,
        reason: format!("{what}: {e}"),
    })
}

fn expect_kind(frame: &Frame, ord: u64, kind: FrameKind, what: &str) -> Result<(), WireError> {
    if frame.kind != kind {
        return Err(WireError::BadPayload {
            frame: ord,
            seq: frame.seq,
            reason: format!("{what}: unexpected frame kind {:?}", frame.kind),
        });
    }
    Ok(())
}

/// Serialize a request payload (the JSON document, unframed).
pub fn encode_request(req: &Request) -> Vec<u8> {
    serde_json::to_string(req).expect("request serialization is infallible").into_bytes()
}

/// Parse a request out of a decoded frame; `ord` is the frame's
/// 0-based ordinal in the stream, for error attribution.
pub fn decode_request(frame: &Frame, ord: u64) -> Result<Request, WireError> {
    expect_kind(frame, ord, FrameKind::Request, "request")?;
    decode_payload(frame, ord, "request")
}

/// Serialize a response payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    serde_json::to_string(resp).expect("response serialization is infallible").into_bytes()
}

/// Parse a response out of a decoded frame; `ord` as in
/// [`decode_request`].
pub fn decode_response(frame: &Frame, ord: u64) -> Result<Response, WireError> {
    expect_kind(frame, ord, FrameKind::Response, "response")?;
    decode_payload(frame, ord, "response")
}

/// Serialize an event batch payload.
pub fn encode_events(batch: &EventBatch) -> Vec<u8> {
    serde_json::to_string(batch).expect("event serialization is infallible").into_bytes()
}

/// Parse an event batch out of a decoded frame; `ord` as in
/// [`decode_request`].
pub fn decode_events(frame: &Frame, ord: u64) -> Result<EventBatch, WireError> {
    expect_kind(frame, ord, FrameKind::Event, "event batch")?;
    decode_payload(frame, ord, "event batch")
}

/// Serialize a metrics-subscription payload.
pub fn encode_subscribe(sub: &SubscribeMetrics) -> Vec<u8> {
    serde_json::to_string(sub).expect("subscription serialization is infallible").into_bytes()
}

/// Parse a metrics subscription out of a decoded frame; `ord` as in
/// [`decode_request`].
pub fn decode_subscribe(frame: &Frame, ord: u64) -> Result<SubscribeMetrics, WireError> {
    expect_kind(frame, ord, FrameKind::SubscribeMetrics, "metrics subscription")?;
    decode_payload(frame, ord, "metrics subscription")
}

/// Serialize a metrics-snapshot payload.
pub fn encode_metrics(m: &ServeMetrics) -> Vec<u8> {
    serde_json::to_string(m).expect("metrics serialization is infallible").into_bytes()
}

/// Parse a metrics snapshot out of a decoded frame; `ord` as in
/// [`decode_request`].
pub fn decode_metrics(frame: &Frame, ord: u64) -> Result<ServeMetrics, WireError> {
    expect_kind(frame, ord, FrameKind::MetricsSnapshot, "metrics snapshot")?;
    decode_payload(frame, ord, "metrics snapshot")
}
