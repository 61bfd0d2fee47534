//! # fg-serve — the prediction-and-placement service
//!
//! The scheduler's decision core ([`fg_sched::SchedCore`]) answers
//! three questions: *may this job enter?* (admission), *where should
//! it run?* (placement), and *when will it finish?* (prediction). This
//! crate puts those answers behind a long-running multi-tenant
//! service:
//!
//! * [`frame`] — the versioned, length-prefixed, checksummed wire
//!   format, with an incremental decoder that reports corruption as a
//!   typed error naming the exact byte offset and frame ordinal, then
//!   poisons itself instead of resynchronising on a guess.
//! * [`msg`] — the typed request/response/event vocabulary, carried as
//!   canonical JSON payloads so encode→frame→decode is an identity.
//! * [`engine`] — the sans-IO session state machine over the decision
//!   core; tests drive it directly, the server drives it on a thread.
//! * [`server`] — the threaded service, two thread roles: one core
//!   thread serialising writes (the decision core is intentionally not
//!   `Send`) and publishing an `Arc`'d [`fg_sched::SchedSnapshot`]
//!   after each, and a session thread per connection that answers
//!   quotes and stats itself from the published snapshot — the read
//!   guard is held for one refcount bump — and streams scheduling
//!   events ahead of each write's response. There is no query pool:
//!   sessions are closed-loop threads already, so one added no
//!   parallelism and cost half the handoff time of a quote.
//! * [`recorder`] — the flight recorder: a bounded ring of recent
//!   decision events that cuts a self-contained JSONL
//!   [`recorder::IncidentBundle`] (reason, stats, last-N events,
//!   accuracy-ledger tail, standing alarms) when a drift alarm fires,
//!   a tenant SLO breaches, or a session's decoder is poisoned.
//! * [`client`] — the blocking client and the [`client::replay`]
//!   harness that pushes a whole trace-shaped workload through the
//!   wire and returns everything needed to prove the served schedule
//!   **bit-identical** to driving [`fg_sched::Scheduler`] directly
//!   (`tests/serve_differential.rs` at the workspace root pins this
//!   across every workload shape).
//!
//! Determinism: submissions are totally ordered by the single core
//! thread, the incremental event loop parks *before* each scheduling
//! pass so equal-arrival submissions join the same arrival batch the
//! batch loop would form, and reads never touch the core — so the
//! wire protocol adds concurrency without adding nondeterminism.

#![warn(missing_docs)]

pub mod client;
pub mod engine;
pub mod frame;
pub mod msg;
pub mod recorder;
pub mod server;

pub use client::{replay, ClientError, ServeClient, ServedRun};
pub use engine::ServerEngine;
pub use frame::{Frame, FrameDecoder, FrameKind, WireError};
pub use msg::{DrainedRun, EventBatch, Request, Response, ServeMetrics, SubscribeMetrics};
pub use recorder::{
    FlightRecorder, IncidentBundle, IncidentReason, RecordedEvent, INCIDENT_VERSION, LEDGER_TAIL,
    RING_CAPACITY, SLO_MAX_VIOLATION_RATE, SLO_MIN_COMPLETED,
};
pub use server::{Server, WireConn};
