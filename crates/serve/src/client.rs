//! The blocking client and the deterministic replay harness.
//!
//! The client speaks the full wire protocol — frames out, frames back
//! through its own poisoning [`FrameDecoder`] — so a round trip in a
//! test exercises exactly the bytes a remote client would see.
//! [`replay`] drives a whole workload through a connection and hands
//! back everything needed to prove the served run bit-identical to
//! driving [`fg_sched::Scheduler`] directly.

use crate::frame::{encode_frame, Frame, FrameDecoder, FrameKind, WireError};
use crate::msg::{
    decode_events, decode_metrics, decode_response, encode_request, encode_subscribe, DrainedRun,
    Request, Response, ServeMetrics, SubscribeMetrics,
};
use crate::server::{Server, WireConn};
use fg_sched::{CoreEvent, CoreStats, JobSpec, PredictionQuote, SubmitOutcome};
use std::fmt;

/// Why a client call failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// The byte stream from the server violated the framing layer.
    Wire(WireError),
    /// The server hung up before answering.
    Closed,
    /// The server answered, but with an error or a response of the
    /// wrong shape for the request.
    Server(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Closed => write!(f, "server closed the connection"),
            ClientError::Server(reason) => write!(f, "server error: {reason}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> ClientError {
        ClientError::Wire(e)
    }
}

/// A blocking protocol client over one connection. Streamed event
/// frames are collected as they arrive; drain them with
/// [`take_events`](ServeClient::take_events). After
/// [`subscribe_metrics`](ServeClient::subscribe_metrics), streamed
/// telemetry snapshots are collected the same way and drained with
/// [`take_metrics`](ServeClient::take_metrics).
#[derive(Debug)]
pub struct ServeClient {
    conn: WireConn,
    dec: FrameDecoder,
    next_seq: u32,
    events: Vec<CoreEvent>,
    metrics: Vec<ServeMetrics>,
}

impl ServeClient {
    /// Open a session against a running server.
    pub fn connect(server: &Server) -> ServeClient {
        ServeClient {
            conn: server.connect(),
            dec: FrameDecoder::new(),
            next_seq: 0,
            events: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Scheduling events streamed so far, in decision order.
    pub fn take_events(&mut self) -> Vec<CoreEvent> {
        std::mem::take(&mut self.events)
    }

    /// Telemetry snapshots streamed since the last call, in epoch
    /// order (empty without a subscription).
    pub fn take_metrics(&mut self) -> Vec<ServeMetrics> {
        std::mem::take(&mut self.metrics)
    }

    /// Decode inbound frames until `on_frame` yields a value, blocking
    /// on the connection whenever the decoder runs dry. Event frames
    /// are absorbed here; every other frame goes to `on_frame` with
    /// its stream ordinal and the metrics backlog to push into.
    fn pump<T>(
        &mut self,
        mut on_frame: impl FnMut(&mut Vec<ServeMetrics>, &Frame, u64) -> Result<Option<T>, ClientError>,
    ) -> Result<T, ClientError> {
        loop {
            while let Some(frame) = self.dec.next_frame()? {
                let ord = self.dec.frames() - 1;
                if frame.kind == FrameKind::Event {
                    self.events.extend(decode_events(&frame, ord)?.events);
                } else if let Some(out) = on_frame(&mut self.metrics, &frame, ord)? {
                    return Ok(out);
                }
            }
            let Some(chunk) = self.conn.recv() else {
                return Err(ClientError::Closed);
            };
            self.dec.push(&chunk);
        }
    }

    /// One request/response round trip, absorbing any event and
    /// metrics frames streamed ahead of the response.
    fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.conn.send(&encode_frame(FrameKind::Request, seq, &encode_request(req)));
        self.pump(|metrics, frame, ord| match frame.kind {
            FrameKind::Response => {
                let resp = server_said(frame, ord)?;
                if frame.seq != seq {
                    return Err(ClientError::Server(format!(
                        "response seq {} does not match request seq {seq}",
                        frame.seq
                    )));
                }
                Ok(Some(resp))
            }
            FrameKind::MetricsSnapshot => {
                metrics.push(decode_metrics(frame, ord)?);
                Ok(None)
            }
            _ => Err(client_only(frame)),
        })
    }

    /// Subscribe this session to streamed telemetry. The server acks
    /// with the latest published snapshot (returned here) and from
    /// then on pushes a [`ServeMetrics`] frame after any response it
    /// sends while the telemetry epoch has advanced — drain those with
    /// [`take_metrics`](ServeClient::take_metrics). Snapshots with
    /// epoch at or below `min_epoch` are suppressed.
    pub fn subscribe_metrics(&mut self, min_epoch: u64) -> Result<ServeMetrics, ClientError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let payload = encode_subscribe(&SubscribeMetrics { min_epoch });
        self.conn.send(&encode_frame(FrameKind::SubscribeMetrics, seq, &payload));
        self.pump(|metrics, frame, ord| match frame.kind {
            FrameKind::MetricsSnapshot => {
                let m = decode_metrics(frame, ord)?;
                if frame.seq == seq {
                    return Ok(Some(m));
                }
                metrics.push(m);
                Ok(None)
            }
            FrameKind::Response => {
                let resp = server_said(frame, ord)?;
                Err(ClientError::Server(format!(
                    "unexpected response {resp:?} to a metrics subscription"
                )))
            }
            _ => Err(client_only(frame)),
        })
    }

    /// Block until the next pushed telemetry snapshot arrives (event
    /// frames are absorbed along the way). Use after a drain, whose
    /// final plane is pushed *behind* the drain response: one call
    /// collects it deterministically.
    pub fn recv_metrics(&mut self) -> Result<ServeMetrics, ClientError> {
        self.pump(|_, frame, ord| match frame.kind {
            FrameKind::MetricsSnapshot => Ok(Some(decode_metrics(frame, ord)?)),
            other => Err(ClientError::Server(format!(
                "expected a metrics push, got {other:?} (seq {})",
                frame.seq
            ))),
        })
    }

    /// Submit a job; arrivals must be non-decreasing across the
    /// session, exactly as [`fg_sched::SchedCore::submit`] requires.
    pub fn submit(&mut self, job: JobSpec) -> Result<SubmitOutcome, ClientError> {
        match self.call(&Request::Submit { job })? {
            Response::Submitted { outcome } => Ok(outcome),
            Response::SubmitFailed { reason } => Err(ClientError::Server(reason)),
            other => Err(ClientError::Server(format!("unexpected response {other:?}"))),
        }
    }

    /// Ask for a prediction quote without submitting.
    pub fn quote(
        &mut self,
        app: &str,
        dataset_bytes: u64,
        deadline_slack: f64,
    ) -> Result<Option<PredictionQuote>, ClientError> {
        let req = Request::Quote { app: app.to_string(), dataset_bytes, deadline_slack };
        match self.call(&req)? {
            Response::Quoted { quote } => Ok(quote),
            other => Err(ClientError::Server(format!("unexpected response {other:?}"))),
        }
    }

    /// Live counters.
    pub fn stats(&mut self) -> Result<CoreStats, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats { stats } => Ok(stats),
            other => Err(ClientError::Server(format!("unexpected response {other:?}"))),
        }
    }

    /// Drain the session: run the scheduler to completion and fetch
    /// the flattened result. Ends the session's scheduling state.
    pub fn drain(&mut self) -> Result<DrainedRun, ClientError> {
        match self.call(&Request::Drain)? {
            Response::Drained { result } => Ok(result),
            other => Err(ClientError::Server(format!("unexpected response {other:?}"))),
        }
    }
}

/// Decode a response frame; a [`Response::Error`] is the server
/// refusing, whatever was asked.
fn server_said(frame: &Frame, ord: u64) -> Result<Response, ClientError> {
    match decode_response(frame, ord)? {
        Response::Error { reason } => Err(ClientError::Server(reason)),
        resp => Ok(resp),
    }
}

fn client_only(frame: &Frame) -> ClientError {
    ClientError::Server(format!(
        "server sent a client-only frame kind {:?} (seq {})",
        frame.kind, frame.seq
    ))
}

/// Everything a replayed session produced, for differential checks
/// against a direct [`fg_sched::Scheduler::run`].
#[derive(Debug)]
pub struct ServedRun {
    /// Per-submission outcomes, as acknowledged over the wire.
    pub submits: Vec<SubmitOutcome>,
    /// The drained run (outcomes, metrics, makespan, violations).
    pub drained: DrainedRun,
    /// Every scheduling event streamed during the session.
    pub events: Vec<CoreEvent>,
}

/// Replay a workload through the wire protocol: submit every job in
/// order, then drain. `quote_every` sprinkles a prediction query (for
/// the first job's app and size, slack 2) between submissions every so
/// many jobs — queries are answered from snapshots and must never
/// perturb the schedule, which the differential test relies on.
pub fn replay(
    server: &Server,
    jobs: &[JobSpec],
    quote_every: Option<usize>,
) -> Result<ServedRun, ClientError> {
    let mut client = ServeClient::connect(server);
    let mut submits = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        if let Some(k) = quote_every {
            if k > 0 && i % k == 0 {
                let probe = &jobs[0];
                client.quote(&probe.app, probe.dataset_bytes, 2.0)?;
            }
        }
        submits.push(client.submit(job.clone())?);
    }
    let drained = client.drain()?;
    let events = client.take_events();
    Ok(ServedRun { submits, drained, events })
}
