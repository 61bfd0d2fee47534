//! The threaded server: one core thread owning the decision state and
//! one session thread per connection, speaking the wire protocol over
//! an in-process byte pipe. Two thread roles, no third.
//!
//! Threading model:
//!
//! * **Core thread** — the only thread that ever touches the
//!   [`SchedCore`](fg_sched::SchedCore). The core is `Send`, but this
//!   thread builds it: moved here from [`Server::start`], its memory
//!   came from the caller's malloc arena (`replay-wire` peak RSS
//!   22.8–23.2 → 23.9–24.2 MB, 7 of 7 runs, 2-vCPU VM). It serialises
//!   submissions and the final drain, and republishes a fresh
//!   [`SchedSnapshot`] after every state change — *before*
//!   acknowledging the request, so a client that has its submit
//!   response is guaranteed the next quote reflects that submission.
//! * **Session threads** — one per [`connect`](Server::connect). A
//!   session decodes frames, sends writes (`Submit`, `Drain`) to the
//!   core and blocks on the reply, and answers reads (`Quote`,
//!   `Stats`) itself from what the core last published: it takes the
//!   read guard for exactly one `Arc` clone, drops it, then prices —
//!   [`SchedSnapshot::quote`] takes `&self` and is the same call the
//!   core makes at a submission's arrival, over the published copy of
//!   the same inputs — so a slow quote never delays a publish and
//!   quotes on different sessions run concurrently.
//!
//! There is no query pool between the two. A session is closed-loop —
//! it decodes a request, answers it, then decodes the next — so the
//! reads in flight are bounded by the sessions with or without a pool;
//! handing a read to a third thread bought no parallelism and cost a
//! contended queue, a reply channel and two context switches per quote
//! (`serve.server.handoff_us` 7.26 → 3.28 µs when the pool went; see
//! ROADMAP open item 1).
//!
//! The transport is an in-process pipe rather than a socket: the wire
//! bytes, framing, and thread handoffs are all real, but tests stay
//! hermetic and the protocol layer stays reusable over any transport
//! that can move bytes.

use crate::engine::{answer_read, drained, ServerEngine};
use crate::frame::{encode_frame, Frame, FrameDecoder, FrameKind, WireError, MAX_PAYLOAD};
use crate::msg::{
    decode_request, decode_subscribe, encode_events, encode_metrics, encode_response, EventBatch,
    Request, Response, ServeMetrics,
};
use crate::recorder::IncidentBundle;
use bytes::Bytes;
use fg_sched::{CoreEvent, CoreStats, SchedSnapshot, Scheduler};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::{self, JoinHandle};

/// One direction of a byte stream: a blocking, closeable in-memory
/// pipe (unbounded — both peers are in-process and well-behaved).
#[derive(Clone, Debug)]
struct Pipe {
    state: Arc<(Mutex<PipeState>, Condvar)>,
}

#[derive(Debug, Default)]
struct PipeState {
    buf: VecDeque<u8>,
    closed: bool,
}

impl Pipe {
    fn new() -> Pipe {
        Pipe { state: Arc::new((Mutex::new(PipeState::default()), Condvar::new())) }
    }

    /// Append bytes; silently dropped once the pipe is closed (the
    /// reader is gone, there is nobody left to care).
    fn write(&self, bytes: &[u8]) {
        let (lock, cv) = &*self.state;
        let mut st = lock.lock().expect("pipe lock");
        if !st.closed {
            st.buf.extend(bytes);
            cv.notify_all();
        }
    }

    /// Block until bytes are available; `None` at end-of-stream.
    fn read(&self) -> Option<Vec<u8>> {
        let (lock, cv) = &*self.state;
        let mut st = lock.lock().expect("pipe lock");
        loop {
            if !st.buf.is_empty() {
                return Some(st.buf.drain(..).collect());
            }
            if st.closed {
                return None;
            }
            st = cv.wait(st).expect("pipe lock");
        }
    }

    fn close(&self) {
        let (lock, cv) = &*self.state;
        lock.lock().expect("pipe lock").closed = true;
        cv.notify_all();
    }
}

/// One end of a duplex byte connection. Dropping an end closes its
/// outgoing direction, which the peer observes as end-of-stream.
#[derive(Debug)]
pub struct WireConn {
    tx: Pipe,
    rx: Pipe,
}

impl WireConn {
    /// A connected pair: bytes sent on one end arrive on the other.
    pub fn pair() -> (WireConn, WireConn) {
        let (a, b) = (Pipe::new(), Pipe::new());
        (WireConn { tx: a.clone(), rx: b.clone() }, WireConn { tx: b, rx: a })
    }

    /// Send bytes to the peer.
    pub fn send(&self, bytes: &[u8]) {
        self.tx.write(bytes);
    }

    /// Block for the next chunk from the peer; `None` once the peer
    /// has closed and the stream is drained.
    pub fn recv(&self) -> Option<Vec<u8>> {
        self.rx.read()
    }
}

impl Drop for WireConn {
    fn drop(&mut self) {
        self.tx.close();
    }
}

/// Everything the core thread publishes and the session threads read.
#[derive(Debug, Default)]
struct Shared {
    /// The snapshot-and-counters pair from after the most recent state
    /// change, `None` once the session is drained. A reader holds the
    /// guard for one refcount bump, the publisher for one pointer swap.
    view: RwLock<Option<Arc<(SchedSnapshot, CoreStats)>>>,
    /// Epoch of `metrics` (0 until the first publish), so a subscribed
    /// session pays exactly one atomic load per response to learn
    /// nothing has changed — the structural guarantee behind the "<5%
    /// subscriber overhead on the quote path" figure claim.
    metrics_epoch: AtomicU64,
    metrics: RwLock<Option<ServeMetrics>>,
    incidents: Mutex<Vec<IncidentBundle>>,
}

impl Shared {
    /// Publish whatever the engine's last request changed: the view
    /// always; the telemetry plane only when the engine says it moved
    /// (epoch-gated) — the plane the request itself read, taken by
    /// move, so publishing reads nothing twice — with the epoch store
    /// ordered *after* the snapshot write so a session that observes
    /// the new epoch always finds the matching snapshot; and any
    /// incident bundles the request cut.
    fn publish(&self, engine: &mut ServerEngine) {
        let fresh = engine.snapshot().zip(engine.stats()).map(Arc::new);
        let stale = std::mem::replace(&mut *self.view.write().expect("published lock"), fresh);
        drop(stale); // after the guard is gone: the old view is freed off-lock
        if let Some(m) = engine.metrics_if_changed() {
            let epoch = m.epoch;
            *self.metrics.write().expect("metrics lock") = Some(m);
            self.metrics_epoch.store(epoch, Ordering::Release);
        }
        let cut = engine.take_incidents();
        if !cut.is_empty() {
            self.incidents.lock().expect("incident registry lock").extend(cut);
        }
    }

    /// Answer a `Quote` or `Stats` on the calling thread. The read
    /// guard is a temporary of the first statement — gone before any
    /// pricing starts, so a slow quote never delays `publish`.
    fn read(&self, req: &Request) -> Response {
        let view = self.view.read().expect("published lock").clone();
        match view {
            Some(view) => answer_read(req, || &view.0, || view.1.clone()),
            None => drained(),
        }
    }
}

enum CoreMsg {
    Handle {
        req: Request,
        reply: mpsc::Sender<(Response, Vec<CoreEvent>)>,
    },
    /// A session's decoder was poisoned; the engine cuts an incident
    /// bundle. Fire-and-forget: the session is already hanging up.
    Poisoned {
        error: String,
    },
}

/// The running service. Dropping (or [`shutdown`](Server::shutdown))
/// stops the core thread; open sessions end when their client
/// disconnects.
#[derive(Debug)]
pub struct Server {
    core_tx: mpsc::Sender<CoreMsg>,
    core: JoinHandle<()>,
    sessions: Mutex<Vec<JoinHandle<()>>>,
    shared: Arc<Shared>,
}

impl Server {
    /// Start the service for one scheduling session over `cfg`'s grid
    /// and policy. Returns once the core thread has published its first
    /// snapshot, so a query sent right after [`connect`](Server::connect)
    /// is answered from it.
    pub fn start(cfg: Scheduler) -> Server {
        let shared = Arc::<Shared>::default();
        let (core_tx, core_rx) = mpsc::channel::<CoreMsg>();
        let (ready_tx, ready_rx) = mpsc::channel::<()>();
        let published = Arc::clone(&shared);
        let core = thread::Builder::new()
            .name("fg-serve-core".into())
            .spawn(move || core_loop(cfg, core_rx, &published, ready_tx))
            .expect("spawn core thread");
        // An error means the core thread died building its engine; its
        // sessions will say so, as they do for one that dies later.
        let _ = ready_rx.recv();
        Server { core_tx, core, sessions: Mutex::default(), shared }
    }

    /// Incident bundles the flight recorder has cut so far (drift
    /// alarms, SLO breaches, decode poisonings), in trip order.
    pub fn incidents(&self) -> Vec<IncidentBundle> {
        self.shared.incidents.lock().expect("incident registry lock").clone()
    }

    /// Open a connection: spawns a session thread and returns the
    /// client end of the wire.
    pub fn connect(&self) -> WireConn {
        let (client_end, server_end) = WireConn::pair();
        let session = Session {
            conn: server_end,
            core_tx: self.core_tx.clone(),
            shared: Arc::clone(&self.shared),
            event_seq: 0,
            sub: None,
        };
        let handle = thread::Builder::new()
            .name("fg-serve-session".into())
            .spawn(move || session.run())
            .expect("spawn session thread");
        let mut sessions = self.sessions.lock().expect("session registry lock");
        // Forget the sessions that have ended, so the registry is
        // bounded by the connections open now, not by every connection
        // ever made.
        sessions.retain(|h| !h.is_finished());
        sessions.push(handle);
        client_end
    }

    /// Stop the service and join every thread. Sessions whose clients
    /// are still connected are waited on, so drop clients first.
    pub fn shutdown(self) {
        let Server { core_tx, core, sessions, .. } = self;
        // Sessions hold sender clones; the core loop ends once every
        // sender is gone, so wait for the sessions first.
        drop(core_tx);
        for h in sessions.into_inner().expect("session registry lock") {
            let _ = h.join();
        }
        let _ = core.join();
    }
}

fn core_loop(
    cfg: Scheduler,
    rx: mpsc::Receiver<CoreMsg>,
    shared: &Shared,
    ready: mpsc::Sender<()>,
) {
    // Built here, not moved here from `start`: see the module doc.
    let mut engine = ServerEngine::new(cfg);
    shared.publish(&mut engine);
    let _ = ready.send(());
    while let Ok(msg) = rx.recv() {
        match msg {
            CoreMsg::Handle { req, reply } => {
                let out = engine.handle(req);
                // Publish before acknowledging: once a client sees its
                // response, every later quote reflects that submission
                // — and any telemetry change rides the same ordering.
                shared.publish(&mut engine);
                let _ = reply.send(out);
            }
            CoreMsg::Poisoned { error } => {
                engine.decode_poisoned(error);
                shared.publish(&mut engine);
            }
        }
    }
}

/// One connection's server side, run on its own thread.
struct Session {
    conn: WireConn,
    core_tx: mpsc::Sender<CoreMsg>,
    shared: Arc<Shared>,
    event_seq: u32,
    /// Epoch of the last metrics snapshot this session sent, once
    /// subscribed. The steady-state cost of a subscription is the one
    /// atomic load in `push_metrics` per response.
    sub: Option<u64>,
}

impl Session {
    /// Serve frames until the client closes. A clean close lands
    /// between frames; a mid-frame close is corruption the client
    /// should know about, but there is nobody left to tell.
    fn run(mut self) {
        let mut dec = FrameDecoder::new();
        while let Some(chunk) = self.conn.recv() {
            dec.push(&chunk);
            loop {
                let served = match dec.next_frame() {
                    Ok(None) => break,
                    Ok(Some(frame)) => self.serve(&frame, dec.frames() - 1),
                    Err(e) => Err(e),
                };
                if let Err(e) = served {
                    // Corrupt stream (or a dead core): cut a
                    // flight-recorder incident, report the typed error
                    // once, then hang up. No resynchronisation guesses.
                    let _ = self.core_tx.send(CoreMsg::Poisoned { error: e.to_string() });
                    // The sentinel sequence number lets the client see
                    // *why* before end-of-stream.
                    self.respond(u32::MAX, &Response::Error { reason: e.to_string() });
                    return;
                }
            }
        }
    }

    /// Serve one frame: the `ord`-th of the stream. An error ends the
    /// session.
    fn serve(&mut self, frame: &Frame, ord: u64) -> Result<(), WireError> {
        if frame.kind == FrameKind::SubscribeMetrics {
            let wanted = decode_subscribe(frame, ord)?;
            // Ack with the current snapshot (served straight from what
            // the core published — the core thread is never involved),
            // then stream changes as they are published.
            let latest = self.shared.metrics.read().expect("metrics lock").clone();
            match latest {
                Some(m) => {
                    self.sub = Some(m.epoch.max(wanted.min_epoch));
                    let payload = encode_metrics(&m);
                    self.conn.send(&encode_frame(FrameKind::MetricsSnapshot, frame.seq, &payload));
                }
                None => self.respond(
                    frame.seq,
                    &Response::Error { reason: "telemetry not yet published".into() },
                ),
            }
            return Ok(());
        }
        let req = decode_request(frame, ord)?;
        let (resp, events) = match req {
            // Reads are answered here, from what the core last
            // published; state changes go to the core thread.
            Request::Quote { .. } | Request::Stats => (self.shared.read(&req), Vec::new()),
            Request::Submit { .. } | Request::Drain => {
                // A fresh reply channel per write: its sender dropped
                // unanswered is how a session learns the core died —
                // mid-request, or earlier (a failed send drops `reply`
                // along with the message).
                let (reply, answer) = mpsc::channel();
                let _ = self.core_tx.send(CoreMsg::Handle { req, reply });
                answer.recv().map_err(|_| WireError::Poisoned)?
            }
        };
        if !events.is_empty() {
            let payload = encode_events(&EventBatch { events });
            self.conn.send(&encode_frame(FrameKind::Event, self.event_seq, &payload));
            self.event_seq += 1;
        }
        self.respond(frame.seq, &resp);
        self.push_metrics();
        Ok(())
    }

    fn respond(&self, seq: u32, resp: &Response) {
        self.conn.send(&response_frame(seq, resp));
    }

    /// If this session is subscribed and the published epoch has moved
    /// past what it last saw, push the latest snapshot. The no-change
    /// path is one atomic load — no locks, no allocation.
    fn push_metrics(&mut self) {
        let Some(last) = self.sub else { return };
        if self.shared.metrics_epoch.load(Ordering::Acquire) <= last {
            return;
        }
        let latest = self.shared.metrics.read().expect("metrics lock").clone();
        if let Some(m) = latest.filter(|m| m.epoch > last) {
            self.sub = Some(m.epoch);
            let payload = encode_metrics(&m);
            self.conn.send(&encode_frame(FrameKind::MetricsSnapshot, self.event_seq, &payload));
            self.event_seq += 1;
        }
    }
}

/// `resp` framed for the wire. A response too large for one frame — a
/// drain of ≈ 39 000 jobs or more — is answered with a
/// [`Response::Error`] naming its size and the cap, so the session
/// lives on and the client learns why it got no rows.
fn response_frame(seq: u32, resp: &Response) -> Bytes {
    let payload = encode_response(resp);
    if payload.len() > MAX_PAYLOAD as usize {
        let reason = format!(
            "response of {} bytes exceeds the frame payload cap of {MAX_PAYLOAD} bytes",
            payload.len()
        );
        return encode_frame(
            FrameKind::Response,
            seq,
            &encode_response(&Response::Error { reason }),
        );
    }
    encode_frame(FrameKind::Response, seq, &payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ServeClient;
    use crate::msg::{decode_response, DrainedRun};
    use fg_bench::figures::sched_models;
    use fg_sched::{GridSpec, LoadLevel, Policy, WorkloadShape, WorkloadSpec};

    #[test]
    fn a_response_too_large_for_a_frame_is_refused_with_its_size() {
        let grid = GridSpec::demo(sched_models());
        let names: Vec<&str> = grid.apps.iter().map(|(n, _)| n.as_str()).collect();
        let spec = WorkloadSpec::shaped(WorkloadShape::HeavyTail, LoadLevel::Heavy, &names, 42);
        let mut run =
            DrainedRun::from_result(Scheduler::new(grid, Policy::Fcfs).run(&spec.generate()));
        // One more row than fits: ≈ 40 000 of these.
        let row = run.outcomes[0].clone();
        let rows = MAX_PAYLOAD as usize / serde_json::to_string(&row).unwrap().len() + 1;
        run.outcomes = vec![row; rows];
        let resp = Response::Drained { result: run };
        let size = encode_response(&resp).len();
        assert!(size > MAX_PAYLOAD as usize);

        let mut dec = FrameDecoder::new();
        dec.push(&response_frame(7, &resp));
        let frame = dec.next_frame().unwrap().expect("one whole frame");
        assert_eq!(frame.seq, 7);
        let reason = format!(
            "response of {size} bytes exceeds the frame payload cap of {MAX_PAYLOAD} bytes"
        );
        assert_eq!(decode_response(&frame, 0).unwrap(), Response::Error { reason });
    }

    #[test]
    fn connect_forgets_sessions_that_have_ended() {
        let server = Server::start(Scheduler::new(GridSpec::demo(sched_models()), Policy::Fcfs));
        for _ in 0..256 {
            let mut client = ServeClient::connect(&server);
            client.stats().expect("stats round trip");
        }
        // Every client is gone; wait for the last session thread to
        // notice and exit.
        while server.sessions.lock().unwrap().iter().any(|h| !h.is_finished()) {
            thread::yield_now();
        }
        let live = server.connect();
        assert_eq!(server.sessions.lock().unwrap().len(), 1, "one connection is open");
        drop(live);
        server.shutdown();
    }
}
