//! The threaded server: one core thread owning the decision state, a
//! thread-per-core query pool answering predictions from a lock-free
//! snapshot, and one session thread per connection speaking the wire
//! protocol over an in-process byte pipe.
//!
//! Threading model:
//!
//! * **Core thread** — the only thread that ever touches the
//!   [`SchedCore`] (whose trace counters are deliberately not `Send`,
//!   so the compiler enforces this). It serialises submissions and the
//!   final drain, and republishes a fresh [`SchedSnapshot`] after
//!   every state change — *before* acknowledging the request, so a
//!   client that has its submit response is guaranteed the next quote
//!   reflects that submission.
//! * **Query pool** — `available_parallelism` workers. Quotes and
//!   stats are answered purely from the published snapshot (every
//!   [`SchedSnapshot`] method takes `&self`), so arbitrarily many
//!   predictions run concurrently without ever blocking the core.
//! * **Session threads** — one per [`connect`](Server::connect). They
//!   decode frames, route submissions to the core and queries to the
//!   pool, and stream event frames back ahead of each response.
//!
//! The transport is an in-process pipe rather than a socket: the wire
//! bytes, framing, and thread handoffs are all real, but tests stay
//! hermetic and the protocol layer stays reusable over any transport
//! that can move bytes.

use crate::engine::ServerEngine;
use crate::frame::{encode_frame, FrameDecoder, FrameKind, WireError};
use crate::msg::{
    decode_request, decode_subscribe, encode_events, encode_metrics, encode_response, EventBatch,
    Request, Response, ServeMetrics,
};
use crate::recorder::IncidentBundle;
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

/// What the core thread has published for the query pool: the
/// snapshot-and-counters pair from after the most recent state change,
/// `None` once the session is drained.
type Published = Arc<RwLock<Option<(SchedSnapshot, CoreStats)>>>;

/// The telemetry side-channel the core thread publishes into and the
/// session threads stream from. The [`AtomicU64`] carries the latest
/// published epoch, so a subscribed session pays exactly one relaxed
/// load per response to learn nothing has changed — the structural
/// guarantee behind the "<5% subscriber overhead on the quote path"
/// figure claim.
#[derive(Debug, Default)]
struct MetricsHub {
    epoch: AtomicU64,
    latest: RwLock<Option<ServeMetrics>>,
}

/// Epoch value meaning "nothing published yet".
const EPOCH_NONE: u64 = u64::MAX;

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

enum QueryMsg {
    Handle { req: Request, reply: mpsc::Sender<(Response, Vec<CoreEvent>)> },
}

/// The running service. Dropping (or [`shutdown`](Server::shutdown))
/// stops the core thread and the query pool; open sessions end when
/// their client disconnects.
#[derive(Debug)]
pub struct Server {
    core_tx: mpsc::Sender<CoreMsg>,
    query_tx: mpsc::Sender<QueryMsg>,
    workers: usize,
    threads: Vec<JoinHandle<()>>,
    sessions: Arc<Mutex<Vec<JoinHandle<()>>>>,
    metrics: Arc<MetricsHub>,
    incidents: Arc<Mutex<Vec<IncidentBundle>>>,
}

impl Server {
    /// Start the service for one scheduling session over `cfg`'s grid
    /// and policy. Returns once the core thread has published its first
    /// snapshot, so a query sent right after [`connect`](Server::connect)
    /// is answered from it.
    pub fn start(cfg: Scheduler) -> Server {
        let published: Published = Arc::new(RwLock::new(None));
        let metrics =
            Arc::new(MetricsHub { epoch: AtomicU64::new(EPOCH_NONE), latest: RwLock::new(None) });
        let incidents: Arc<Mutex<Vec<IncidentBundle>>> = Arc::default();
        let (core_tx, core_rx) = mpsc::channel::<CoreMsg>();
        let (query_tx, query_rx) = mpsc::channel::<QueryMsg>();
        let (ready_tx, ready_rx) = mpsc::channel::<()>();
        let mut threads = Vec::new();

        let pub_core = Arc::clone(&published);
        let hub_core = Arc::clone(&metrics);
        let incidents_core = Arc::clone(&incidents);
        threads.push(
            thread::Builder::new()
                .name("fg-serve-core".into())
                .spawn(move || {
                    core_loop(cfg, core_rx, pub_core, hub_core, incidents_core, ready_tx)
                })
                .expect("spawn core thread"),
        );

        let workers = thread::available_parallelism().map_or(2, usize::from);
        let query_rx = Arc::new(Mutex::new(query_rx));
        for i in 0..workers {
            let rx = Arc::clone(&query_rx);
            let published = Arc::clone(&published);
            threads.push(
                thread::Builder::new()
                    .name(format!("fg-serve-query-{i}"))
                    .spawn(move || query_loop(rx, published))
                    .expect("spawn query worker"),
            );
        }

        // An error means the core thread died building its engine; its
        // sessions will say so, as they do for one that dies later.
        let _ = ready_rx.recv();
        Server { core_tx, query_tx, workers, threads, sessions: Arc::default(), metrics, incidents }
    }

    /// Query-pool width (one worker per available core).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Incident bundles the flight recorder has cut so far (drift
    /// alarms, SLO breaches, decode poisonings), in trip order.
    pub fn incidents(&self) -> Vec<IncidentBundle> {
        self.incidents.lock().expect("incident registry lock").clone()
    }

    /// Open a connection: spawns a session thread and returns the
    /// client end of the wire.
    pub fn connect(&self) -> WireConn {
        let (client_end, server_end) = WireConn::pair();
        let core_tx = self.core_tx.clone();
        let query_tx = self.query_tx.clone();
        let hub = Arc::clone(&self.metrics);
        let handle = thread::Builder::new()
            .name("fg-serve-session".into())
            .spawn(move || session_loop(server_end, core_tx, query_tx, hub))
            .expect("spawn session thread");
        self.sessions.lock().expect("session registry lock").push(handle);
        client_end
    }

    /// Stop the service and join every thread. Sessions whose clients
    /// are still connected are waited on, so drop clients first.
    pub fn shutdown(self) {
        let Server { core_tx, query_tx, threads, sessions, .. } = self;
        // Sessions hold channel clones; the core and pool loops end
        // once every sender is gone, so wait for the sessions first.
        drop(core_tx);
        drop(query_tx);
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *sessions.lock().expect("session registry lock"));
        for h in handles {
            let _ = h.join();
        }
        for h in threads {
            let _ = h.join();
        }
    }
}

fn core_loop(
    cfg: Scheduler,
    rx: mpsc::Receiver<CoreMsg>,
    published: Published,
    hub: Arc<MetricsHub>,
    incidents: Arc<Mutex<Vec<IncidentBundle>>>,
    ready: mpsc::Sender<()>,
) {
    // The decision core is built here, on the core thread: it is not
    // `Send`, only its configuration is.
    let mut engine = ServerEngine::new(cfg);
    publish(&published, &engine);
    publish_metrics(&hub, &mut engine);
    let _ = ready.send(());
    while let Ok(msg) = rx.recv() {
        match msg {
            CoreMsg::Handle { req, reply } => {
                let out = engine.handle(req);
                // Publish before acknowledging: once a client sees its
                // response, every later quote reflects that submission
                // — and any telemetry change rides the same ordering.
                publish(&published, &engine);
                publish_metrics(&hub, &mut engine);
                collect_incidents(&incidents, &mut engine);
                let _ = reply.send(out);
            }
            CoreMsg::Poisoned { error } => {
                engine.decode_poisoned(error);
                collect_incidents(&incidents, &mut engine);
            }
        }
    }
}

fn publish(published: &Published, engine: &ServerEngine) {
    let fresh = engine.snapshot().zip(engine.stats());
    *published.write().expect("published lock") = fresh;
}

/// Push a fresh telemetry snapshot into the hub — but only when the
/// engine says the plane actually changed (epoch-gated), and with the
/// epoch store ordered *after* the snapshot write so a session that
/// observes the new epoch always finds the matching snapshot.
fn publish_metrics(hub: &MetricsHub, engine: &mut ServerEngine) {
    if let Some(m) = engine.metrics_if_changed() {
        let epoch = m.epoch;
        *hub.latest.write().expect("metrics hub lock") = Some(m);
        hub.epoch.store(epoch, Ordering::Release);
    }
}

fn collect_incidents(incidents: &Mutex<Vec<IncidentBundle>>, engine: &mut ServerEngine) {
    let fresh = engine.take_incidents();
    if !fresh.is_empty() {
        incidents.lock().expect("incident registry lock").extend(fresh);
    }
}

fn query_loop(rx: Arc<Mutex<mpsc::Receiver<QueryMsg>>>, published: Published) {
    loop {
        // Hold the receiver lock only while waiting for the next
        // message, never while answering it.
        let msg = match rx.lock().expect("query queue lock").recv() {
            Ok(m) => m,
            Err(_) => return,
        };
        let QueryMsg::Handle { req, reply } = msg;
        let view = published.read().expect("published lock").clone();
        let resp = match (req, view) {
            (_, None) => Response::Error { reason: "session already drained".into() },
            (Request::Quote { app, dataset_bytes, deadline_slack }, Some((snap, _))) => {
                Response::Quoted { quote: snap.quote(&app, dataset_bytes, deadline_slack) }
            }
            (Request::Stats, Some((_, stats))) => Response::Stats { stats },
            (other, Some(_)) => {
                Response::Error { reason: format!("query pool cannot serve {other:?}") }
            }
        };
        let _ = reply.send((resp, Vec::new()));
    }
}

fn session_loop(
    conn: WireConn,
    core_tx: mpsc::Sender<CoreMsg>,
    query_tx: mpsc::Sender<QueryMsg>,
    hub: Arc<MetricsHub>,
) {
    let mut dec = FrameDecoder::new();
    let mut event_seq: u32 = 0;
    // Epoch of the last metrics snapshot this session sent, once
    // subscribed. The steady-state cost of a subscription is the one
    // relaxed atomic load in `maybe_push_metrics` per response.
    let mut sub: Option<u64> = None;
    loop {
        let Some(chunk) = conn.recv() else {
            // Client closed. A clean close lands between frames; a
            // mid-frame close is corruption the client should know
            // about, but there is nobody left to tell.
            return;
        };
        dec.push(&chunk);
        loop {
            let frame = match dec.next_frame() {
                Ok(Some(f)) => f,
                Ok(None) => break,
                Err(e) => {
                    // Corrupt stream: report the typed error once,
                    // cut a flight-recorder incident, then hang up.
                    // No resynchronisation guesses.
                    let _ = core_tx.send(CoreMsg::Poisoned { error: e.to_string() });
                    send_wire_error(&conn, &e);
                    return;
                }
            };
            let ord = dec.frames() - 1;
            if frame.kind == FrameKind::SubscribeMetrics {
                let wanted = match decode_subscribe(&frame, ord) {
                    Ok(s) => s,
                    Err(e) => {
                        let _ = core_tx.send(CoreMsg::Poisoned { error: e.to_string() });
                        send_wire_error(&conn, &e);
                        return;
                    }
                };
                // Ack with the current snapshot (served straight from
                // the hub — the core thread is never involved), then
                // stream changes as they are published.
                let view = hub.latest.read().expect("metrics hub lock").clone();
                match view {
                    Some(m) => {
                        sub = Some(m.epoch.max(wanted.min_epoch));
                        let payload = encode_metrics(&m);
                        conn.send(&encode_frame(FrameKind::MetricsSnapshot, frame.seq, &payload));
                    }
                    None => {
                        let resp = Response::Error { reason: "telemetry not yet published".into() };
                        conn.send(&encode_frame(
                            FrameKind::Response,
                            frame.seq,
                            &encode_response(&resp),
                        ));
                    }
                }
                continue;
            }
            let req = match decode_request(&frame, ord) {
                Ok(r) => r,
                Err(e) => {
                    let _ = core_tx.send(CoreMsg::Poisoned { error: e.to_string() });
                    send_wire_error(&conn, &e);
                    return;
                }
            };
            let (reply_tx, reply_rx) = mpsc::channel();
            let routed = match &req {
                // Reads go to the snapshot pool; state changes to the
                // core thread.
                Request::Quote { .. } | Request::Stats => {
                    query_tx.send(QueryMsg::Handle { req, reply: reply_tx }).is_ok()
                }
                Request::Submit { .. } | Request::Drain => {
                    core_tx.send(CoreMsg::Handle { req, reply: reply_tx }).is_ok()
                }
            };
            let Ok((resp, events)) = (if routed { reply_rx.recv() } else { Err(mpsc::RecvError) })
            else {
                send_wire_error(&conn, &WireError::Poisoned);
                return;
            };
            if !events.is_empty() {
                let batch = EventBatch { events };
                conn.send(&encode_frame(FrameKind::Event, event_seq, &encode_events(&batch)));
                event_seq += 1;
            }
            conn.send(&encode_frame(FrameKind::Response, frame.seq, &encode_response(&resp)));
            maybe_push_metrics(&conn, &hub, &mut sub, &mut event_seq);
        }
    }
}

/// If this session is subscribed and the hub's epoch has moved past
/// what it last saw, push the latest snapshot. The no-change path is
/// one atomic load — no locks, no allocation.
fn maybe_push_metrics(
    conn: &WireConn,
    hub: &MetricsHub,
    sub: &mut Option<u64>,
    event_seq: &mut u32,
) {
    let Some(last) = *sub else { return };
    let epoch = hub.epoch.load(Ordering::Acquire);
    if epoch == EPOCH_NONE || epoch <= last {
        return;
    }
    let view = hub.latest.read().expect("metrics hub lock").clone();
    if let Some(m) = view {
        if m.epoch > last {
            *sub = Some(m.epoch);
            conn.send(&encode_frame(FrameKind::MetricsSnapshot, *event_seq, &encode_metrics(&m)));
            *event_seq += 1;
        }
    }
}

/// Best-effort final word on a broken session: a response frame with
/// the sentinel sequence number carrying the typed error, so the
/// client sees *why* before end-of-stream.
fn send_wire_error(conn: &WireConn, err: &WireError) {
    let resp = Response::Error { reason: err.to_string() };
    conn.send(&encode_frame(FrameKind::Response, u32::MAX, &encode_response(&resp)));
}
