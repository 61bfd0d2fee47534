//! The sans-IO server engine: a [`SchedCore`] with the request
//! vocabulary mapped onto it, no threads or sockets involved. The
//! threaded [`server`](crate::server) drives one of these on its core
//! thread; tests can drive one directly and get byte-identical
//! behaviour, because every decision lives here or deeper.
//!
//! The engine always arms the decision core's telemetry plane (unless
//! the caller armed it with its own configuration) and owns the
//! session's [`FlightRecorder`]: every decision event lands in the
//! recorder's ring, and a drift alarm, SLO breach, or decode poisoning
//! cuts an [`IncidentBundle`] collectable through
//! [`take_incidents`](ServerEngine::take_incidents). Telemetry is
//! strictly observational, which is what keeps a served run
//! bit-identical to a direct `Scheduler::run` — the differential tests
//! pin that property.

use crate::msg::{DrainedRun, Request, Response, ServeMetrics};
use crate::recorder::{FlightRecorder, IncidentBundle, IncidentReason, LEDGER_TAIL};
use fg_sched::{
    AccuracySample, CoreEvent, CoreStats, SchedCore, SchedSnapshot, Scheduler, TelemetryConfig,
    TelemetrySnapshot,
};
use std::borrow::Borrow;

/// The state machine behind a serving session: one live decision core
/// until drained, then a terminal state that refuses further work.
pub struct ServerEngine {
    core: Option<SchedCore>,
    recorder: FlightRecorder,
    /// Telemetry epoch of the last snapshot handed out through
    /// [`metrics_if_changed`](ServerEngine::metrics_if_changed).
    published_epoch: Option<u64>,
    /// The end-of-run plane, stashed at drain so subscribers see the
    /// final state even though the core is gone.
    final_metrics: Option<ServeMetrics>,
}

impl ServerEngine {
    /// Build the engine from a scheduler configuration. The decision
    /// core is constructed here — on whichever thread the engine lives
    /// on — because the core's trace counters are deliberately not
    /// `Send`. Telemetry is armed with the default configuration
    /// unless `cfg` already carries one.
    pub fn new(cfg: Scheduler) -> ServerEngine {
        let cfg = if cfg.telemetry().is_none() {
            cfg.with_telemetry(TelemetryConfig::default())
        } else {
            cfg
        };
        ServerEngine {
            core: Some(SchedCore::new(cfg).with_event_log()),
            recorder: FlightRecorder::default(),
            published_epoch: None,
            final_metrics: None,
        }
    }

    /// A detached copy of what the core prices admissions from — what
    /// the server's core thread publishes for its sessions — or `None`
    /// after drain.
    pub fn snapshot(&self) -> Option<SchedSnapshot> {
        self.core.as_ref().map(SchedCore::snapshot)
    }

    /// Live counters, or `None` after drain.
    pub fn stats(&self) -> Option<CoreStats> {
        self.core.as_ref().map(SchedCore::stats)
    }

    /// The telemetry plane plus counters — but only when it has
    /// changed since the last call (epoch-gated, so the publisher
    /// pays for a snapshot only on completions). The drain-time plane
    /// is handed out exactly once, after the core is gone.
    pub fn metrics_if_changed(&mut self) -> Option<ServeMetrics> {
        if let Some(core) = self.core.as_mut() {
            let epoch = core.telemetry_epoch();
            if self.published_epoch == Some(epoch) {
                return None;
            }
            let telemetry = core.telemetry_snapshot()?;
            let stats = core.stats();
            self.published_epoch = Some(epoch);
            return Some(ServeMetrics { epoch, stats, telemetry });
        }
        if let Some(m) = self.final_metrics.take() {
            if self.published_epoch != Some(m.epoch) {
                self.published_epoch = Some(m.epoch);
                return Some(m);
            }
        }
        None
    }

    /// Incident bundles cut since the last call (drift alarms, SLO
    /// breaches, decode poisonings), in trip order.
    pub fn take_incidents(&mut self) -> Vec<IncidentBundle> {
        self.recorder.take_bundles()
    }

    /// A session's frame decoder was poisoned: cut an incident bundle
    /// with whatever context is still available.
    pub fn decode_poisoned(&mut self, error: String) {
        let reason = IncidentReason::DecodePoisoned { error };
        let (at, stats, tail, alarms) = match self.core.as_mut() {
            Some(core) => {
                let stats = core.stats();
                let tail = core.ledger_tail(LEDGER_TAIL);
                let alarms = core.telemetry_snapshot().map(|s| s.alarms).unwrap_or_default();
                (stats.now, Some(stats), tail, alarms)
            }
            None => (0.0, None, Vec::new(), Vec::new()),
        };
        self.recorder.trip(reason, at, stats, tail, alarms);
    }

    /// Handle one request. Returns the response plus any scheduling
    /// events the request caused, in decision order, for streaming.
    ///
    /// [`Request::Quote`] and [`Request::Stats`] go through
    /// `answer_read`, the same function a server session calls with
    /// the published snapshot — so a single-threaded driver and the
    /// threaded server give identical answers by construction.
    pub fn handle(&mut self, req: Request) -> (Response, Vec<CoreEvent>) {
        let Some(core) = self.core.as_mut() else {
            return (drained(), Vec::new());
        };
        match req {
            Request::Submit { job } => match core.submit(job) {
                Ok(outcome) => {
                    let events = core.take_events();
                    let plane = core.telemetry_snapshot();
                    observe(&mut self.recorder, &events, plane.as_ref(), || {
                        (core.stats(), core.ledger_tail(LEDGER_TAIL))
                    });
                    (Response::Submitted { outcome }, events)
                }
                Err(e) => (Response::SubmitFailed { reason: e.to_string() }, Vec::new()),
            },
            read @ (Request::Quote { .. } | Request::Stats) => {
                (answer_read(&read, || core.snapshot(), || core.stats()), Vec::new())
            }
            Request::Drain => {
                let pre = core.stats();
                let core = self.core.take().expect("checked live above");
                let (result, events) = core.finish_with_events();
                let report = result.telemetry.as_ref();
                let plane = report.map(|r| &r.snapshot);
                // After the drain every admitted job has completed and
                // nothing is queued or running.
                let stats = CoreStats {
                    now: plane.map_or(pre.now, |p| p.now),
                    makespan: result.makespan,
                    completed: pre.admitted,
                    queued: 0,
                    running: 0,
                    suspended: 0,
                    ..pre
                };
                observe(&mut self.recorder, &events, plane, || {
                    (stats.clone(), report.map_or_else(Vec::new, |r| r.ledger.tail(LEDGER_TAIL)))
                });
                // Stash the end-of-run plane so the publisher can push
                // one final snapshot even though the core is gone.
                self.final_metrics =
                    plane.map(|p| ServeMetrics { epoch: p.epoch, stats, telemetry: p.clone() });
                (Response::Drained { result: DrainedRun::from_result(result) }, events)
            }
        }
    }
}

/// The reply to any request that arrives after the drain.
pub(crate) fn drained() -> Response {
    Response::Error { reason: "session already drained".into() }
}

/// The one place a read becomes a [`Response`]: a `Quote` is priced
/// against `snapshot` — by the function that prices a submission's
/// arrival on the live core, so a quote is the admission estimate, not
/// a reproduction of it — and `Stats` returns `stats`. Both sources
/// are lazy, so neither caller builds the half a request does not use
/// — the engine reads its live core, a server session the pair the
/// core thread last published.
pub(crate) fn answer_read<S: Borrow<SchedSnapshot>>(
    req: &Request,
    snapshot: impl FnOnce() -> S,
    stats: impl FnOnce() -> CoreStats,
) -> Response {
    match req {
        Request::Quote { app, dataset_bytes, deadline_slack } => Response::Quoted {
            quote: snapshot().borrow().quote(app, *dataset_bytes, *deadline_slack),
        },
        Request::Stats => Response::Stats { stats: stats() },
        write => Response::Error { reason: format!("only the core can serve {write:?}") },
    }
}

/// Feed a request's decision events through the flight recorder: ring
/// them all, then trip a bundle per drift alarm and per tenant SLO
/// newly breached on `plane`. `context` yields the counters and the
/// ledger tail ([`LEDGER_TAIL`] samples) that a bundle carries —
/// from the live core after a submit, from the finished run's report
/// after a drain — and runs only when something trips.
fn observe(
    recorder: &mut FlightRecorder,
    events: &[CoreEvent],
    plane: Option<&TelemetrySnapshot>,
    context: impl FnOnce() -> (CoreStats, Vec<AccuracySample>),
) {
    for e in events {
        recorder.record(e);
    }
    let mut reasons: Vec<(IncidentReason, f64)> = events
        .iter()
        .filter_map(|e| match e {
            CoreEvent::DriftAlarm { alarm } => {
                Some((IncidentReason::Drift { alarm: alarm.clone() }, alarm.at))
            }
            _ => None,
        })
        .collect();
    if let Some(plane) = plane {
        for reason in recorder.slo_breaches(plane) {
            reasons.push((reason, plane.now));
        }
    }
    if reasons.is_empty() {
        return;
    }
    let (stats, tail) = context();
    let alarms = plane.map(|p| p.alarms.clone()).unwrap_or_default();
    for (reason, at) in reasons {
        recorder.trip(reason, at, Some(stats.clone()), tail.clone(), alarms.clone());
    }
}
