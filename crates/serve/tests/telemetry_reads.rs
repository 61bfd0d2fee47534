//! How often the engine reads the telemetry plane is not observable.
//!
//! The reference below is a deliberately naive engine built only from
//! public [`SchedCore`] and [`FlightRecorder`] calls: it freezes the
//! whole plane after every request, runs the SLO check on each read,
//! and publishes whenever the epoch differs from the one it published
//! last. [`ServerEngine`] must match it byte for byte — every
//! response, every event batch, every `metrics_if_changed` answer and
//! every incident bundle — across workload shapes, loads and policies,
//! through SLO breaches, drift alarms and a poisoned session, whether
//! the publisher asks after every request (as the server does) or
//! only now and then.

use fg_bench::figures::sched_models;
use fg_sched::{
    AccuracySample, CoreEvent, CoreStats, Degradation, GridSpec, JobSpec, LoadLevel, Policy,
    SchedCore, Scheduler, TelemetryConfig, TelemetrySnapshot, WorkloadShape, WorkloadSpec,
};
use fg_serve::msg::{DrainedRun, Request, Response, ServeMetrics};
use fg_serve::{FlightRecorder, IncidentBundle, IncidentReason, ServerEngine, LEDGER_TAIL};
use std::sync::OnceLock;

fn grid() -> GridSpec {
    static GRID: OnceLock<GridSpec> = OnceLock::new();
    GRID.get_or_init(|| GridSpec::demo(sched_models())).clone()
}

/// The naive engine: one plane read per request, nothing remembered
/// between reads but the published epoch and the recorder's latches.
struct Reference {
    core: Option<SchedCore>,
    recorder: FlightRecorder,
    published: Option<u64>,
    /// The plane and counters after the last request.
    latest: Option<ServeMetrics>,
}

impl Reference {
    fn new(cfg: Scheduler) -> Reference {
        let cfg = if cfg.telemetry().is_none() {
            cfg.with_telemetry(TelemetryConfig::default())
        } else {
            cfg
        };
        let mut r = Reference {
            core: Some(SchedCore::new(cfg).with_event_log()),
            recorder: FlightRecorder::default(),
            published: None,
            latest: None,
        };
        r.read();
        r
    }

    /// Freeze the live plane and counters into `latest`.
    fn read(&mut self) -> TelemetrySnapshot {
        let core = self.core.as_mut().expect("live");
        let plane = core.telemetry_snapshot().expect("telemetry is armed");
        let m = ServeMetrics { epoch: plane.epoch, stats: core.stats(), telemetry: plane.clone() };
        self.latest = Some(m);
        plane
    }

    fn handle(&mut self, req: Request) -> (Response, Vec<CoreEvent>) {
        let Some(core) = self.core.as_mut() else {
            return (Response::Error { reason: "session already drained".into() }, Vec::new());
        };
        match req {
            Request::Submit { job } => match core.submit(job) {
                Ok(outcome) => {
                    let events = core.take_events();
                    let plane = self.read();
                    let core = self.core.as_ref().expect("live");
                    let context = (core.stats(), core.ledger_tail(LEDGER_TAIL));
                    trip(&mut self.recorder, &events, &plane, context);
                    (Response::Submitted { outcome }, events)
                }
                Err(e) => (Response::SubmitFailed { reason: e.to_string() }, Vec::new()),
            },
            Request::Quote { app, dataset_bytes, deadline_slack } => {
                let quote = core.snapshot().quote(&app, dataset_bytes, deadline_slack);
                (Response::Quoted { quote }, Vec::new())
            }
            Request::Stats => (Response::Stats { stats: core.stats() }, Vec::new()),
            Request::Drain => {
                let pre = core.stats();
                let (result, events) = self.core.take().expect("live").finish_with_events();
                let report = result.telemetry.as_ref().expect("telemetry is armed");
                let plane = report.snapshot.clone();
                let stats = CoreStats {
                    now: plane.now,
                    makespan: result.makespan,
                    completed: pre.admitted,
                    queued: 0,
                    running: 0,
                    suspended: 0,
                    ..pre
                };
                let context = (stats.clone(), report.ledger.tail(LEDGER_TAIL));
                trip(&mut self.recorder, &events, &plane, context);
                self.latest = Some(ServeMetrics { epoch: plane.epoch, stats, telemetry: plane });
                (Response::Drained { result: DrainedRun::from_result(result) }, events)
            }
        }
    }

    fn metrics_if_changed(&mut self) -> Option<ServeMetrics> {
        let m = self.latest.clone()?;
        if self.published == Some(m.epoch) {
            return None;
        }
        self.published = Some(m.epoch);
        Some(m)
    }

    fn decode_poisoned(&mut self, error: String) {
        let (at, stats, tail, alarms) = match self.core.as_mut() {
            Some(core) => {
                let plane = core.telemetry_snapshot().expect("telemetry is armed");
                let stats = core.stats();
                (stats.now, Some(stats), core.ledger_tail(LEDGER_TAIL), plane.alarms)
            }
            None => (0.0, None, Vec::new(), Vec::new()),
        };
        self.recorder.trip(IncidentReason::DecodePoisoned { error }, at, stats, tail, alarms);
    }
}

/// Record every event, then cut a bundle per drift alarm and per tenant
/// newly in SLO breach on `plane`.
fn trip(
    recorder: &mut FlightRecorder,
    events: &[CoreEvent],
    plane: &TelemetrySnapshot,
    (stats, tail): (CoreStats, Vec<AccuracySample>),
) {
    for e in events {
        recorder.record(e);
    }
    for e in events {
        if let CoreEvent::DriftAlarm { alarm } = e {
            let reason = IncidentReason::Drift { alarm: alarm.clone() };
            recorder.trip(
                reason,
                alarm.at,
                Some(stats.clone()),
                tail.clone(),
                plane.alarms.clone(),
            );
        }
    }
    for reason in recorder.slo_breaches(plane) {
        recorder.trip(reason, plane.now, Some(stats.clone()), tail.clone(), plane.alarms.clone());
    }
}

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serializes")
}

/// What one session cut and published, for the caller's own checks.
#[derive(Default)]
struct Tally {
    published: usize,
    slo_breaches: usize,
    drift: usize,
}

/// Drive `jobs` through both engines side by side, asking each for
/// metrics after every `publish_every`-th request, with a quote every
/// fifth job, a stats read every seventh, and a poisoned session at
/// `poison_at`; then drain, and ask once more after the drain.
fn compare(
    label: &str,
    cfg: Scheduler,
    jobs: &[JobSpec],
    publish_every: usize,
    poison_at: Option<usize>,
) -> Tally {
    let mut engine = ServerEngine::new(cfg.clone());
    let mut reference = Reference::new(cfg);
    let app = grid().apps[0].0.clone();
    let mut requests: Vec<Request> = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        if i % 5 == 4 {
            let (dataset_bytes, deadline_slack) = (job.dataset_bytes, 2.0);
            requests.push(Request::Quote { app: app.clone(), dataset_bytes, deadline_slack });
        }
        if i % 7 == 6 {
            requests.push(Request::Stats);
        }
        requests.push(Request::Submit { job: job.clone() });
    }
    // A duplicate submission is refused and must leave no trace.
    requests.push(Request::Submit { job: jobs[0].clone() });
    requests.push(Request::Drain);
    requests.push(Request::Stats);

    let mut tally = Tally::default();
    let mut publish = |engine: &mut ServerEngine, reference: &mut Reference, at: &str| {
        let (got, want) = (engine.metrics_if_changed(), reference.metrics_if_changed());
        assert_eq!(got.as_ref().map(json), want.as_ref().map(json), "{label}: metrics {at}");
        tally.published += usize::from(got.is_some());
    };
    publish(&mut engine, &mut reference, "at start-up");
    for (n, req) in requests.into_iter().enumerate() {
        if poison_at == Some(n) {
            engine.decode_poisoned("bad magic".into());
            reference.decode_poisoned("bad magic".into());
        }
        let at = format!("after request {n} ({req:?})");
        let got = engine.handle(req.clone());
        let want = reference.handle(req);
        assert_eq!(json(&got.0), json(&want.0), "{label}: response {at}");
        assert_eq!(json(&got.1), json(&want.1), "{label}: events {at}");
        if n % publish_every == 0 {
            publish(&mut engine, &mut reference, &at);
        }
    }
    publish(&mut engine, &mut reference, "after the drain");
    assert_eq!(engine.metrics_if_changed(), None, "{label}: the final plane is handed out once");

    let got: Vec<IncidentBundle> = engine.take_incidents();
    let want = reference.recorder.take_bundles();
    let render = |b: &[IncidentBundle]| b.iter().map(IncidentBundle::to_jsonl).collect::<Vec<_>>();
    assert_eq!(render(&got), render(&want), "{label}: incident bundles");
    for b in &got {
        match b.reason {
            IncidentReason::SloBreach { .. } => tally.slo_breaches += 1,
            IncidentReason::Drift { .. } => tally.drift += 1,
            IncidentReason::DecodePoisoned { .. } => {}
        }
    }
    tally
}

fn shaped(shape: WorkloadShape, load: LoadLevel) -> Vec<JobSpec> {
    let grid = grid();
    let names: Vec<&str> = grid.apps.iter().map(|(n, _)| n.as_str()).collect();
    let mut jobs = WorkloadSpec::shaped_scaled(shape, load, &names, 9, 8, 100).generate();
    jobs.sort_by(|a, b| a.arrival.total_cmp(&b.arrival).then(a.id.cmp(&b.id)));
    jobs
}

#[test]
fn every_shape_load_and_policy_matches_a_read_per_request() {
    let mut slo_breaches = 0;
    for shape in WorkloadShape::ALL {
        for load in LoadLevel::ALL {
            let jobs = shaped(shape, load);
            for policy in [Policy::Fcfs, Policy::FcfsBackfill, Policy::EdfAdmit] {
                let label = format!("{}/{}/{policy:?}", shape.name(), load.name());
                let tally = compare(&label, Scheduler::new(grid(), policy), &jobs, 1, None);
                assert!(tally.published > 1, "{label}: the plane never moved");
                slo_breaches += tally.slo_breaches;
            }
        }
    }
    // Heavy-tail under heavy load breaches every tenant's SLO at Fcfs.
    assert!(slo_breaches >= 8, "only {slo_breaches} SLO breaches: the check went unexercised");
}

#[test]
fn a_lazy_publisher_and_a_poisoned_session_see_the_same_planes() {
    let jobs = shaped(WorkloadShape::HeavyTail, LoadLevel::Heavy);
    let cfg = Scheduler::new(grid(), Policy::Fcfs);
    let tally = compare("heavy-tail/heavy/Fcfs lazy", cfg, &jobs, 7, Some(301));
    assert!(tally.slo_breaches > 0, "no SLO breach to compare");
}

/// The degraded run of `tests/serve_telemetry.rs`: a WAN fault half-way
/// through trips the drift detector.
#[test]
fn drift_alarms_match_a_read_per_request() {
    let jobs =
        WorkloadSpec::shaped(WorkloadShape::Uniform, LoadLevel::Heavy, &["kmeans"], 9).generate();
    let mut arrivals: Vec<f64> = jobs.iter().map(|j| j.arrival).collect();
    arrivals.sort_by(f64::total_cmp);
    let onset = arrivals[arrivals.len() / 2];
    let mut telemetry = TelemetryConfig::default();
    telemetry.drift.min_samples = 3;
    let cfg = Scheduler::new(grid(), Policy::Fcfs)
        .with_telemetry(telemetry)
        .with_degradation(Degradation { repo: 0, start: onset, factor: 0.15 });
    let tally = compare("uniform/heavy/Fcfs degraded", cfg, &jobs, 1, None);
    assert!(tally.drift > 0, "the WAN fault raised no drift alarm");
}
