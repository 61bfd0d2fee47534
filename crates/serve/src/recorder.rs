//! The flight recorder: a bounded ring of recent scheduling events
//! plus the machinery to dump a self-contained JSONL incident bundle
//! the moment something goes wrong — a drift alarm from the accuracy
//! ledger, a tenant blowing through its deadline SLO, or a poisoned
//! frame decoder on a session.
//!
//! A bundle is everything a post-mortem needs in one document: the
//! tripping reason, the core counters at that instant, the last-N
//! decision events, the accuracy ledger's tail, and every drift alarm
//! raised so far. Everything is stamped with the *sim* clock, so two
//! identical runs produce byte-identical bundles — the golden test in
//! `tests/serve_telemetry.rs` pins exactly that.

use fg_sched::{AccuracySample, CoreEvent, CoreStats, DriftAlarm, TelemetrySnapshot};
use serde::{Deserialize, Serialize, Writer};
use serde_json::jsonl;
use std::collections::VecDeque;

/// Format version written in every bundle header.
pub const INCIDENT_VERSION: u32 = 1;

/// Flight-recorder tuning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecorderConfig {
    /// Decision events retained in the ring.
    pub capacity: usize,
    /// Accuracy samples included in a bundle's ledger tail.
    pub ledger_tail: usize,
    /// Deadline-violation rate at which a tenant's SLO counts as
    /// breached.
    pub slo_max_violation_rate: f64,
    /// Completions a tenant must have before its SLO arms (a single
    /// early miss is not an incident).
    pub slo_min_completed: u64,
}

impl Default for RecorderConfig {
    fn default() -> RecorderConfig {
        RecorderConfig {
            capacity: 256,
            ledger_tail: 32,
            slo_max_violation_rate: 0.5,
            slo_min_completed: 16,
        }
    }
}

/// Why a bundle was cut.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum IncidentReason {
    /// The accuracy ledger's drift detector fired.
    Drift {
        /// The tripping alarm.
        alarm: DriftAlarm,
    },
    /// A tenant's deadline-violation rate crossed the configured SLO.
    SloBreach {
        /// Tenant index.
        tenant: usize,
        /// The violation rate at the breach.
        violation_rate: f64,
        /// Completions the rate was measured over.
        completed: u64,
    },
    /// A session's frame decoder was poisoned by stream corruption.
    DecodePoisoned {
        /// The rendered [`WireError`](crate::frame::WireError).
        error: String,
    },
}

/// One ring entry: the recorder's own monotone sequence number plus
/// the event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecordedEvent {
    /// Position in the full event stream (survives ring eviction, so a
    /// bundle shows *where* its window sits).
    pub seq: u64,
    /// The decision event.
    pub event: CoreEvent,
}

/// A self-contained incident document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IncidentBundle {
    /// Format version ([`INCIDENT_VERSION`]).
    pub version: u32,
    /// What tripped the recorder.
    pub reason: IncidentReason,
    /// Sim-clock instant of the trip.
    pub at: f64,
    /// Core counters at the trip (`None` when the session was already
    /// drained, as for a post-drain decode poisoning).
    pub stats: Option<CoreStats>,
    /// The last-N decision events, oldest first.
    pub events: Vec<RecordedEvent>,
    /// The accuracy ledger's newest retained samples, ingestion order.
    pub ledger_tail: Vec<AccuracySample>,
    /// Every drift alarm raised before the trip, firing order.
    pub alarms: Vec<DriftAlarm>,
}

impl IncidentBundle {
    /// Render the bundle as self-contained JSONL: a header line naming
    /// the format, reason, instant, and counters, then one externally
    /// tagged line per retained event (`Event`), ledger sample
    /// (`Sample`), and prior alarm (`Alarm`).
    pub fn to_jsonl(&self) -> String {
        #[derive(Serialize)]
        struct Header {
            kind: &'static str,
            version: u32,
            reason: IncidentReason,
            at: f64,
            stats: Option<CoreStats>,
        }
        let mut out = Writer::new();
        let header = Header {
            kind: "fg-incident",
            version: self.version,
            reason: self.reason.clone(),
            at: self.at,
            stats: self.stats.clone(),
        };
        jsonl::line(&mut out, &header);
        for e in &self.events {
            jsonl::tagged(&mut out, "Event", e);
        }
        for s in &self.ledger_tail {
            jsonl::tagged(&mut out, "Sample", s);
        }
        for a in &self.alarms {
            jsonl::tagged(&mut out, "Alarm", a);
        }
        out.into_string()
    }
}

/// The bounded event ring and SLO trip state. The engine records every
/// decision event here and cuts bundles on trip conditions; completed
/// bundles are drained with [`take_bundles`](FlightRecorder::take_bundles).
#[derive(Debug)]
pub struct FlightRecorder {
    cfg: RecorderConfig,
    ring: VecDeque<RecordedEvent>,
    seq: u64,
    /// Tenants whose SLO breach has already been bundled — one bundle
    /// per tenant, not one per completion past the threshold.
    slo_tripped: Vec<bool>,
    bundles: Vec<IncidentBundle>,
}

impl FlightRecorder {
    /// An empty recorder under `cfg`.
    pub fn new(cfg: RecorderConfig) -> FlightRecorder {
        assert!(cfg.capacity >= 1, "recorder needs at least one slot");
        FlightRecorder {
            cfg,
            ring: VecDeque::new(),
            seq: 0,
            slo_tripped: Vec::new(),
            bundles: Vec::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> RecorderConfig {
        self.cfg
    }

    /// Events recorded ever (≥ the ring's current length).
    pub fn recorded(&self) -> u64 {
        self.seq
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &RecordedEvent> {
        self.ring.iter()
    }

    /// Append one decision event to the ring.
    pub fn record(&mut self, event: &CoreEvent) {
        self.ring.push_back(RecordedEvent { seq: self.seq, event: event.clone() });
        self.seq += 1;
        while self.ring.len() > self.cfg.capacity {
            self.ring.pop_front();
        }
    }

    /// SLO trip check against a fresh telemetry snapshot: returns a
    /// reason per *newly* breached tenant and latches them so each
    /// tenant bundles at most once.
    pub fn slo_breaches(&mut self, snapshot: &TelemetrySnapshot) -> Vec<IncidentReason> {
        let mut out = Vec::new();
        for t in &snapshot.tenants {
            if self.slo_tripped.len() <= t.tenant {
                self.slo_tripped.resize(t.tenant + 1, false);
            }
            if self.slo_tripped[t.tenant]
                || t.completed < self.cfg.slo_min_completed
                || t.violation_rate < self.cfg.slo_max_violation_rate
            {
                continue;
            }
            self.slo_tripped[t.tenant] = true;
            out.push(IncidentReason::SloBreach {
                tenant: t.tenant,
                violation_rate: t.violation_rate,
                completed: t.completed,
            });
        }
        out
    }

    /// Cut a bundle: freeze the ring plus the supplied context under
    /// `reason` and queue it for collection.
    pub fn trip(
        &mut self,
        reason: IncidentReason,
        at: f64,
        stats: Option<CoreStats>,
        ledger_tail: Vec<AccuracySample>,
        alarms: Vec<DriftAlarm>,
    ) {
        self.bundles.push(IncidentBundle {
            version: INCIDENT_VERSION,
            reason,
            at,
            stats,
            events: self.ring.iter().cloned().collect(),
            ledger_tail,
            alarms,
        });
    }

    /// Drain the bundles cut since the last call.
    pub fn take_bundles(&mut self) -> Vec<IncidentBundle> {
        std::mem::take(&mut self.bundles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(id: usize) -> CoreEvent {
        CoreEvent::Completed { id, at: id as f64, met_deadline: Some(true) }
    }

    #[test]
    fn the_ring_is_bounded_and_seq_survives_eviction() {
        let cfg = RecorderConfig { capacity: 3, ..RecorderConfig::default() };
        let mut r = FlightRecorder::new(cfg);
        for i in 0..10 {
            r.record(&event(i));
        }
        let seqs: Vec<u64> = r.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
        assert_eq!(r.recorded(), 10);
    }

    #[test]
    fn bundles_render_as_versioned_jsonl() {
        let mut r = FlightRecorder::new(RecorderConfig::default());
        r.record(&event(0));
        r.record(&event(1));
        r.trip(
            IncidentReason::DecodePoisoned { error: "bad magic".into() },
            5.0,
            None,
            Vec::new(),
            Vec::new(),
        );
        let bundles = r.take_bundles();
        assert_eq!(bundles.len(), 1);
        let text = bundles[0].to_jsonl();
        let mut lines = text.lines();
        let header = lines.next().unwrap();
        assert!(header.contains(r#""kind":"fg-incident""#), "{header}");
        assert!(header.contains(r#""version":1"#), "{header}");
        assert!(header.contains("bad magic"), "{header}");
        assert_eq!(lines.count(), 2, "one line per retained event");
        assert!(r.take_bundles().is_empty(), "bundles drain once");
    }

    #[test]
    fn slo_breaches_latch_per_tenant() {
        use fg_sched::TenantSlo;
        let cfg = RecorderConfig {
            slo_min_completed: 4,
            slo_max_violation_rate: 0.5,
            ..RecorderConfig::default()
        };
        let mut r = FlightRecorder::new(cfg);
        let snap = |completed: u64, violations: u64| TelemetrySnapshot {
            now: 0.0,
            epoch: completed,
            samples: 0,
            tenants: vec![TenantSlo {
                tenant: 0,
                completed,
                deadline_violations: violations,
                violation_rate: violations as f64 / completed.max(1) as f64,
                mean_quote_error: 0.0,
                queue_wait_p99: None,
            }],
            keys: Vec::new(),
            alarms: Vec::new(),
        };
        assert!(r.slo_breaches(&snap(2, 2)).is_empty(), "below min_completed");
        assert!(r.slo_breaches(&snap(4, 1)).is_empty(), "below the rate");
        let fired = r.slo_breaches(&snap(4, 3));
        assert_eq!(fired.len(), 1);
        assert!(r.slo_breaches(&snap(8, 7)).is_empty(), "latched: one bundle per tenant");
    }
}
