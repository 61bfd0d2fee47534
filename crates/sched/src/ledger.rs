//! The predictor-accuracy ledger: the live record of how well
//! `T_exec = T_disk + T_net + T_comp` predictions are tracking
//! reality, and the drift detector built on top of it.
//!
//! Every cleanly completed job (no preemption, no mid-run migration —
//! those muddy the observation) appends an [`AccuracySample`] pairing
//! the target tuple `(app, repository, dataset_bytes, configuration)`
//! with the predicted and observed per-component breakdowns. Samples
//! are kept in a bounded ring per `(app, repository)` key; alongside
//! the ring, each key maintains online EWMA mean/variance of the
//! *normalized residual* per component,
//!
//! ```text
//! residual = (observed − predicted) / max(predicted, ε)
//! ```
//!
//! so a transfer that took 10× its prediction reads as ≈ 9 regardless
//! of dataset size. A [`DriftAlarm`] fires when a sample's z-score
//! against the key's prior EWMA statistics exceeds the configured
//! threshold *and* the residual itself is large in absolute terms —
//! the second gate keeps ordinary contention jitter (tiny residuals
//! over a tiny learned variance, which the bandwidth feedback loop
//! absorbs) from tripping the detector on fault-free runs.
//!
//! The ledger dumps as versioned JSONL — a header line naming the
//! format and configuration, then one line per retained sample, then
//! one per alarm — which doubles as the labelled
//! `(target, predicted, observed)` training corpus the ROADMAP's
//! `fg-learn` item needs. [`AccuracyLedger::replay_jsonl`] rebuilds a
//! ledger by re-ingesting the dumped corpus in order; when the dump
//! retains the full history (capacity ≥ samples ingested), the
//! rebuilt ledger is **bit-identical** to the live-accumulated one,
//! EWMA state included (`tests/ledger_determinism.rs` pins this by
//! property).

use serde::{Deserialize, Serialize, Writer};
use serde_json::jsonl;
use std::collections::VecDeque;
use std::sync::Arc;

/// Format version written in the dump header.
pub const LEDGER_VERSION: u32 = 1;

/// The dump's `kind` tag.
const KIND: &str = "fg-accuracy-ledger";

/// Guard against division by a vanishing prediction when normalizing
/// residuals.
const PRED_EPS: f64 = 1e-9;

/// Variance floor when standardizing: a key whose residuals have been
/// essentially constant would otherwise turn any jitter into an
/// unbounded z-score.
const VAR_FLOOR: f64 = 1e-4;

/// One predicted component of the paper's additive model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Component {
    /// `T_disk` — data-node retrieval.
    Disk,
    /// `T_net` — the WAN transfer.
    Net,
    /// `T_comp` — compute-node processing.
    Comp,
}

impl Component {
    /// All three, in model order.
    pub const ALL: [Component; 3] = [Component::Disk, Component::Net, Component::Comp];

    /// Lowercase name, as used in dump lines and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            Component::Disk => "disk",
            Component::Net => "net",
            Component::Comp => "comp",
        }
    }

    fn index(self) -> usize {
        match self {
            Component::Disk => 0,
            Component::Net => 1,
            Component::Comp => 2,
        }
    }
}

/// Drift-detector tuning. The defaults are calibrated on the demo
/// grid so that fault-free runs of every [`WorkloadShape`] stay
/// silent while a sustained WAN degradation of 10× or worse trips
/// within a handful of completions (`ext-obs` pins both properties).
///
/// [`WorkloadShape`]: crate::workload::WorkloadShape
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftConfig {
    /// EWMA smoothing factor for the residual mean/variance.
    pub alpha: f64,
    /// Samples a key must accumulate before its alarms arm.
    pub min_samples: u64,
    /// |z| a sample must reach against the key's prior statistics.
    pub z_threshold: f64,
    /// |normalized residual| the tripping sample must reach — the
    /// absolute gate that keeps small-variance jitter (a ±10% wobble
    /// over a near-zero learned variance can z-score high) quiet.
    pub residual_threshold: f64,
    /// Retained samples per `(app, repository)` ring.
    pub capacity: usize,
}

impl Default for DriftConfig {
    fn default() -> DriftConfig {
        DriftConfig {
            alpha: 0.25,
            min_samples: 8,
            z_threshold: 4.0,
            residual_threshold: 3.0,
            capacity: 256,
        }
    }
}

impl DriftConfig {
    /// Check every knob's range; the error names the first offender.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err(format!("EWMA alpha {} must be in (0, 1]", self.alpha));
        }
        if self.capacity < 1 {
            return Err("ledger capacity must be at least 1".into());
        }
        if !(self.z_threshold > 0.0 && self.residual_threshold >= 0.0) {
            return Err(format!(
                "drift thresholds (z {}, residual {}) must be positive",
                self.z_threshold, self.residual_threshold
            ));
        }
        Ok(())
    }
}

/// One completed job's labelled observation: the prediction target,
/// the predicted breakdown, and what actually happened.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccuracySample {
    /// Global ingestion sequence number, assigned by the ledger (the
    /// caller's value is overwritten). Dump order == `seq` order ==
    /// the exact order the live ledger folded samples into its EWMA
    /// state, which is what makes replay bit-identical.
    pub seq: u64,
    /// Submission id.
    pub id: usize,
    /// Tenant index.
    pub tenant: usize,
    /// Application name (half of the ledger key). Like the next two,
    /// the scheduler's own copy of the name, shared by reference count.
    pub app: Arc<str>,
    /// Repository name (the other half).
    pub repo: Arc<str>,
    /// Configuration label the job ran under.
    pub config: Arc<str>,
    /// Dataset size in bytes.
    pub dataset_bytes: u64,
    /// Predicted `(disk, net, comp)` durations, seconds.
    pub predicted: [f64; 3],
    /// Observed `(disk, net, comp)` durations, seconds.
    pub observed: [f64; 3],
    /// Placement instant (sim clock).
    pub placed_at: f64,
    /// Completion instant (sim clock).
    pub finish: f64,
}

impl AccuracySample {
    /// The normalized residual of one component.
    pub fn residual(&self, c: Component) -> f64 {
        let i = c.index();
        (self.observed[i] - self.predicted[i]) / self.predicted[i].max(PRED_EPS)
    }
}

/// A drift detection: one component of one `(app, repository)` key
/// left its learned residual band. Raised through the [`CoreEvent`]
/// log when the event log is on, and always recorded in the ledger.
///
/// [`CoreEvent`]: crate::core::CoreEvent
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftAlarm {
    /// Application name.
    pub app: String,
    /// Repository name.
    pub repo: String,
    /// Which predicted component drifted.
    pub component: Component,
    /// Sim-clock instant (the tripping sample's completion).
    pub at: f64,
    /// Submission id of the tripping sample.
    pub job_id: usize,
    /// The tripping sample's normalized residual.
    pub residual: f64,
    /// Its z-score against the key's prior EWMA statistics.
    pub z: f64,
    /// The key's EWMA residual mean after folding the sample in.
    pub mean: f64,
    /// Samples the key had seen, including this one.
    pub samples: u64,
}

/// Online EWMA mean/variance of one component's residual stream.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ResidualStat {
    /// Samples folded in.
    pub count: u64,
    /// EWMA mean of the normalized residual.
    pub mean: f64,
    /// EWMA variance of the normalized residual.
    pub var: f64,
}

impl ResidualStat {
    /// Fold `x` in; returns the z-score of `x` against the *prior*
    /// statistics (0 for the first sample — there is no prior).
    fn observe(&mut self, x: f64, alpha: f64) -> f64 {
        if self.count == 0 {
            self.count = 1;
            self.mean = x;
            self.var = 0.0;
            return 0.0;
        }
        let z = (x - self.mean) / self.var.max(VAR_FLOOR).sqrt();
        let d = x - self.mean;
        let incr = alpha * d;
        self.mean += incr;
        self.var = (1.0 - alpha) * (self.var + d * incr);
        self.count += 1;
        z
    }
}

/// One `(app, repository)` key's state: the bounded sample ring and
/// the per-component residual statistics over the key's *full*
/// history (statistics never forget; only the ring is bounded).
#[derive(Debug, Clone, PartialEq)]
pub struct KeyLedger {
    /// Application name.
    pub app: String,
    /// Repository name.
    pub repo: String,
    /// The retained samples, oldest first (bounded by
    /// [`DriftConfig::capacity`]).
    pub samples: VecDeque<AccuracySample>,
    /// Samples ever ingested for this key (≥ `samples.len()`).
    pub total: u64,
    /// Per-component residual statistics, in [`Component::ALL`] order.
    pub stats: [ResidualStat; 3],
}

/// A compact, serializable view of one key for telemetry snapshots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KeyDrift {
    /// Application name.
    pub app: String,
    /// Repository name.
    pub repo: String,
    /// Samples ever ingested.
    pub total: u64,
    /// EWMA residual mean per component (`disk`, `net`, `comp`).
    pub mean: [f64; 3],
    /// EWMA residual variance per component.
    pub var: [f64; 3],
}

/// The predictor-accuracy ledger: bounded per-key sample rings, the
/// drift detector, and the alarm log.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyLedger {
    cfg: DriftConfig,
    /// Keys in first-seen order (deterministic, replay-stable).
    keys: Vec<KeyLedger>,
    alarms: Vec<DriftAlarm>,
    total: u64,
}

impl AccuracyLedger {
    /// An empty ledger under `cfg`.
    pub fn new(cfg: DriftConfig) -> AccuracyLedger {
        if let Err(e) = cfg.validate() {
            panic!("bad DriftConfig: {e}");
        }
        AccuracyLedger { cfg, keys: Vec::new(), alarms: Vec::new(), total: 0 }
    }

    /// The detector configuration.
    pub fn config(&self) -> DriftConfig {
        self.cfg
    }

    /// Samples ever ingested, across all keys.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Per-key state, in first-seen order.
    pub fn keys(&self) -> &[KeyLedger] {
        &self.keys
    }

    /// Every alarm raised so far, in firing order.
    pub fn alarms(&self) -> &[DriftAlarm] {
        &self.alarms
    }

    /// The newest `n` retained samples across all keys, in ingestion
    /// order — the flight recorder's "ledger tail".
    pub fn tail(&self, n: usize) -> Vec<AccuracySample> {
        let mut all: Vec<&AccuracySample> =
            self.keys.iter().flat_map(|k| k.samples.iter()).collect();
        all.sort_by_key(|s| s.seq);
        let skip = all.len().saturating_sub(n);
        all.into_iter().skip(skip).cloned().collect()
    }

    /// Compact per-key drift summaries for telemetry snapshots.
    pub fn key_drift(&self) -> Vec<KeyDrift> {
        self.keys
            .iter()
            .map(|k| KeyDrift {
                app: k.app.clone(),
                repo: k.repo.clone(),
                total: k.total,
                mean: [k.stats[0].mean, k.stats[1].mean, k.stats[2].mean],
                var: [k.stats[0].var, k.stats[1].var, k.stats[2].var],
            })
            .collect()
    }

    /// Ingest one sample: append to its key's ring, update the EWMA
    /// statistics, and return any alarms this sample tripped (also
    /// recorded in [`alarms`](AccuracyLedger::alarms)).
    pub fn ingest(&mut self, mut sample: AccuracySample) -> Vec<DriftAlarm> {
        sample.seq = self.total;
        let same_key = |k: &KeyLedger| *k.app == *sample.app && *k.repo == *sample.repo;
        let ki = match self.keys.iter().position(same_key) {
            Some(i) => i,
            None => {
                self.keys.push(KeyLedger {
                    app: sample.app.to_string(),
                    repo: sample.repo.to_string(),
                    samples: VecDeque::new(),
                    total: 0,
                    stats: [ResidualStat::default(); 3],
                });
                self.keys.len() - 1
            }
        };
        let cfg = self.cfg;
        let key = &mut self.keys[ki];
        key.total += 1;
        self.total += 1;
        let mut fired = Vec::new();
        for c in Component::ALL {
            let x = sample.residual(c);
            let st = &mut key.stats[c.index()];
            let prior_count = st.count;
            let z = st.observe(x, cfg.alpha);
            if prior_count >= cfg.min_samples
                && z.abs() >= cfg.z_threshold
                && x.abs() >= cfg.residual_threshold
            {
                fired.push(DriftAlarm {
                    app: key.app.clone(),
                    repo: key.repo.clone(),
                    component: c,
                    at: sample.finish,
                    job_id: sample.id,
                    residual: x,
                    z,
                    mean: st.mean,
                    samples: st.count,
                });
            }
        }
        key.samples.push_back(sample);
        while key.samples.len() > cfg.capacity {
            key.samples.pop_front();
        }
        self.alarms.extend(fired.iter().cloned());
        fired
    }

    /// Dump as versioned JSONL: a header line, one `sample` line per
    /// retained sample in ingestion order, one `alarm` line per alarm.
    pub fn dump_jsonl(&self) -> String {
        let mut out = Writer::new();
        let header = Header {
            kind: KIND.into(),
            version: LEDGER_VERSION,
            config: self.cfg,
            total: self.total,
        };
        jsonl::line(&mut out, &header);
        // Retained samples in global ingestion order: every sample
        // carries (finish, id), and ingestion happens in nondecreasing
        // completion order, so the merge reproduces it.
        for s in self.tail(usize::MAX) {
            jsonl::tagged(&mut out, "Sample", &s);
        }
        for a in &self.alarms {
            jsonl::tagged(&mut out, "Alarm", a);
        }
        out.into_string()
    }

    /// Rebuild a ledger by re-ingesting a dumped corpus, line by line,
    /// under the dump's own configuration. Alarm lines are checked
    /// against the alarms re-raised during ingestion — a corpus whose
    /// alarms cannot be reproduced is corrupt. When the dump retained
    /// the full history, the result is bit-identical to the live
    /// ledger that produced it.
    pub fn replay_jsonl(text: &str) -> Result<AccuracyLedger, jsonl::Error> {
        let (header, lines): (Header, _) = jsonl::read(text, KIND, ("version", LEDGER_VERSION))?;
        header.config.validate().map_err(|e| jsonl::Error::at(1, format!("bad config: {e}")))?;
        let mut ledger = AccuracyLedger::new(header.config);
        let mut dumped_alarms: Vec<DriftAlarm> = Vec::new();
        for (n, line) in lines {
            match jsonl::parse(n, line)? {
                DumpLine::Sample(s) => {
                    ledger.ingest(s);
                }
                DumpLine::Alarm(a) => dumped_alarms.push(a),
            }
        }
        if ledger.alarms != dumped_alarms {
            let (raised, dumped) = (ledger.alarms.len(), dumped_alarms.len());
            let reason =
                format!("replayed corpus raised {raised} alarms but the dump recorded {dumped}");
            return Err(jsonl::Error { line: None, reason });
        }
        Ok(ledger)
    }
}

/// The dump's header line.
#[derive(Serialize, Deserialize)]
struct Header {
    kind: String,
    version: u32,
    config: DriftConfig,
    /// Informational: a replay recounts what it ingests.
    #[serde(default)]
    total: u64,
}

/// One non-header dump line as read back (externally tagged:
/// `{"Sample": {...}}` / `{"Alarm": {...}}`, the lines `dump_jsonl`
/// writes).
#[derive(Deserialize)]
enum DumpLine {
    /// A retained sample.
    Sample(AccuracySample),
    /// A raised alarm.
    Alarm(DriftAlarm),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(id: usize, net_obs: f64) -> AccuracySample {
        AccuracySample {
            seq: 0, // assigned by ingest
            id,
            tenant: 0,
            app: "kmeans".into(),
            repo: "repo-a".into(),
            config: "4x4".into(),
            dataset_bytes: 1 << 28,
            predicted: [1.0, 10.0, 5.0],
            observed: [1.0, net_obs, 5.0],
            placed_at: id as f64 * 10.0,
            finish: id as f64 * 10.0 + 16.0,
        }
    }

    #[test]
    fn residuals_are_normalized_per_component() {
        let s = sample(0, 30.0);
        assert_eq!(s.residual(Component::Disk), 0.0);
        assert_eq!(s.residual(Component::Net), 2.0);
        assert_eq!(s.residual(Component::Comp), 0.0);
    }

    #[test]
    fn a_sustained_shift_trips_exactly_one_component() {
        let mut ledger = AccuracyLedger::new(DriftConfig::default());
        for i in 0..20 {
            // Mild jitter around the prediction: ±10%.
            let obs = 10.0 * if i % 2 == 0 { 1.1 } else { 0.9 };
            assert!(ledger.ingest(sample(i, obs)).is_empty(), "jitter must not alarm");
        }
        // The WAN collapses 10×: every later transfer takes ~100s.
        let mut tripped = None;
        for i in 20..40 {
            let fired = ledger.ingest(sample(i, 100.0));
            if let Some(a) = fired.first() {
                tripped = Some((i, a.clone()));
                break;
            }
        }
        let (at, alarm) = tripped.expect("a 10x degradation must trip the detector");
        assert!(at - 20 <= 5, "alarm came {} jobs after onset", at - 20);
        assert_eq!(alarm.component, Component::Net);
        assert!(alarm.residual > 5.0);
        assert_eq!(ledger.alarms().len(), 1);
    }

    #[test]
    fn alarms_stay_silent_below_min_samples() {
        let cfg = DriftConfig { min_samples: 50, ..DriftConfig::default() };
        let mut ledger = AccuracyLedger::new(cfg);
        for i in 0..40 {
            let obs = if i < 10 { 10.0 } else { 200.0 };
            assert!(ledger.ingest(sample(i, obs)).is_empty());
        }
    }

    #[test]
    fn the_ring_is_bounded_but_statistics_never_forget() {
        let cfg = DriftConfig { capacity: 4, ..DriftConfig::default() };
        let mut ledger = AccuracyLedger::new(cfg);
        for i in 0..100 {
            ledger.ingest(sample(i, 10.5));
        }
        let key = &ledger.keys()[0];
        assert_eq!(key.samples.len(), 4);
        assert_eq!(key.samples[0].id, 96, "oldest retained sample");
        assert_eq!(key.total, 100);
        assert_eq!(key.stats[Component::Net.index()].count, 100);
    }

    #[test]
    fn dump_replay_is_bit_identical_when_nothing_was_evicted() {
        let mut live = AccuracyLedger::new(DriftConfig::default());
        for i in 0..30 {
            let obs = 10.0 + (i % 7) as f64;
            live.ingest(sample(i, obs));
        }
        for i in 30..45 {
            live.ingest(sample(i, 120.0)); // trips at least one alarm
        }
        assert!(!live.alarms().is_empty());
        let dump = live.dump_jsonl();
        let rebuilt = AccuracyLedger::replay_jsonl(&dump).expect("dump replays");
        assert_eq!(live, rebuilt);
        // And the rebuild is a fixpoint.
        assert_eq!(rebuilt.dump_jsonl(), dump);
    }

    #[test]
    fn replay_rejects_wrong_kind_and_version() {
        assert!(AccuracyLedger::replay_jsonl("").is_err());
        assert!(AccuracyLedger::replay_jsonl(r#"{"kind":"other","version":1,"config":{"alpha":0.25,"min_samples":8,"z_threshold":4.0,"residual_threshold":3.0,"capacity":256},"total":0}"#).is_err());
        let bad_version = r#"{"kind":"fg-accuracy-ledger","version":99,"config":{"alpha":0.25,"min_samples":8,"z_threshold":4.0,"residual_threshold":3.0,"capacity":256},"total":0}"#;
        let err = AccuracyLedger::replay_jsonl(bad_version).unwrap_err().to_string();
        assert!(err.contains("version 99"), "{err}");
        // One out-of-range header per checked field: an error naming
        // the line, never a panic.
        for config in [
            r#"{"alpha":0.0,"min_samples":8,"z_threshold":4.0,"residual_threshold":3.0,"capacity":256}"#,
            r#"{"alpha":1.5,"min_samples":8,"z_threshold":4.0,"residual_threshold":3.0,"capacity":256}"#,
            r#"{"alpha":"nan","min_samples":8,"z_threshold":4.0,"residual_threshold":3.0,"capacity":256}"#,
            r#"{"alpha":0.25,"min_samples":8,"z_threshold":0.0,"residual_threshold":3.0,"capacity":256}"#,
            r#"{"alpha":0.25,"min_samples":8,"z_threshold":"nan","residual_threshold":3.0,"capacity":256}"#,
            r#"{"alpha":0.25,"min_samples":8,"z_threshold":4.0,"residual_threshold":-1.0,"capacity":256}"#,
            r#"{"alpha":0.25,"min_samples":8,"z_threshold":4.0,"residual_threshold":"nan","capacity":256}"#,
            r#"{"alpha":0.25,"min_samples":8,"z_threshold":4.0,"residual_threshold":3.0,"capacity":0}"#,
        ] {
            let dump = format!(
                r#"{{"kind":"fg-accuracy-ledger","version":1,"config":{config},"total":0}}"#
            );
            let err = AccuracyLedger::replay_jsonl(&dump).unwrap_err().to_string();
            assert!(err.starts_with("line 1: bad config: "), "{config}: {err}");
        }
    }

    #[test]
    fn tail_preserves_ingestion_order_across_keys() {
        let mut ledger = AccuracyLedger::new(DriftConfig::default());
        let mut other = sample(1, 10.0);
        other.app = "apriori".into();
        ledger.ingest(sample(0, 10.0));
        ledger.ingest(other);
        let tail = ledger.tail(10);
        assert_eq!(tail.len(), 2);
        assert_eq!(&*tail[0].app, "kmeans");
        assert_eq!(tail[0].seq, 0);
        assert_eq!(&*tail[1].app, "apriori");
        assert_eq!(tail[1].seq, 1);
        let last = ledger.tail(1);
        assert_eq!(last.len(), 1);
        assert_eq!(&*last[0].app, "apriori");
    }
}
