//! The two trained predictors: per-key ridge regression and an
//! EWMA-ratio-corrected hybrid.
//!
//! Both implement [`Predictor`] with interior mutability so one
//! instance can sit behind an `Arc` shared between a scheduler core and
//! its snapshots, both fall back to the analytical model until they
//! have seen enough evidence, and both obey the determinism contract:
//! state changes only in [`Predictor::observe`], every change that can
//! alter a prediction bumps the epoch, and a fixed sample multiset
//! produces bit-identical models regardless of arrival order (the
//! learned predictor keeps each key's retained samples in one canonical
//! order and always sums them in that order).
//!
//! # Reading while training
//!
//! Each predictor's read side is one function, `prepare`: take the
//! state lock, find the `(app, repository)` key, copy its model out
//! (fifteen coefficients, or three factors), release the lock, and
//! return a [`Price`] made of the analytical preparation plus that
//! copy. [`Predictor::with_prepared`] hands it to the scan and
//! [`Predictor::predict_deployment`] prices it once, so a scan takes
//! the lock once per (repository, site) pair, nothing is priced with
//! the lock held, and every price taken from one preparation comes
//! from one version of the model, whatever `observe` does meanwhile.
//!
//! # Trust region
//!
//! A regression fit from a handful of samples can extrapolate wildly on
//! targets far from its training set. [`LearnedPredictor`] therefore
//! clamps each predicted component into
//! `[analytical / trust, analytical × trust]`. With the default
//! `trust = 2`, the guard-rail is structural: the learned model can
//! never admit a job the analytical model would reject by more than 2×,
//! and never rank a candidate more than 2× cheaper than physics says.

use crate::ridge::solve_ridge;
use fg_cluster::{Configuration, DeploymentRef};
use fg_predict::{
    prepare, AppClasses, Observation, Prediction, Predictor, Prepared, Price, Profile,
    ScalingFactors, SelectionError, SiteQuery,
};
use serde::{Deserialize, Serialize, Writer};
use serde_json::jsonl;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Model-dump format version; bumped on any incompatible change to the
/// JSONL layout or the feature map.
pub const MODEL_VERSION: u32 = 1;

/// The `kind` tags of the two model dumps.
const LEARNED: &str = "fg-learn-model";
const HYBRID: &str = "fg-hybrid-model";

/// A learned-model dump's header line: the tag and the config.
#[derive(Serialize, Deserialize)]
struct LearnedHeader {
    kind: String,
    version: u32,
    config: LearnConfig,
}

/// A hybrid-model dump's header line: the tag and the config.
#[derive(Serialize, Deserialize)]
struct HybridHeader {
    kind: String,
    version: u32,
    config: HybridConfig,
}

/// Component count (`[disk, network, compute]`).
const COMPONENTS: usize = 3;

/// Feature dimension of [`features`].
const DIMS: usize = 5;

/// The shared feature map: physically-motivated terms spanning all
/// three execution-time components.
///
/// With `S` the dataset in MB, `b` the per-stream WAN bandwidth in
/// MB/s, `n` data nodes and `c` compute nodes:
/// `[1, S/n, S/(n·b), S/c, c]` — retrieval scales with bytes per data
/// node, streaming with bytes per node-stream over bandwidth, compute
/// with bytes per compute node plus a combine term linear in `c`.
fn features(
    data_nodes: usize,
    compute_nodes: usize,
    wan_bw: f64,
    dataset_bytes: u64,
) -> [f64; DIMS] {
    let s = dataset_bytes as f64 / 1e6;
    let b = wan_bw / 1e6;
    let n = data_nodes as f64;
    let c = compute_nodes as f64;
    [1.0, s / n, s / (n * b), s / c, c]
}

fn dot(w: &[f64; DIMS], phi: &[f64; DIMS]) -> f64 {
    w.iter().zip(phi).map(|(a, b)| a * b).sum()
}

/// Tuning knobs for [`LearnedPredictor`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LearnConfig {
    /// Observations a `(app, repository)` key must accumulate before
    /// its first fit; until then the analytical model answers.
    pub min_samples: usize,
    /// Retained samples per key; older ones fall off a ring.
    pub capacity: usize,
    /// Ridge damping on the normal equations.
    pub lambda: f64,
    /// Trust-region half-width: each predicted component is clamped to
    /// `[analytical / trust, analytical × trust]`. Must be `>= 1`.
    pub trust: f64,
}

impl Default for LearnConfig {
    fn default() -> LearnConfig {
        LearnConfig { min_samples: 8, capacity: 512, lambda: 1e-6, trust: 2.0 }
    }
}

impl LearnConfig {
    /// Check every knob's range; the error names the first offender.
    pub fn validate(&self) -> Result<(), String> {
        if self.min_samples < DIMS {
            return Err(format!(
                "min_samples {}: cannot fit {DIMS} coefficients from fewer samples",
                self.min_samples
            ));
        }
        if self.capacity < self.min_samples {
            return Err(format!(
                "capacity {} is below min_samples {}",
                self.capacity, self.min_samples
            ));
        }
        if !(self.lambda.is_finite() && self.lambda >= 0.0) {
            return Err(format!("lambda {} must be finite and non-negative", self.lambda));
        }
        if !(self.trust.is_finite() && self.trust >= 1.0) {
            return Err(format!("trust {} must be finite and at least 1", self.trust));
        }
        Ok(())
    }
}

/// One retained training sample: the placement tuple and the observed
/// component times. The prediction that accompanied it is not stored —
/// fits regress *observed* times on the tuple alone.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SampleRow {
    data_nodes: usize,
    compute_nodes: usize,
    wan_bw: f64,
    dataset_bytes: u64,
    observed: [f64; COMPONENTS],
    /// Ingestion sequence number within the key: the smallest is the
    /// one evicted, and a dump lists samples by it. Not part of the
    /// dump — a replay numbers the samples as it reads them.
    #[serde(skip)]
    seq: u64,
}

impl SampleRow {
    /// The canonical total order a key's samples are kept in, making
    /// the fit a function of the retained *multiset*. Floats compare by
    /// sign-aware bit patterns (all values here are non-negative in
    /// practice; ties are broken by later fields).
    fn sort_key(&self) -> (u64, usize, usize, u64, [u64; COMPONENTS]) {
        (
            self.dataset_bytes,
            self.data_nodes,
            self.compute_nodes,
            self.wan_bw.to_bits(),
            [self.observed[0].to_bits(), self.observed[1].to_bits(), self.observed[2].to_bits()],
        )
    }

    fn features(&self) -> [f64; DIMS] {
        features(self.data_nodes, self.compute_nodes, self.wan_bw, self.dataset_bytes)
    }

    /// Whether a fit can use this sample. A zero node count or a zero
    /// bandwidth gives a non-finite feature row, which the solver
    /// refuses along with every other row of its key — so such a
    /// sample is never retained. (An infinite bandwidth is named
    /// separately: its feature is a finite zero.)
    fn fittable(&self) -> bool {
        self.wan_bw.is_finite()
            && self.features().iter().chain(&self.observed).all(|v| v.is_finite())
    }
}

/// Fitted coefficients per component.
type Coefs = [[f64; DIMS]; COMPONENTS];

/// One line of a model dump: a key, its retained samples in ingestion
/// order, and its fitted coefficients (`null` until a fit succeeded).
#[derive(Serialize, Deserialize)]
struct KeyLine {
    app: String,
    repo: String,
    samples: Vec<SampleRow>,
    coefs: Option<Coefs>,
}

/// Per-`(app, repository)` state: the retained samples and the model
/// fitted from them.
#[derive(Debug)]
struct Ring {
    app: String,
    repo: String,
    /// The retained samples — the only copy — in [`SampleRow::sort_key`]
    /// order, equal keys in ingestion order (what a stable sort of the
    /// ingestion-ordered ring gives).
    samples: Vec<SampleRow>,
    /// Sequence number the next retained sample gets.
    next_seq: u64,
    /// `None` until the first successful fit.
    coefs: Option<Coefs>,
}

/// Online per-`(app, repository)` ridge regression behind the
/// [`Predictor`] seam.
///
/// Every clean completion joins its key's bounded sample set (the
/// oldest leaves once `capacity` is reached); once `min_samples` have
/// accumulated the key refits all three components from one pass over
/// the set in its canonical order, so the model depends only on *which*
/// samples are retained, never on their arrival order. Keys without a
/// model — and any fit the ridge core rejects — fall back to the
/// analytical prediction, and fitted predictions are clamped into the
/// trust region around it.
#[derive(Debug)]
pub struct LearnedPredictor {
    cfg: LearnConfig,
    state: Mutex<Vec<Ring>>,
    epoch: AtomicU64,
}

impl Default for LearnedPredictor {
    fn default() -> LearnedPredictor {
        LearnedPredictor::new(LearnConfig::default())
    }
}

impl LearnedPredictor {
    /// An empty predictor: answers analytically until trained.
    pub fn new(cfg: LearnConfig) -> LearnedPredictor {
        if let Err(e) = cfg.validate() {
            panic!("bad LearnConfig: {e}");
        }
        LearnedPredictor { cfg, state: Mutex::new(Vec::new()), epoch: AtomicU64::new(0) }
    }

    /// The configuration this predictor was built with.
    pub fn config(&self) -> LearnConfig {
        self.cfg
    }

    /// Keys that currently hold a fitted model.
    pub fn trained_keys(&self) -> usize {
        self.state.lock().unwrap().iter().filter(|r| r.coefs.is_some()).count()
    }

    /// Serialize the model as versioned JSONL: a header line carrying
    /// the config, then one line per `(app, repository)` key with its
    /// retained samples (ingestion order) and fitted coefficients.
    /// The epoch is deliberately excluded — it is an instance-local
    /// cache-invalidation counter, not part of the model.
    pub fn dump_jsonl(&self) -> String {
        let mut out = Writer::new();
        let header =
            LearnedHeader { kind: LEARNED.into(), version: MODEL_VERSION, config: self.cfg };
        jsonl::line(&mut out, &header);
        for ring in self.state.lock().unwrap().iter() {
            let mut samples = ring.samples.clone();
            samples.sort_by_key(|s| s.seq);
            let line = KeyLine {
                app: ring.app.clone(),
                repo: ring.repo.clone(),
                samples,
                coefs: ring.coefs,
            };
            jsonl::line(&mut out, &line);
        }
        out.into_string()
    }

    /// Rebuild a predictor from a [`Self::dump_jsonl`] corpus. The dump
    /// is authoritative: samples and coefficients are installed
    /// verbatim, so `dump → replay → dump` is a byte fixpoint. A line
    /// no live predictor could have written — a second line for an
    /// `(app, repository)` already seen, which no lookup would reach, a
    /// sample `observe` would have dropped, more samples than the
    /// dump's own capacity — is an error naming the line. That includes
    /// a version-1 dump written before `observe` dropped unfittable
    /// samples (zero bandwidth or node count): the poisoned row that
    /// had frozen its key is refused here rather than replayed. The
    /// epoch restarts at the number of trained keys (any positive value
    /// distinguishes a trained replay from a fresh instance).
    pub fn replay_jsonl(text: &str) -> Result<LearnedPredictor, jsonl::Error> {
        let (header, lines): (LearnedHeader, _) =
            jsonl::read(text, LEARNED, ("version", MODEL_VERSION))?;
        header.config.validate().map_err(|e| jsonl::Error::at(1, format!("bad config: {e}")))?;
        let mut rings: Vec<Ring> = Vec::new();
        for (n, line) in lines {
            let KeyLine { app, repo, mut samples, coefs } = jsonl::parse(n, line)?;
            if rings.iter().any(|r| r.app == app && r.repo == repo) {
                return Err(jsonl::Error::at(n, format!("a second line for ({app:?}, {repo:?})")));
            }
            let (len, capacity) = (samples.len(), header.config.capacity);
            if len > capacity {
                let why = format!("{len} samples exceed the dump's own capacity {capacity}");
                return Err(jsonl::Error::at(n, why));
            }
            if let Some(at) = samples.iter().position(|s| !s.fittable()) {
                return Err(jsonl::Error::at(n, format!("sample {at} can never be fitted")));
            }
            for (seq, s) in samples.iter_mut().enumerate() {
                s.seq = seq as u64;
            }
            let next_seq = samples.len() as u64;
            samples.sort_by_key(SampleRow::sort_key);
            rings.push(Ring { app, repo, samples, next_seq, coefs });
        }
        let trained = rings.iter().filter(|r| r.coefs.is_some()).count() as u64;
        Ok(LearnedPredictor {
            cfg: header.config,
            state: Mutex::new(rings),
            epoch: AtomicU64::new(trained),
        })
    }
}

impl LearnedPredictor {
    /// The read side: the analytical preparation for the pair plus the
    /// key's coefficients as they stand now, copied out under the one
    /// lock acquisition a pair costs. The guard is gone when this
    /// returns, so nothing priced from the result waits on, or is
    /// changed by, a concurrent `observe`.
    fn prepare<'a>(&self, q: &SiteQuery<'a>) -> LearnedPrice<'a> {
        let coefs = {
            let state = self.state.lock().expect("no thread panics holding the model lock");
            state
                .iter()
                .find(|r| r.app == q.profile.app && r.repo == q.repository.name)
                .and_then(|r| r.coefs)
        };
        LearnedPrice {
            analytical: prepare(q),
            coefs,
            trust: self.cfg.trust,
            dataset_bytes: q.dataset_bytes,
        }
    }
}

/// One (repository, site) pair under one version of its key's model.
struct LearnedPrice<'a> {
    analytical: Prepared<'a>,
    /// `None`: no fit yet, the analytical model answers.
    coefs: Option<Coefs>,
    trust: f64,
    dataset_bytes: u64,
}

impl Price for LearnedPrice<'_> {
    fn price(&self, config: Configuration, stream_bw: f64) -> Result<Prediction, SelectionError> {
        // The analytical model both validates the target (its typed
        // rejections propagate unchanged) and anchors the trust region.
        let a = self.analytical.price(config, stream_bw)?;
        let Some(coefs) = &self.coefs else {
            return Ok(a);
        };
        let phi = features(config.data_nodes, config.compute_nodes, stream_bw, self.dataset_bytes);
        let clamp = |w: &[f64; DIMS], anchor: f64| -> f64 {
            let raw = dot(w, &phi);
            if raw.is_finite() {
                raw.clamp(anchor / self.trust, anchor * self.trust)
            } else {
                anchor
            }
        };
        Ok(Prediction {
            t_disk: clamp(&coefs[0], a.t_disk),
            t_network: clamp(&coefs[1], a.t_network),
            t_compute: clamp(&coefs[2], a.t_compute),
        })
    }
}

impl Predictor for LearnedPredictor {
    fn name(&self) -> &'static str {
        "learned"
    }

    fn predict_deployment(
        &self,
        profile: &Profile,
        classes: AppClasses,
        d: DeploymentRef<'_>,
        dataset_bytes: u64,
        factors: &HashMap<String, ScalingFactors>,
    ) -> Result<Prediction, SelectionError> {
        self.prepare(&SiteQuery::of(profile, classes, d, dataset_bytes, factors))
            .price(d.config, d.stream_bw)
    }

    fn with_prepared(&self, q: &SiteQuery<'_>, scan: &mut dyn FnMut(&dyn Price)) {
        scan(&self.prepare(q))
    }

    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    fn wants_observations(&self) -> bool {
        true
    }

    fn observe(&self, obs: &Observation) {
        let mut sample = SampleRow {
            data_nodes: obs.data_nodes,
            compute_nodes: obs.compute_nodes,
            wan_bw: obs.wan_bw,
            dataset_bytes: obs.dataset_bytes,
            observed: obs.observed,
            seq: 0,
        };
        if !sample.fittable() {
            return;
        }
        let mut state = self.state.lock().unwrap();
        let ri = match state.iter().position(|r| *r.app == *obs.app && *r.repo == *obs.repo) {
            Some(i) => i,
            None => {
                state.push(Ring {
                    app: obs.app.to_string(),
                    repo: obs.repo.to_string(),
                    samples: Vec::new(),
                    next_seq: 0,
                    coefs: None,
                });
                state.len() - 1
            }
        };
        let ring = &mut state[ri];
        if ring.samples.len() == self.cfg.capacity {
            let oldest = ring.next_seq - self.cfg.capacity as u64;
            let at = ring.samples.iter().position(|s| s.seq == oldest);
            ring.samples.remove(at.expect("retained sequence numbers are consecutive"));
        }
        sample.seq = ring.next_seq;
        ring.next_seq += 1;
        // After every equal key: where a stable sort would put the
        // newest of them.
        let key = sample.sort_key();
        let at = ring.samples.partition_point(|s| s.sort_key() <= key);
        ring.samples.insert(at, sample);
        if ring.samples.len() < self.cfg.min_samples {
            return;
        }
        // One pass over the retained multiset in its canonical order
        // fits all three components: the model is independent of
        // arrival order. A rejected fit keeps the previous model (or
        // the analytical fallback): predictions are unchanged, so the
        // epoch stays put.
        let mut a = [0.0; DIMS * DIMS];
        let mut coefs: Coefs = [[0.0; DIMS]; COMPONENTS];
        let rows = ring.samples.iter().map(|s| (s.features(), s.observed));
        if solve_ridge(DIMS, rows, self.cfg.lambda, &mut a, coefs.as_flattened_mut()).is_err() {
            return;
        }
        if ring.coefs != Some(coefs) {
            ring.coefs = Some(coefs);
            self.epoch.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// Tuning knobs for [`HybridPredictor`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HybridConfig {
    /// EWMA smoothing weight on the newest observation, in `(0, 1]`.
    pub alpha: f64,
    /// Lower clamp on each correction factor.
    pub min_ratio: f64,
    /// Upper clamp on each correction factor.
    pub max_ratio: f64,
}

impl Default for HybridConfig {
    fn default() -> HybridConfig {
        HybridConfig { alpha: 0.3, min_ratio: 0.25, max_ratio: 4.0 }
    }
}

impl HybridConfig {
    /// Check every knob's range; the error names the first offender.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err(format!("alpha {} must be in (0, 1]", self.alpha));
        }
        if !(self.min_ratio > 0.0 && self.min_ratio <= 1.0) {
            return Err(format!("min_ratio {} must be in (0, 1]", self.min_ratio));
        }
        if !(self.max_ratio >= 1.0 && self.max_ratio.is_finite()) {
            return Err(format!("max_ratio {} must be finite and at least 1", self.max_ratio));
        }
        Ok(())
    }
}

/// Per-`(app, repository)` multiplicative correction state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct HybridKey {
    app: String,
    repo: String,
    /// Correction factor per component; predictions are
    /// `analytical × factor`.
    factors: [f64; COMPONENTS],
    /// Observations folded in (diagnostics only).
    samples: u64,
}

/// The analytical model with an EWMA-tracked multiplicative residual
/// correction per `(app, repository, component)`.
///
/// Each prediction is `analytical × f`. Each observation updates
/// `f ← clamp(f·((1−α) + α·observed/predicted))`; since the prediction
/// it is compared against was itself `analytical × f`, the update
/// tracks an EWMA of the `observed / analytical` ratio without ever
/// re-deriving the analytical value — exactly the estimator that wins
/// when the model's *shape* is right but a path parameter (a degraded
/// WAN link, a slow disk array) has drifted by a stable factor.
#[derive(Debug)]
pub struct HybridPredictor {
    cfg: HybridConfig,
    state: Mutex<Vec<HybridKey>>,
    epoch: AtomicU64,
}

impl Default for HybridPredictor {
    fn default() -> HybridPredictor {
        HybridPredictor::new(HybridConfig::default())
    }
}

impl HybridPredictor {
    /// A fresh corrector: every factor starts at 1, so an untrained
    /// instance is bit-identical to the analytical model.
    pub fn new(cfg: HybridConfig) -> HybridPredictor {
        if let Err(e) = cfg.validate() {
            panic!("bad HybridConfig: {e}");
        }
        HybridPredictor { cfg, state: Mutex::new(Vec::new()), epoch: AtomicU64::new(0) }
    }

    /// The configuration this predictor was built with.
    pub fn config(&self) -> HybridConfig {
        self.cfg
    }

    /// Serialize as versioned JSONL: a header line with the config,
    /// one line per corrected `(app, repository)` key.
    pub fn dump_jsonl(&self) -> String {
        let mut out = Writer::new();
        let header = HybridHeader { kind: HYBRID.into(), version: MODEL_VERSION, config: self.cfg };
        jsonl::line(&mut out, &header);
        for key in self.state.lock().unwrap().iter() {
            jsonl::line(&mut out, key);
        }
        out.into_string()
    }

    /// Rebuild from a [`Self::dump_jsonl`] corpus; `dump → replay →
    /// dump` is a byte fixpoint. A line no live corrector could have
    /// written is an error naming the line: a factor outside the dump's
    /// own `[min_ratio, max_ratio]` (every factor starts at 1 and each
    /// update is clamped into that range, bounds included — a zero or
    /// negative one would price jobs at zero or negative seconds), or a
    /// second line for an `(app, repository)` already seen, which no
    /// lookup would reach.
    pub fn replay_jsonl(text: &str) -> Result<HybridPredictor, jsonl::Error> {
        let (header, lines): (HybridHeader, _) =
            jsonl::read(text, HYBRID, ("version", MODEL_VERSION))?;
        header.config.validate().map_err(|e| jsonl::Error::at(1, format!("bad config: {e}")))?;
        let pred = HybridPredictor::new(header.config);
        let HybridConfig { min_ratio, max_ratio, .. } = header.config;
        let mut keys: Vec<HybridKey> = Vec::new();
        for (n, line) in lines {
            let key: HybridKey = jsonl::parse(n, line)?;
            if keys.iter().any(|k| k.app == key.app && k.repo == key.repo) {
                let (app, repo) = (&key.app, &key.repo);
                return Err(jsonl::Error::at(n, format!("a second line for ({app:?}, {repo:?})")));
            }
            // Also refuses a NaN, which is inside no range.
            if let Some(f) = key.factors.iter().find(|f| !(min_ratio..=max_ratio).contains(*f)) {
                let range = format!("[{min_ratio}, {max_ratio}]");
                let why = format!("correction factor {f} outside the dump's own {range}");
                return Err(jsonl::Error::at(n, why));
            }
            keys.push(key);
        }
        let trained = keys.len() as u64;
        *pred.state.lock().unwrap() = keys;
        pred.epoch.store(trained, Ordering::SeqCst);
        Ok(pred)
    }
}

impl HybridPredictor {
    /// The read side: the analytical preparation for the pair plus the
    /// key's correction factors as they stand now, copied out under
    /// the one lock acquisition a pair costs (see
    /// [`LearnedPredictor::prepare`]).
    fn prepare<'a>(&self, q: &SiteQuery<'a>) -> HybridPrice<'a> {
        let factors = {
            let state = self.state.lock().expect("no thread panics holding the model lock");
            state
                .iter()
                .find(|k| k.app == q.profile.app && k.repo == q.repository.name)
                .map(|k| k.factors)
        };
        HybridPrice { analytical: prepare(q), factors }
    }
}

/// One (repository, site) pair under one version of its key's factors.
struct HybridPrice<'a> {
    analytical: Prepared<'a>,
    /// `None`: the key has seen no observation, every factor is 1.
    factors: Option<[f64; COMPONENTS]>,
}

impl Price for HybridPrice<'_> {
    fn price(&self, config: Configuration, stream_bw: f64) -> Result<Prediction, SelectionError> {
        let a = self.analytical.price(config, stream_bw)?;
        let Some(factors) = &self.factors else {
            return Ok(a);
        };
        Ok(Prediction {
            t_disk: a.t_disk * factors[0],
            t_network: a.t_network * factors[1],
            t_compute: a.t_compute * factors[2],
        })
    }
}

impl Predictor for HybridPredictor {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn predict_deployment(
        &self,
        profile: &Profile,
        classes: AppClasses,
        d: DeploymentRef<'_>,
        dataset_bytes: u64,
        factors: &HashMap<String, ScalingFactors>,
    ) -> Result<Prediction, SelectionError> {
        self.prepare(&SiteQuery::of(profile, classes, d, dataset_bytes, factors))
            .price(d.config, d.stream_bw)
    }

    fn with_prepared(&self, q: &SiteQuery<'_>, scan: &mut dyn FnMut(&dyn Price)) {
        scan(&self.prepare(q))
    }

    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    fn wants_observations(&self) -> bool {
        true
    }

    fn observe(&self, obs: &Observation) {
        let mut state = self.state.lock().unwrap();
        let ki = match state.iter().position(|k| *k.app == *obs.app && *k.repo == *obs.repo) {
            Some(i) => i,
            None => {
                state.push(HybridKey {
                    app: obs.app.to_string(),
                    repo: obs.repo.to_string(),
                    factors: [1.0; COMPONENTS],
                    samples: 0,
                });
                state.len() - 1
            }
        };
        let key = &mut state[ki];
        let mut changed = false;
        for comp in 0..COMPONENTS {
            let predicted = obs.predicted[comp];
            let observed = obs.observed[comp];
            if !(predicted.is_finite()
                && predicted > 0.0
                && observed.is_finite()
                && observed >= 0.0)
            {
                continue;
            }
            let f = key.factors[comp];
            let updated = (f * ((1.0 - self.cfg.alpha) + self.cfg.alpha * observed / predicted))
                .clamp(self.cfg.min_ratio, self.cfg.max_ratio);
            if updated.to_bits() != f.to_bits() {
                key.factors[comp] = updated;
                changed = true;
            }
        }
        key.samples += 1;
        if changed {
            self.epoch.fetch_add(1, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_cluster::{ComputeSite, Configuration, Deployment, RepositorySite, Wan};
    use fg_predict::try_predict_deployment;
    use proptest::prelude::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    /// `LearnedPredictor`'s training side as it stood before the
    /// retained samples were kept in canonical order: an
    /// ingestion-order ring per key, cloned and sorted for every refit,
    /// one call per component to the `fit_ridge` of the time
    /// (`ridge::reference`). `observe` and `dump_jsonl` are that code
    /// verbatim (plus `seq: 0` in the row literal and the `refused`
    /// counter); the differential below holds the shipped predictor to
    /// it byte for byte.
    mod reference {
        use super::super::*;
        use crate::ridge::reference::fit_ridge;

        #[derive(Serialize)]
        struct KeyState {
            app: String,
            repo: String,
            samples: Vec<SampleRow>,
            coefs: Option<[Vec<f64>; COMPONENTS]>,
        }

        pub struct Reference {
            cfg: LearnConfig,
            state: Mutex<Vec<KeyState>>,
            epoch: AtomicU64,
            /// Refits the ridge core refused.
            pub refused: AtomicU64,
        }

        impl Reference {
            pub fn new(cfg: LearnConfig) -> Reference {
                Reference {
                    cfg,
                    state: Mutex::new(Vec::new()),
                    epoch: AtomicU64::new(0),
                    refused: AtomicU64::new(0),
                }
            }

            pub fn epoch(&self) -> u64 {
                self.epoch.load(Ordering::SeqCst)
            }

            pub fn dump_jsonl(&self) -> String {
                #[derive(Serialize)]
                struct Header {
                    kind: &'static str,
                    version: u32,
                    config: LearnConfig,
                }
                let mut out = String::new();
                let header =
                    Header { kind: "fg-learn-model", version: MODEL_VERSION, config: self.cfg };
                out.push_str(&serde_json::to_string(&header).expect("header serializes"));
                out.push('\n');
                for key in self.state.lock().unwrap().iter() {
                    out.push_str(&serde_json::to_string(key).expect("key serializes"));
                    out.push('\n');
                }
                out
            }

            pub fn observe(&self, obs: &Observation) {
                if obs.observed.iter().any(|v| !v.is_finite()) || !obs.wan_bw.is_finite() {
                    return;
                }
                let mut state = self.state.lock().unwrap();
                let ki = match state.iter().position(|k| *k.app == *obs.app && *k.repo == *obs.repo)
                {
                    Some(i) => i,
                    None => {
                        state.push(KeyState {
                            app: obs.app.to_string(),
                            repo: obs.repo.to_string(),
                            samples: Vec::new(),
                            coefs: None,
                        });
                        state.len() - 1
                    }
                };
                let key = &mut state[ki];
                key.samples.push(SampleRow {
                    data_nodes: obs.data_nodes,
                    compute_nodes: obs.compute_nodes,
                    wan_bw: obs.wan_bw,
                    dataset_bytes: obs.dataset_bytes,
                    observed: obs.observed,
                    seq: 0,
                });
                while key.samples.len() > self.cfg.capacity {
                    key.samples.remove(0);
                }
                if key.samples.len() < self.cfg.min_samples {
                    return;
                }
                // Refit from a canonically sorted copy: the model is a function
                // of the retained multiset, independent of arrival order.
                let mut canon = key.samples.clone();
                canon.sort_by_key(|x| x.sort_key());
                let xs: Vec<Vec<f64>> = canon
                    .iter()
                    .map(|s| {
                        features(s.data_nodes, s.compute_nodes, s.wan_bw, s.dataset_bytes).to_vec()
                    })
                    .collect();
                let mut fitted: Vec<Vec<f64>> = Vec::with_capacity(COMPONENTS);
                for comp in 0..COMPONENTS {
                    let ys: Vec<f64> = canon.iter().map(|s| s.observed[comp]).collect();
                    match fit_ridge(&xs, &ys, self.cfg.lambda) {
                        Ok(w) => fitted.push(w),
                        // A rejected fit keeps the previous model (or the
                        // analytical fallback): predictions are unchanged, so
                        // the epoch stays put.
                        Err(_) => {
                            self.refused.fetch_add(1, Ordering::SeqCst);
                            return;
                        }
                    }
                }
                let coefs: [Vec<f64>; COMPONENTS] =
                    fitted.try_into().expect("one coefficient vector per component");
                if key.coefs.as_ref() != Some(&coefs) {
                    key.coefs = Some(coefs);
                    self.epoch.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
    }

    fn bits(p: &Prediction) -> [u64; 3] {
        [p.t_disk.to_bits(), p.t_network.to_bits(), p.t_compute.to_bits()]
    }

    /// `LearnedPredictor::predict_deployment` as it stood before the
    /// read side was split into `prepare` + `price`: the lock taken and
    /// the key list walked per candidate, the coefficients borrowed
    /// under the guard. That body verbatim (`self` spelled `pred`).
    fn reference_learned(
        pred: &LearnedPredictor,
        profile: &Profile,
        classes: AppClasses,
        d: DeploymentRef<'_>,
        dataset_bytes: u64,
        factors: &HashMap<String, ScalingFactors>,
    ) -> Result<Prediction, SelectionError> {
        // The analytical model both validates the target (its typed
        // rejections propagate unchanged) and anchors the trust region.
        let a = try_predict_deployment(profile, classes, d, dataset_bytes, factors)?;
        let state = pred.state.lock().unwrap();
        let Some(coefs) = state
            .iter()
            .find(|r| r.app == profile.app && r.repo == d.repository.name)
            .and_then(|r| r.coefs.as_ref())
        else {
            return Ok(a);
        };
        let phi = features(d.config.data_nodes, d.config.compute_nodes, d.stream_bw, dataset_bytes);
        let clamp = |w: &[f64; DIMS], anchor: f64| -> f64 {
            let raw = dot(w, &phi);
            if raw.is_finite() {
                raw.clamp(anchor / pred.cfg.trust, anchor * pred.cfg.trust)
            } else {
                anchor
            }
        };
        Ok(Prediction {
            t_disk: clamp(&coefs[0], a.t_disk),
            t_network: clamp(&coefs[1], a.t_network),
            t_compute: clamp(&coefs[2], a.t_compute),
        })
    }

    /// `HybridPredictor::predict_deployment` before the same split,
    /// verbatim.
    fn reference_hybrid(
        pred: &HybridPredictor,
        profile: &Profile,
        classes: AppClasses,
        d: DeploymentRef<'_>,
        dataset_bytes: u64,
        factors: &HashMap<String, ScalingFactors>,
    ) -> Result<Prediction, SelectionError> {
        let a = try_predict_deployment(profile, classes, d, dataset_bytes, factors)?;
        let state = pred.state.lock().unwrap();
        let Some(key) = state.iter().find(|k| k.app == profile.app && k.repo == d.repository.name)
        else {
            return Ok(a);
        };
        Ok(Prediction {
            t_disk: a.t_disk * key.factors[0],
            t_network: a.t_network * key.factors[1],
            t_compute: a.t_compute * key.factors[2],
        })
    }

    /// Every candidate of a small menu (degenerate ones included) at
    /// every repository, through the one-shot method and through one
    /// preparation per repository, against `reference`: `Ok`s bit for
    /// bit, `Err`s equal. Returns how many candidates priced `Ok` and
    /// how many of those differ from the analytical answer.
    fn assert_matches_reference<P: Predictor>(
        pred: &P,
        reference: impl Fn(DeploymentRef<'_>, u64) -> Result<Prediction, SelectionError>,
    ) -> (u64, u64) {
        let (prof, no_factors) = (profile(), HashMap::new());
        let site = ComputeSite::pentium_myrinet("cs", 16);
        let (mut priced, mut moved) = (0, 0);
        for repo in ["osu", "mit", "new"] {
            let repo = RepositorySite::pentium_repository(repo, 8);
            for bytes in [0u64, 64 << 20, 400 << 20] {
                let q = SiteQuery {
                    profile: &prof,
                    classes: AppClasses::CONSTANT_LINEAR_CONSTANT,
                    repository: &repo,
                    compute: &site,
                    cache: None,
                    dataset_bytes: bytes,
                    factors: &no_factors,
                };
                pred.with_prepared(&q, &mut |prepared| {
                    for (n, c) in [(1, 1), (2, 4), (4, 16), (0, 4), (2, 0)] {
                        let cfg = Configuration { data_nodes: n, compute_nodes: c };
                        for bw in [1e6, 3e5, 0.0, f64::NAN] {
                            let d = q.deployment(cfg, bw);
                            let want = reference(d, bytes);
                            let one_shot =
                                pred.predict_deployment(q.profile, q.classes, d, bytes, q.factors);
                            let got = prepared.price(cfg, bw);
                            match (&want, &got, &one_shot) {
                                (Ok(w), Ok(g), Ok(o)) => {
                                    assert_eq!(bits(w), bits(g), "{repo:?} {cfg:?} {bw} {bytes}");
                                    assert_eq!(bits(w), bits(o), "{repo:?} {cfg:?} {bw} {bytes}");
                                    let a = try_predict_deployment(
                                        q.profile, q.classes, d, bytes, q.factors,
                                    );
                                    priced += 1;
                                    moved += u64::from(bits(w) != bits(&a.unwrap()));
                                }
                                (Err(w), Err(g), Err(o)) => {
                                    assert_eq!(w, g);
                                    assert_eq!(w, o);
                                }
                                _ => panic!("{want:?} vs {got:?} / {one_shot:?}"),
                            }
                        }
                    }
                });
            }
        }
        (priced, moved)
    }

    /// A predictor with three kinds of key: `("kmeans", "osu")` fitted,
    /// `("kmeans", "mit")` holding samples but no model, and nothing
    /// for `"new"`.
    fn trained_learned(trust: f64) -> LearnedPredictor {
        let pred = LearnedPredictor::new(LearnConfig { trust, ..LearnConfig::default() });
        for &(n, c, bw, bytes) in &training_grid() {
            pred.observe(&stretched_obs(n, c, bw, bytes, [1.8, 0.7, 1.2]));
        }
        pred.observe(&Observation {
            repo: "mit".into(),
            ..stretched_obs(2, 4, 1e6, 200 << 20, [1.5; 3])
        });
        assert_eq!(pred.trained_keys(), 1);
        pred
    }

    #[test]
    fn learned_prices_match_the_reference_bit_for_bit() {
        for trust in [1.0, 2.0] {
            let pred = trained_learned(trust);
            let reference = |d: DeploymentRef<'_>, bytes| {
                reference_learned(
                    &pred,
                    &profile(),
                    AppClasses::CONSTANT_LINEAR_CONSTANT,
                    d,
                    bytes,
                    &HashMap::new(),
                )
            };
            let (priced, moved) = assert_matches_reference(&pred, reference);
            assert!(priced >= 36, "{priced} priced");
            // Trust 1 pins every component to the analytical anchor.
            assert_eq!(moved > 0, trust > 1.0, "trust {trust}: {moved} moved");
            // A model whose dot product overflows falls back to the
            // anchor, component by component.
            pred.state.lock().unwrap()[0].coefs = Some([[f64::MAX; DIMS]; COMPONENTS]);
            let (priced, moved) = assert_matches_reference(&pred, reference);
            assert!(priced >= 36 && moved == 0, "{priced} priced, {moved} moved");
        }
    }

    #[test]
    fn hybrid_prices_match_the_reference_bit_for_bit() {
        let pred = HybridPredictor::default();
        for _ in 0..10 {
            pred.observe(&stretched_obs(2, 4, 1e6, 200 << 20, [1.5, 2.0, 0.8]));
        }
        let reference = |d: DeploymentRef<'_>, bytes| {
            reference_hybrid(
                &pred,
                &profile(),
                AppClasses::CONSTANT_LINEAR_CONSTANT,
                d,
                bytes,
                &HashMap::new(),
            )
        };
        let (priced, moved) = assert_matches_reference(&pred, reference);
        // The corrected key's candidates moved, the other two
        // repositories' did not.
        assert!(priced >= 36 && moved == priced / 3, "{priced} priced, {moved} moved");
    }

    /// What the per-candidate lock never gave: a scan interrupted by
    /// training still prices all its candidates from the model it
    /// prepared with. The reader takes half its prices, hands the
    /// writer a turn *inside* the scan, and takes the rest — the writer
    /// has changed the key's model by then, and was not kept waiting by
    /// the preparation (a lock held across the scan would deadlock
    /// here; the timeout turns that into a failure).
    #[test]
    fn a_scan_prices_from_one_model_version_while_training_proceeds() {
        use std::sync::mpsc::channel;
        use std::time::Duration;
        let grid = training_grid();
        let shared = LearnedPredictor::default();
        for &(n, c, bw, bytes) in &grid {
            shared.observe(&stretched_obs(n, c, bw, bytes, [1.3; 3]));
        }
        let (prof, no_factors) = (profile(), HashMap::new());
        let d = deployment(2, 8, 8e5);
        let q = SiteQuery::of(
            &prof,
            AppClasses::CONSTANT_LINEAR_CONSTANT,
            d.as_ref(),
            400 << 20,
            &no_factors,
        );
        let menu = [(1usize, 1usize), (1, 2), (2, 4), (2, 8), (4, 8), (8, 16)];
        let scan = |p: &LearnedPredictor, midway: &mut dyn FnMut()| -> Vec<[u64; 3]> {
            let mut got = Vec::new();
            p.with_prepared(&q, &mut |prepared| {
                for (i, &(n, c)) in menu.iter().enumerate() {
                    if i == menu.len() / 2 {
                        midway();
                    }
                    got.push(bits(&prepared.price(Configuration::new(n, c), 8e5).unwrap()));
                }
            });
            got
        };
        let (to_writer, turns) = channel::<()>();
        let (to_reader, trained) = channel::<u64>();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // One turn per message: observe until the model moves.
                let mut stretch = 1.3;
                for () in turns {
                    let before = shared.epoch();
                    while shared.epoch() == before {
                        stretch += 0.05;
                        let (n, c, bw, bytes) = grid[(stretch * 100.0) as usize % grid.len()];
                        shared.observe(&stretched_obs(n, c, bw, bytes, [stretch; 3]));
                    }
                    to_reader.send(shared.epoch()).unwrap();
                }
            });
            for round in 0..20 {
                let before = shared.epoch();
                let want = scan(&shared, &mut || {});
                let mut after = before;
                let got = scan(&shared, &mut || {
                    to_writer.send(()).unwrap();
                    after = trained
                        .recv_timeout(Duration::from_secs(30))
                        .expect("the writer is not blocked by a preparation");
                });
                assert!(after > before, "round {round}: the model moved mid-scan");
                assert_eq!(got, want, "round {round}: every price from the prepared model");
                assert_ne!(scan(&shared, &mut || {}), want, "round {round}: the new model differs");
            }
            drop(to_writer);
        });
    }

    fn profile() -> Profile {
        Profile {
            app: "kmeans".into(),
            data_nodes: 1,
            compute_nodes: 1,
            wan_bw: 1e6,
            dataset_bytes: 1_000_000,
            t_disk: 40.0,
            t_network: 20.0,
            t_compute: 100.0,
            t_ro: 0.0,
            t_g: 0.5,
            max_obj_bytes: 512,
            passes: 1,
            repo_machine: "pentium-700".into(),
            compute_machine: "pentium-700".into(),
        }
    }

    fn deployment(n: usize, c: usize, bw: f64) -> Deployment {
        Deployment::new(
            RepositorySite::pentium_repository("osu", 8),
            ComputeSite::pentium_myrinet("cs", 16),
            Wan::per_stream(bw),
            Configuration::new(n, c),
        )
    }

    fn analytical(n: usize, c: usize, bw: f64, bytes: u64) -> Prediction {
        try_predict_deployment(
            &profile(),
            AppClasses::CONSTANT_LINEAR_CONSTANT,
            deployment(n, c, bw).as_ref(),
            bytes,
            &HashMap::new(),
        )
        .unwrap()
    }

    /// An observation whose ground truth is the analytical model times
    /// a fixed per-component stretch — the drift regime both learners
    /// are built for.
    fn stretched_obs(n: usize, c: usize, bw: f64, bytes: u64, stretch: [f64; 3]) -> Observation {
        let a = analytical(n, c, bw, bytes);
        Observation {
            app: "kmeans".into(),
            repo: "osu".into(),
            data_nodes: n,
            compute_nodes: c,
            wan_bw: bw,
            dataset_bytes: bytes,
            predicted: [a.t_disk, a.t_network, a.t_compute],
            observed: [a.t_disk * stretch[0], a.t_network * stretch[1], a.t_compute * stretch[2]],
        }
    }

    fn training_grid() -> Vec<(usize, usize, f64, u64)> {
        let mut grid = Vec::new();
        for &(n, c) in &[(1usize, 1usize), (1, 2), (2, 4), (4, 8), (8, 16), (2, 2)] {
            for &bw in &[4e5, 1e6, 2e6] {
                for &bytes in &[64u64 << 20, 200 << 20, 800 << 20] {
                    grid.push((n, c, bw, bytes));
                }
            }
        }
        grid
    }

    #[test]
    fn untrained_learned_predictor_is_bit_identical_to_analytical() {
        let pred = LearnedPredictor::default();
        let d = deployment(2, 4, 1e6);
        let got = pred
            .predict_deployment(
                &profile(),
                AppClasses::CONSTANT_LINEAR_CONSTANT,
                d.as_ref(),
                200 << 20,
                &HashMap::new(),
            )
            .unwrap();
        let want = analytical(2, 4, 1e6, 200 << 20);
        assert_eq!(got.t_disk.to_bits(), want.t_disk.to_bits());
        assert_eq!(got.t_network.to_bits(), want.t_network.to_bits());
        assert_eq!(got.t_compute.to_bits(), want.t_compute.to_bits());
        assert_eq!(pred.epoch(), 0);
    }

    #[test]
    fn learned_predictor_tracks_a_stretched_world_within_trust() {
        let pred = LearnedPredictor::default();
        let stretch = [1.8, 1.5, 1.2];
        for &(n, c, bw, bytes) in &training_grid() {
            pred.observe(&stretched_obs(n, c, bw, bytes, stretch));
        }
        assert!(pred.epoch() > 0, "training must bump the epoch");
        assert_eq!(pred.trained_keys(), 1);
        // Held-out target: inside the training envelope but not a
        // training point.
        let d = deployment(2, 8, 8e5);
        let bytes = 400 << 20;
        let got = pred
            .predict_deployment(
                &profile(),
                AppClasses::CONSTANT_LINEAR_CONSTANT,
                d.as_ref(),
                bytes,
                &HashMap::new(),
            )
            .unwrap();
        let a = analytical(2, 8, 8e5, bytes);
        let truth = [a.t_disk * stretch[0], a.t_network * stretch[1], a.t_compute * stretch[2]];
        for (i, (g, t)) in [got.t_disk, got.t_network, got.t_compute].iter().zip(&truth).enumerate()
        {
            let rel = (g - t).abs() / t;
            assert!(rel < 0.10, "component {i}: predicted {g}, truth {t} (rel {rel:.3})");
        }
    }

    #[test]
    fn trust_region_bounds_every_learned_component() {
        let cfg = LearnConfig { trust: 2.0, ..LearnConfig::default() };
        let pred = LearnedPredictor::new(cfg);
        // Train on an absurd 50× stretch: the fit will try to follow,
        // the clamp must hold the line at 2×.
        for &(n, c, bw, bytes) in &training_grid() {
            pred.observe(&stretched_obs(n, c, bw, bytes, [50.0, 50.0, 50.0]));
        }
        let d = deployment(4, 8, 1e6);
        let bytes = 320 << 20;
        let got = pred
            .predict_deployment(
                &profile(),
                AppClasses::CONSTANT_LINEAR_CONSTANT,
                d.as_ref(),
                bytes,
                &HashMap::new(),
            )
            .unwrap();
        let a = analytical(4, 8, 1e6, bytes);
        for (g, anchor) in [got.t_disk, got.t_network, got.t_compute].iter().zip([
            a.t_disk,
            a.t_network,
            a.t_compute,
        ]) {
            assert!(*g <= anchor * 2.0 + 1e-9, "clamp violated: {g} vs anchor {anchor}");
            assert!(*g >= anchor / 2.0 - 1e-9);
        }
    }

    #[test]
    fn learned_model_is_independent_of_arrival_order() {
        let grid = training_grid();
        let forward = LearnedPredictor::default();
        for &(n, c, bw, bytes) in &grid {
            forward.observe(&stretched_obs(n, c, bw, bytes, [1.4, 1.1, 0.9]));
        }
        let backward = LearnedPredictor::default();
        for &(n, c, bw, bytes) in grid.iter().rev() {
            backward.observe(&stretched_obs(n, c, bw, bytes, [1.4, 1.1, 0.9]));
        }
        // Same retained multiset ⇒ bitwise-identical predictions on
        // every probe (the dumps differ only in buffer ingestion
        // order, which is immaterial to the model).
        for &(n, c, bw, bytes) in &grid {
            let probe = |p: &LearnedPredictor| {
                p.predict_deployment(
                    &profile(),
                    AppClasses::CONSTANT_LINEAR_CONSTANT,
                    deployment(n, c, bw).as_ref(),
                    bytes,
                    &HashMap::new(),
                )
                .unwrap()
            };
            let f = probe(&forward);
            let b = probe(&backward);
            assert_eq!(f.t_disk.to_bits(), b.t_disk.to_bits());
            assert_eq!(f.t_network.to_bits(), b.t_network.to_bits());
            assert_eq!(f.t_compute.to_bits(), b.t_compute.to_bits());
        }
    }

    #[test]
    fn learned_dump_replay_dump_is_a_byte_fixpoint() {
        let pred = LearnedPredictor::default();
        for &(n, c, bw, bytes) in &training_grid() {
            pred.observe(&stretched_obs(n, c, bw, bytes, [1.3, 1.6, 1.1]));
        }
        let dump = pred.dump_jsonl();
        let replayed = LearnedPredictor::replay_jsonl(&dump).unwrap();
        assert_eq!(replayed.dump_jsonl(), dump);
        assert!(replayed.epoch() > 0);
        // And the replayed instance predicts bit-identically.
        let d = deployment(2, 4, 1e6);
        let p1 = pred
            .predict_deployment(
                &profile(),
                AppClasses::CONSTANT_LINEAR_CONSTANT,
                d.as_ref(),
                200 << 20,
                &HashMap::new(),
            )
            .unwrap();
        let p2 = replayed
            .predict_deployment(
                &profile(),
                AppClasses::CONSTANT_LINEAR_CONSTANT,
                d.as_ref(),
                200 << 20,
                &HashMap::new(),
            )
            .unwrap();
        assert_eq!(p1.total().to_bits(), p2.total().to_bits());
    }

    /// An observation on a small grid of placement tuples: `key` picks
    /// the `(app, repository)`, `tuple` the placement, `jitter` one of
    /// four stretches of the analytical truth — so streams drawn from
    /// it repeat rows exactly, and a stretch that holds `tuple` fixed is
    /// collinear.
    fn grid_obs(key: usize, tuple: usize, jitter: usize) -> Observation {
        let (app, repo) = [("kmeans", "osu"), ("kmeans", "mit"), ("em", "osu")][key];
        let n = [1usize, 2, 4][tuple % 3];
        let c = n * [1usize, 2, 4][tuple / 3 % 3];
        let bw = [5e5, 1e6][tuple / 9 % 2];
        let bytes = [64u64 << 20, 200 << 20, 800 << 20][tuple / 18 % 3];
        let stretch = [1.0, 1.05, 0.9, 1.3][jitter];
        Observation {
            app: app.into(),
            repo: repo.into(),
            ..stretched_obs(n, c, bw, bytes, [stretch; 3])
        }
    }

    /// The bit-identity claim: keeping the samples sorted and solving
    /// all three components in one elimination changes nothing a caller
    /// can see. 256 generated streams over 1–3 keys, rings small enough
    /// that eviction and the sorted removal run thousands of times,
    /// exact duplicate rows, and a collinear stretch per stream where
    /// the fit is refused; after **every** observation the dump bytes
    /// and the epoch equal the reference's.
    #[test]
    fn observe_matches_the_reference_after_every_observation() {
        let stream = (
            8usize..25,
            5usize..9,
            1usize..4,
            0usize..3,
            0usize..120,
            collection::vec((0usize..3, 0usize..54, 0usize..4), 60..180),
        );
        let (mut evictions, mut refused, mut duplicates, mut bumps) = (0u64, 0u64, 0u64, 0u64);
        for case in 0..256 {
            let mut rng = TestRng::for_case(case);
            let (capacity, min_samples, keys, lambda, freeze_at, steps) = stream.generate(&mut rng);
            let cfg = LearnConfig {
                min_samples,
                capacity,
                lambda: [0.0, 1e-6, 1e-3][lambda],
                trust: 2.0,
            };
            let (new, old) = (LearnedPredictor::new(cfg), reference::Reference::new(cfg));
            let mut retained = vec![0usize; keys];
            let mut seen = HashSet::new();
            let frozen = freeze_at..freeze_at + 2 * capacity;
            for (i, &(key, tuple, jitter)) in steps.iter().enumerate() {
                // The collinear stretch: one key, one tuple, long
                // enough to fill the ring with it.
                let (key, tuple) =
                    if frozen.contains(&i) { (0, steps[freeze_at].1) } else { (key % keys, tuple) };
                let obs = grid_obs(key, tuple, jitter);
                new.observe(&obs);
                old.observe(&obs);
                assert_eq!(new.dump_jsonl(), old.dump_jsonl(), "case {case}, step {i}");
                assert_eq!(new.epoch(), old.epoch(), "case {case}, step {i}");
                evictions += u64::from(retained[key] == capacity);
                retained[key] = (retained[key] + 1).min(capacity);
                duplicates += u64::from(!seen.insert((key, tuple, jitter)));
            }
            refused += old.refused.load(Ordering::SeqCst);
            bumps += old.epoch();
        }
        // The generator reaches what the claim is about.
        assert!(evictions > 5_000, "{evictions} evictions");
        assert!(refused > 1_000, "{refused} refused fits");
        assert!(duplicates > 5_000, "{duplicates} duplicate rows");
        assert!(bumps > 5_000, "{bumps} epoch bumps");
    }

    /// Readers never see half a model, nor two models in one scan: while
    /// one thread observes, the prices a concurrent reader takes from
    /// one preparation all bit-equal the answers of *one* model that
    /// existed between the two epochs the reader saw around it, and
    /// those epochs never go backwards.
    #[test]
    fn concurrent_readers_see_whole_models_and_a_monotone_epoch() {
        let cfg = LearnConfig { capacity: 16, ..LearnConfig::default() };
        let stream: Vec<Observation> = (0..600)
            .map(|i| {
                let (n, c, bw, bytes) = training_grid()[i * 7 % 54];
                let mut obs = stretched_obs(n, c, bw, bytes, [1.0 + (i % 9) as f64 / 10.0; 3]);
                // A second key the probe never asks about moves the
                // epoch without moving the answer.
                if i % 5 == 0 {
                    obs.repo = "mit".into();
                }
                obs
            })
            .collect();
        // One preparation, several candidates: a scan's worth of prices.
        let d = deployment(2, 8, 8e5);
        let prof = profile();
        let no_factors = HashMap::new();
        let q = SiteQuery::of(
            &prof,
            AppClasses::CONSTANT_LINEAR_CONSTANT,
            d.as_ref(),
            400 << 20,
            &no_factors,
        );
        let probe = |p: &LearnedPredictor| -> Vec<[u64; 3]> {
            let mut got = Vec::new();
            p.with_prepared(&q, &mut |prepared| {
                for (n, c, bw) in [(2, 8, 8e5), (1, 2, 1e6), (4, 16, 5e5)] {
                    got.push(bits(&prepared.price(Configuration::new(n, c), bw).unwrap()));
                }
            });
            got
        };
        // Single-threaded oracle: the answer at every epoch.
        let oracle = LearnedPredictor::new(cfg);
        let mut by_epoch = vec![probe(&oracle)];
        for obs in &stream {
            oracle.observe(obs);
            by_epoch.resize(oracle.epoch() as usize + 1, probe(&oracle));
        }
        assert!(by_epoch.len() > 300, "the stream must keep the model moving");

        const READERS: usize = 3;
        let shared = LearnedPredictor::new(cfg);
        let start = Barrier::new(READERS + 1);
        let done = AtomicBool::new(false);
        let reads: Vec<AtomicU64> = (0..READERS).map(|_| AtomicU64::new(0)).collect();
        // Set when a reader unwinds, so the writer stops waiting for its
        // turn and the scope joins and reports the reader's panic.
        let failed = AtomicBool::new(false);
        struct SetOnUnwind<'a>(&'a AtomicBool);
        impl Drop for SetOnUnwind<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.store(true, Ordering::SeqCst);
                }
            }
        }
        std::thread::scope(|scope| {
            for mine in &reads {
                scope.spawn(|| {
                    let _guard = SetOnUnwind(&failed);
                    start.wait();
                    let (mut last, mut distinct) = (0u64, 0usize);
                    while !done.load(Ordering::SeqCst) {
                        let before = shared.epoch();
                        let got = probe(&shared);
                        let after = shared.epoch();
                        assert!(last <= before && before <= after, "{last} {before} {after}");
                        assert!(
                            by_epoch[before as usize..=after as usize].contains(&got),
                            "prices no one model between epochs {before} and {after} gives"
                        );
                        distinct += usize::from(after > last);
                        last = after;
                        mine.fetch_add(1, Ordering::SeqCst);
                    }
                    assert!(distinct >= 10, "the reader overlapped {distinct} model changes");
                });
            }
            start.wait();
            // The writer hands every reader a turn between chunks, so
            // reads and observations interleave on any machine.
            for chunk in stream.chunks(20) {
                let seen: Vec<u64> = reads.iter().map(|r| r.load(Ordering::SeqCst)).collect();
                for obs in chunk {
                    shared.observe(obs);
                }
                for (r, &was) in reads.iter().zip(&seen) {
                    while r.load(Ordering::SeqCst) == was && !failed.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                }
            }
            done.store(true, Ordering::SeqCst);
        });
        assert_eq!(shared.dump_jsonl(), oracle.dump_jsonl());
        assert_eq!(shared.epoch(), oracle.epoch());
    }

    /// A zero bandwidth or a zero node count makes the feature row
    /// non-finite, which no fit accepts. Retained, such a sample would
    /// freeze its key until it fell off the ring; it is dropped at the
    /// door instead, like a non-finite observed time.
    #[test]
    fn an_observation_that_can_never_be_fitted_is_dropped_at_the_door() {
        let pred = LearnedPredictor::default();
        for &(n, c, bw, bytes) in &training_grid() {
            pred.observe(&stretched_obs(n, c, bw, bytes, [1.8, 1.5, 1.2]));
        }
        let trained = pred.dump_jsonl();
        let good = stretched_obs(2, 4, 1e6, 200 << 20, [1.1, 1.1, 1.1]);
        let unfittable = [
            Observation { wan_bw: 0.0, ..good.clone() },
            Observation { data_nodes: 0, ..good.clone() },
            Observation { compute_nodes: 0, ..good.clone() },
            Observation { wan_bw: f64::INFINITY, ..good.clone() },
            Observation { observed: [1.0, f64::NAN, 1.0], ..good.clone() },
        ];
        for obs in &unfittable {
            pred.observe(obs);
            assert_eq!(pred.dump_jsonl(), trained, "{obs:?} was retained");
        }
        // The key is not frozen: the next clean completion refits it.
        let epoch = pred.epoch();
        pred.observe(&good);
        assert_eq!(pred.epoch(), epoch + 1);
    }

    #[test]
    fn replay_rejects_a_sample_that_can_never_be_fitted() {
        let header = LearnedPredictor::default().dump_jsonl();
        for bad in [
            r#"{"data_nodes":2,"compute_nodes":4,"wan_bw":0.0,"dataset_bytes":1000,"observed":[1.0,2.0,3.0]}"#,
            r#"{"data_nodes":0,"compute_nodes":4,"wan_bw":1e6,"dataset_bytes":1000,"observed":[1.0,2.0,3.0]}"#,
            r#"{"data_nodes":2,"compute_nodes":4,"wan_bw":1e6,"dataset_bytes":1000,"observed":[1.0,"inf",3.0]}"#,
        ] {
            let good = r#"{"data_nodes":2,"compute_nodes":4,"wan_bw":1e6,"dataset_bytes":1000,"observed":[1.0,2.0,3.0]}"#;
            let dump = format!(
                "{header}{{\"app\":\"kmeans\",\"repo\":\"osu\",\"samples\":[{good},{bad}],\"coefs\":null}}\n"
            );
            let err = LearnedPredictor::replay_jsonl(&dump).unwrap_err();
            assert_eq!(err.to_string(), "line 2: sample 1 can never be fitted", "{bad}");
        }
    }

    #[test]
    fn replay_rejects_a_second_line_for_the_same_key() {
        let pred = LearnedPredictor::default();
        pred.observe(&stretched_obs(2, 4, 1e6, 200 << 20, [1.0; 3]));
        let dump = pred.dump_jsonl();
        let key_line = dump.lines().nth(1).unwrap();
        let err = LearnedPredictor::replay_jsonl(&format!("{dump}\n{key_line}\n")).unwrap_err();
        assert_eq!(err.to_string(), r#"line 4: a second line for ("kmeans", "osu")"#);
    }

    #[test]
    fn replay_rejects_foreign_and_future_dumps() {
        assert!(LearnedPredictor::replay_jsonl("").is_err());
        let hybrid_dump = HybridPredictor::default().dump_jsonl();
        assert!(LearnedPredictor::replay_jsonl(&hybrid_dump).is_err());
        let future = "{\"kind\":\"fg-learn-model\",\"version\":999,\"config\":{\"min_samples\":8,\"capacity\":512,\"lambda\":1e-6,\"trust\":2.0}}\n";
        assert!(LearnedPredictor::replay_jsonl(future).is_err());
        // One out-of-range header per checked field: an error naming
        // the line, never a panic.
        for config in [
            r#"{"min_samples":1,"capacity":512,"lambda":1e-6,"trust":2.0}"#,
            r#"{"min_samples":8,"capacity":7,"lambda":1e-6,"trust":2.0}"#,
            r#"{"min_samples":8,"capacity":512,"lambda":-1.0,"trust":2.0}"#,
            r#"{"min_samples":8,"capacity":512,"lambda":"nan","trust":2.0}"#,
            r#"{"min_samples":8,"capacity":512,"lambda":1e-6,"trust":0.5}"#,
            r#"{"min_samples":8,"capacity":512,"lambda":1e-6,"trust":"nan"}"#,
            r#"{"min_samples":8,"capacity":512,"lambda":1e-6,"trust":"inf"}"#,
        ] {
            let dump = format!(r#"{{"kind":"fg-learn-model","version":1,"config":{config}}}"#);
            let err = LearnedPredictor::replay_jsonl(&dump).unwrap_err().to_string();
            assert!(err.starts_with("line 1: bad config: "), "{config}: {err}");
        }
    }

    #[test]
    fn hybrid_replay_rejects_foreign_and_future_dumps() {
        assert!(HybridPredictor::replay_jsonl("").is_err());
        let learned_dump = LearnedPredictor::default().dump_jsonl();
        assert!(HybridPredictor::replay_jsonl(&learned_dump).is_err());
        let future = r#"{"kind":"fg-hybrid-model","version":999,"config":{"alpha":0.3,"min_ratio":0.25,"max_ratio":4.0}}"#;
        assert!(HybridPredictor::replay_jsonl(future).is_err());
        for config in [
            r#"{"alpha":0.0,"min_ratio":0.25,"max_ratio":4.0}"#,
            r#"{"alpha":1.5,"min_ratio":0.25,"max_ratio":4.0}"#,
            r#"{"alpha":"nan","min_ratio":0.25,"max_ratio":4.0}"#,
            r#"{"alpha":0.3,"min_ratio":0.0,"max_ratio":4.0}"#,
            r#"{"alpha":0.3,"min_ratio":1.5,"max_ratio":4.0}"#,
            r#"{"alpha":0.3,"min_ratio":"nan","max_ratio":4.0}"#,
            r#"{"alpha":0.3,"min_ratio":0.25,"max_ratio":0.5}"#,
            r#"{"alpha":0.3,"min_ratio":0.25,"max_ratio":"nan"}"#,
            r#"{"alpha":0.3,"min_ratio":0.25,"max_ratio":"inf"}"#,
        ] {
            let dump = format!(r#"{{"kind":"fg-hybrid-model","version":1,"config":{config}}}"#);
            let err = HybridPredictor::replay_jsonl(&dump).unwrap_err().to_string();
            assert!(err.starts_with("line 1: bad config: "), "{config}: {err}");
        }
    }

    #[test]
    fn hybrid_converges_to_a_constant_stretch() {
        let pred = HybridPredictor::default();
        let a = analytical(2, 4, 1e6, 200 << 20);
        // Feed the self-referential update: each observation's
        // `predicted` is what the hybrid itself would have said.
        for _ in 0..40 {
            let cur = pred
                .predict_deployment(
                    &profile(),
                    AppClasses::CONSTANT_LINEAR_CONSTANT,
                    deployment(2, 4, 1e6).as_ref(),
                    200 << 20,
                    &HashMap::new(),
                )
                .unwrap();
            pred.observe(&Observation {
                app: "kmeans".into(),
                repo: "osu".into(),
                data_nodes: 2,
                compute_nodes: 4,
                wan_bw: 1e6,
                dataset_bytes: 200 << 20,
                predicted: [cur.t_disk, cur.t_network, cur.t_compute],
                observed: [a.t_disk * 1.0, a.t_network * 3.0, a.t_compute * 1.0],
            });
        }
        let got = pred
            .predict_deployment(
                &profile(),
                AppClasses::CONSTANT_LINEAR_CONSTANT,
                deployment(2, 4, 1e6).as_ref(),
                200 << 20,
                &HashMap::new(),
            )
            .unwrap();
        assert!((got.t_network / a.t_network - 3.0).abs() < 0.05, "{}", got.t_network);
        assert!((got.t_disk / a.t_disk - 1.0).abs() < 1e-9);
        assert!(pred.epoch() > 0);
    }

    #[test]
    fn hybrid_factors_are_clamped() {
        let pred = HybridPredictor::default();
        for _ in 0..100 {
            pred.observe(&stretched_obs(1, 1, 1e6, 64 << 20, [1e6, 1e-6, 1.0]));
        }
        let got = pred
            .predict_deployment(
                &profile(),
                AppClasses::CONSTANT_LINEAR_CONSTANT,
                deployment(1, 1, 1e6).as_ref(),
                64 << 20,
                &HashMap::new(),
            )
            .unwrap();
        let a = analytical(1, 1, 1e6, 64 << 20);
        assert!(got.t_disk <= a.t_disk * 4.0 + 1e-9);
        assert!(got.t_network >= a.t_network * 0.25 - 1e-9);
    }

    #[test]
    fn hybrid_dump_replay_dump_is_a_byte_fixpoint() {
        let pred = HybridPredictor::default();
        for _ in 0..10 {
            pred.observe(&stretched_obs(2, 4, 1e6, 200 << 20, [1.5, 2.0, 0.8]));
        }
        let dump = pred.dump_jsonl();
        let replayed = HybridPredictor::replay_jsonl(&dump).unwrap();
        assert_eq!(replayed.dump_jsonl(), dump);
        assert!(replayed.epoch() > 0);
    }

    #[test]
    fn hybrid_replay_rejects_a_line_no_live_corrector_could_have_written() {
        let header = HybridPredictor::default().dump_jsonl();
        let key = |repo: &str, factors: &str| {
            format!(r#"{{"app":"kmeans","repo":"{repo}","factors":{factors},"samples":3}}"#)
        };
        let good = key("osu", "[1.0,0.25,4.0]");
        // The dump in the issue: a zero, a negative and a huge factor,
        // then a second line for the same key.
        let dump = format!("{header}{}\n{good}\n", key("osu", "[-3.0,0.0,1e9]"));
        let err = HybridPredictor::replay_jsonl(&dump).unwrap_err().to_string();
        assert_eq!(err, "line 2: correction factor -3 outside the dump's own [0.25, 4]");
        for (bad, named) in [
            ("[1.0,0.0,1.0]", "0"),
            ("[1.0,1.0,1e9]", "1000000000"),
            ("[0.2499,1.0,1.0]", "0.2499"),
            (r#"[1.0,"nan",1.0]"#, "NaN"),
            (r#"[1.0,1.0,"inf"]"#, "inf"),
        ] {
            let dump = format!("{header}{good}\n\n{}\n", key("mit", bad));
            let err = HybridPredictor::replay_jsonl(&dump).unwrap_err().to_string();
            assert_eq!(
                err,
                format!("line 4: correction factor {named} outside the dump's own [0.25, 4]"),
                "{bad}"
            );
        }
        let dump = format!("{header}{good}\n{}\n{good}\n", key("mit", "[1.0,1.0,1.0]"));
        let err = HybridPredictor::replay_jsonl(&dump).unwrap_err().to_string();
        assert_eq!(err, r#"line 4: a second line for ("kmeans", "osu")"#);
        // Same app at another repository, another app at the same one:
        // different keys.
        let other_app = good.replace("kmeans", "em");
        let dump = format!("{header}{good}\n{}\n{other_app}\n", key("mit", "[1.0,1.0,1.0]"));
        assert_eq!(HybridPredictor::replay_jsonl(&dump).unwrap().dump_jsonl(), dump);
    }

    /// The range check is inclusive: a corrector sitting on both clamps
    /// is a live corrector, and its dump replays.
    #[test]
    fn a_hybrid_driven_to_both_clamps_still_round_trips() {
        let pred = HybridPredictor::default();
        for _ in 0..100 {
            pred.observe(&stretched_obs(1, 1, 1e6, 64 << 20, [1e6, 1e-6, 1.0]));
        }
        let HybridConfig { min_ratio, max_ratio, .. } = pred.config();
        assert_eq!(pred.state.lock().unwrap()[0].factors, [max_ratio, min_ratio, 1.0]);
        let dump = pred.dump_jsonl();
        let replayed = HybridPredictor::replay_jsonl(&dump).unwrap();
        assert_eq!(replayed.dump_jsonl(), dump);
    }
}
