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
//! learned predictor refits from a canonically sorted copy of its
//! retained buffer).
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

use crate::ridge::fit_ridge;
use fg_cluster::DeploymentRef;
use fg_predict::{
    try_predict_deployment, AppClasses, Observation, Prediction, Predictor, Profile,
    ScalingFactors, SelectionError,
};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Model-dump format version; bumped on any incompatible change to the
/// JSONL layout or the feature map.
pub const MODEL_VERSION: u32 = 1;

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

fn dot(w: &[f64], phi: &[f64; DIMS]) -> f64 {
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SampleRow {
    data_nodes: usize,
    compute_nodes: usize,
    wan_bw: f64,
    dataset_bytes: u64,
    observed: [f64; COMPONENTS],
}

impl SampleRow {
    /// Total order used to canonicalize the buffer before every refit,
    /// making the fit a function of the retained *multiset*. Floats
    /// compare by sign-aware bit patterns (all values here are
    /// non-negative in practice; ties are broken by later fields).
    fn sort_key(&self) -> (u64, usize, usize, u64, [u64; COMPONENTS]) {
        (
            self.dataset_bytes,
            self.data_nodes,
            self.compute_nodes,
            self.wan_bw.to_bits(),
            [self.observed[0].to_bits(), self.observed[1].to_bits(), self.observed[2].to_bits()],
        )
    }
}

/// Per-`(app, repository)` model state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct KeyState {
    app: String,
    repo: String,
    /// Retained samples in ingestion order (the ring's eviction order).
    samples: Vec<SampleRow>,
    /// Fitted coefficients per component, once `min_samples` cleared
    /// and the fit succeeded. `None` keys answer analytically.
    coefs: Option<[Vec<f64>; COMPONENTS]>,
}

/// Online per-`(app, repository)` ridge regression behind the
/// [`Predictor`] seam.
///
/// Every clean completion appends a sample to its key's bounded buffer;
/// once `min_samples` have accumulated the key refits from a
/// canonically sorted copy of the buffer, so the model depends only on
/// *which* samples are retained, never on their arrival order. Keys
/// without a model — and any fit the ridge core rejects — fall back to
/// the analytical prediction, and fitted predictions are clamped into
/// the trust region around it.
#[derive(Debug)]
pub struct LearnedPredictor {
    cfg: LearnConfig,
    state: Mutex<Vec<KeyState>>,
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
        self.state.lock().unwrap().iter().filter(|k| k.coefs.is_some()).count()
    }

    /// Serialize the model as versioned JSONL: a header line carrying
    /// the config, then one line per `(app, repository)` key with its
    /// retained samples (ingestion order) and fitted coefficients.
    /// The epoch is deliberately excluded — it is an instance-local
    /// cache-invalidation counter, not part of the model.
    pub fn dump_jsonl(&self) -> String {
        #[derive(Serialize)]
        struct Header {
            kind: &'static str,
            version: u32,
            config: LearnConfig,
        }
        let mut out = String::new();
        let header = Header { kind: "fg-learn-model", version: MODEL_VERSION, config: self.cfg };
        out.push_str(&serde_json::to_string(&header).expect("header serializes"));
        out.push('\n');
        for key in self.state.lock().unwrap().iter() {
            out.push_str(&serde_json::to_string(key).expect("key serializes"));
            out.push('\n');
        }
        out
    }

    /// Rebuild a predictor from a [`Self::dump_jsonl`] corpus. The dump
    /// is authoritative: samples and coefficients are installed
    /// verbatim, so `dump → replay → dump` is a byte fixpoint. The
    /// epoch restarts at the number of trained keys (any positive value
    /// distinguishes a trained replay from a fresh instance).
    pub fn replay_jsonl(text: &str) -> Result<LearnedPredictor, String> {
        #[derive(Deserialize)]
        struct Header {
            kind: String,
            version: u32,
            config: LearnConfig,
        }
        let mut lines = text.lines().enumerate();
        let (_, first) = lines.next().ok_or("empty model dump")?;
        let header: Header =
            serde_json::from_str(first).map_err(|e| format!("line 1: bad header: {e}"))?;
        if header.kind != "fg-learn-model" {
            return Err(format!("line 1: not a learned-model dump (kind {:?})", header.kind));
        }
        if header.version != MODEL_VERSION {
            return Err(format!(
                "line 1: model version {} (this build reads {MODEL_VERSION})",
                header.version
            ));
        }
        header.config.validate().map_err(|e| format!("line 1: bad config: {e}"))?;
        let pred = LearnedPredictor::new(header.config);
        let mut keys: Vec<KeyState> = Vec::new();
        for (i, line) in lines {
            if line.trim().is_empty() {
                continue;
            }
            let key: KeyState =
                serde_json::from_str(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            if key.samples.len() > header.config.capacity {
                return Err(format!(
                    "line {}: {} samples exceed the dump's own capacity {}",
                    i + 1,
                    key.samples.len(),
                    header.config.capacity
                ));
            }
            if let Some(coefs) = &key.coefs {
                if coefs.iter().any(|w| w.len() != DIMS) {
                    return Err(format!("line {}: coefficient vector is not {DIMS}-dim", i + 1));
                }
            }
            keys.push(key);
        }
        let trained = keys.iter().filter(|k| k.coefs.is_some()).count() as u64;
        *pred.state.lock().unwrap() = keys;
        pred.epoch.store(trained, Ordering::SeqCst);
        Ok(pred)
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
        // The analytical model both validates the target (its typed
        // rejections propagate unchanged) and anchors the trust region.
        let a = try_predict_deployment(profile, classes, d, dataset_bytes, factors)?;
        let state = self.state.lock().unwrap();
        let Some(coefs) = state
            .iter()
            .find(|k| k.app == profile.app && k.repo == d.repository.name)
            .and_then(|k| k.coefs.as_ref())
        else {
            return Ok(a);
        };
        let phi = features(d.config.data_nodes, d.config.compute_nodes, d.stream_bw, dataset_bytes);
        let clamp = |w: &[f64], anchor: f64| -> f64 {
            let raw = dot(w, &phi);
            if raw.is_finite() {
                raw.clamp(anchor / self.cfg.trust, anchor * self.cfg.trust)
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

    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    fn wants_observations(&self) -> bool {
        true
    }

    fn observe(&self, obs: &Observation) {
        if obs.observed.iter().any(|v| !v.is_finite()) || !obs.wan_bw.is_finite() {
            return;
        }
        let mut state = self.state.lock().unwrap();
        let ki = match state.iter().position(|k| k.app == obs.app && k.repo == obs.repo) {
            Some(i) => i,
            None => {
                state.push(KeyState {
                    app: obs.app.clone(),
                    repo: obs.repo.clone(),
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
            .map(|s| features(s.data_nodes, s.compute_nodes, s.wan_bw, s.dataset_bytes).to_vec())
            .collect();
        let mut fitted: Vec<Vec<f64>> = Vec::with_capacity(COMPONENTS);
        for comp in 0..COMPONENTS {
            let ys: Vec<f64> = canon.iter().map(|s| s.observed[comp]).collect();
            match fit_ridge(&xs, &ys, self.cfg.lambda) {
                Ok(w) => fitted.push(w),
                // A rejected fit keeps the previous model (or the
                // analytical fallback): predictions are unchanged, so
                // the epoch stays put.
                Err(_) => return,
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
        #[derive(Serialize)]
        struct Header {
            kind: &'static str,
            version: u32,
            config: HybridConfig,
        }
        let mut out = String::new();
        let header = Header { kind: "fg-hybrid-model", version: MODEL_VERSION, config: self.cfg };
        out.push_str(&serde_json::to_string(&header).expect("header serializes"));
        out.push('\n');
        for key in self.state.lock().unwrap().iter() {
            out.push_str(&serde_json::to_string(key).expect("key serializes"));
            out.push('\n');
        }
        out
    }

    /// Rebuild from a [`Self::dump_jsonl`] corpus; `dump → replay →
    /// dump` is a byte fixpoint.
    pub fn replay_jsonl(text: &str) -> Result<HybridPredictor, String> {
        #[derive(Deserialize)]
        struct Header {
            kind: String,
            version: u32,
            config: HybridConfig,
        }
        let mut lines = text.lines().enumerate();
        let (_, first) = lines.next().ok_or("empty model dump")?;
        let header: Header =
            serde_json::from_str(first).map_err(|e| format!("line 1: bad header: {e}"))?;
        if header.kind != "fg-hybrid-model" {
            return Err(format!("line 1: not a hybrid-model dump (kind {:?})", header.kind));
        }
        if header.version != MODEL_VERSION {
            return Err(format!(
                "line 1: model version {} (this build reads {MODEL_VERSION})",
                header.version
            ));
        }
        header.config.validate().map_err(|e| format!("line 1: bad config: {e}"))?;
        let pred = HybridPredictor::new(header.config);
        let mut keys: Vec<HybridKey> = Vec::new();
        for (i, line) in lines {
            if line.trim().is_empty() {
                continue;
            }
            let key: HybridKey =
                serde_json::from_str(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            if key.factors.iter().any(|f| !f.is_finite()) {
                return Err(format!("line {}: non-finite correction factor", i + 1));
            }
            keys.push(key);
        }
        let trained = keys.len() as u64;
        *pred.state.lock().unwrap() = keys;
        pred.epoch.store(trained, Ordering::SeqCst);
        Ok(pred)
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
        let a = try_predict_deployment(profile, classes, d, dataset_bytes, factors)?;
        let state = self.state.lock().unwrap();
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

    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    fn wants_observations(&self) -> bool {
        true
    }

    fn observe(&self, obs: &Observation) {
        let mut state = self.state.lock().unwrap();
        let ki = match state.iter().position(|k| k.app == obs.app && k.repo == obs.repo) {
            Some(i) => i,
            None => {
                state.push(HybridKey {
                    app: obs.app.clone(),
                    repo: obs.repo.clone(),
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
            let err = LearnedPredictor::replay_jsonl(&dump).unwrap_err();
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
            let err = HybridPredictor::replay_jsonl(&dump).unwrap_err();
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
}
