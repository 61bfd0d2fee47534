//! Expectation-Maximization clustering (§4.2 of the paper).
//!
//! A diagonal-covariance Gaussian mixture fitted by EM, parallelized the
//! way the paper describes: each EM iteration alternates two generalized
//! reductions — an **E pass** (each node accumulates responsibilities,
//! responsibility-weighted sums and the log-likelihood; the master
//! computes new means and mixture weights and broadcasts them) and an
//! **M pass** (each node accumulates responsibility-weighted squared
//! deviations from the *new* means; the master computes the covariances
//! and re-broadcasts). The log-likelihood is the monotonically increasing
//! quantity the paper uses to monitor solution quality.
//!
//! Classes: besides the fixed-size sufficient statistics, the reduction
//! object carries a per-node diagnostic buffer (one log-density sample
//! per 64 elements) — a **linear** (dataset-proportional) object, and the
//! master's processing of the merged buffer makes the global reduction
//! **constant-linear** (`T_g ∝ s`, independent of `c`), matching the
//! paper's classification of EM.

use crate::common::{chunk_sizes, physical_elements};
use fg_chunks::{codec, Chunk, Dataset, DatasetBuilder};
use fg_middleware::{ObjSize, PassOutcome, ReductionApp, ReductionObject, WorkMeter};
use fg_sim::rng::stream_rng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Feature dimensionality.
pub const DIM: usize = 4;
/// Bytes per point.
pub const BYTES_PER_POINT: usize = DIM * 4;
/// Logical chunk size.
const CHUNK_BYTES: u64 = 2_000_000;
/// One diagnostic sample is kept per this many elements.
const DIAG_STRIDE: usize = 64;
/// Variance floor to keep components from collapsing.
const VAR_FLOOR: f64 = 1e-3;

/// Generate a Gaussian-mixture dataset with `k_true` components.
pub fn generate(id: &str, nominal_mb: f64, scale: f64, seed: u64, k_true: usize) -> Dataset {
    let total = physical_elements(nominal_mb, scale, BYTES_PER_POINT);
    let mut rng = stream_rng(seed, "em-data");
    let centers: Vec<[f32; DIM]> =
        (0..k_true).map(|_| std::array::from_fn(|_| rng.gen_range(10.0..90.0))).collect();
    let sigmas: Vec<f32> = (0..k_true).map(|_| rng.gen_range(1.5..4.0)).collect();
    let per_chunk = (CHUNK_BYTES as f64 * scale / BYTES_PER_POINT as f64).max(1.0) as u64;
    let mut builder = DatasetBuilder::new(id, "em-points", scale);
    for count in chunk_sizes(total, per_chunk, 16) {
        let mut vals = Vec::with_capacity(count as usize * DIM);
        for _ in 0..count {
            let c = rng.gen_range(0..k_true);
            for d in 0..DIM {
                let jitter: f32 = (0..3).map(|_| rng.gen_range(-1.0f32..1.0)).sum();
                vals.push(centers[c][d] + jitter * sigmas[c]);
            }
        }
        builder.push_chunk(codec::encode_f32s(&vals), count, None);
    }
    builder.build()
}

/// Which half of an EM iteration the next pass performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EmPhase {
    /// Expectation: accumulate `N_k`, `Σ γ x`, log-likelihood.
    Expectation,
    /// Maximization: accumulate `Σ γ (x - μ_new)²`.
    Maximization,
}

/// The broadcast state: current mixture parameters plus the staging area
/// between the E and M halves of an iteration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EmState {
    /// Component means used for responsibilities (μ_old).
    pub means: Vec<[f64; DIM]>,
    /// Component diagonal variances (σ²_old).
    pub vars: Vec<[f64; DIM]>,
    /// Mixture weights (w_old).
    pub weights: Vec<f64>,
    /// Means computed by the last E pass (μ_new), consumed by the M pass.
    pub new_means: Vec<[f64; DIM]>,
    /// Mixture weights computed by the last E pass, applied after the M
    /// pass (responsibilities within one iteration must use the old
    /// parameters throughout).
    pub new_weights: Vec<f64>,
    /// Per-component responsibility masses from the last E pass.
    pub n_k: Vec<f64>,
    /// Which pass runs next.
    pub phase: EmPhase,
    /// Completed EM iterations.
    pub iter: usize,
    /// Log-likelihood observed by the most recent E pass.
    pub loglik: f64,
}

/// Sufficient-statistics accumulator (shared by both passes) plus the
/// dataset-proportional diagnostic buffer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EmObj {
    n: Vec<f64>,
    sums: Vec<[f64; DIM]>,
    loglik: f64,
    diag: Vec<f32>,
}

impl ReductionObject for EmObj {
    fn merge(&mut self, other: &Self, meter: &mut WorkMeter) {
        for (a, b) in self.n.iter_mut().zip(other.n.iter()) {
            *a += b;
        }
        for (a, b) in self.sums.iter_mut().zip(other.sums.iter()) {
            for d in 0..DIM {
                a[d] += b[d];
            }
        }
        self.loglik += other.loglik;
        self.diag.extend_from_slice(&other.diag);
        meter.fixed_flops((self.n.len() * (DIM + 1)) as u64 + 1);
        meter.data_mem(other.diag.len() as u64);
    }

    fn size(&self) -> ObjSize {
        ObjSize {
            fixed: (self.n.len() * (8 + 8 * DIM) + 8) as u64,
            data: (self.diag.len() * 4) as u64,
        }
    }
}

/// The EM clustering application: `k` components, `iterations` EM
/// iterations (two passes each).
pub struct Em {
    /// Mixture components.
    pub k: usize,
    /// EM iterations (each is an E pass plus an M pass).
    pub iterations: usize,
    /// Seed for parameter initialization.
    pub seed: u64,
}

impl Em {
    /// The experiment instance: k=4, 10 iterations (20 passes).
    pub fn paper(seed: u64) -> Em {
        Em { k: 4, iterations: 10, seed }
    }

    /// Per-point log-densities and responsibilities under `state`'s
    /// (old) parameters. Writes γ into `gamma` (length k) and returns
    /// `log p(x)`. The sequential oracle's form, written straight from
    /// the definition; precomputed `log w_c - 0.5 log det Σ_c` terms come
    /// in via `prior`.
    fn responsibilities(state: &EmState, x: &[f32], prior: &[f64], gamma: &mut [f64]) -> f64 {
        let k = state.weights.len();
        debug_assert_eq!(gamma.len(), k);
        for c in 0..k {
            let mut quad = 0.0f64;
            for d in 0..DIM {
                let diff = x[d] as f64 - state.means[c][d];
                quad += diff * diff / state.vars[c][d];
            }
            gamma[c] = prior[c] - 0.5 * quad; // log p(x, c) for now
        }
        let max = gamma.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut denom = 0.0f64;
        for g in gamma.iter() {
            denom += (g - max).exp();
        }
        let log_px = max + denom.ln();
        for g in gamma.iter_mut() {
            *g = (*g - log_px).exp();
        }
        log_px
    }

    /// The kernel's form of `responsibilities`: fills `e` with
    /// `e_c = exp(log p(x, c) − max)` and returns `(max, Σ e_c)`, so
    /// `γ_c = e_c / Σ e_c` and `log p(x) = max + ln Σ e_c`. One `exp` per
    /// component, none for the maximum (exactly 1). Terms below `e^-708`
    /// are 0 rather than subnormal (libm's slow path): a responsibility
    /// that small is far below the `1e-12` mass the master treats as an
    /// empty component. `inv_vars` holds `1 / σ²_c`.
    fn softmax_terms(
        means: &[[f64; DIM]],
        inv_vars: &[[f64; DIM]],
        prior: &[f64],
        x: &[f64; DIM],
        e: &mut [f64],
    ) -> (f64, f64) {
        let mut max = f64::NEG_INFINITY;
        for (((term, mean), inv_var), prior) in e.iter_mut().zip(means).zip(inv_vars).zip(prior) {
            let mut quad = 0.0f64;
            for d in 0..DIM {
                let diff = x[d] - mean[d];
                quad += diff * diff * inv_var[d];
            }
            *term = prior - 0.5 * quad;
            max = max.max(*term);
        }
        let mut denom = 0.0f64;
        for term in e.iter_mut() {
            let t = *term - max;
            *term = if t == 0.0 {
                1.0
            } else if t < -708.0 {
                0.0
            } else {
                t.exp()
            };
            denom += *term;
        }
        (max, denom)
    }

    /// The per-component constant of the log-density:
    /// `log w_c - 0.5 (log det Σ_c + D log 2π)`.
    fn log_priors(state: &EmState) -> Vec<f64> {
        state
            .weights
            .iter()
            .zip(state.vars.iter())
            .map(|(w, var)| {
                let logdet: f64 = var.iter().map(|v| v.ln()).sum();
                w.max(1e-300).ln() - 0.5 * (logdet + DIM as f64 * (2.0 * std::f64::consts::PI).ln())
            })
            .collect()
    }
}

impl ReductionApp for Em {
    type Obj = EmObj;
    type State = EmState;

    fn name(&self) -> &str {
        "em"
    }

    fn initial_state(&self) -> EmState {
        let mut rng = stream_rng(self.seed, "em-init");
        EmState {
            means: (0..self.k)
                .map(|_| std::array::from_fn(|_| rng.gen_range(0.0..100.0)))
                .collect(),
            vars: vec![[25.0; DIM]; self.k],
            weights: vec![1.0 / self.k as f64; self.k],
            new_means: vec![[0.0; DIM]; self.k],
            new_weights: vec![1.0 / self.k as f64; self.k],
            n_k: vec![0.0; self.k],
            phase: EmPhase::Expectation,
            iter: 0,
            loglik: f64::NEG_INFINITY,
        }
    }

    fn new_object(&self, _: &EmState) -> EmObj {
        EmObj {
            n: vec![0.0; self.k],
            sums: vec![[0.0; DIM]; self.k],
            loglik: 0.0,
            diag: Vec::new(),
        }
    }

    fn local_reduce(&self, state: &EmState, chunk: &Chunk, obj: &mut EmObj, meter: &mut WorkMeter) {
        let vals = codec::decode_f32s(&chunk.payload);
        let points = vals.chunks_exact(DIM);
        let n = points.len() as u64;
        let prior = Em::log_priors(state);
        let inv_vars: Vec<[f64; DIM]> = state.vars.iter().map(|v| v.map(|x| 1.0 / x)).collect();
        let mut e = vec![0.0f64; self.k];
        // γ_c = e_c / Σe and log p(x) = max + ln Σe; the log is taken only
        // where it is read.
        let terms = |p: &[f32], e: &mut [f64]| {
            let x: [f64; DIM] = std::array::from_fn(|d| p[d] as f64);
            let (max, denom) = Em::softmax_terms(&state.means, &inv_vars, &prior, &x, e);
            (x, max, denom)
        };
        match state.phase {
            EmPhase::Expectation => {
                for (i, p) in points.enumerate() {
                    let (x, max, denom) = terms(p, &mut e);
                    let log_px = max + denom.ln();
                    let inv = 1.0 / denom;
                    for ((term, n), sums) in e.iter().zip(&mut obj.n).zip(&mut obj.sums) {
                        let g = term * inv;
                        *n += g;
                        for d in 0..DIM {
                            sums[d] += g * x[d];
                        }
                    }
                    obj.loglik += log_px;
                    if i % DIAG_STRIDE == 0 {
                        obj.diag.push(log_px as f32);
                    }
                }
            }
            EmPhase::Maximization => {
                for (i, p) in points.enumerate() {
                    let (x, max, denom) = terms(p, &mut e);
                    let inv = 1.0 / denom;
                    for (((term, n), sums), mean) in
                        e.iter().zip(&mut obj.n).zip(&mut obj.sums).zip(&state.new_means)
                    {
                        let g = term * inv;
                        *n += g;
                        for d in 0..DIM {
                            let diff = x[d] - mean[d];
                            sums[d] += g * diff * diff;
                        }
                    }
                    if i % DIAG_STRIDE == 0 {
                        obj.diag.push((max + denom.ln()) as f32);
                    }
                }
            }
        }
        // Per point: k log-densities (≈ 6 flops per dim each), softmax,
        // and k*(DIM+1) accumulator updates.
        let k = self.k as u64;
        meter.data_flops(n * k * (6 * DIM as u64 + 4));
        meter.data_mem(n * DIM as u64 * 2);
        meter.data_cmp(n * k);
    }

    fn global_finalize(
        &self,
        state: &EmState,
        merged: EmObj,
        meter: &mut WorkMeter,
    ) -> PassOutcome<EmState> {
        // Outlier screen over the merged buffer (sort-free selection plus
        // robust statistics), metered but not run since nothing reads its
        // result — the dataset-proportional master work that makes EM's
        // global reduction the constant-linear class.
        meter.data_mem(merged.diag.len() as u64 * 4);
        meter.data_flops(merged.diag.len() as u64 * 3);
        meter.data_cmp(merged.diag.len() as u64 * 2);
        meter.fixed_flops((self.k * (DIM + 1)) as u64);

        let mut next = state.clone();
        match state.phase {
            EmPhase::Expectation => {
                let total: f64 = merged.n.iter().sum();
                for c in 0..self.k {
                    if merged.n[c] > 1e-12 {
                        next.new_means[c] =
                            std::array::from_fn(|d| merged.sums[c][d] / merged.n[c]);
                    } else {
                        next.new_means[c] = state.means[c];
                    }
                }
                next.n_k = merged.n.clone();
                next.new_weights = merged.n.iter().map(|&nk| (nk / total).max(1e-12)).collect();
                next.loglik = merged.loglik;
                next.phase = EmPhase::Maximization;
                PassOutcome::NextPass(next)
            }
            EmPhase::Maximization => {
                for c in 0..self.k {
                    if state.n_k[c] > 1e-12 {
                        next.vars[c] = std::array::from_fn(|d| {
                            (merged.sums[c][d] / state.n_k[c]).max(VAR_FLOOR)
                        });
                    }
                }
                next.means = state.new_means.clone();
                next.weights = state.new_weights.clone();
                next.phase = EmPhase::Expectation;
                next.iter = state.iter + 1;
                if next.iter >= self.iterations {
                    PassOutcome::Finished(next)
                } else {
                    PassOutcome::NextPass(next)
                }
            }
        }
    }

    fn state_size(&self, _: &EmState) -> ObjSize {
        ObjSize { fixed: (self.k * (8 * DIM * 2 + 16) + 32) as u64, data: 0 }
    }

    fn caches(&self) -> bool {
        true
    }
}

/// Sequential reference: one full EM iteration (E + M) over all points.
/// Returns the updated state; used by tests to validate the two-pass
/// middleware split.
pub fn reference_em_iteration(app: &Em, state: &EmState, points: &[f32]) -> EmState {
    let mut n = vec![0.0f64; app.k];
    let mut sums = vec![[0.0f64; DIM]; app.k];
    let mut loglik = 0.0;
    let prior = Em::log_priors(state);
    let mut gamma = vec![0.0f64; app.k];
    for p in points.chunks_exact(DIM) {
        let log_px = Em::responsibilities(state, p, &prior, &mut gamma);
        for c in 0..app.k {
            n[c] += gamma[c];
            for d in 0..DIM {
                sums[c][d] += gamma[c] * p[d] as f64;
            }
        }
        loglik += log_px;
    }
    let total: f64 = n.iter().sum();
    let mut next = state.clone();
    for c in 0..app.k {
        if n[c] > 1e-12 {
            next.means[c] = std::array::from_fn(|d| sums[c][d] / n[c]);
        }
    }
    next.weights = n.iter().map(|&nk| (nk / total).max(1e-12)).collect();
    next.loglik = loglik;
    // M step with the same responsibilities (recomputed from old params).
    let mut v = vec![[0.0f64; DIM]; app.k];
    for p in points.chunks_exact(DIM) {
        Em::responsibilities(state, p, &prior, &mut gamma);
        for c in 0..app.k {
            for d in 0..DIM {
                let diff = p[d] as f64 - next.means[c][d];
                v[c][d] += gamma[c] * diff * diff;
            }
        }
    }
    for c in 0..app.k {
        if n[c] > 1e-12 {
            next.vars[c] = std::array::from_fn(|d| (v[c][d] / n[c]).max(VAR_FLOOR));
        }
    }
    next.iter = state.iter + 1;
    next
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_cluster::{ComputeSite, Configuration, Deployment, RepositorySite, Wan};
    use fg_middleware::Executor;

    fn deployment(n: usize, c: usize) -> Deployment {
        Deployment::new(
            RepositorySite::pentium_repository("repo", 8),
            ComputeSite::pentium_myrinet("cs", 16),
            Wan::per_stream(1e6),
            Configuration::new(n, c),
        )
    }

    fn all_points(ds: &Dataset) -> Vec<f32> {
        ds.chunks.iter().flat_map(|c| codec::decode_f32s(&c.payload)).collect()
    }

    #[test]
    fn two_pass_split_matches_reference_iteration() {
        let ds = generate("em-ref", 1.0, 0.01, 31, 3);
        let app = Em { k: 3, iterations: 1, seed: 9 };
        let run = Executor::new(deployment(2, 4)).run(&app, &ds);
        assert_eq!(run.report.num_passes(), 2);
        let expect = reference_em_iteration(&app, &app.initial_state(), &all_points(&ds));
        for c in 0..app.k {
            for d in 0..DIM {
                assert!(
                    (run.final_state.means[c][d] - expect.means[c][d]).abs() < 1e-6,
                    "means differ"
                );
                assert!(
                    (run.final_state.vars[c][d] - expect.vars[c][d]).abs() < 1e-6,
                    "vars differ"
                );
            }
            assert!((run.final_state.weights[c] - expect.weights[c]).abs() < 1e-9);
        }
    }

    #[test]
    fn loglikelihood_is_monotone() {
        let ds = generate("em-ll", 1.0, 0.01, 32, 3);
        let pts = all_points(&ds);
        let app = Em { k: 3, iterations: 1, seed: 10 };
        let mut state = app.initial_state();
        let mut prev = f64::NEG_INFINITY;
        for _ in 0..8 {
            state = reference_em_iteration(&app, &state, &pts);
            assert!(
                state.loglik >= prev - 1e-6,
                "log-likelihood decreased: {} -> {}",
                prev,
                state.loglik
            );
            prev = state.loglik;
        }
    }

    #[test]
    fn recovers_planted_component_means() {
        let seed = 44;
        let ds = generate("em-plant", 2.0, 0.02, seed, 2);
        let app = Em { k: 2, iterations: 25, seed: 5 };
        let run = Executor::new(deployment(1, 2)).run(&app, &ds);
        let mut rng = stream_rng(seed, "em-data");
        let planted: Vec<[f32; DIM]> =
            (0..2).map(|_| std::array::from_fn(|_| rng.gen_range(10.0..90.0))).collect();
        for m in &run.final_state.means {
            let nearest = planted
                .iter()
                .map(|p| (0..DIM).map(|d| (m[d] - p[d] as f64).powi(2)).sum::<f64>().sqrt())
                .fold(f64::INFINITY, f64::min);
            assert!(nearest < 5.0, "fitted mean {:?} far from planted centers", m);
        }
    }

    #[test]
    fn responsibilities_sum_to_one() {
        let app = Em { k: 4, iterations: 1, seed: 1 };
        let state = app.initial_state();
        let x = [50.0f32, 50.0, 50.0, 50.0];
        let prior = Em::log_priors(&state);
        let mut gamma = vec![0.0f64; 4];
        Em::responsibilities(&state, &x, &prior, &mut gamma);
        let total: f64 = gamma.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(gamma.iter().all(|&g| (0.0..=1.0).contains(&g)));
    }

    #[test]
    fn result_is_configuration_independent() {
        let ds = generate("em-cfg", 1.0, 0.01, 33, 3);
        let app = Em { k: 3, iterations: 3, seed: 2 };
        let base = Executor::new(deployment(1, 1)).run(&app, &ds);
        let wide = Executor::new(deployment(8, 16)).run(&app, &ds);
        for c in 0..app.k {
            for d in 0..DIM {
                assert!((base.final_state.means[c][d] - wide.final_state.means[c][d]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn object_is_linear_class() {
        let ds = generate("em-lin", 1.0, 0.01, 34, 2);
        let app = Em::paper(1);
        let state = app.initial_state();
        let mut obj = app.new_object(&state);
        let mut meter = WorkMeter::new();
        app.local_reduce(&state, &ds.chunks[0], &mut obj, &mut meter);
        let one = obj.size().data;
        app.local_reduce(&state, &ds.chunks[1], &mut obj, &mut meter);
        let two = obj.size().data;
        assert!(one > 0, "EM object must carry data-proportional payload");
        assert!(two > one, "diagnostic buffer must grow with data volume");
    }

    /// `Em` with the direct kernel: the sequential oracle's
    /// `responsibilities` (two `exp`s per component and a log per point)
    /// in both phases.
    struct VerbatimEm(Em);

    impl ReductionApp for VerbatimEm {
        type Obj = EmObj;
        type State = EmState;

        fn name(&self) -> &str {
            self.0.name()
        }

        fn initial_state(&self) -> EmState {
            self.0.initial_state()
        }

        fn new_object(&self, state: &EmState) -> EmObj {
            self.0.new_object(state)
        }

        fn local_reduce(
            &self,
            state: &EmState,
            chunk: &Chunk,
            obj: &mut EmObj,
            meter: &mut WorkMeter,
        ) {
            let vals = codec::decode_f32s(&chunk.payload);
            let points = vals.chunks_exact(DIM);
            let n = points.len() as u64;
            let prior = Em::log_priors(state);
            let mut gamma = vec![0.0f64; self.0.k];
            for (i, p) in points.enumerate() {
                let log_px = Em::responsibilities(state, p, &prior, &mut gamma);
                match state.phase {
                    EmPhase::Expectation => {
                        for c in 0..self.0.k {
                            obj.n[c] += gamma[c];
                            for d in 0..DIM {
                                obj.sums[c][d] += gamma[c] * p[d] as f64;
                            }
                        }
                        obj.loglik += log_px;
                        if i % DIAG_STRIDE == 0 {
                            obj.diag.push(log_px as f32);
                        }
                    }
                    EmPhase::Maximization => {
                        for c in 0..self.0.k {
                            obj.n[c] += gamma[c];
                            for d in 0..DIM {
                                let diff = p[d] as f64 - state.new_means[c][d];
                                obj.sums[c][d] += gamma[c] * diff * diff;
                            }
                        }
                        if i % DIAG_STRIDE == 0 {
                            obj.diag.push(log_px as f32);
                        }
                    }
                }
            }
            let k = self.0.k as u64;
            meter.data_flops(n * k * (6 * DIM as u64 + 4));
            meter.data_mem(n * DIM as u64 * 2);
            meter.data_cmp(n * k);
        }

        fn global_finalize(
            &self,
            state: &EmState,
            merged: EmObj,
            meter: &mut WorkMeter,
        ) -> PassOutcome<EmState> {
            self.0.global_finalize(state, merged, meter)
        }

        fn state_size(&self, state: &EmState) -> ObjSize {
            self.0.state_size(state)
        }

        fn caches(&self) -> bool {
            self.0.caches()
        }
    }

    fn assert_close(what: &str, a: f64, b: f64) {
        let rel = (a - b).abs() / a.abs().max(b.abs()).max(f64::MIN_POSITIVE);
        assert!(rel <= 1e-12, "{what}: {a} vs {b} (relative {rel:e})");
    }

    #[test]
    fn kernel_matches_verbatim_kernel_on_the_sweep_dataset() {
        // The benchmark sweep's EM input: 130 MB nominal at the figure
        // harness's 1:250 scale, seed 42, four planted components.
        let ds = generate("bench-em", 130.0, 0.004, 42, 4);
        for (n, c) in [(1, 1), (2, 4), (8, 16)] {
            let fast = Executor::new(deployment(n, c)).run(&Em::paper(7), &ds);
            let verbatim = Executor::new(deployment(n, c)).run(&VerbatimEm(Em::paper(7)), &ds);
            assert_eq!(fast.report, verbatim.report, "{n}-{c}: simulated execution moved");
            let (a, b) = (&fast.final_state, &verbatim.final_state);
            for k in 0..a.weights.len() {
                for d in 0..DIM {
                    assert_close("mean", a.means[k][d], b.means[k][d]);
                    assert_close("var", a.vars[k][d], b.vars[k][d]);
                }
                assert_close("weight", a.weights[k], b.weights[k]);
            }
            assert_close("loglik", a.loglik, b.loglik);
        }
    }

    #[test]
    fn pass_count_is_two_per_iteration() {
        let ds = generate("em-pc", 1.0, 0.01, 35, 2);
        let app = Em { k: 2, iterations: 4, seed: 3 };
        let run = Executor::new(deployment(1, 1)).run(&app, &ds);
        assert_eq!(run.report.num_passes(), 8);
        assert_eq!(run.final_state.iter, 4);
    }
}
