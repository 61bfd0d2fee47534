//! `paper-sweep`: the paper's own loop. For each of the five
//! applications, every configuration of the paper's grid is executed
//! on the simulated middleware and predicted from the 1-1 profile.

use super::{Segment, Workload};
use crate::inputs::{shuffle, CONTENT_SEED};
use crate::measure::{timed, Fnv};
use crate::trace::{Off, Tracer};
use fg_bench::scenario::{collect_profile, predict_all_models, DEFAULT_WAN_BW};
use fg_bench::{pentium_deployment, PaperApp, FIGURE_SCALE};
use fg_chunks::Dataset;
use fg_cluster::Configuration;
use fg_predict::{relative_error, ComputeModel, Profile, Target};
use std::time::Instant;

/// Nominal dataset size, MB: the paper's smallest (130 MB), generated
/// at `FIGURE_SCALE`.
pub const NOMINAL_MB: f64 = 130.0;

fn exec_span(app: PaperApp) -> &'static str {
    match app {
        PaperApp::KMeans => "middleware.exec.run.kmeans",
        PaperApp::Vortex => "middleware.exec.run.vortex",
        PaperApp::Defect => "middleware.exec.run.defect",
        PaperApp::Em => "middleware.exec.run.em",
        PaperApp::Knn => "middleware.exec.run.knn",
        PaperApp::Apriori | PaperApp::Ann => "middleware.exec.run.other",
    }
}

/// The five applications' datasets.
pub fn generate() -> Vec<Dataset> {
    PaperApp::PAPER_FIVE
        .iter()
        .map(|app| {
            app.generate(&format!("bench-{}", app.name()), NOMINAL_MB, FIGURE_SCALE, CONTENT_SEED)
        })
        .collect()
}

/// `paper-sweep`: 5 apps × 14 configurations = 70 ops per segment, an
/// op being one `PaperApp::execute` plus `predict_all_models`.
pub struct Sweep {
    datasets: Vec<Dataset>,
    profiles: Vec<Profile>,
    /// (index into `PAPER_FIVE`, configuration), in the order `--seed`
    /// dealt.
    ops: Vec<(usize, Configuration)>,
    /// Relative error of the global-reduction model on each op of the
    /// latest segment.
    errors: Vec<f64>,
}

impl Sweep {
    /// Mean relative error of the global-reduction model over the
    /// latest segment, in percent — the paper's headline number.
    /// Summed in ascending order, so the order `--seed` dealt cannot
    /// move the last bit.
    fn pred_err_pct(&self) -> f64 {
        let errors = crate::measure::sort(self.errors.clone());
        100.0 * errors.iter().sum::<f64>() / errors.len().max(1) as f64
    }

    pub fn run<T: Tracer>(&mut self, t: &mut T, lat: &mut Vec<u64>) -> Segment {
        let global = ComputeModel::ALL
            .iter()
            .position(|m| *m == ComputeModel::GlobalReduction)
            .expect("the global-reduction model is one of the three");
        self.errors.clear();
        let mut digest = Fnv::new();
        let start = Instant::now();
        for (op, &(i, cfg)) in self.ops.iter().enumerate() {
            let (app, dataset, profile) =
                (PaperApp::PAPER_FIVE[i], &self.datasets[i], &self.profiles[i]);
            t.set_op(op as u64);
            let ((actual, predicted), ns) = timed(|| {
                let deployment =
                    pentium_deployment(cfg.data_nodes, cfg.compute_nodes, DEFAULT_WAN_BW);
                let site = deployment.compute.clone();
                let report = t.span(exec_span(app), || app.execute(deployment, dataset));
                let target = Target {
                    data_nodes: cfg.data_nodes,
                    compute_nodes: cfg.compute_nodes,
                    wan_bw: DEFAULT_WAN_BW,
                    dataset_bytes: dataset.logical_bytes(),
                };
                let predicted = t.span("predict.model.predict", || {
                    predict_all_models(profile, app, &site, &target)
                });
                (report.total().as_secs_f64(), predicted[global].total())
            });
            lat.push(ns);
            digest.f64(actual);
            digest.f64(predicted);
            self.errors.push(relative_error(actual, predicted));
        }
        let secs = start.elapsed().as_secs_f64();
        let failed = self.errors.iter().filter(|e| !e.is_finite()).count() as u64;
        Segment { secs, failed, digest: digest.0 }
    }
}

impl Sweep {
    /// Generate the five datasets, profile each app at 1-1, and deal
    /// every `step`th op of the app-by-configuration grid in an order
    /// drawn from `seed`.
    pub fn every(step: usize, seed: u64) -> Sweep {
        let datasets = generate();
        let profiles = PaperApp::PAPER_FIVE
            .iter()
            .zip(&datasets)
            .map(|(app, ds)| collect_profile(*app, pentium_deployment(1, 1, DEFAULT_WAN_BW), ds))
            .collect();
        let mut ops: Vec<(usize, Configuration)> = (0..PaperApp::PAPER_FIVE.len())
            .flat_map(|i| Configuration::paper_grid().into_iter().map(move |cfg| (i, cfg)))
            .step_by(step)
            .collect();
        shuffle(&mut ops, seed, "benchmark-sweep-order");
        Sweep { datasets, profiles, ops, errors: Vec::new() }
    }

    pub fn ops(&self) -> usize {
        self.ops.len()
    }
}

impl Workload for Sweep {
    const OPS: usize = 70;
    const SEGMENTS: usize = 8;
    const SETUP_REPS: usize = 12;

    fn setup(seed: u64) -> Self {
        let sweep = Sweep::every(1, seed);
        assert_eq!(sweep.ops(), Self::OPS);
        sweep
    }

    fn segment(&mut self, lat: &mut Vec<u64>) -> Segment {
        self.run(&mut Off, lat)
    }

    /// The identity configuration is predicted from its own profile, so
    /// its error must vanish; the segment digests cover the rest (the
    /// simulated times and predictions must not move between segments).
    fn verify(&mut self) -> Result<f64, String> {
        let identity = Configuration::new(1, 1);
        for (&(i, cfg), &err) in self.ops.iter().zip(&self.errors) {
            if cfg == identity && (err.is_nan() || err > 0.02) {
                let app = PaperApp::PAPER_FIVE[i].name();
                return Err(format!("{app}: 1-1 predicted from its 1-1 profile is {err} off"));
            }
        }
        Ok(self.pred_err_pct())
    }
}
