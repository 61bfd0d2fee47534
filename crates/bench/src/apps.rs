//! Uniform driver over the application suite.
//!
//! The middleware API is generic over the application type; the harness
//! needs to iterate "all five applications of the paper", so this enum
//! monomorphizes each arm behind one non-generic surface.

use fg_chunks::Dataset;
use fg_cluster::Deployment;
use fg_middleware::{ExecutionReport, Executor, RunMode};
use fg_predict::AppClasses;
use fg_sim::FaultSchedule;
use fg_trace::Trace;

/// The applications of the paper's evaluation (plus apriori, the
/// extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaperApp {
    /// k-means clustering (§4.1).
    KMeans,
    /// EM clustering (§4.2).
    Em,
    /// k-nearest-neighbor search (§4.3).
    Knn,
    /// Vortex detection (§4.4).
    Vortex,
    /// Molecular defect detection (§4.5).
    Defect,
    /// Apriori association mining (extension).
    Apriori,
    /// Neural-network training (extension).
    Ann,
}

/// Planted patterns used for apriori datasets.
const APRIORI_PATTERNS: [[u32; 3]; 2] = [[2, 17, 40], [5, 23, 51]];

impl PaperApp {
    /// Every application, in declaration order.
    pub const ALL: [PaperApp; 7] = [
        PaperApp::KMeans,
        PaperApp::Em,
        PaperApp::Knn,
        PaperApp::Vortex,
        PaperApp::Defect,
        PaperApp::Apriori,
        PaperApp::Ann,
    ];

    /// The five applications evaluated in the paper, in figure order.
    pub const PAPER_FIVE: [PaperApp; 5] =
        [PaperApp::KMeans, PaperApp::Vortex, PaperApp::Defect, PaperApp::Em, PaperApp::Knn];

    /// Application name (matches `ReductionApp::name`).
    pub fn name(&self) -> &'static str {
        match self {
            PaperApp::KMeans => "kmeans",
            PaperApp::Em => "em",
            PaperApp::Knn => "knn",
            PaperApp::Vortex => "vortex",
            PaperApp::Defect => "defect",
            PaperApp::Apriori => "apriori",
            PaperApp::Ann => "ann",
        }
    }

    /// Parse from a name.
    pub fn parse(name: &str) -> Option<PaperApp> {
        Some(match name {
            "kmeans" => PaperApp::KMeans,
            "em" => PaperApp::Em,
            "knn" => PaperApp::Knn,
            "vortex" => PaperApp::Vortex,
            "defect" => PaperApp::Defect,
            "apriori" => PaperApp::Apriori,
            "ann" => PaperApp::Ann,
            _ => return None,
        })
    }

    /// The documented class pair.
    pub fn classes(&self) -> AppClasses {
        AppClasses::for_app(self.name())
    }

    /// Generate this application's dataset at a nominal size and scale.
    pub fn generate(&self, id: &str, nominal_mb: f64, scale: f64, seed: u64) -> Dataset {
        match self {
            PaperApp::KMeans => fg_apps::kmeans::generate(id, nominal_mb, scale, seed, 8),
            PaperApp::Em => fg_apps::em::generate(id, nominal_mb, scale, seed, 4),
            PaperApp::Knn => fg_apps::knn::generate(id, nominal_mb, scale, seed),
            PaperApp::Vortex => fg_apps::vortex::generate(id, nominal_mb, scale, seed).0,
            PaperApp::Defect => fg_apps::defect::generate(id, nominal_mb, scale, seed).0,
            PaperApp::Apriori => {
                fg_apps::apriori::generate(id, nominal_mb, scale, seed, &APRIORI_PATTERNS)
            }
            PaperApp::Ann => fg_apps::ann::generate(id, nominal_mb, scale, seed),
        }
    }

    /// Execute on a deployment, returning the measured report. The
    /// application parameters are the fixed experiment instances, so the
    /// same dataset always does the same work.
    pub fn execute(&self, deployment: Deployment, dataset: &Dataset) -> ExecutionReport {
        self.execute_with(deployment, dataset, &FaultSchedule::none(), false).0
    }

    /// Execute with tracing enabled, returning the measured report plus
    /// the structured trace of the run. The report is bit-identical to
    /// what [`PaperApp::execute`] returns for the same inputs — tracing
    /// observes the run, it never perturbs it.
    pub fn execute_traced(
        &self,
        deployment: Deployment,
        dataset: &Dataset,
    ) -> (ExecutionReport, Trace) {
        let (report, trace) = self.execute_with(deployment, dataset, &FaultSchedule::none(), true);
        (report, trace.expect("a traced run returns its trace"))
    }

    /// Execute under an injected fault `schedule`, returning the measured
    /// report and — if `trace` — the structured trace (recovery spans
    /// included). Same applications and fixed parameters as
    /// [`PaperApp::execute`], which is this under an empty schedule.
    pub fn execute_with(
        &self,
        deployment: Deployment,
        dataset: &Dataset,
        schedule: &FaultSchedule,
        trace: bool,
    ) -> (ExecutionReport, Option<Trace>) {
        let exec = Executor::new(deployment);
        // The arms differ only in the application's type.
        macro_rules! run {
            ($app:expr) => {{
                let mode = RunMode::Full { controller: None, trace };
                let result = exec.run_with(&$app, dataset, schedule, mode).finished();
                (result.report, result.trace)
            }};
        }
        match self {
            PaperApp::KMeans => run!(fg_apps::kmeans::KMeans::paper(7)),
            PaperApp::Em => run!(fg_apps::em::Em::paper(7)),
            PaperApp::Knn => run!(fg_apps::knn::Knn::paper(7)),
            PaperApp::Vortex => run!(fg_apps::vortex::VortexDetect::default()),
            PaperApp::Defect => run!(fg_apps::defect::DefectDetect::for_dataset(dataset)),
            PaperApp::Apriori => run!(fg_apps::apriori::Apriori::standard()),
            PaperApp::Ann => run!(fg_apps::ann::AnnTrain::paper(7)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::pentium_deployment;

    #[test]
    fn names_roundtrip() {
        for app in PaperApp::ALL {
            assert_eq!(PaperApp::parse(app.name()), Some(app));
        }
        assert_eq!(PaperApp::parse("nope"), None);
    }

    #[test]
    fn every_app_generates_and_executes() {
        for app in PaperApp::PAPER_FIVE {
            let ds = app.generate("drive", 8.0, 0.01, 3);
            let report = app.execute(pentium_deployment(2, 4, 1e6), &ds);
            assert_eq!(report.app, app.name());
            assert!(report.total().as_secs_f64() > 0.0);
        }
    }
}
