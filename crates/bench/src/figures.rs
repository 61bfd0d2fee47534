//! The experiment table: every figure of the paper's evaluation (§5),
//! plus ablations of the model's design choices and extensions, each
//! with the claims its regenerated table must satisfy.
//!
//! Every generator runs real (simulated-time) executions and returns a
//! [`Figure`] of relative prediction errors. Every [`Claim`] is a
//! sentence and a predicate over that figure, written beside the
//! generator that names the rows and columns it reads; [`registry`]
//! pairs each figure id with its generator and its claims. See DESIGN.md
//! for the experiment index and EXPERIMENTS.md for recorded outputs.

use crate::apps::PaperApp;
use crate::scenario::{
    collect_profile, golden_trace_run, opteron_deployment, pentium_deployment,
    sweep_configurations, DEFAULT_WAN_BW, FIGURE_SCALE,
};
use crate::table::Figure;
use fg_chunks::Dataset;
use fg_cluster::{Configuration, Deployment};
use fg_predict::{
    relative_error, ComputeModel, ExecTimePredictor, GlobalReduceClass, InterconnectParams,
    Prediction, Profile, RObjSizeClass, ScalingFactors, Target,
};
use fg_sched::{
    AccuracySample, Degradation, JobSpec, LoadLevel, Policy, SchedResult, Scheduler,
    TelemetryConfig, TenantQuota, WorkloadShape,
};
use fg_sim::FaultSchedule;
use rayon::prelude::*;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// A checkable statement about a figure: the sentence printed with its
/// verdict, and the predicate over the regenerated table.
pub struct Claim {
    /// What holds, in words.
    pub what: &'static str,
    /// Whether it holds for a regenerated figure.
    pub holds: fn(&Figure) -> bool,
}

const fn claim(what: &'static str, holds: fn(&Figure) -> bool) -> Claim {
    Claim { what, holds }
}

/// One row of the experiment table.
pub struct Experiment {
    /// The figure id: its name on the command line and of its JSON file.
    pub id: &'static str,
    /// Regenerates the figure, given its id.
    pub generate: fn(&str) -> Figure,
    /// Groups of claims the regenerated figure must satisfy (a group
    /// may be shared by several figures).
    claims: &'static [&'static [Claim]],
    /// Writes the experiment's artefacts into the given output
    /// directory, beside the figure's JSON.
    pub export: Option<fn(&Path) -> io::Result<()>>,
}

impl Experiment {
    /// Every claim the regenerated figure must satisfy, in order.
    pub fn claims(&self) -> impl Iterator<Item = &'static Claim> {
        self.claims.iter().copied().flatten()
    }
}

fn row(
    id: &'static str,
    generate: fn(&str) -> Figure,
    claims: &'static [&'static [Claim]],
) -> Experiment {
    Experiment { id, generate, claims, export: None }
}

/// The Pentium (profile-cluster) deployment at `cfg` over the default WAN.
fn pentium(cfg: Configuration) -> Deployment {
    pentium_deployment(cfg.data_nodes, cfg.compute_nodes, DEFAULT_WAN_BW)
}

/// The Opteron (target-cluster) deployment at `cfg` over the default WAN.
fn opteron(cfg: Configuration) -> Deployment {
    opteron_deployment(cfg.data_nodes, cfg.compute_nodes, DEFAULT_WAN_BW)
}

/// Profile `app` over `dataset` on `dep`, and return the paper's most
/// faithful model built from that profile: the global-reduction model,
/// on `dep`'s interconnect.
fn profiled_model(app: PaperApp, dep: Deployment, dataset: &Dataset) -> ExecTimePredictor {
    let interconnect = InterconnectParams::of_site(&dep.compute);
    ExecTimePredictor {
        profile: collect_profile(app, dep, dataset),
        classes: app.classes(),
        interconnect,
        model: ComputeModel::GlobalReduction,
    }
}

/// The prediction target of running `dataset` on `dep`.
fn target_of(dep: &Deployment, dataset: &Dataset) -> Target {
    Target {
        data_nodes: dep.config.data_nodes,
        compute_nodes: dep.config.compute_nodes,
        wan_bw: dep.wan.stream_bw,
        dataset_bytes: dataset.logical_bytes(),
    }
}

/// One cell of the profile-predict-measure loop: run `app` over
/// `dataset` on `dep`, and predict the same run with `model`. Returns
/// the measured seconds and the prediction.
fn measure(
    app: PaperApp,
    model: &ExecTimePredictor,
    dep: Deployment,
    dataset: &Dataset,
) -> (f64, Prediction) {
    let predicted = model.predict(&target_of(&dep, dataset));
    (app.execute(dep, dataset).total().as_secs_f64(), predicted)
}

/// Relative error of `model`'s prediction of `app` over `dataset` on `dep`.
fn model_error(
    app: PaperApp,
    model: &ExecTimePredictor,
    dep: Deployment,
    dataset: &Dataset,
) -> f64 {
    let (actual, predicted) = measure(app, model, dep, dataset);
    relative_error(actual, predicted.total())
}

fn labels(names: &[&str]) -> Vec<String> {
    names.iter().map(|s| s.to_string()).collect()
}

/// Figures 2–6: prediction errors of the three compute models over the
/// paper configuration grid, base profile 1-1, one application.
fn model_error_figure(id: &str, app: PaperApp, nominal_mb: f64) -> Figure {
    let dataset = app.generate(&format!("{id}-data"), nominal_mb, FIGURE_SCALE, 42);
    let profile = collect_profile(app, pentium_deployment(1, 1, DEFAULT_WAN_BW), &dataset);
    let comparisons =
        sweep_configurations(app, &dataset, &profile, &Configuration::paper_grid(), DEFAULT_WAN_BW);
    Figure {
        id: id.into(),
        title: format!(
            "Prediction errors for {}, base profile 1-1, {:.0} MB dataset",
            app.name(),
            nominal_mb
        ),
        columns: ComputeModel::ALL.iter().map(|m| m.label().to_string()).collect(),
        rows: comparisons.iter().map(|c| (c.config.label(), c.errors().to_vec())).collect(),
        notes: vec![format!(
            "profile: t_d={:.1}s t_n={:.1}s t_c={:.1}s (t_ro={:.2}s t_g={:.2}s), {} passes",
            profile.t_disk,
            profile.t_network,
            profile.t_compute,
            profile.t_ro,
            profile.t_g,
            profile.passes
        )],
    }
}

/// Figures 2–6: model ordering and worst-case location.
const MODEL_ERRORS: &[Claim] = &[
    claim("mean error: global <= reduction-comm <= no-comm", |f| {
        let nc = f.column_mean("no communication");
        let rc = f.column_mean("reduction communication");
        let gr = f.column_mean("global reduction");
        gr <= rc * 1.05 && rc <= nc * 1.05
    }),
    claim("no-comm worst case is 8-16", |f| {
        f.rows.iter().max_by(|a, b| a.1[0].total_cmp(&b.1[0])).is_some_and(|(l, _)| l == "8-16")
    }),
    claim("global-reduction mean under 2%", |f| f.column_mean("global reduction") < 0.02),
    claim("no-comm under 20% everywhere", |f| f.max_value() < 0.20),
];

/// Fig 4's divergence: the no-comm tail is wider than the paper's.
const FIG4: &[Claim] = &[claim(
    "no-comm worst under 15% (divergence: the paper's is ~9.5%, worst at 8-8/8-16)",
    |f| f.column_values("no communication").iter().all(|&e| e < 0.15),
)];

/// Fig 6's divergence: kNN's reduction objects are small, so leaving
/// out communication costs little.
const FIG6: &[Claim] = &[claim("no-comm worst under 2% (divergence: the paper's is ~5.5%)", |f| {
    f.column_values("no communication").iter().all(|&e| e < 0.02)
})];

/// The grid layout of figures 7–13: rows by data nodes, columns by
/// compute nodes, `NaN` where `c < n`.
fn node_grid(errors: impl Fn(Configuration) -> f64 + Sync) -> Vec<(String, Vec<f64>)> {
    let compute_counts = [1usize, 2, 4, 8, 16];
    [1usize, 2, 4, 8]
        .par_iter()
        .map(|&n| {
            let row: Vec<f64> = compute_counts
                .par_iter()
                .map(|&c| if c < n { f64::NAN } else { errors(Configuration::new(n, c)) })
                .collect();
            (format!("{n} data nodes"), row)
        })
        .collect()
}

const COMPUTE_COLUMNS: [&str; 5] = ["1 cn", "2 cn", "4 cn", "8 cn", "16 cn"];

/// Figures 7–8: dataset-size scaling. Profile at 1-1 on a small dataset;
/// predict a larger dataset on every configuration with the global
/// reduction model.
fn dataset_scaling_figure(id: &str, app: PaperApp, profile_mb: f64, target_mb: f64) -> Figure {
    let small = app.generate(&format!("{id}-small"), profile_mb, FIGURE_SCALE, 42);
    let large = app.generate(&format!("{id}-large"), target_mb, FIGURE_SCALE, 43);
    let model = profiled_model(app, pentium_deployment(1, 1, DEFAULT_WAN_BW), &small);
    Figure {
        id: id.into(),
        title: format!(
            "Prediction errors for {} with {:.0} MB dataset, base profile 1-1 with {:.0} MB (global reduction model)",
            app.name(),
            target_mb,
            profile_mb
        ),
        columns: labels(&COMPUTE_COLUMNS),
        rows: node_grid(|cfg| model_error(app, &model, pentium(cfg), &large)),
        notes: vec![format!(
            "size ratio s_hat/s = {:.2}",
            large.logical_bytes() as f64 / small.logical_bytes() as f64
        )],
    }
}

/// Fig 7: dataset scaling stays tight.
const FIG7: &[Claim] = &[claim("all errors under 2%", |f| f.max_value() < 0.02)];

/// The largest finite error outside Fig 8's 8-data-node row.
fn fig8_small_rows(f: &Figure) -> f64 {
    f.rows
        .iter()
        .filter(|(l, _)| !l.starts_with('8'))
        .flat_map(|(_, v)| v.iter())
        .filter(|v| v.is_finite())
        .fold(0.0f64, |a, &b| a.max(b))
}

/// Fig 8: tight except for the n = 8 row, where retrieval scales
/// sub-linearly.
const FIG8: &[Claim] = &[
    claim("n<=4 rows under 1%", |f| fig8_small_rows(f) < 0.01),
    claim("n=8 shows the sub-linear-retrieval bump", |f| {
        f.at("8 data nodes", "16 cn") > fig8_small_rows(f) * 2.0
    }),
];

/// Figures 9–10: network-bandwidth change. Profile at 1-1 with bandwidth
/// `b`; predict (and run) every configuration at `b_target`.
fn bandwidth_figure(
    id: &str,
    app: PaperApp,
    nominal_mb: f64,
    b_profile: f64,
    b_target: f64,
) -> Figure {
    let dataset = app.generate(&format!("{id}-data"), nominal_mb, FIGURE_SCALE, 42);
    let model = profiled_model(app, pentium_deployment(1, 1, b_profile), &dataset);
    let rows = node_grid(|cfg| {
        let dep = pentium_deployment(cfg.data_nodes, cfg.compute_nodes, b_target);
        model_error(app, &model, dep, &dataset)
    });
    Figure {
        id: id.into(),
        title: format!(
            "Prediction errors for {} with {:.0} Kbps, base profile 1-1 with {:.0} Kbps (global reduction model)",
            app.name(),
            b_target * 8.0 / 1e3,
            b_profile * 8.0 / 1e3
        ),
        columns: labels(&COMPUTE_COLUMNS),
        rows,
        notes: vec![format!("bandwidth ratio b/b_hat = {:.2}", b_profile / b_target)],
    }
}

/// Figures 9–10: bandwidth scaling is near-exact.
const BANDWIDTH: &[Claim] = &[claim("all errors under 2%", |f| f.max_value() < 0.02)];

/// Fig 9's divergence: exact up to two data nodes, ~1% from four on.
const FIG9: &[Claim] = &[claim(
    "n<=2 rows within 0.01%, n>=4 rows under 1.5% (divergence: the paper's are all <= ~0.18%)",
    |f| {
        f.rows.iter().all(|(l, v)| {
            let bound = if l.starts_with(['1', '2']) { 1e-4 } else { 0.015 };
            v.iter().filter(|e| e.is_finite()).all(|&e| e <= bound)
        })
    },
)];

/// Cross-cluster scaling factors from representative applications (§3.4):
/// each representative runs on identical configurations on both clusters.
fn measure_scaling_factors(
    representatives: &[PaperApp],
    rep_mb: f64,
    config: Configuration,
) -> ScalingFactors {
    let pairs: Vec<(Profile, Profile)> = representatives
        .par_iter()
        .map(|rep| {
            let ds = rep.generate(&format!("rep-{}", rep.name()), rep_mb, FIGURE_SCALE, 17);
            (
                collect_profile(*rep, pentium(config), &ds),
                collect_profile(*rep, opteron(config), &ds),
            )
        })
        .collect();
    ScalingFactors::measure(&pairs)
}

/// Figures 11–13: predictions for a different type of cluster. Base
/// profile on the Pentium cluster at `profile_cfg` with `profile_mb`;
/// representative applications supply the component scaling factors;
/// predictions target the Opteron cluster with `target_mb` on every
/// configuration.
fn hetero_figure(
    id: &str,
    app: PaperApp,
    profile_cfg: Configuration,
    profile_mb: f64,
    target_mb: f64,
    representatives: &[PaperApp],
) -> Figure {
    let profile_ds = app.generate(&format!("{id}-prof"), profile_mb, FIGURE_SCALE, 42);
    let target_ds = app.generate(&format!("{id}-target"), target_mb, FIGURE_SCALE, 43);
    // Interconnect parameters are those of the profile cluster: the
    // framework first predicts on cluster A, then scales to cluster B.
    let model = profiled_model(app, pentium(profile_cfg), &profile_ds);
    let factors = measure_scaling_factors(representatives, profile_mb, profile_cfg);
    let rows = node_grid(|cfg| {
        let (actual, on_a) = measure(app, &model, opteron(cfg), &target_ds);
        relative_error(actual, factors.apply(&on_a).total())
    });
    let rep_names: Vec<&str> = representatives.iter().map(|r| r.name()).collect();
    Figure {
        id: id.into(),
        title: format!(
            "Prediction errors for {} on a different cluster, {:.0} MB dataset, base profile {} with {:.0} MB",
            app.name(),
            target_mb,
            profile_cfg.label(),
            profile_mb
        ),
        columns: labels(&COMPUTE_COLUMNS),
        rows,
        notes: vec![format!(
            "factors from {:?}: s_d={:.3} s_n={:.3} s_c={:.3}",
            rep_names, factors.disk, factors.network, factors.compute
        )],
    }
}

/// Figures 11–13: heterogeneous predictions are the least accurate but
/// bounded, and the mechanism note is present.
const HETERO: &[Claim] = &[
    claim("errors bounded by 12%", |f| f.max_value() < 0.12),
    claim("mechanism note records the measured factors", |f| {
        f.notes.iter().any(|n| n.contains("s_c="))
    }),
];

/// Fig 12's divergence: the compute-factor mismatch shrinks with compute
/// time, so the error falls with `c` instead of peaking at the base `c`.
const FIG12: &[Claim] = &[claim(
    "every data-node row's error falls monotonically with c \
     (divergence: the paper's peaks at the base profile's c = 4)",
    |f| {
        f.rows.iter().all(|(_, v)| {
            let row: Vec<f64> = v.iter().copied().filter(|e| e.is_finite()).collect();
            row.windows(2).all(|w| w[1] < w[0])
        })
    },
)];

/// §5.4's observation table: per-application component scaling factors
/// between the two clusters (the compute factor varies by operation mix).
fn sc_table(id: &str) -> Figure {
    let cfg = Configuration::new(4, 4);
    let rows: Vec<(String, Vec<f64>)> = PaperApp::PAPER_FIVE
        .par_iter()
        .map(|app| {
            let f = measure_scaling_factors(&[*app], 130.0, cfg);
            (app.name().to_string(), vec![f.disk, f.network, f.compute])
        })
        .collect();
    let avg_c = rows.iter().map(|(_, v)| v[2]).sum::<f64>() / rows.len() as f64;
    Figure {
        id: id.into(),
        title: "Component scaling factors Pentium -> Opteron per application (4-4, 130 MB)".into(),
        columns: labels(&["s_d", "s_n", "s_c"]),
        rows,
        notes: vec![format!("mean compute factor s_c = {avg_c:.3}")],
    }
}

/// §5.4: per-app compute factors spread like the paper's observation,
/// and Fig 11's representatives average close to the paper's factor.
const SC_TABLE: &[Claim] = &[
    claim("kNN is the most cmp-bound (smallest s_c)", |f| {
        f.at("knn", "s_c")
            <= f.column_values("s_c").into_iter().fold(f64::INFINITY, f64::min) + 1e-12
    }),
    claim("vortex is the most flop/mem-bound (largest s_c)", |f| {
        f.at("vortex", "s_c") >= f.column_values("s_c").into_iter().fold(0.0f64, f64::max) - 1e-12
    }),
    claim("factors vary considerably (spread > 0.1)", |f| {
        let sc = f.column_values("s_c");
        let lo = sc.iter().copied().fold(f64::INFINITY, f64::min);
        sc.iter().copied().fold(0.0f64, f64::max) - lo > 0.10
    }),
    claim(
        "Fig 11's representatives (kmeans, knn, vortex) average s_c within 0.05 of the paper's \
         0.296 (divergence: Fig 11's error follows this factor)",
        |f| {
            let mean = (f.at("kmeans", "s_c") + f.at("knn", "s_c") + f.at("vortex", "s_c")) / 3.0;
            (mean - 0.296).abs() < 0.05
        },
    ),
];

/// Ablation: force the wrong reduction-object size class and compare the
/// predicted reduction-object communication time `T_ro` against the
/// measured one (validates class inference). EM carries the largest
/// objects (its dataset-proportional diagnostic buffer), so the wrong
/// class visibly misprices the gather.
fn ablate_robj_class(id: &str) -> Figure {
    let app = PaperApp::Em;
    let small = app.generate("ab-robj-s", 350.0, FIGURE_SCALE, 42);
    let large = app.generate("ab-robj-l", 1400.0, FIGURE_SCALE, 43);
    let model = profiled_model(app, pentium_deployment(1, 1, DEFAULT_WAN_BW), &small);
    let configs = [Configuration::new(1, 4), Configuration::new(2, 8), Configuration::new(8, 16)];
    let rows = configs
        .par_iter()
        .map(|&cfg| {
            let target = target_of(&pentium(cfg), &large);
            let actual_t_ro = app.execute(pentium(cfg), &large).t_ro().as_secs_f64();
            let errs: Vec<f64> = [RObjSizeClass::Linear, RObjSizeClass::Constant]
                .iter()
                .map(|&obj| {
                    let predicted = fg_predict::model::predict_t_ro(
                        &model.profile,
                        &target,
                        obj,
                        &model.interconnect,
                    );
                    relative_error(actual_t_ro, predicted)
                })
                .collect();
            (cfg.label(), errs)
        })
        .collect();
    Figure {
        id: id.into(),
        title: "Ablation: error in predicted T_ro for EM at 1.4 GB from a 350 MB 1-1 profile, correct (linear) vs forced-constant object class".into(),
        columns: labels(&["linear (correct)", "constant (wrong)"]),
        rows,
        notes: vec![],
    }
}

const ABLATE_ROBJ: &[Claim] = &[claim("wrong object class inflates T_ro error >10x", |f| {
    f.at("8-16", "constant (wrong)") > f.at("8-16", "linear (correct)").max(0.005) * 10.0
})];

/// Ablation: force the wrong global-reduction class and compare the
/// predicted `T_g` against the measured one on a dataset-scaling
/// prediction. EM's global reduction is dataset-proportional
/// (constant-linear); pretending it scales with the node count instead
/// misprices it badly at 16 nodes.
fn ablate_tg_class(id: &str) -> Figure {
    let app = PaperApp::Em;
    let small = app.generate("ab-tg-s", 350.0, FIGURE_SCALE, 42);
    let large = app.generate("ab-tg-l", 1400.0, FIGURE_SCALE, 43);
    let model = profiled_model(app, pentium_deployment(1, 1, DEFAULT_WAN_BW), &small);
    let configs = [Configuration::new(1, 8), Configuration::new(4, 16), Configuration::new(8, 16)];
    let rows = configs
        .par_iter()
        .map(|&cfg| {
            let target = target_of(&pentium(cfg), &large);
            let actual_t_g = app.execute(pentium(cfg), &large).t_g().as_secs_f64();
            let errs: Vec<f64> =
                [GlobalReduceClass::ConstantLinear, GlobalReduceClass::LinearConstant]
                    .iter()
                    .map(|&global| {
                        let predicted =
                            fg_predict::model::predict_t_g(&model.profile, &target, global);
                        relative_error(actual_t_g, predicted)
                    })
                    .collect();
            (cfg.label(), errs)
        })
        .collect();
    Figure {
        id: id.into(),
        title: "Ablation: error in predicted T_g for EM at 1.4 GB from a 350 MB 1-1 profile, correct (constant-linear) vs forced linear-constant class".into(),
        columns: labels(&["constant-linear (correct)", "linear-constant (wrong)"]),
        rows,
        notes: vec![],
    }
}

const ABLATE_TG: &[Claim] = &[claim("wrong T_g class inflates error >3x", |f| {
    f.at("8-16", "linear-constant (wrong)") > f.at("8-16", "constant-linear (correct)") * 3.0
})];

/// Ablation: disable the repository's shared-backplane cap and show the
/// disk model's error at eight data nodes collapse — the cap is what
/// makes retrieval sub-linear (the effect the paper reports for the
/// defect application).
fn ablate_disk_cap(id: &str) -> Figure {
    let app = PaperApp::Defect;
    let dataset = app.generate("ab-disk", 1800.0, FIGURE_SCALE, 42);
    let configs = [Configuration::new(4, 8), Configuration::new(8, 8), Configuration::new(8, 16)];
    let rows = configs
        .par_iter()
        .map(|&cfg| {
            let errs: Vec<f64> = [true, false]
                .iter()
                .map(|&capped| {
                    let mut profile_dep = pentium_deployment(1, 1, DEFAULT_WAN_BW);
                    let mut dep = pentium(cfg);
                    if !capped {
                        // Effectively unlimited (but finite) backplane.
                        profile_dep.repository.backplane_bw = 1e15;
                        dep.repository.backplane_bw = 1e15;
                    }
                    model_error(app, &profiled_model(app, profile_dep, &dataset), dep, &dataset)
                })
                .collect();
            (cfg.label(), errs)
        })
        .collect();
    Figure {
        id: id.into(),
        title: "Ablation: defect detection at 1.8 GB — global-reduction-model error with and without the repository backplane cap".into(),
        columns: labels(&["capped backplane", "uncapped"]),
        rows,
        notes: vec![],
    }
}

const ABLATE_DISK: &[Claim] = &[claim("backplane cap explains the n=8 error", |f| {
    f.at("8-16", "capped backplane") > f.at("8-16", "uncapped") * 3.0
})];

/// Extension figure: the non-local caching plans — predicted vs actual
/// execution time for EM under local caching, a non-local caching site,
/// and origin re-fetch, on a storage-starved compute site. Values are
/// relative prediction errors; the note records the actual times, whose
/// ordering (local < non-local < refetch) is the point of the extension.
fn ext_cache_plans(id: &str) -> Figure {
    use fg_cluster::{CacheSite, RepositorySite, Wan};
    use fg_predict::{predict_with_plan, CachePlan};
    let app = PaperApp::Em;
    let dataset = app.generate(&format!("{id}-data"), 700.0, FIGURE_SCALE, 42);
    let model = profiled_model(app, pentium_deployment(1, 1, DEFAULT_WAN_BW), &dataset);
    let cache_site =
        CacheSite::new(RepositorySite::pentium_repository("nearby", 8), 4, Wan::per_stream(60e6));
    let variants: Vec<(&str, u64, Option<CacheSite>)> = vec![
        ("local cache", u64::MAX, None),
        ("non-local cache", 1, Some(cache_site)),
        ("refetch origin", 1, None),
    ];
    let mut notes = Vec::new();
    let rows = variants
        .into_iter()
        .map(|(label, storage, cache)| {
            let mut dep = pentium_deployment(4, 8, DEFAULT_WAN_BW);
            dep.compute.node_storage_bytes = storage;
            dep.cache = cache;
            let actual = app.execute(dep.clone(), &dataset).total().as_secs_f64();
            let plan =
                CachePlan::for_deployment(&dep, dataset.logical_bytes(), model.profile.passes);
            let predicted = predict_with_plan(
                &model,
                &target_of(&dep, &dataset),
                &plan,
                dep.compute.machine.disk_bw,
            );
            notes
                .push(format!("{label}: actual {actual:.1}s, predicted {:.1}s", predicted.total()));
            (label.to_string(), vec![relative_error(actual, predicted.total())])
        })
        .collect();
    Figure {
        id: id.into(),
        title: "Extension: cache-plan prediction accuracy for EM at 700 MB on a 4-8 deployment (storage-starved compute site)".into(),
        columns: labels(&["prediction error"]),
        rows,
        notes,
    }
}

const EXT_CACHE: &[Claim] =
    &[claim("all cache-plan predictions under 5%", |f| f.max_value() < 0.05)];

/// Ablation: chunk-count granularity. The middleware statically assigns
/// chunks to compute nodes, so a chunk count that does not divide evenly
/// across a configuration leaves some nodes one chunk heavier — real
/// sub-linear speedup the linear compute model cannot see. Chunk counts
/// divisible by 16 (what the generators emit, standing in for
/// demand-driven chunk delivery) keep the model accurate.
fn ablate_granularity(id: &str) -> Figure {
    let app = PaperApp::KMeans;
    let base = app.generate("ab-gran", 1400.0, FIGURE_SCALE, 42);
    let model = profiled_model(app, pentium_deployment(1, 1, DEFAULT_WAN_BW), &base.rechunk(64));
    // Chunk counts: divisible by 16 vs awkward remainders at 16 nodes.
    let counts = [64usize, 67, 72, 80];
    let rows = counts
        .par_iter()
        .map(|&m| {
            let ds = base.rechunk(m);
            let errs: Vec<f64> = [Configuration::new(4, 8), Configuration::new(8, 16)]
                .iter()
                .map(|&cfg| model_error(app, &model, pentium(cfg), &ds))
                .collect();
            (format!("{m} chunks"), errs)
        })
        .collect();
    Figure {
        id: id.into(),
        title: "Ablation: k-means at 1.4 GB — global-reduction-model error vs chunk count (divisible-by-16 counts balance exactly)".into(),
        columns: labels(&["4-8", "8-16"]),
        rows,
        notes: vec!["profile taken on the 64-chunk packaging".into()],
    }
}

const ABLATE_GRANULARITY: &[Claim] =
    &[claim("awkward chunk counts inflate the 8-16 error >5x", |f| {
        f.at("67 chunks", "8-16") > f.at("64 chunks", "8-16").max(f.at("80 chunks", "8-16")) * 5.0
    })];

/// Extension figure: phase-structured vs pipelined execution. The
/// paper's additive model describes a phase-structured runtime; this
/// measures how much chunk-level overlap would save (column 1: pipelined
/// time as a fraction of phased time) and how far the additive
/// global-reduction prediction over-shoots a pipelined system (column 2).
fn ext_pipeline(id: &str) -> Figure {
    use fg_middleware::run_pipelined;
    let app = PaperApp::Vortex; // single pass: stages genuinely overlap
    let dataset = fg_apps::vortex::generate("ext-pipe-data", 710.0, FIGURE_SCALE, 42).0;
    let vx = fg_apps::vortex::VortexDetect::default();
    let model = profiled_model(app, pentium_deployment(1, 1, DEFAULT_WAN_BW), &dataset);
    let configs = [
        Configuration::new(1, 1),
        Configuration::new(2, 4),
        Configuration::new(4, 8),
        Configuration::new(8, 16),
    ];
    let rows = configs
        .par_iter()
        .map(|&cfg| {
            let piped = run_pipelined(&pentium(cfg), &vx, &dataset).total.as_secs_f64();
            let (phased, predicted) = measure(app, &model, pentium(cfg), &dataset);
            (cfg.label(), vec![piped / phased, relative_error(piped, predicted.total())])
        })
        .collect();
    Figure {
        id: id.into(),
        title: "Extension: pipelined vs phase-structured execution for vortex detection at 710 MB".into(),
        columns: labels(&["pipelined / phased", "additive model vs pipelined"]),
        rows,
        notes: vec![
            "the additive model is exact for the phased runtime; its error vs the              pipelined runtime is the cost of the phase-structure assumption"
                .into(),
        ],
    }
}

const EXT_PIPELINE: &[Claim] = &[claim("overlap always saves", |f| {
    f.column_values("pipelined / phased").iter().all(|&r| r < 1.0)
})];

/// Extension: prediction error and recovery overhead under fault
/// injection.
///
/// The paper's model predicts fault-free executions. This experiment
/// measures how far reality drifts from that prediction when faults are
/// injected: profile at 1-1, predict the 4-8 configuration with the
/// global-reduction model, then run 4-8 under seeded random fault
/// schedules (data-node crashes, WAN degradation windows, stragglers)
/// and report, per schedule, the measured total, the model's relative
/// error against it, and the recovery-time overhead. The fault-free row
/// is the control: its error is the model's intrinsic error, and the
/// gap between the rows is what fault-aware prediction would need to
/// close.
fn ext_faults(id: &str) -> Figure {
    let app = PaperApp::KMeans;
    let (n, c) = (4usize, 8usize);
    let dataset = app.generate(&format!("{id}-data"), 130.0, FIGURE_SCALE, 42);
    let model = profiled_model(app, pentium_deployment(1, 1, DEFAULT_WAN_BW), &dataset);
    let deployment = pentium_deployment(n, c, DEFAULT_WAN_BW);
    let predicted = model.predict(&target_of(&deployment, &dataset)).total();

    let baseline = app.execute(deployment.clone(), &dataset);
    let horizon = baseline.total();
    let fault_free_total = baseline.total().as_secs_f64();
    let mut rows: Vec<(String, Vec<f64>)> = Vec::new();
    let mut notes: Vec<String> = Vec::new();
    rows.push(("fault-free".into(), vec![relative_error(fault_free_total, predicted), 0.0, 0.0]));
    notes.push(format!(
        "fault-free: measured {fault_free_total:.2}s, predicted {predicted:.2}s \
         (global-reduction model)"
    ));
    for seed in 1..=6u64 {
        let schedule = FaultSchedule::random(seed, n, c, horizon);
        let (report, _) = app.execute_with(deployment.clone(), &dataset, &schedule, false);
        let total = report.total().as_secs_f64();
        let recovery = report.t_recovery().as_secs_f64();
        rows.push((
            format!("fault seed {seed}"),
            vec![
                relative_error(total, predicted),
                recovery / total,
                total / fault_free_total - 1.0,
            ],
        ));
        notes.push(format!(
            "seed {seed}: measured {total:.2}s ({recovery:.2}s recovery), \
             {} crash(es), {} degradation window(s), {} straggler(s)",
            schedule.crashes.len(),
            schedule.degradations.len(),
            schedule.stragglers.len(),
        ));
    }
    Figure {
        id: id.into(),
        title: format!(
            "Fault injection: prediction error and recovery overhead, {} on {n}-{c}",
            app.name()
        ),
        columns: labels(&["model error", "recovery share", "overhead vs fault-free"]),
        rows,
        notes,
    }
}

const EXT_FAULTS: &[Claim] = &[
    claim("fault-free model error under 1%", |f| f.at("fault-free", "model error") < 0.01),
    // The fault-free prediction misses the measured time by almost
    // exactly the recovery share: the residual on the non-recovery
    // components stays small.
    claim("model error under faults tracks the recovery share (within 10 points)", |f| {
        let shares = f.column_values("recovery share");
        f.column_values("model error")
            .iter()
            .zip(&shares)
            .skip(1)
            .all(|(e, s)| (e - s).abs() < 0.10)
    }),
    claim("every fault schedule costs time", |f| {
        f.column_values("overhead vs fault-free").iter().skip(1).all(|&o| o > 0.0)
    }),
];

/// Extension: tracing fidelity and cost.
///
/// For each paper application, runs the same execution untraced and
/// traced, then (a) reconstructs the execution report and the profile
/// from the trace and reports the worst component mismatch in integer
/// nanoseconds — the trace retraces the executor's exact arithmetic, so
/// this must be zero — (b) counts the spans recorded per pass and node,
/// the collection cost that repeats exactly, and (c) reports the
/// host-side wall-clock overhead of collecting the trace (best-of-
/// `REPEATS` on both sides, the two sides interleaved rep by rep so
/// machine drift hits both alike). The wall-clock ratio swings wider
/// than any useful bound on a shared machine, so no claim rests on it.
fn ext_trace(id: &str) -> Figure {
    use fg_middleware::ExecutionReport;
    use std::time::Instant;
    const REPEATS: usize = 5;
    const NODES: (usize, usize) = (2, 4);
    let mut notes = Vec::new();
    let rows = PaperApp::PAPER_FIVE
        .iter()
        .map(|&app| {
            let dataset = app.generate(&format!("{id}-{}", app.name()), 130.0, FIGURE_SCALE, 42);
            let deployment = pentium_deployment(NODES.0, NODES.1, DEFAULT_WAN_BW);
            let (mut plain_wall, mut traced_wall) = (f64::INFINITY, f64::INFINITY);
            let mut last = None;
            for _ in 0..REPEATS {
                let t0 = Instant::now();
                let plain = app.execute(deployment.clone(), &dataset);
                plain_wall = plain_wall.min(t0.elapsed().as_secs_f64());
                let t0 = Instant::now();
                let (traced, trace) = app.execute_traced(deployment.clone(), &dataset);
                traced_wall = traced_wall.min(t0.elapsed().as_secs_f64());
                assert_eq!(plain, traced, "tracing must not perturb the execution");
                last = Some((plain, trace));
            }
            let (plain, trace) = last.expect("at least one repeat");
            let rebuilt = ExecutionReport::from_trace(&trace).expect("report from trace");
            let components = [
                (plain.t_disk(), rebuilt.t_disk()),
                (plain.t_network(), rebuilt.t_network()),
                (plain.t_compute(), rebuilt.t_compute()),
                (plain.t_ro(), rebuilt.t_ro()),
                (plain.t_g(), rebuilt.t_g()),
                (plain.t_recovery(), rebuilt.t_recovery()),
            ];
            let mismatch_ns = components
                .iter()
                .map(|(a, b)| a.as_nanos().abs_diff(b.as_nanos()))
                .max()
                .unwrap_or(0);
            let profile_drift = if Profile::from_trace(&trace).expect("profile from trace")
                == Profile::from_report(&plain)
            {
                0.0
            } else {
                1.0
            };
            let spans_per_pass_node =
                trace.spans.len() as f64 / (plain.num_passes() * (NODES.0 + NODES.1)) as f64;
            let overhead = traced_wall / plain_wall - 1.0;
            notes.push(format!(
                "{}: untraced {:.1}ms, traced {:.1}ms ({} spans, {} passes)",
                app.name(),
                plain_wall * 1e3,
                traced_wall * 1e3,
                trace.spans.len(),
                plain.num_passes(),
            ));
            let row = vec![mismatch_ns as f64, profile_drift, spans_per_pass_node, overhead];
            (app.name().to_string(), row)
        })
        .collect();
    Figure {
        id: id.into(),
        title: "Extension: trace fidelity (report/profile reconstruction) and collection cost, 130 MB datasets on 2-4".into(),
        columns: labels(&[
            "component mismatch (ns)",
            "profile drift",
            "spans per pass and node",
            "trace overhead",
        ]),
        rows,
        notes,
    }
}

const EXT_TRACE: &[Claim] = &[
    claim("trace reconstructs every report component exactly (0 ns mismatch)", |f| {
        f.column_values("component mismatch (ns)").iter().all(|&m| m == 0.0)
    }),
    claim("trace-derived profiles equal report-derived profiles", |f| {
        f.column_values("profile drift").iter().all(|&d| d == 0.0)
    }),
    // A pass records its own span, one per phase and one per node in a
    // phase: 11 for a pass served from the cache, 19 for one that
    // reads and moves data, over 6 nodes. The one-pass apps come
    // highest (the run's span too: 20 / 6). A span per chunk would
    // multiply this by the chunk count.
    claim("tracing records under 4 spans per pass and node", |f| {
        f.column_values("spans per pass and node").iter().all(|&s| s < 4.0)
    }),
];

/// Write `contents` to `path` and say so.
fn write_artefact(path: &Path, contents: &str) -> io::Result<()> {
    std::fs::write(path, contents)?;
    println!("  wrote {}", path.display());
    Ok(())
}

/// Write `trace` as `<dir>/<name>.jsonl` (the canonical record format)
/// and `<dir>/<name>.chrome.json` (loadable in `chrome://tracing` /
/// Perfetto).
fn export_trace(dir: &Path, name: &str, trace: &fg_trace::Trace) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    write_artefact(&dir.join(format!("{name}.jsonl")), &fg_trace::to_jsonl(trace))?;
    write_artefact(&dir.join(format!("{name}.chrome.json")), &fg_trace::to_chrome_json(trace))
}

/// `ext-trace`'s artefacts: each paper application's golden-configuration
/// trace, under `traces/`.
fn export_golden_traces(out: &Path) -> io::Result<()> {
    PaperApp::PAPER_FIVE
        .into_iter()
        .try_for_each(|app| export_trace(&out.join("traces"), app.name(), &golden_trace_run(app).1))
}

/// Profile every scheduler app on a small 1-1 run and package the
/// results as `fg-sched` prediction models. The profile WAN bandwidth
/// matches the demo grid's nominal per-stream bandwidth, so a first
/// placement on the fast repository sees a bandwidth ratio of one.
pub fn sched_models() -> Vec<(String, fg_sched::AppModel)> {
    PaperApp::ALL
        .iter()
        .map(|&app| {
            let dataset = app.generate(&format!("ext-sched-{}", app.name()), 8.0, 0.01, 3);
            let profile = collect_profile(app, pentium_deployment(1, 1, 1e6), &dataset);
            (app.name().to_string(), fg_sched::AppModel { profile, classes: app.classes() })
        })
        .collect()
}

/// The demo grid with every scheduler app modelled, under `policy`:
/// where every scheduling experiment starts.
fn demo_scheduler(policy: Policy) -> Scheduler {
    Scheduler::new(fg_sched::GridSpec::demo(sched_models()), policy)
}

/// The three-tenant workload preset (seed 42) at `load`.
fn preset_jobs(load: LoadLevel) -> Vec<JobSpec> {
    let names: Vec<&str> = PaperApp::ALL.iter().map(|a| a.name()).collect();
    fg_sched::WorkloadSpec::preset(load, &names, 42).generate()
}

/// Mean of `v`, zero when empty.
fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Mean slowdown of a run's completed jobs.
fn mean_slowdown(r: &SchedResult) -> f64 {
    mean(&r.outcomes.iter().filter_map(|o| o.slowdown()).collect::<Vec<_>>())
}

/// Mean relative error of a run's submission-time completion estimates.
fn mean_completion_error(r: &SchedResult) -> f64 {
    mean(&r.outcomes.iter().filter_map(|o| o.completion_error()).collect::<Vec<_>>())
}

/// Admission precision: deadlines met over jobs admitted.
fn edf_precision(r: &SchedResult) -> f64 {
    let admitted: Vec<_> = r.outcomes.iter().filter(|o| o.admitted).collect();
    let met = admitted.iter().filter(|o| o.met_deadline() == Some(true)).count();
    met as f64 / admitted.len().max(1) as f64
}

/// A run's metrics counter, zero if it never fired.
fn counter(r: &SchedResult, name: &str) -> u64 {
    r.trace.metrics.counter(name).unwrap_or(0)
}

/// The scheduler run behind one `ext-sched` row.
fn sched_run(policy: Policy, load: LoadLevel) -> SchedResult {
    demo_scheduler(policy).run(&preset_jobs(load))
}

/// Extension: multi-tenant scheduling over the prediction model.
///
/// Runs the three-tenant workload preset (seed 42) at three load levels
/// under each queueing discipline on the demo grid, with contention on
/// the shared WAN/ingress links and bandwidth feedback enabled. Per
/// run, reports the mean slowdown of completed jobs, the admission
/// precision (fraction of admitted jobs that met their deadline), the
/// mean relative error of the submission-time completion estimate, the
/// number of rejected jobs, and the number of invariant violations
/// (always zero on a healthy scheduler).
fn ext_sched(id: &str) -> Figure {
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    for load in LoadLevel::ALL {
        for policy in Policy::ALL {
            let r = sched_run(policy, load);
            let admitted = r.outcomes.iter().filter(|o| o.admitted).count();
            rows.push((
                format!("{} {}", policy.name(), load.name()),
                vec![
                    mean_slowdown(&r),
                    edf_precision(&r),
                    mean_completion_error(&r),
                    (r.outcomes.len() - admitted) as f64,
                    r.violations.len() as f64,
                ],
            ));
            notes.push(format!(
                "{} {}: {} jobs, {} admitted, makespan {:.0}s, max queue depth {}",
                policy.name(),
                load.name(),
                r.outcomes.len(),
                admitted,
                r.makespan,
                r.trace.metrics.gauge("sched_queue_depth_max").unwrap_or(0.0),
            ));
        }
    }
    Figure {
        id: id.into(),
        title: "Extension: multi-tenant scheduling — slowdown, admission precision, and completion-estimate error per policy at three load levels (three-tenant preset, seed 42)".into(),
        columns: labels(&[
            "mean slowdown",
            "admission precision",
            "completion estimate error",
            "rejected jobs",
            "violations",
        ]),
        rows,
        notes,
    }
}

const EXT_SCHED: &[Claim] = &[
    claim("no fairness or work-conservation violations in any run", |f| {
        f.column_values("violations").iter().all(|&v| v == 0.0)
    }),
    claim("only admission control rejects jobs", |f| {
        f.rows
            .iter()
            .all(|(label, _)| label.starts_with("edf-admit") || f.at(label, "rejected jobs") == 0.0)
    }),
    claim("light load is near-uncontended (slowdown under 1.5 everywhere)", |f| {
        f.rows
            .iter()
            .filter(|(l, _)| l.ends_with("light"))
            .all(|(l, _)| f.at(l, "mean slowdown") < 1.5)
    }),
    claim("load stretches FCFS: heavy slowdown at least 2x light", |f| {
        f.at("fcfs heavy", "mean slowdown") > 2.0 * f.at("fcfs light", "mean slowdown")
    }),
    claim("heavy-load slowdown ordering: fcfs >= backfill >= spjf", |f| {
        let slow = |row: &str| f.at(row, "mean slowdown");
        slow("fcfs heavy") >= slow("fcfs-backfill heavy") * 0.95
            && slow("fcfs-backfill heavy") >= slow("spjf heavy") * 0.95
    }),
    claim("admission control keeps heavy-load precision at 90%+", |f| {
        f.at("edf-admit heavy", "admission precision") >= 0.90
    }),
    claim("admission control beats FCFS deadline compliance at heavy load", |f| {
        f.at("edf-admit heavy", "admission precision") > f.at("fcfs heavy", "admission precision")
    }),
    claim("admission rejects some heavy-load jobs (control is active)", |f| {
        f.at("edf-admit heavy", "rejected jobs") >= 1.0
    }),
    // The tolerance band for the predictor-driven completion estimates:
    // under admission control the submission-time estimate stays within
    // 35% of the achieved turnaround even at the heavy preset, and well
    // under the uncontrolled FCFS error.
    claim("edf-admit heavy completion-estimate error within the 35% band", |f| {
        f.at("edf-admit heavy", "completion estimate error") < 0.35
    }),
    claim("admission estimates beat FCFS estimates at heavy load", |f| {
        f.at("edf-admit heavy", "completion estimate error")
            < f.at("fcfs heavy", "completion estimate error")
    }),
];

/// `ext-sched`'s artefacts: every policy's heavy-load scheduler trace,
/// under `sched/`.
fn export_sched_traces(out: &Path) -> io::Result<()> {
    Policy::ALL.into_iter().try_for_each(|policy| {
        export_trace(&out.join("sched"), policy.name(), &sched_run(policy, LoadLevel::Heavy).trace)
    })
}

/// The migration experiments' scheduler: `policy` on the demo grid with
/// per-tenant token-bucket quotas for `tenants` tenants armed
/// (generously, so the violation counter is live but admission is
/// unaffected), preemption enabled, and optionally mid-run migration.
fn migration_scheduler(policy: Policy, tenants: usize, migrate: bool) -> Scheduler {
    let quotas = vec![TenantQuota { capacity: 1000.0, refill_per_sec: 1.0 }; tenants];
    let sched = demo_scheduler(policy).with_quotas(quotas).with_preemption();
    if migrate {
        sched.with_migration()
    } else {
        sched
    }
}

/// The fast repository's transfer paths collapsing to 10% of nominal
/// for the whole run.
const FAST_REPO_COLLAPSE: Degradation = Degradation { repo: 0, start: 0.0, factor: 0.1 };

/// The scheduler run behind one `ext-migrate` cell: the three-tenant
/// workload preset (seed 42) under FCFS-backfill with per-tenant
/// token-bucket quotas armed (generously, so the violation counter is
/// live but admission is unaffected), preemption enabled, and
/// optionally mid-run migration and a sustained collapse of the fast
/// repository's transfer paths.
pub fn migrate_run(
    policy: fg_sched::Policy,
    load: fg_sched::LoadLevel,
    migrate: bool,
    degrade: bool,
) -> fg_sched::sched::SchedResult {
    let sched = migration_scheduler(policy, 3, migrate);
    let sched = if degrade { sched.with_degradation(FAST_REPO_COLLAPSE) } else { sched };
    sched.run(&preset_jobs(load))
}

/// Extension: preemptive migration under bandwidth degradation.
///
/// At each load level, compares a migration-enabled run against a
/// stay-put run while the fast repository's transfer paths run at 10%
/// of nominal, plus a migration-enabled run under stable bandwidth as
/// the hysteresis control. Token-bucket quotas are armed in every run;
/// the violation counter must stay at zero.
fn ext_migrate(id: &str) -> Figure {
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    for load in LoadLevel::ALL {
        let moved = migrate_run(Policy::FcfsBackfill, load, true, true);
        let stayed = migrate_run(Policy::FcfsBackfill, load, false, true);
        let stable = migrate_run(Policy::FcfsBackfill, load, true, false);
        let quota_violations: u64 =
            [&moved, &stayed, &stable].iter().map(|r| counter(r, "sched_quota_violations")).sum();
        rows.push((
            load.name().to_string(),
            vec![
                mean_slowdown(&moved),
                mean_slowdown(&stayed),
                counter(&moved, "sched_migrations") as f64,
                counter(&stable, "sched_migrations") as f64,
                quota_violations as f64,
            ],
        ));
        notes.push(format!(
            "{}: makespan migrate {:.0}s vs stay {:.0}s vs stable {:.0}s; \
             {} preemptions in the migrating run; violations {}/{}/{}",
            load.name(),
            moved.makespan,
            stayed.makespan,
            stable.makespan,
            counter(&moved, "sched_preemptions"),
            moved.violations.len(),
            stayed.violations.len(),
            stable.violations.len(),
        ));
    }
    Figure {
        id: id.into(),
        title: "Extension: preemptive migration — migrate vs stay-put mean slowdown under a sustained 10x degradation of the fast repository, with the stable-bandwidth hysteresis control (three-tenant preset, seed 42)".into(),
        columns: labels(&[
            "migrate slowdown",
            "stay slowdown",
            "migrations",
            "stable migrations",
            "quota violations",
        ]),
        rows,
        notes,
    }
}

const EXT_MIGRATE: &[Claim] = &[
    claim("migration beats stay-put under sustained degradation at every load", |f| {
        f.rows.iter().all(|(l, _)| f.at(l, "migrate slowdown") < f.at(l, "stay slowdown"))
    }),
    claim("degradation actually triggers migrations at every load", |f| {
        f.column_values("migrations").iter().all(|&m| m >= 1.0)
    }),
    claim("migration never triggers under stable bandwidth (hysteresis)", |f| {
        f.column_values("stable migrations").iter().all(|&m| m == 0.0)
    }),
    claim("token-bucket quota violations are exactly zero", |f| {
        f.column_values("quota violations").iter().all(|&v| v == 0.0)
    }),
];

/// Jobs for one `ext-workload` run: the shaped preset widened to 12
/// tenants × 25 jobs at the medium load level (seed 42) — enough
/// samples that a P99 and a tail-mass reading mean something, at the
/// same aggregate arrival rate for every shape so the columns compare
/// traffic *structure*, not offered load. Medium keeps the grid busy
/// but not saturated: EDF precision stays meaningful (a saturated grid
/// drags every shape's precision toward zero) while heavy tails and
/// bursts still separate clearly from uniform traffic.
pub fn workload_jobs(shape: fg_sched::WorkloadShape) -> Vec<fg_sched::JobSpec> {
    let names: Vec<&str> = PaperApp::ALL.iter().map(|a| a.name()).collect();
    fg_sched::WorkloadSpec::shaped_scaled(shape, fg_sched::LoadLevel::Medium, &names, 42, 12, 25)
        .generate()
}

/// One plain `ext-workload` scheduler run over a shaped stream.
fn workload_run(policy: Policy, shape: WorkloadShape) -> SchedResult {
    demo_scheduler(policy).run(&workload_jobs(shape))
}

/// The migration arm over a shaped stream, optionally under a pluggable
/// predictor: FCFS-backfill with quotas and preemption armed and the
/// fast repository degraded to 10%.
fn shaped_migrate_run(
    shape: WorkloadShape,
    migrate: bool,
    predictor: Option<Arc<dyn fg_predict::Predictor>>,
) -> SchedResult {
    let sched = migration_scheduler(Policy::FcfsBackfill, 12, migrate);
    let sched = sched.with_degradation(FAST_REPO_COLLAPSE);
    let sched = if let Some(p) = predictor { sched.with_predictor(p) } else { sched };
    sched.run(&workload_jobs(shape))
}

/// The migration arm of `ext-workload`: FCFS-backfill with quotas and
/// preemption armed and the fast repository degraded to 10% — the
/// `migrate_run` experiment re-cast onto a shaped stream.
pub fn workload_migrate_run(
    shape: fg_sched::WorkloadShape,
    migrate: bool,
) -> fg_sched::sched::SchedResult {
    shaped_migrate_run(shape, migrate, None)
}

/// Nearest-rank 99th percentile.
fn p99(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() as f64 * 0.99).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Jain's fairness index over per-tenant quantities: 1 when everyone
/// gets the same, 1/n when one tenant gets everything.
fn jain(x: &[f64]) -> f64 {
    let sum: f64 = x.iter().sum();
    let sq: f64 = x.iter().map(|v| v * v).sum();
    if sq == 0.0 {
        return 1.0;
    }
    sum * sum / (x.len() as f64 * sq)
}

/// Extension: every subsystem re-measured under trace-shaped traffic.
///
/// One row per workload shape (the legacy uniform preset, the
/// heavy-tail preset, the bag-of-tasks burst preset) at identical
/// aggregate arrival rates. Per shape: the FCFS P99 slowdown (tail
/// latency under the most naive policy), EDF admission precision and
/// completion-estimate error (does predictor-driven admission survive
/// heavy tails?), the migration benefit under a degraded fast
/// repository (stay-put mean slowdown over migrate mean slowdown), the
/// Jain fairness index of per-tenant admitted jobs in the quota-armed
/// run, and the total invariant violations across all runs (always
/// zero on a healthy scheduler).
fn ext_workload(id: &str) -> Figure {
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    for shape in WorkloadShape::ALL {
        let stats = fg_sched::replay::stats_of(&workload_jobs(shape));
        let fcfs = workload_run(Policy::Fcfs, shape);
        let edf = workload_run(Policy::EdfAdmit, shape);
        let moved = workload_migrate_run(shape, true);
        let stayed = workload_migrate_run(shape, false);

        let fcfs_p99 = p99(fcfs.outcomes.iter().filter_map(|o| o.slowdown()).collect());
        let benefit = mean_slowdown(&stayed) / mean_slowdown(&moved);
        let mut admitted_per_tenant = vec![0.0f64; 12];
        for o in moved.outcomes.iter().filter(|o| o.admitted) {
            admitted_per_tenant[o.tenant] += 1.0;
        }
        let violations = fcfs.violations.len()
            + edf.violations.len()
            + moved.violations.len()
            + stayed.violations.len()
            + (counter(&moved, "sched_quota_violations")
                + counter(&stayed, "sched_quota_violations")) as usize;

        rows.push((
            shape.name().to_string(),
            vec![
                fcfs_p99,
                edf_precision(&edf),
                mean_completion_error(&edf),
                benefit,
                jain(&admitted_per_tenant),
                violations as f64,
            ],
        ));
        notes.push(format!(
            "{}: {} jobs, tail mass top1 {:.3}, burst depth {}, p99 dataset {:.0} MB; \
             edf rejected {}, migrations {}, fcfs makespan {:.0}s",
            shape.name(),
            stats.jobs,
            stats.tail_mass_top1,
            stats.burst_depth_max,
            stats.p99_bytes as f64 / 1e6,
            edf.outcomes.iter().filter(|o| !o.admitted).count(),
            counter(&moved, "sched_migrations"),
            fcfs.makespan,
        ));
    }
    Figure {
        id: id.into(),
        title: "Extension: trace-shaped workloads — FCFS tail latency, EDF admission precision, migration benefit, and quota fairness under heavy-tailed and bursty traffic vs the legacy uniform preset (12 tenants x 25 jobs, medium aggregate rate, seed 42)".into(),
        columns: labels(&[
            "fcfs p99 slowdown",
            "edf precision",
            "edf estimate error",
            "migration benefit",
            "quota fairness",
            "violations",
        ]),
        rows,
        notes,
    }
}

const EXT_WORKLOAD: &[Claim] = &[
    claim("no invariant or quota violations under any traffic shape", |f| {
        f.column_values("violations").iter().all(|&v| v == 0.0)
    }),
    claim("heavy tails explode FCFS tail latency: P99 slowdown at least 3x uniform", |f| {
        f.at("heavy-tail", "fcfs p99 slowdown") >= 3.0 * f.at("uniform", "fcfs p99 slowdown")
    }),
    claim("burst sessions explode FCFS tail latency: P99 slowdown at least 3x uniform", |f| {
        f.at("bursty", "fcfs p99 slowdown") >= 3.0 * f.at("uniform", "fcfs p99 slowdown")
    }),
    claim("EDF admission precision stays at 85%+ under every traffic shape", |f| {
        f.column_values("edf precision").iter().all(|&p| p >= 0.85)
    }),
    claim("migration still pays off under every traffic shape (benefit > 1)", |f| {
        f.column_values("migration benefit").iter().all(|&b| b > 1.0)
    }),
    claim("bursts amplify migration benefit over steady heavy-tail traffic", |f| {
        f.at("bursty", "migration benefit") > f.at("heavy-tail", "migration benefit")
    }),
    claim("quota-armed admissions stay fair across tenants (Jain >= 0.95)", |f| {
        f.column_values("quota fairness").iter().all(|&j| j >= 0.95)
    }),
    claim("admission estimates degrade under trace-shaped traffic but stay in a 50% band", |f| {
        f.column_values("edf estimate error").iter().all(|&e| e < 0.50)
            && f.at("uniform", "edf estimate error") <= f.at("heavy-tail", "edf estimate error")
    }),
];

/// A telemetry-armed scheduler under `policy` for `jobs`: with
/// `degrade`, repository 0's WAN collapses to 15% of nominal from the
/// stream's median arrival onward — the seeded fault the drift detector
/// must catch. Returns the scheduler and the fault onset instant.
fn drift_scheduler(policy: Policy, jobs: &[JobSpec], degrade: bool) -> (Scheduler, f64) {
    let mut arrivals: Vec<f64> = jobs.iter().map(|j| j.arrival).collect();
    arrivals.sort_by(f64::total_cmp);
    let onset = arrivals[arrivals.len() / 2];
    let sched = demo_scheduler(policy).with_telemetry(TelemetryConfig::default());
    if degrade {
        (sched.with_degradation(Degradation { repo: 0, start: onset, factor: 0.15 }), onset)
    } else {
        (sched, onset)
    }
}

/// Every ledger sample of a telemetry-armed run, in completion order.
fn ledger_samples(r: &SchedResult) -> Vec<AccuracySample> {
    let ledger = &r.telemetry.as_ref().expect("telemetry armed").ledger;
    ledger.tail(ledger.total() as usize)
}

/// One `ext-obs` run over a shaped stream (FCFS), with or without the
/// seeded fault. Returns the run and the fault onset instant.
fn obs_run(shape: WorkloadShape, degrade: bool) -> (SchedResult, f64) {
    let jobs = workload_jobs(shape);
    let (sched, onset) = drift_scheduler(Policy::Fcfs, &jobs, degrade);
    (sched.run(&jobs), onset)
}

/// What a metrics subscription costs the serve quote path: how many
/// snapshots the subscribed session is pushed during its quote bursts,
/// and the ratio of subscribed to unsubscribed wall-clock for the same
/// quote stream, minus one. No quote moves the telemetry epoch, so the
/// count is zero and the steady-state cost is one atomic epoch load per
/// response; the wall-clock ratio is reported, not claimed, because it
/// swings wider than that cost on a shared machine.
fn quote_overhead(jobs: &[JobSpec], quotes: usize, reps: usize) -> (usize, f64) {
    use std::time::Instant;
    let sched = demo_scheduler(Policy::EdfAdmit);
    let apps: Vec<String> = sched.grid().apps.iter().map(|(n, _)| n.clone()).collect();
    let server = fg_serve::Server::start(sched);
    // Load the plane with real content first: every submission below
    // feeds the ledger and the SLO gauges the snapshots carry.
    let mut feeder = fg_serve::ServeClient::connect(&server);
    for job in jobs {
        feeder.submit(job.clone()).expect("submit");
    }
    let mut plain_client = fg_serve::ServeClient::connect(&server);
    let mut sub_client = fg_serve::ServeClient::connect(&server);
    sub_client.subscribe_metrics(0).expect("subscribe");
    let burst = |client: &mut fg_serve::ServeClient| {
        let start = Instant::now();
        for q in 0..quotes {
            let app = &apps[q % apps.len()];
            let bytes = 1u64 << (20 + q % 12);
            std::hint::black_box(client.quote(app, bytes, 2.0).expect("quote"));
        }
        start.elapsed().as_secs_f64()
    };
    // Interleave the two measurements rep by rep so machine-load drift
    // over the measurement window hits both sides equally, and take
    // each side's fastest rep (noise only ever slows a burst down).
    let (mut plain, mut subscribed) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        plain = plain.min(burst(&mut plain_client));
        subscribed = subscribed.min(burst(&mut sub_client));
    }
    let pushes = sub_client.take_metrics().len();
    drop(plain_client);
    drop(sub_client);
    drop(feeder);
    server.shutdown();
    (pushes, subscribed / plain - 1.0)
}

/// Extension: the live telemetry plane — drift detection under a
/// seeded WAN degradation.
///
/// One row per workload shape. Per shape: alarms on the fault-free
/// run (the false-positive count, always zero), alarms on the
/// degraded run, how many of those blame a component other than the
/// network (always zero — only the WAN lied), how many degraded-
/// repository completions elapsed between fault onset and the first
/// alarm (detection latency in jobs), and what a metrics subscription
/// adds to the serve quote path: the snapshots pushed during its
/// quotes and the measured wall-clock overhead.
fn ext_obs(id: &str) -> Figure {
    use fg_sched::Component;
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    for shape in WorkloadShape::ALL {
        let (clean, _) = obs_run(shape, false);
        let (degraded, onset) = obs_run(shape, true);
        let clean_alarms = clean.telemetry.expect("telemetry armed").snapshot.alarms.len();
        let report = degraded.telemetry.as_ref().expect("telemetry armed");
        let alarms = &report.snapshot.alarms;
        let off_net = alarms.iter().filter(|a| a.component != Component::Net).count();

        // The degraded repository's wire name, for attributing samples.
        let repo_name = degraded
            .outcomes
            .iter()
            .find_map(|o| o.placement.as_ref().filter(|p| p.repo == 0).map(|p| p.repo_name.clone()))
            .expect("some job ran on repository 0");
        let samples = ledger_samples(&degraded);
        let on_repo = || samples.iter().filter(|s| s.repo == repo_name);
        let first = alarms.first();
        let jobs_to_alarm = first.map_or(f64::NAN, |a| {
            on_repo().filter(|s| s.finish > onset && s.finish <= a.at).count() as f64
        });

        let (pushes, overhead) = quote_overhead(&workload_jobs(shape), 4000, 9);

        rows.push((
            shape.name().to_string(),
            vec![
                clean_alarms as f64,
                alarms.len() as f64,
                off_net as f64,
                jobs_to_alarm,
                pushes as f64,
                overhead,
            ],
        ));
        notes.push(format!(
            "{}: fault onset {:.0}s (factor 0.15, {repo_name}); first alarm {}; \
             {} ledger samples, {} on the degraded repository",
            shape.name(),
            onset,
            first.map_or("never".into(), |a| format!(
                "at {:.0}s (job {}, residual {:.2}, z {:.1})",
                a.at, a.job_id, a.residual, a.z
            )),
            report.ledger.total(),
            on_repo().count(),
        ));
    }
    Figure {
        id: id.into(),
        title: "Extension: live telemetry — drift detection under a seeded WAN degradation \
                (repository 0 collapses to 15% bandwidth at the median arrival), plus the \
                measured cost of a metrics subscription on the serve quote path"
            .into(),
        columns: labels(&[
            "clean alarms",
            "alarms",
            "off-net alarms",
            "jobs to alarm",
            "pushes during quotes",
            "subscriber overhead",
        ]),
        rows,
        notes,
    }
}

const EXT_OBS: &[Claim] = &[
    claim("fault-free runs never raise a drift alarm (zero false positives)", |f| {
        f.column_values("clean alarms").iter().all(|&a| a == 0.0)
    }),
    claim("the seeded WAN degradation trips the detector under every traffic shape", |f| {
        f.column_values("alarms").iter().all(|&a| a >= 1.0)
    }),
    claim("every alarm blames the network component (only the WAN lied)", |f| {
        f.column_values("off-net alarms").iter().all(|&a| a == 0.0)
    }),
    claim("detection latency within 10 degraded-repository jobs of fault onset", |f| {
        f.column_values("jobs to alarm").iter().all(|&j| j.is_finite() && j <= 10.0)
    }),
    claim("a subscribed session is pushed no snapshot while it only quotes", |f| {
        f.column_values("pushes during quotes").iter().all(|&p| p == 0.0)
    }),
];

/// Deterministic incident bundles for the `ext-obs` export: replay
/// each shaped stream through the sans-IO server engine with the same
/// seeded degradation the figure uses, and hand back every bundle the
/// flight recorder cut, rendered as self-contained JSONL.
fn obs_incident_bundles(shape: WorkloadShape) -> Vec<String> {
    let jobs = workload_jobs(shape);
    let (sched, _) = drift_scheduler(Policy::Fcfs, &jobs, true);
    let mut engine = fg_serve::ServerEngine::new(sched);
    for job in jobs {
        engine.handle(fg_serve::Request::Submit { job });
    }
    engine.handle(fg_serve::Request::Drain);
    engine.take_incidents().iter().map(|b| b.to_jsonl()).collect()
}

/// `ext-obs`'s artefacts: every incident bundle the flight recorder cut,
/// under `incidents/`.
fn export_incidents(out: &Path) -> io::Result<()> {
    let dir = out.join("incidents");
    std::fs::create_dir_all(&dir)?;
    for shape in WorkloadShape::ALL {
        for (i, bundle) in obs_incident_bundles(shape).iter().enumerate() {
            write_artefact(&dir.join(format!("{}-{i}.jsonl", shape.name())), bundle)?;
        }
    }
    Ok(())
}

/// Freeze the scheduler's bandwidth feedback for the `ext-learn`
/// predictor comparison: `Ewma` requires a strictly positive alpha,
/// and at 1e-12 the estimate never measurably moves off nominal — so
/// the drifted link is visible only to a predictor that *learns*, not
/// to the scheduler's own bandwidth re-estimation.
const LEARN_FROZEN_ALPHA: f64 = 1e-12;

/// One `ext-learn` arm: the `ext-obs` seeded fault (repository 0's WAN
/// collapses to 15% at the median arrival) with bandwidth feedback
/// frozen and an optional pluggable predictor installed. Returns the
/// run and the fault onset instant.
fn learn_drift_run(
    shape: WorkloadShape,
    policy: Policy,
    predictor: Option<Arc<dyn fg_predict::Predictor>>,
) -> (SchedResult, f64) {
    let jobs = workload_jobs(shape);
    let (sched, onset) = drift_scheduler(policy, &jobs, true);
    let sched = sched.with_ewma_alpha(LEARN_FROZEN_ALPHA);
    let sched = if let Some(p) = predictor { sched.with_predictor(p) } else { sched };
    (sched.run(&jobs), onset)
}

/// A run's ledger samples completed after `onset` — all of them, both
/// repositories, because a trained predictor steers work away from the
/// drifted link and the accuracy that matters for placement is over
/// everything the scheduler ran.
fn post_onset(r: &SchedResult, onset: f64) -> Vec<AccuracySample> {
    ledger_samples(r).into_iter().filter(|s| s.finish > onset).collect()
}

/// Mean relative total-time prediction error over a run's post-onset
/// ledger samples.
fn learn_post_onset_err(r: &SchedResult, onset: f64) -> f64 {
    let errs: Vec<f64> = post_onset(r, onset)
        .iter()
        .map(|s| {
            let obs: f64 = s.observed.iter().sum();
            let pred: f64 = s.predicted.iter().sum();
            (obs - pred).abs() / obs
        })
        .collect();
    mean(&errs)
}

/// Extension: online learned predictors vs the frozen analytical model
/// under the seeded WAN drift.
///
/// One row per workload shape, three predictor arms per row — the
/// analytical model with bandwidth feedback frozen (so the drift stays
/// invisible to it), the EWMA-residual-corrected hybrid, and the
/// per-(app, repo) ridge regression — each trained online by its own
/// run. Per shape: post-onset prediction error per arm, EDF admission
/// precision under the frozen and hybrid arms, the hybrid arm's
/// makespan relative to the frozen arm (trained predictors steer work
/// off the drifted link, trading makespan for accuracy — reported, not
/// hidden), and the migration benefit with the hybrid installed.
fn ext_learn(id: &str) -> Figure {
    use fg_learn::{HybridPredictor, LearnedPredictor};
    let hybrid = || Some(Arc::new(HybridPredictor::default()) as Arc<dyn fg_predict::Predictor>);
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    for shape in WorkloadShape::ALL {
        let (frozen, onset) = learn_drift_run(shape, Policy::Fcfs, None);
        let (hybrid_run, _) = learn_drift_run(shape, Policy::Fcfs, hybrid());
        let learned_model = Arc::new(LearnedPredictor::default());
        let (learned, _) = learn_drift_run(shape, Policy::Fcfs, Some(learned_model.clone()));
        let (edf_frozen, _) = learn_drift_run(shape, Policy::EdfAdmit, None);
        let (edf_hybrid, _) = learn_drift_run(shape, Policy::EdfAdmit, hybrid());
        let moved = shaped_migrate_run(shape, true, hybrid());
        let stayed = shaped_migrate_run(shape, false, hybrid());

        let runs = [&frozen, &hybrid_run, &learned, &edf_frozen, &edf_hybrid, &moved, &stayed];
        let violations = runs.iter().map(|r| r.violations.len()).sum::<usize>();
        rows.push((
            shape.name().to_string(),
            vec![
                learn_post_onset_err(&frozen, onset),
                learn_post_onset_err(&hybrid_run, onset),
                learn_post_onset_err(&learned, onset),
                edf_precision(&edf_frozen),
                edf_precision(&edf_hybrid),
                hybrid_run.makespan / frozen.makespan,
                mean_slowdown(&stayed) / mean_slowdown(&moved),
                violations as f64,
            ],
        ));
        notes.push(format!(
            "{}: onset {:.0}s; ledger samples post-onset {} (frozen arm); \
             learned keys trained {}; makespans frozen {:.0}s / hybrid {:.0}s / learned {:.0}s; \
             migrations {}",
            shape.name(),
            onset,
            post_onset(&frozen, onset).len(),
            learned_model.trained_keys(),
            frozen.makespan,
            hybrid_run.makespan,
            learned.makespan,
            counter(&moved, "sched_migrations"),
        ));
    }
    Figure {
        id: id.into(),
        title: "Extension: online learned predictors — prediction error and placement quality \
                under the seeded WAN drift (repository 0 to 15% bandwidth at the median \
                arrival, scheduler bandwidth feedback frozen), analytical vs EWMA-residual \
                hybrid vs per-(app, repo) ridge regression"
            .into(),
        columns: labels(&[
            "analytical err",
            "hybrid err",
            "learned err",
            "edf precision frozen",
            "edf precision hybrid",
            "hybrid makespan x",
            "migration benefit",
            "violations",
        ]),
        rows,
        notes,
    }
}

const EXT_LEARN: &[Claim] = &[
    claim("the trained hybrid closes at least 20% of the frozen model's error, every shape", |f| {
        f.rows.iter().all(|(l, _)| f.at(l, "hybrid err") < 0.8 * f.at(l, "analytical err"))
    }),
    claim("the learned ridge model beats the frozen model on regime-coherent shapes", |f| {
        ["uniform", "bursty"]
            .iter()
            .all(|l| f.at(l, "learned err") < 0.8 * f.at(l, "analytical err"))
    }),
    claim(
        "the trust region bounds the learned model's damage to 2x frozen, even where \
         its sample window mixes regimes (heavy-tail)",
        |f| f.rows.iter().all(|(l, _)| f.at(l, "learned err") <= 2.0 * f.at(l, "analytical err")),
    ),
    claim(
        "EDF admission precision under the hybrid stays within 0.1 of the frozen model \
         and improves on uniform and bursty traffic",
        |f| {
            let (hybrid, frozen) = ("edf precision hybrid", "edf precision frozen");
            f.rows.iter().all(|(l, _)| f.at(l, hybrid) >= f.at(l, frozen) - 0.1)
                && ["uniform", "bursty"].iter().all(|l| f.at(l, hybrid) > f.at(l, frozen))
        },
    ),
    claim("the hybrid's drift-avoiding placements keep makespan within 2x either way", |f| {
        f.column_values("hybrid makespan x").iter().all(|&m| m > 0.5 && m < 2.0)
    }),
    claim("migration still pays off with the hybrid predictor installed (benefit > 1)", |f| {
        f.column_values("migration benefit").iter().all(|&b| b > 1.0)
    }),
    claim("no invariant violations in any predictor arm", |f| {
        f.column_values("violations").iter().all(|&v| v == 0.0)
    }),
];

/// The experiment table, in paper order: the paper's figures, §5.4's
/// factor table, the ablations, then the extensions.
pub fn registry() -> Vec<Experiment> {
    use PaperApp::{Defect, Em, KMeans, Knn, Vortex};
    vec![
        row("fig2", |id| model_error_figure(id, KMeans, 1400.0), &[MODEL_ERRORS]),
        row("fig3", |id| model_error_figure(id, Vortex, 710.0), &[MODEL_ERRORS]),
        row("fig4", |id| model_error_figure(id, Defect, 130.0), &[MODEL_ERRORS, FIG4]),
        row("fig5", |id| model_error_figure(id, Em, 1400.0), &[MODEL_ERRORS]),
        row("fig6", |id| model_error_figure(id, Knn, 1400.0), &[MODEL_ERRORS, FIG6]),
        row("fig7", |id| dataset_scaling_figure(id, Em, 350.0, 1400.0), &[FIG7]),
        row("fig8", |id| dataset_scaling_figure(id, Defect, 130.0, 1800.0), &[FIG8]),
        // 500 Kbps -> 250 Kbps, as labeled in the paper.
        row("fig9", |id| bandwidth_figure(id, Defect, 130.0, 62.5e3, 31.25e3), &[BANDWIDTH, FIG9]),
        row("fig10", |id| bandwidth_figure(id, Em, 1400.0, 62.5e3, 31.25e3), &[BANDWIDTH]),
        row(
            "fig11",
            |id| {
                hetero_figure(
                    id,
                    Em,
                    Configuration::new(8, 8),
                    350.0,
                    700.0,
                    &[KMeans, Knn, Vortex],
                )
            },
            &[HETERO],
        ),
        row(
            "fig12",
            |id| {
                hetero_figure(
                    id,
                    Defect,
                    Configuration::new(4, 4),
                    130.0,
                    1800.0,
                    &[KMeans, Knn, Em],
                )
            },
            &[HETERO, FIG12],
        ),
        row(
            "fig13",
            |id| {
                hetero_figure(
                    id,
                    Vortex,
                    Configuration::new(1, 1),
                    710.0,
                    1850.0,
                    &[KMeans, Knn, Em],
                )
            },
            &[HETERO],
        ),
        row("sc-table", sc_table, &[SC_TABLE]),
        row("ablate-robj", ablate_robj_class, &[ABLATE_ROBJ]),
        row("ablate-tg", ablate_tg_class, &[ABLATE_TG]),
        row("ablate-disk", ablate_disk_cap, &[ABLATE_DISK]),
        row("ablate-granularity", ablate_granularity, &[ABLATE_GRANULARITY]),
        row("ext-cache", ext_cache_plans, &[EXT_CACHE]),
        row("ext-pipeline", ext_pipeline, &[EXT_PIPELINE]),
        row("ext-faults", ext_faults, &[EXT_FAULTS]),
        Experiment {
            export: Some(export_golden_traces),
            ..row("ext-trace", ext_trace, &[EXT_TRACE])
        },
        Experiment {
            export: Some(export_sched_traces),
            ..row("ext-sched", ext_sched, &[EXT_SCHED])
        },
        row("ext-migrate", ext_migrate, &[EXT_MIGRATE]),
        row("ext-workload", ext_workload, &[EXT_WORKLOAD]),
        Experiment { export: Some(export_incidents), ..row("ext-obs", ext_obs, &[EXT_OBS]) },
        row("ext-learn", ext_learn, &[EXT_LEARN]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique() {
        let mut ids: Vec<&str> = registry().iter().map(|e| e.id).collect();
        ids.sort_unstable();
        let n = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), n, "a figure id is registered twice");
    }

    #[test]
    fn every_experiment_has_a_claim() {
        for e in registry() {
            assert!(e.claims().next().is_some(), "{} has no claim", e.id);
        }
        // The 80 shape claims plus the five divergence pins.
        assert_eq!(registry().iter().map(|e| e.claims().count()).sum::<usize>(), 85);
    }

    #[test]
    fn registry_order_is_the_listed_order() {
        let listed = "fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 sc-table \
                      ablate-robj ablate-tg ablate-disk ablate-granularity ext-cache ext-pipeline \
                      ext-faults ext-trace ext-sched ext-migrate ext-workload ext-obs ext-learn";
        let ids: Vec<&str> = registry().iter().map(|e| e.id).collect();
        assert_eq!(ids, listed.split_whitespace().collect::<Vec<_>>());
    }
}
