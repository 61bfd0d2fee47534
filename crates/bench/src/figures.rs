//! The experiment behind every figure of the paper's evaluation (§5),
//! plus ablations of the model's design choices.
//!
//! Every function runs real (simulated-time) executions and returns a
//! [`Figure`] of relative prediction errors. See DESIGN.md for the
//! experiment index and EXPERIMENTS.md for recorded outputs.

use crate::apps::PaperApp;
use crate::scenario::{
    collect_profile, opteron_deployment, pentium_deployment, predict_all_models,
    sweep_configurations, DEFAULT_WAN_BW, FIGURE_SCALE,
};
use crate::table::Figure;
use fg_cluster::Configuration;
use fg_middleware::FaultOptions;
use fg_predict::{
    relative_error, ComputeModel, GlobalReduceClass, InterconnectParams, Profile, RObjSizeClass,
    ScalingFactors, Target,
};
use fg_sim::FaultSchedule;
use rayon::prelude::*;

/// Figures 2–6: prediction errors of the three compute models over the
/// paper configuration grid, base profile 1-1, one application.
pub fn model_error_figure(id: &str, app: PaperApp, nominal_mb: f64) -> Figure {
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
pub fn dataset_scaling_figure(id: &str, app: PaperApp, profile_mb: f64, target_mb: f64) -> Figure {
    let small = app.generate(&format!("{id}-small"), profile_mb, FIGURE_SCALE, 42);
    let large = app.generate(&format!("{id}-large"), target_mb, FIGURE_SCALE, 43);
    let profile = collect_profile(app, pentium_deployment(1, 1, DEFAULT_WAN_BW), &small);
    let site = pentium_deployment(1, 1, DEFAULT_WAN_BW).compute;
    let rows = node_grid(|cfg| {
        let actual = app
            .execute(pentium_deployment(cfg.data_nodes, cfg.compute_nodes, DEFAULT_WAN_BW), &large)
            .total()
            .as_secs_f64();
        let target = Target {
            data_nodes: cfg.data_nodes,
            compute_nodes: cfg.compute_nodes,
            wan_bw: DEFAULT_WAN_BW,
            dataset_bytes: large.logical_bytes(),
        };
        let predicted = predict_all_models(&profile, app, &site, &target)[2].total();
        relative_error(actual, predicted)
    });
    Figure {
        id: id.into(),
        title: format!(
            "Prediction errors for {} with {:.0} MB dataset, base profile 1-1 with {:.0} MB (global reduction model)",
            app.name(),
            target_mb,
            profile_mb
        ),
        columns: COMPUTE_COLUMNS.iter().map(|s| s.to_string()).collect(),
        rows,
        notes: vec![format!(
            "size ratio s_hat/s = {:.2}",
            large.logical_bytes() as f64 / small.logical_bytes() as f64
        )],
    }
}

/// Figures 9–10: network-bandwidth change. Profile at 1-1 with bandwidth
/// `b`; predict (and run) every configuration at `b_target`.
pub fn bandwidth_figure(
    id: &str,
    app: PaperApp,
    nominal_mb: f64,
    b_profile: f64,
    b_target: f64,
) -> Figure {
    let dataset = app.generate(&format!("{id}-data"), nominal_mb, FIGURE_SCALE, 42);
    let profile = collect_profile(app, pentium_deployment(1, 1, b_profile), &dataset);
    let site = pentium_deployment(1, 1, b_profile).compute;
    let rows = node_grid(|cfg| {
        let actual = app
            .execute(pentium_deployment(cfg.data_nodes, cfg.compute_nodes, b_target), &dataset)
            .total()
            .as_secs_f64();
        let target = Target {
            data_nodes: cfg.data_nodes,
            compute_nodes: cfg.compute_nodes,
            wan_bw: b_target,
            dataset_bytes: dataset.logical_bytes(),
        };
        let predicted = predict_all_models(&profile, app, &site, &target)[2].total();
        relative_error(actual, predicted)
    });
    Figure {
        id: id.into(),
        title: format!(
            "Prediction errors for {} with {:.0} Kbps, base profile 1-1 with {:.0} Kbps (global reduction model)",
            app.name(),
            b_target * 8.0 / 1e3,
            b_profile * 8.0 / 1e3
        ),
        columns: COMPUTE_COLUMNS.iter().map(|s| s.to_string()).collect(),
        rows,
        notes: vec![format!("bandwidth ratio b/b_hat = {:.2}", b_profile / b_target)],
    }
}

/// Cross-cluster scaling factors from representative applications (§3.4):
/// each representative runs on identical configurations on both clusters.
pub fn measure_scaling_factors(
    representatives: &[PaperApp],
    rep_mb: f64,
    config: Configuration,
) -> ScalingFactors {
    let pairs: Vec<(Profile, Profile)> = representatives
        .par_iter()
        .map(|rep| {
            let ds = rep.generate(&format!("rep-{}", rep.name()), rep_mb, FIGURE_SCALE, 17);
            let a = collect_profile(
                *rep,
                pentium_deployment(config.data_nodes, config.compute_nodes, DEFAULT_WAN_BW),
                &ds,
            );
            let b = collect_profile(
                *rep,
                opteron_deployment(config.data_nodes, config.compute_nodes, DEFAULT_WAN_BW),
                &ds,
            );
            (a, b)
        })
        .collect();
    ScalingFactors::measure(&pairs)
}

/// Figures 11–13: predictions for a different type of cluster. Base
/// profile on the Pentium cluster at `profile_cfg` with `profile_mb`;
/// representative applications supply the component scaling factors;
/// predictions target the Opteron cluster with `target_mb` on every
/// configuration.
pub fn hetero_figure(
    id: &str,
    app: PaperApp,
    profile_cfg: Configuration,
    profile_mb: f64,
    target_mb: f64,
    representatives: &[PaperApp],
) -> Figure {
    let profile_ds = app.generate(&format!("{id}-prof"), profile_mb, FIGURE_SCALE, 42);
    let target_ds = app.generate(&format!("{id}-target"), target_mb, FIGURE_SCALE, 43);
    let profile = collect_profile(
        app,
        pentium_deployment(profile_cfg.data_nodes, profile_cfg.compute_nodes, DEFAULT_WAN_BW),
        &profile_ds,
    );
    let factors = measure_scaling_factors(representatives, profile_mb, profile_cfg);
    // Interconnect parameters are those of the profile cluster: the
    // framework first predicts on cluster A, then scales to cluster B.
    let site_a = pentium_deployment(1, 1, DEFAULT_WAN_BW).compute;
    let rows = node_grid(|cfg| {
        let actual = app
            .execute(
                opteron_deployment(cfg.data_nodes, cfg.compute_nodes, DEFAULT_WAN_BW),
                &target_ds,
            )
            .total()
            .as_secs_f64();
        let target = Target {
            data_nodes: cfg.data_nodes,
            compute_nodes: cfg.compute_nodes,
            wan_bw: DEFAULT_WAN_BW,
            dataset_bytes: target_ds.logical_bytes(),
        };
        let on_a = predict_all_models(&profile, app, &site_a, &target)[2];
        let on_b = factors.apply(&on_a);
        relative_error(actual, on_b.total())
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
        columns: COMPUTE_COLUMNS.iter().map(|s| s.to_string()).collect(),
        rows,
        notes: vec![format!(
            "factors from {:?}: s_d={:.3} s_n={:.3} s_c={:.3}",
            rep_names, factors.disk, factors.network, factors.compute
        )],
    }
}

/// §5.4's observation table: per-application component scaling factors
/// between the two clusters (the compute factor varies by operation mix).
pub fn sc_table() -> Figure {
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
        id: "sc-table".into(),
        title: "Component scaling factors Pentium -> Opteron per application (4-4, 130 MB)".into(),
        columns: vec!["s_d".into(), "s_n".into(), "s_c".into()],
        rows,
        notes: vec![format!("mean compute factor s_c = {avg_c:.3}")],
    }
}

/// Ablation: force the wrong reduction-object size class and compare the
/// predicted reduction-object communication time `T_ro` against the
/// measured one (validates class inference). EM carries the largest
/// objects (its dataset-proportional diagnostic buffer), so the wrong
/// class visibly misprices the gather.
pub fn ablate_robj_class() -> Figure {
    let app = PaperApp::Em;
    let small = app.generate("ab-robj-s", 350.0, FIGURE_SCALE, 42);
    let large = app.generate("ab-robj-l", 1400.0, FIGURE_SCALE, 43);
    let profile = collect_profile(app, pentium_deployment(1, 1, DEFAULT_WAN_BW), &small);
    let site = pentium_deployment(1, 1, DEFAULT_WAN_BW).compute;
    let ic = InterconnectParams::of_site(&site);
    let configs = [Configuration::new(1, 4), Configuration::new(2, 8), Configuration::new(8, 16)];
    let rows = configs
        .par_iter()
        .map(|cfg| {
            let actual_t_ro = app
                .execute(
                    pentium_deployment(cfg.data_nodes, cfg.compute_nodes, DEFAULT_WAN_BW),
                    &large,
                )
                .t_ro()
                .as_secs_f64();
            let target = Target {
                data_nodes: cfg.data_nodes,
                compute_nodes: cfg.compute_nodes,
                wan_bw: DEFAULT_WAN_BW,
                dataset_bytes: large.logical_bytes(),
            };
            let errs: Vec<f64> = [RObjSizeClass::Linear, RObjSizeClass::Constant]
                .iter()
                .map(|&obj| {
                    let predicted = fg_predict::model::predict_t_ro(&profile, &target, obj, &ic);
                    relative_error(actual_t_ro, predicted)
                })
                .collect();
            (cfg.label(), errs)
        })
        .collect();
    Figure {
        id: "ablate-robj".into(),
        title: "Ablation: error in predicted T_ro for EM at 1.4 GB from a 350 MB 1-1 profile, correct (linear) vs forced-constant object class".into(),
        columns: vec!["linear (correct)".into(), "constant (wrong)".into()],
        rows,
        notes: vec![],
    }
}

/// Ablation: force the wrong global-reduction class and compare the
/// predicted `T_g` against the measured one on a dataset-scaling
/// prediction. EM's global reduction is dataset-proportional
/// (constant-linear); pretending it scales with the node count instead
/// misprices it badly at 16 nodes.
pub fn ablate_tg_class() -> Figure {
    let app = PaperApp::Em;
    let small = app.generate("ab-tg-s", 350.0, FIGURE_SCALE, 42);
    let large = app.generate("ab-tg-l", 1400.0, FIGURE_SCALE, 43);
    let profile = collect_profile(app, pentium_deployment(1, 1, DEFAULT_WAN_BW), &small);
    let configs = [Configuration::new(1, 8), Configuration::new(4, 16), Configuration::new(8, 16)];
    let rows = configs
        .par_iter()
        .map(|cfg| {
            let actual_t_g = app
                .execute(
                    pentium_deployment(cfg.data_nodes, cfg.compute_nodes, DEFAULT_WAN_BW),
                    &large,
                )
                .t_g()
                .as_secs_f64();
            let target = Target {
                data_nodes: cfg.data_nodes,
                compute_nodes: cfg.compute_nodes,
                wan_bw: DEFAULT_WAN_BW,
                dataset_bytes: large.logical_bytes(),
            };
            let errs: Vec<f64> =
                [GlobalReduceClass::ConstantLinear, GlobalReduceClass::LinearConstant]
                    .iter()
                    .map(|&global| {
                        let predicted = fg_predict::model::predict_t_g(&profile, &target, global);
                        relative_error(actual_t_g, predicted)
                    })
                    .collect();
            (cfg.label(), errs)
        })
        .collect();
    Figure {
        id: "ablate-tg".into(),
        title: "Ablation: error in predicted T_g for EM at 1.4 GB from a 350 MB 1-1 profile, correct (constant-linear) vs forced linear-constant class".into(),
        columns: vec!["constant-linear (correct)".into(), "linear-constant (wrong)".into()],
        rows,
        notes: vec![],
    }
}

/// Ablation: disable the repository's shared-backplane cap and show the
/// disk model's error at eight data nodes collapse — the cap is what
/// makes retrieval sub-linear (the effect the paper reports for the
/// defect application).
pub fn ablate_disk_cap() -> Figure {
    let app = PaperApp::Defect;
    let dataset = app.generate("ab-disk", 1800.0, FIGURE_SCALE, 42);
    let configs = [Configuration::new(4, 8), Configuration::new(8, 8), Configuration::new(8, 16)];
    let rows = configs
        .par_iter()
        .map(|cfg| {
            let errs: Vec<f64> = [true, false]
                .iter()
                .map(|&capped| {
                    let mut profile_dep = pentium_deployment(1, 1, DEFAULT_WAN_BW);
                    let mut dep =
                        pentium_deployment(cfg.data_nodes, cfg.compute_nodes, DEFAULT_WAN_BW);
                    if !capped {
                        // Effectively unlimited (but finite) backplane.
                        profile_dep.repository.backplane_bw = 1e15;
                        dep.repository.backplane_bw = 1e15;
                    }
                    let site = dep.compute.clone();
                    let profile = collect_profile(app, profile_dep, &dataset);
                    let actual = app.execute(dep, &dataset).total().as_secs_f64();
                    let target = Target {
                        data_nodes: cfg.data_nodes,
                        compute_nodes: cfg.compute_nodes,
                        wan_bw: DEFAULT_WAN_BW,
                        dataset_bytes: dataset.logical_bytes(),
                    };
                    let predicted = predict_all_models(&profile, app, &site, &target)[2].total();
                    relative_error(actual, predicted)
                })
                .collect();
            (cfg.label(), errs)
        })
        .collect();
    Figure {
        id: "ablate-disk".into(),
        title: "Ablation: defect detection at 1.8 GB — global-reduction-model error with and without the repository backplane cap".into(),
        columns: vec!["capped backplane".into(), "uncapped".into()],
        rows,
        notes: vec![],
    }
}

/// Extension figure: the non-local caching plans — predicted vs actual
/// execution time for EM under local caching, a non-local caching site,
/// and origin re-fetch, on a storage-starved compute site. Values are
/// relative prediction errors; the note records the actual times, whose
/// ordering (local < non-local < refetch) is the point of the extension.
pub fn ext_cache_plans() -> Figure {
    use fg_cluster::{CacheSite, RepositorySite, Wan};
    use fg_predict::{predict_with_plan, CachePlan, ExecTimePredictor};
    let app = PaperApp::Em;
    let dataset = app.generate("ext-cache-data", 700.0, FIGURE_SCALE, 42);
    let profile_dep = pentium_deployment(1, 1, DEFAULT_WAN_BW);
    let profile = collect_profile(app, profile_dep.clone(), &dataset);
    let predictor = ExecTimePredictor {
        profile: profile.clone(),
        classes: app.classes(),
        interconnect: InterconnectParams::of_site(&profile_dep.compute),
        model: ComputeModel::GlobalReduction,
    };
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
            let target = Target {
                data_nodes: 4,
                compute_nodes: 8,
                wan_bw: DEFAULT_WAN_BW,
                dataset_bytes: dataset.logical_bytes(),
            };
            let plan = CachePlan::for_deployment(&dep, dataset.logical_bytes(), profile.passes);
            let predicted =
                predict_with_plan(&predictor, &target, &plan, dep.compute.machine.disk_bw);
            notes
                .push(format!("{label}: actual {actual:.1}s, predicted {:.1}s", predicted.total()));
            (label.to_string(), vec![relative_error(actual, predicted.total())])
        })
        .collect();
    Figure {
        id: "ext-cache".into(),
        title: "Extension: cache-plan prediction accuracy for EM at 700 MB on a 4-8 deployment (storage-starved compute site)".into(),
        columns: vec!["prediction error".into()],
        rows,
        notes,
    }
}

/// Ablation: chunk-count granularity. The middleware statically assigns
/// chunks to compute nodes, so a chunk count that does not divide evenly
/// across a configuration leaves some nodes one chunk heavier — real
/// sub-linear speedup the linear compute model cannot see. Chunk counts
/// divisible by 16 (what the generators emit, standing in for
/// demand-driven chunk delivery) keep the model accurate.
pub fn ablate_granularity() -> Figure {
    let app = PaperApp::KMeans;
    let base = app.generate("ab-gran", 1400.0, FIGURE_SCALE, 42);
    let profile_ds = base.rechunk(64);
    let profile = collect_profile(app, pentium_deployment(1, 1, DEFAULT_WAN_BW), &profile_ds);
    let site = pentium_deployment(1, 1, DEFAULT_WAN_BW).compute;
    // Chunk counts: divisible by 16 vs awkward remainders at 16 nodes.
    let counts = [64usize, 67, 72, 80];
    let rows = counts
        .par_iter()
        .map(|&m| {
            let ds = base.rechunk(m);
            let errs: Vec<f64> = [Configuration::new(4, 8), Configuration::new(8, 16)]
                .iter()
                .map(|cfg| {
                    let actual = app
                        .execute(
                            pentium_deployment(cfg.data_nodes, cfg.compute_nodes, DEFAULT_WAN_BW),
                            &ds,
                        )
                        .total()
                        .as_secs_f64();
                    let target = Target {
                        data_nodes: cfg.data_nodes,
                        compute_nodes: cfg.compute_nodes,
                        wan_bw: DEFAULT_WAN_BW,
                        dataset_bytes: ds.logical_bytes(),
                    };
                    let predicted = predict_all_models(&profile, app, &site, &target)[2].total();
                    relative_error(actual, predicted)
                })
                .collect();
            (format!("{m} chunks"), errs)
        })
        .collect();
    Figure {
        id: "ablate-granularity".into(),
        title: "Ablation: k-means at 1.4 GB — global-reduction-model error vs chunk count (divisible-by-16 counts balance exactly)".into(),
        columns: vec!["4-8".into(), "8-16".into()],
        rows,
        notes: vec!["profile taken on the 64-chunk packaging".into()],
    }
}

/// Extension figure: phase-structured vs pipelined execution. The
/// paper's additive model describes a phase-structured runtime; this
/// measures how much chunk-level overlap would save (column 1: pipelined
/// time as a fraction of phased time) and how far the additive
/// global-reduction prediction over-shoots a pipelined system (column 2).
pub fn ext_pipeline() -> Figure {
    use fg_middleware::run_pipelined;
    let app = PaperApp::Vortex; // single pass: stages genuinely overlap
    let dataset = fg_apps::vortex::generate("ext-pipe-data", 710.0, FIGURE_SCALE, 42).0;
    let vx = fg_apps::vortex::VortexDetect::default();
    let profile = collect_profile(app, pentium_deployment(1, 1, DEFAULT_WAN_BW), &dataset);
    let site = pentium_deployment(1, 1, DEFAULT_WAN_BW).compute;
    let configs = [
        Configuration::new(1, 1),
        Configuration::new(2, 4),
        Configuration::new(4, 8),
        Configuration::new(8, 16),
    ];
    let rows = configs
        .par_iter()
        .map(|cfg| {
            let dep = pentium_deployment(cfg.data_nodes, cfg.compute_nodes, DEFAULT_WAN_BW);
            let phased = app.execute(dep.clone(), &dataset).total().as_secs_f64();
            let piped = run_pipelined(&dep, &vx, &dataset).total.as_secs_f64();
            let target = Target {
                data_nodes: cfg.data_nodes,
                compute_nodes: cfg.compute_nodes,
                wan_bw: DEFAULT_WAN_BW,
                dataset_bytes: dataset.logical_bytes(),
            };
            let predicted = predict_all_models(&profile, app, &site, &target)[2].total();
            (cfg.label(), vec![piped / phased, relative_error(piped, predicted)])
        })
        .collect();
    Figure {
        id: "ext-pipeline".into(),
        title: "Extension: pipelined vs phase-structured execution for vortex detection at 710 MB".into(),
        columns: vec!["pipelined / phased".into(), "additive model vs pipelined".into()],
        rows,
        notes: vec![
            "the additive model is exact for the phased runtime; its error vs the              pipelined runtime is the cost of the phase-structure assumption"
                .into(),
        ],
    }
}

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
pub fn ext_faults() -> Figure {
    let app = PaperApp::KMeans;
    let (n, c) = (4usize, 8usize);
    let dataset = app.generate("ext-faults-data", 130.0, FIGURE_SCALE, 42);
    let profile = collect_profile(app, pentium_deployment(1, 1, DEFAULT_WAN_BW), &dataset);
    let deployment = pentium_deployment(n, c, DEFAULT_WAN_BW);
    let site = deployment.compute.clone();
    let target = Target {
        data_nodes: n,
        compute_nodes: c,
        wan_bw: DEFAULT_WAN_BW,
        dataset_bytes: dataset.logical_bytes(),
    };
    // ComputeModel::ALL order; [2] is the global-reduction model, the
    // paper's most faithful one.
    let predicted = predict_all_models(&profile, app, &site, &target)[2].total();
    let options = FaultOptions::default();

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
        let (report, _) =
            app.execute_with(deployment.clone(), &dataset, &schedule, &options, false);
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
        id: "ext-faults".into(),
        title: format!(
            "Fault injection: prediction error and recovery overhead, {} on {n}-{c}",
            app.name()
        ),
        columns: vec![
            "model error".into(),
            "recovery share".into(),
            "overhead vs fault-free".into(),
        ],
        rows,
        notes,
    }
}

/// Extension: tracing fidelity and overhead.
///
/// For each paper application, runs the same execution untraced and
/// traced, then (a) reconstructs the execution report and the profile
/// from the trace and reports the worst component mismatch in integer
/// nanoseconds — the trace retraces the executor's exact arithmetic, so
/// this must be zero — and (b) reports the host-side wall-clock overhead
/// of collecting the trace (best-of-`REPEATS` on both sides, so the
/// ratio is noise-resistant).
pub fn ext_trace() -> Figure {
    use fg_middleware::ExecutionReport;
    use std::time::Instant;
    const REPEATS: usize = 5;
    let mut notes = Vec::new();
    let rows = PaperApp::PAPER_FIVE
        .iter()
        .map(|&app| {
            let dataset =
                app.generate(&format!("ext-trace-{}", app.name()), 130.0, FIGURE_SCALE, 42);
            let deployment = pentium_deployment(2, 4, DEFAULT_WAN_BW);
            let time = |f: &dyn Fn() -> ExecutionReport| {
                (0..REPEATS)
                    .map(|_| {
                        let t0 = Instant::now();
                        let r = f();
                        (t0.elapsed().as_secs_f64(), r)
                    })
                    .min_by(|a, b| a.0.total_cmp(&b.0))
                    .expect("at least one repeat")
            };
            let (plain_wall, plain) = time(&|| app.execute(deployment.clone(), &dataset));
            let (traced_wall, traced) =
                time(&|| app.execute_traced(deployment.clone(), &dataset).0);
            let (_, trace) = app.execute_traced(deployment.clone(), &dataset);
            assert_eq!(plain, traced, "tracing must not perturb the execution");
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
            let overhead = traced_wall / plain_wall - 1.0;
            notes.push(format!(
                "{}: untraced {:.1}ms, traced {:.1}ms ({} spans, {} passes)",
                app.name(),
                plain_wall * 1e3,
                traced_wall * 1e3,
                trace.spans.len(),
                plain.num_passes(),
            ));
            (app.name().to_string(), vec![mismatch_ns as f64, profile_drift, overhead])
        })
        .collect();
    Figure {
        id: "ext-trace".into(),
        title: "Extension: trace fidelity (report/profile reconstruction) and collection overhead, 130 MB datasets on 2-4".into(),
        columns: vec![
            "component mismatch (ns)".into(),
            "profile drift".into(),
            "trace overhead".into(),
        ],
        rows,
        notes,
    }
}

/// The seven applications the scheduler's workload mixes over: the
/// paper five plus the two extension apps.
pub const SCHED_APPS: [PaperApp; 7] = [
    PaperApp::KMeans,
    PaperApp::Em,
    PaperApp::Knn,
    PaperApp::Vortex,
    PaperApp::Defect,
    PaperApp::Apriori,
    PaperApp::Ann,
];

/// Profile every scheduler app on a small 1-1 run and package the
/// results as `fg-sched` prediction models. The profile WAN bandwidth
/// matches the demo grid's nominal per-stream bandwidth, so a first
/// placement on the fast repository sees a bandwidth ratio of one.
pub fn sched_models() -> Vec<(String, fg_sched::AppModel)> {
    SCHED_APPS
        .iter()
        .map(|&app| {
            let dataset = app.generate(&format!("ext-sched-{}", app.name()), 8.0, 0.01, 3);
            let profile = collect_profile(app, pentium_deployment(1, 1, 1e6), &dataset);
            (app.name().to_string(), fg_sched::AppModel { profile, classes: app.classes() })
        })
        .collect()
}

/// The scheduler run behind one `ext-sched` row.
pub fn sched_run(
    policy: fg_sched::Policy,
    load: fg_sched::LoadLevel,
) -> fg_sched::sched::SchedResult {
    let grid = fg_sched::GridSpec::demo(sched_models());
    let names: Vec<&str> = SCHED_APPS.iter().map(|a| a.name()).collect();
    let jobs = fg_sched::WorkloadSpec::preset(load, &names, 42).generate();
    fg_sched::Scheduler::new(grid, policy).run(&jobs)
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
pub fn ext_sched() -> Figure {
    use fg_sched::{LoadLevel, Policy};
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    for load in LoadLevel::ALL {
        for policy in Policy::ALL {
            let r = sched_run(policy, load);
            let submitted = r.outcomes.len();
            let admitted: Vec<_> = r.outcomes.iter().filter(|o| o.admitted).collect();
            let slowdowns: Vec<f64> = admitted.iter().filter_map(|o| o.slowdown()).collect();
            let mean_slowdown = slowdowns.iter().sum::<f64>() / slowdowns.len().max(1) as f64;
            let met = admitted.iter().filter(|o| o.met_deadline() == Some(true)).count();
            let precision = met as f64 / admitted.len().max(1) as f64;
            let errors: Vec<f64> = admitted.iter().filter_map(|o| o.completion_error()).collect();
            let mean_error = errors.iter().sum::<f64>() / errors.len().max(1) as f64;
            let rejected = submitted - admitted.len();
            rows.push((
                format!("{} {}", policy.name(), load.name()),
                vec![
                    mean_slowdown,
                    precision,
                    mean_error,
                    rejected as f64,
                    r.violations.len() as f64,
                ],
            ));
            notes.push(format!(
                "{} {}: {} jobs, {} admitted, makespan {:.0}s, max queue depth {}",
                policy.name(),
                load.name(),
                submitted,
                admitted.len(),
                r.makespan,
                r.trace.metrics.gauge("sched_queue_depth_max").unwrap_or(0.0),
            ));
        }
    }
    Figure {
        id: "ext-sched".into(),
        title: "Extension: multi-tenant scheduling — slowdown, admission precision, and completion-estimate error per policy at three load levels (three-tenant preset, seed 42)".into(),
        columns: vec![
            "mean slowdown".into(),
            "admission precision".into(),
            "completion estimate error".into(),
            "rejected jobs".into(),
            "violations".into(),
        ],
        rows,
        notes,
    }
}

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
    let grid = fg_sched::GridSpec::demo(sched_models());
    let names: Vec<&str> = SCHED_APPS.iter().map(|a| a.name()).collect();
    let jobs = fg_sched::WorkloadSpec::preset(load, &names, 42).generate();
    let quotas = vec![fg_sched::TenantQuota { capacity: 1000.0, refill_per_sec: 1.0 }; 3];
    let mut sched = fg_sched::Scheduler::new(grid, policy).with_quotas(quotas).with_preemption(2.0);
    if migrate {
        sched = sched.with_migration(fg_sched::MigrationConfig::default());
    }
    if degrade {
        sched = sched.with_degradation(fg_sched::Degradation { repo: 0, start: 0.0, factor: 0.1 });
    }
    sched.run(&jobs)
}

/// Extension: preemptive migration under bandwidth degradation.
///
/// At each load level, compares a migration-enabled run against a
/// stay-put run while the fast repository's transfer paths run at 10%
/// of nominal, plus a migration-enabled run under stable bandwidth as
/// the hysteresis control. Token-bucket quotas are armed in every run;
/// the violation counter must stay at zero.
pub fn ext_migrate() -> Figure {
    use fg_sched::{LoadLevel, Policy};
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    for load in LoadLevel::ALL {
        let moved = migrate_run(Policy::FcfsBackfill, load, true, true);
        let stayed = migrate_run(Policy::FcfsBackfill, load, false, true);
        let stable = migrate_run(Policy::FcfsBackfill, load, true, false);
        let mean_slowdown = |r: &fg_sched::sched::SchedResult| {
            let s: Vec<f64> = r.outcomes.iter().filter_map(|o| o.slowdown()).collect();
            s.iter().sum::<f64>() / s.len().max(1) as f64
        };
        let quota_violations = [&moved, &stayed, &stable]
            .iter()
            .map(|r| r.trace.metrics.counter("sched_quota_violations").unwrap_or(0))
            .sum::<u64>();
        rows.push((
            load.name().to_string(),
            vec![
                mean_slowdown(&moved),
                mean_slowdown(&stayed),
                moved.trace.metrics.counter("sched_migrations").unwrap_or(0) as f64,
                stable.trace.metrics.counter("sched_migrations").unwrap_or(0) as f64,
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
            moved.trace.metrics.counter("sched_preemptions").unwrap_or(0),
            moved.violations.len(),
            stayed.violations.len(),
            stable.violations.len(),
        ));
    }
    Figure {
        id: "ext-migrate".into(),
        title: "Extension: preemptive migration — migrate vs stay-put mean slowdown under a sustained 10x degradation of the fast repository, with the stable-bandwidth hysteresis control (three-tenant preset, seed 42)".into(),
        columns: vec![
            "migrate slowdown".into(),
            "stay slowdown".into(),
            "migrations".into(),
            "stable migrations".into(),
            "quota violations".into(),
        ],
        rows,
        notes,
    }
}

/// Jobs for one `ext-workload` run: the shaped preset widened to 12
/// tenants × 25 jobs at the medium load level (seed 42) — enough
/// samples that a P99 and a tail-mass reading mean something, at the
/// same aggregate arrival rate for every shape so the columns compare
/// traffic *structure*, not offered load. Medium keeps the grid busy
/// but not saturated: EDF precision stays meaningful (a saturated grid
/// drags every shape's precision toward zero) while heavy tails and
/// bursts still separate clearly from uniform traffic.
pub fn workload_jobs(shape: fg_sched::WorkloadShape) -> Vec<fg_sched::JobSpec> {
    let names: Vec<&str> = SCHED_APPS.iter().map(|a| a.name()).collect();
    fg_sched::WorkloadSpec::shaped_scaled(shape, fg_sched::LoadLevel::Medium, &names, 42, 12, 25)
        .generate()
}

/// One plain `ext-workload` scheduler run over a shaped stream, with
/// the workload-shape instruments armed.
pub fn workload_run(
    policy: fg_sched::Policy,
    shape: fg_sched::WorkloadShape,
) -> fg_sched::sched::SchedResult {
    let grid = fg_sched::GridSpec::demo(sched_models());
    fg_sched::Scheduler::new(grid, policy).with_workload_metrics().run(&workload_jobs(shape))
}

/// The migration arm of `ext-workload`: FCFS-backfill with quotas and
/// preemption armed and the fast repository degraded to 10% — the
/// `migrate_run` experiment re-cast onto a shaped stream.
pub fn workload_migrate_run(
    shape: fg_sched::WorkloadShape,
    migrate: bool,
) -> fg_sched::sched::SchedResult {
    let grid = fg_sched::GridSpec::demo(sched_models());
    let quotas = vec![fg_sched::TenantQuota { capacity: 1000.0, refill_per_sec: 1.0 }; 12];
    let mut sched = fg_sched::Scheduler::new(grid, fg_sched::Policy::FcfsBackfill)
        .with_quotas(quotas)
        .with_preemption(2.0)
        .with_degradation(fg_sched::Degradation { repo: 0, start: 0.0, factor: 0.1 });
    if migrate {
        sched = sched.with_migration(fg_sched::MigrationConfig::default());
    }
    sched.run(&workload_jobs(shape))
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
pub fn ext_workload() -> Figure {
    use fg_sched::{Policy, WorkloadShape};
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    for shape in WorkloadShape::ALL {
        let jobs = workload_jobs(shape);
        let stats = fg_sched::replay::stats_of(&jobs);
        let fcfs = workload_run(Policy::Fcfs, shape);
        let edf = workload_run(Policy::EdfAdmit, shape);
        let moved = workload_migrate_run(shape, true);
        let stayed = workload_migrate_run(shape, false);

        let fcfs_p99 = p99(fcfs.outcomes.iter().filter_map(|o| o.slowdown()).collect());
        let edf_admitted: Vec<_> = edf.outcomes.iter().filter(|o| o.admitted).collect();
        let met = edf_admitted.iter().filter(|o| o.met_deadline() == Some(true)).count();
        let precision = met as f64 / edf_admitted.len().max(1) as f64;
        let errors: Vec<f64> = edf_admitted.iter().filter_map(|o| o.completion_error()).collect();
        let mean_error = errors.iter().sum::<f64>() / errors.len().max(1) as f64;

        let mean_slowdown = |r: &fg_sched::sched::SchedResult| {
            let s: Vec<f64> = r.outcomes.iter().filter_map(|o| o.slowdown()).collect();
            s.iter().sum::<f64>() / s.len().max(1) as f64
        };
        let benefit = mean_slowdown(&stayed) / mean_slowdown(&moved);

        let mut admitted_per_tenant = vec![0.0f64; 12];
        for o in moved.outcomes.iter().filter(|o| o.admitted) {
            admitted_per_tenant[o.tenant] += 1.0;
        }
        let fairness = jain(&admitted_per_tenant);

        let quota_violations = [&moved, &stayed]
            .iter()
            .map(|r| r.trace.metrics.counter("sched_quota_violations").unwrap_or(0))
            .sum::<u64>();
        let violations = fcfs.violations.len()
            + edf.violations.len()
            + moved.violations.len()
            + stayed.violations.len()
            + quota_violations as usize;

        rows.push((
            shape.name().to_string(),
            vec![fcfs_p99, precision, mean_error, benefit, fairness, violations as f64],
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
            moved.trace.metrics.counter("sched_migrations").unwrap_or(0),
            fcfs.makespan,
        ));
    }
    Figure {
        id: "ext-workload".into(),
        title: "Extension: trace-shaped workloads — FCFS tail latency, EDF admission precision, migration benefit, and quota fairness under heavy-tailed and bursty traffic vs the legacy uniform preset (12 tenants x 25 jobs, medium aggregate rate, seed 42)".into(),
        columns: vec![
            "fcfs p99 slowdown".into(),
            "edf precision".into(),
            "edf estimate error".into(),
            "migration benefit".into(),
            "quota fairness".into(),
            "violations".into(),
        ],
        rows,
        notes,
    }
}

/// One telemetry-armed scheduler run over a shaped stream. With
/// `degrade` true, repository 0's WAN collapses to 15% of nominal from
/// the stream's median arrival onward — the seeded fault the drift
/// detector must catch. Returns the run and the fault onset instant.
pub fn obs_run(
    shape: fg_sched::WorkloadShape,
    degrade: bool,
) -> (fg_sched::sched::SchedResult, f64) {
    let jobs = workload_jobs(shape);
    let mut arrivals: Vec<f64> = jobs.iter().map(|j| j.arrival).collect();
    arrivals.sort_by(f64::total_cmp);
    let onset = arrivals[arrivals.len() / 2];
    let grid = fg_sched::GridSpec::demo(sched_models());
    let mut sched = fg_sched::Scheduler::new(grid, fg_sched::Policy::Fcfs)
        .with_telemetry(fg_sched::TelemetryConfig::default());
    if degrade {
        sched =
            sched.with_degradation(fg_sched::Degradation { repo: 0, start: onset, factor: 0.15 });
    }
    (sched.run(&jobs), onset)
}

/// Measured overhead of a metrics subscription on the serve quote
/// path: the ratio of subscribed to unsubscribed wall-clock for the
/// same quote stream, minus one. The steady-state cost of a
/// subscription is one atomic epoch load per response, so this should
/// be indistinguishable from noise.
fn quote_overhead(jobs: &[fg_sched::JobSpec], quotes: usize, reps: usize) -> f64 {
    use std::time::Instant;
    let grid = fg_sched::GridSpec::demo(sched_models());
    let apps: Vec<String> = grid.apps.iter().map(|(n, _)| n.clone()).collect();
    let server =
        fg_serve::Server::start(fg_sched::Scheduler::new(grid, fg_sched::Policy::EdfAdmit));
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
    drop(plain_client);
    drop(sub_client);
    drop(feeder);
    server.shutdown();
    subscribed / plain - 1.0
}

/// Extension: the live telemetry plane — drift detection under a
/// seeded WAN degradation.
///
/// One row per workload shape. Per shape: alarms on the fault-free
/// run (the false-positive count, always zero), alarms on the
/// degraded run, how many of those blame a component other than the
/// network (always zero — only the WAN lied), how many degraded-
/// repository completions elapsed between fault onset and the first
/// alarm (detection latency in jobs), and the measured overhead a
/// metrics subscription adds to the serve quote path.
pub fn ext_obs() -> Figure {
    use fg_sched::{Component, WorkloadShape};
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    for shape in WorkloadShape::ALL {
        let (clean, _) = obs_run(shape, false);
        let (degraded, onset) = obs_run(shape, true);
        let clean_report = clean.telemetry.expect("telemetry armed");
        let report = degraded.telemetry.expect("telemetry armed");
        let alarms = &report.snapshot.alarms;
        let off_net = alarms.iter().filter(|a| a.component != Component::Net).count();

        // The degraded repository's wire name, for attributing samples.
        let repo_name = degraded
            .outcomes
            .iter()
            .find_map(|o| o.placement.as_ref().filter(|p| p.repo == 0).map(|p| p.repo_name.clone()))
            .expect("some job ran on repository 0");
        let first = alarms.first();
        let jobs_to_alarm = first.map_or(f64::NAN, |a| {
            report
                .ledger
                .tail(report.ledger.total() as usize)
                .iter()
                .filter(|s| s.repo == repo_name && s.finish > onset && s.finish <= a.at)
                .count() as f64
        });

        let overhead = quote_overhead(&workload_jobs(shape), 4000, 9);

        rows.push((
            shape.name().to_string(),
            vec![
                clean_report.snapshot.alarms.len() as f64,
                alarms.len() as f64,
                off_net as f64,
                jobs_to_alarm,
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
            report
                .ledger
                .tail(report.ledger.total() as usize)
                .iter()
                .filter(|s| s.repo == repo_name)
                .count(),
        ));
    }
    Figure {
        id: "ext-obs".into(),
        title: "Extension: live telemetry — drift detection under a seeded WAN degradation \
                (repository 0 collapses to 15% bandwidth at the median arrival), plus the \
                measured cost of a metrics subscription on the serve quote path"
            .into(),
        columns: vec![
            "clean alarms".into(),
            "alarms".into(),
            "off-net alarms".into(),
            "jobs to alarm".into(),
            "subscriber overhead".into(),
        ],
        rows,
        notes,
    }
}

/// Deterministic incident bundles for the `ext-obs` export: replay
/// each shaped stream through the sans-IO server engine with the same
/// seeded degradation the figure uses, and hand back every bundle the
/// flight recorder cut, rendered as self-contained JSONL.
pub fn obs_incident_bundles(shape: fg_sched::WorkloadShape) -> Vec<String> {
    let jobs = workload_jobs(shape);
    let mut arrivals: Vec<f64> = jobs.iter().map(|j| j.arrival).collect();
    arrivals.sort_by(f64::total_cmp);
    let onset = arrivals[arrivals.len() / 2];
    let grid = fg_sched::GridSpec::demo(sched_models());
    let sched = fg_sched::Scheduler::new(grid, fg_sched::Policy::Fcfs)
        .with_telemetry(fg_sched::TelemetryConfig::default())
        .with_degradation(fg_sched::Degradation { repo: 0, start: onset, factor: 0.15 });
    let mut engine = fg_serve::ServerEngine::new(sched);
    for job in jobs {
        engine.handle(fg_serve::Request::Submit { job });
    }
    engine.handle(fg_serve::Request::Drain);
    engine.take_incidents().iter().map(|b| b.to_jsonl()).collect()
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
pub fn learn_drift_run(
    shape: fg_sched::WorkloadShape,
    policy: fg_sched::Policy,
    predictor: Option<std::sync::Arc<dyn fg_predict::Predictor>>,
) -> (fg_sched::sched::SchedResult, f64) {
    let jobs = workload_jobs(shape);
    let mut arrivals: Vec<f64> = jobs.iter().map(|j| j.arrival).collect();
    arrivals.sort_by(f64::total_cmp);
    let onset = arrivals[arrivals.len() / 2];
    let grid = fg_sched::GridSpec::demo(sched_models());
    let mut sched = fg_sched::Scheduler::new(grid, policy)
        .with_ewma_alpha(LEARN_FROZEN_ALPHA)
        .with_telemetry(fg_sched::TelemetryConfig::default())
        .with_degradation(fg_sched::Degradation { repo: 0, start: onset, factor: 0.15 });
    if let Some(p) = predictor {
        sched = sched.with_predictor(p);
    }
    (sched.run(&jobs), onset)
}

/// Mean relative total-time prediction error over a run's post-onset
/// ledger samples — all of them, both repositories, because a trained
/// predictor steers work away from the drifted link and the accuracy
/// that matters for placement is over everything the scheduler ran.
fn learn_post_onset_err(r: &fg_sched::sched::SchedResult, onset: f64) -> f64 {
    let ledger = &r.telemetry.as_ref().expect("telemetry armed").ledger;
    let errs: Vec<f64> = ledger
        .tail(ledger.total() as usize)
        .iter()
        .filter(|s| s.finish > onset)
        .map(|s| {
            let obs: f64 = s.observed.iter().sum();
            let pred: f64 = s.predicted.iter().sum();
            (obs - pred).abs() / obs
        })
        .collect();
    errs.iter().sum::<f64>() / errs.len().max(1) as f64
}

/// EDF admission precision (deadlines met over jobs admitted).
fn edf_precision(r: &fg_sched::sched::SchedResult) -> f64 {
    let admitted: Vec<_> = r.outcomes.iter().filter(|o| o.admitted).collect();
    let met = admitted.iter().filter(|o| o.met_deadline() == Some(true)).count();
    met as f64 / admitted.len().max(1) as f64
}

/// The `workload_migrate_run` arm under a pluggable predictor, live
/// feedback (migration's trigger *is* the bandwidth re-estimate).
fn learn_migrate_run(
    shape: fg_sched::WorkloadShape,
    migrate: bool,
    predictor: std::sync::Arc<dyn fg_predict::Predictor>,
) -> fg_sched::sched::SchedResult {
    let grid = fg_sched::GridSpec::demo(sched_models());
    let quotas = vec![fg_sched::TenantQuota { capacity: 1000.0, refill_per_sec: 1.0 }; 12];
    let mut sched = fg_sched::Scheduler::new(grid, fg_sched::Policy::FcfsBackfill)
        .with_predictor(predictor)
        .with_quotas(quotas)
        .with_preemption(2.0)
        .with_degradation(fg_sched::Degradation { repo: 0, start: 0.0, factor: 0.1 });
    if migrate {
        sched = sched.with_migration(fg_sched::MigrationConfig::default());
    }
    sched.run(&workload_jobs(shape))
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
pub fn ext_learn() -> Figure {
    use fg_learn::{HybridPredictor, LearnedPredictor};
    use fg_sched::{Policy, WorkloadShape};
    use std::sync::Arc;
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    for shape in WorkloadShape::ALL {
        let (frozen, onset) = learn_drift_run(shape, Policy::Fcfs, None);
        let (hybrid, _) =
            learn_drift_run(shape, Policy::Fcfs, Some(Arc::new(HybridPredictor::default())));
        let learned_model = Arc::new(LearnedPredictor::default());
        let (learned, _) = learn_drift_run(shape, Policy::Fcfs, Some(learned_model.clone()));

        let e_frozen = learn_post_onset_err(&frozen, onset);
        let e_hybrid = learn_post_onset_err(&hybrid, onset);
        let e_learned = learn_post_onset_err(&learned, onset);

        let (edf_frozen, _) = learn_drift_run(shape, Policy::EdfAdmit, None);
        let (edf_hybrid, _) =
            learn_drift_run(shape, Policy::EdfAdmit, Some(Arc::new(HybridPredictor::default())));

        let mean_slowdown = |r: &fg_sched::sched::SchedResult| {
            let s: Vec<f64> = r.outcomes.iter().filter_map(|o| o.slowdown()).collect();
            s.iter().sum::<f64>() / s.len().max(1) as f64
        };
        let moved = learn_migrate_run(shape, true, Arc::new(HybridPredictor::default()));
        let stayed = learn_migrate_run(shape, false, Arc::new(HybridPredictor::default()));
        let benefit = mean_slowdown(&stayed) / mean_slowdown(&moved);

        let violations = [&frozen, &hybrid, &learned, &edf_frozen, &edf_hybrid, &moved, &stayed]
            .iter()
            .map(|r| r.violations.len())
            .sum::<usize>();

        rows.push((
            shape.name().to_string(),
            vec![
                e_frozen,
                e_hybrid,
                e_learned,
                edf_precision(&edf_frozen),
                edf_precision(&edf_hybrid),
                hybrid.makespan / frozen.makespan,
                benefit,
                violations as f64,
            ],
        ));
        notes.push(format!(
            "{}: onset {:.0}s; ledger samples post-onset {} (frozen arm); \
             learned keys trained {}; makespans frozen {:.0}s / hybrid {:.0}s / learned {:.0}s; \
             migrations {}",
            shape.name(),
            onset,
            frozen
                .telemetry
                .as_ref()
                .expect("telemetry armed")
                .ledger
                .tail(frozen.telemetry.as_ref().expect("telemetry armed").ledger.total() as usize)
                .iter()
                .filter(|s| s.finish > onset)
                .count(),
            learned_model.trained_keys(),
            frozen.makespan,
            hybrid.makespan,
            learned.makespan,
            moved.trace.metrics.counter("sched_migrations").unwrap_or(0),
        ));
    }
    Figure {
        id: "ext-learn".into(),
        title: "Extension: online learned predictors — prediction error and placement quality \
                under the seeded WAN drift (repository 0 to 15% bandwidth at the median \
                arrival, scheduler bandwidth feedback frozen), analytical vs EWMA-residual \
                hybrid vs per-(app, repo) ridge regression"
            .into(),
        columns: vec![
            "analytical err".into(),
            "hybrid err".into(),
            "learned err".into(),
            "edf precision frozen".into(),
            "edf precision hybrid".into(),
            "hybrid makespan x".into(),
            "migration benefit".into(),
            "violations".into(),
        ],
        rows,
        notes,
    }
}

/// A registry entry: figure id plus its generator.
pub type FigureEntry = (&'static str, fn() -> Figure);

/// The full registry: figure id → generator, in paper order.
pub fn registry() -> Vec<FigureEntry> {
    fn fig2() -> Figure {
        model_error_figure("fig2", PaperApp::KMeans, 1400.0)
    }
    fn fig3() -> Figure {
        model_error_figure("fig3", PaperApp::Vortex, 710.0)
    }
    fn fig4() -> Figure {
        model_error_figure("fig4", PaperApp::Defect, 130.0)
    }
    fn fig5() -> Figure {
        model_error_figure("fig5", PaperApp::Em, 1400.0)
    }
    fn fig6() -> Figure {
        model_error_figure("fig6", PaperApp::Knn, 1400.0)
    }
    fn fig7() -> Figure {
        dataset_scaling_figure("fig7", PaperApp::Em, 350.0, 1400.0)
    }
    fn fig8() -> Figure {
        dataset_scaling_figure("fig8", PaperApp::Defect, 130.0, 1800.0)
    }
    fn fig9() -> Figure {
        // 500 Kbps -> 250 Kbps, as labeled in the paper.
        bandwidth_figure("fig9", PaperApp::Defect, 130.0, 62.5e3, 31.25e3)
    }
    fn fig10() -> Figure {
        bandwidth_figure("fig10", PaperApp::Em, 1400.0, 62.5e3, 31.25e3)
    }
    fn fig11() -> Figure {
        hetero_figure(
            "fig11",
            PaperApp::Em,
            Configuration::new(8, 8),
            350.0,
            700.0,
            &[PaperApp::KMeans, PaperApp::Knn, PaperApp::Vortex],
        )
    }
    fn fig12() -> Figure {
        hetero_figure(
            "fig12",
            PaperApp::Defect,
            Configuration::new(4, 4),
            130.0,
            1800.0,
            &[PaperApp::KMeans, PaperApp::Knn, PaperApp::Em],
        )
    }
    fn fig13() -> Figure {
        hetero_figure(
            "fig13",
            PaperApp::Vortex,
            Configuration::new(1, 1),
            710.0,
            1850.0,
            &[PaperApp::KMeans, PaperApp::Knn, PaperApp::Em],
        )
    }
    vec![
        ("fig2", fig2),
        ("fig3", fig3),
        ("fig4", fig4),
        ("fig5", fig5),
        ("fig6", fig6),
        ("fig7", fig7),
        ("fig8", fig8),
        ("fig9", fig9),
        ("fig10", fig10),
        ("fig11", fig11),
        ("fig12", fig12),
        ("fig13", fig13),
        ("sc-table", sc_table),
        ("ablate-robj", ablate_robj_class),
        ("ablate-tg", ablate_tg_class),
        ("ablate-disk", ablate_disk_cap),
        ("ablate-granularity", ablate_granularity),
        ("ext-cache", ext_cache_plans),
        ("ext-pipeline", ext_pipeline),
        ("ext-faults", ext_faults),
        ("ext-trace", ext_trace),
        ("ext-sched", ext_sched),
        ("ext-migrate", ext_migrate),
        ("ext-workload", ext_workload),
        ("ext-obs", ext_obs),
        ("ext-learn", ext_learn),
    ]
}
