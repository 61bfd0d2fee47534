//! `fg` — command-line front end for the FREERIDE-G reproduction.
//!
//! ```text
//! fg apps                                   list applications
//! fg run    --app em --mb 700 --config 4-8  execute and show the timeline
//! fg profile --app em --mb 700 [--json P]   collect a 1-1 profile
//! fg predict --app em --mb 700 --config 8-16 [--bw MBps]
//!                                           profile at 1-1, predict the
//!                                           target, verify with a real run
//! fg select --app em --mb 700               rank the paper grid
//! ```
//!
//! All sizes are nominal megabytes (the paper's labels); data is
//! generated at 1/100 scale. The simulated testbed is the paper's
//! Pentium/Myrinet cluster.

use fg_bench::{pentium_deployment, PaperApp};
use freeride_g::chunks::Dataset;
use freeride_g::cluster::{Configuration, Deployment};
use freeride_g::middleware::{timeline, ExecutionReport};
use freeride_g::predict::{
    rank_deployments, relative_error, ComputeModel, ExecTimePredictor, InterconnectParams, Profile,
    Target,
};
use std::collections::HashMap;
use std::process::ExitCode;

const SCALE: f64 = 0.01;
const DEFAULT_BW_MBPS: f64 = 40.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match Options::parse(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match (command.as_str(), opts.app, opts.config) {
        ("apps", ..) => {
            for app in PaperApp::ALL {
                let c = app.classes();
                println!("{:<8} {:?} object, {:?} global reduction", app.name(), c.obj, c.global);
            }
        }
        ("run", Some(app), Some(cfg)) => print!("{}", timeline::render(&execute(app, cfg, &opts))),
        ("profile", Some(app), _) => return cmd_profile(app, &opts),
        ("predict", Some(app), Some(cfg)) => cmd_predict(app, cfg, &opts),
        ("select", Some(app), _) => cmd_select(app, &opts),
        (cmd @ ("run" | "predict"), ..) => {
            eprintln!("{cmd} needs --app and --config\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
        (cmd @ ("profile" | "select"), ..) => {
            eprintln!("{cmd} needs --app\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
        (other, ..) => {
            eprintln!("error: unknown command {other:?}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

const USAGE: &str = "usage:
  fg apps
  fg run     --app <name> --mb <nominal-MB> --config <n-c> [--bw <MB/s>]
  fg profile --app <name> --mb <nominal-MB> [--json <path>] [--bw <MB/s>]
  fg predict --app <name> --mb <nominal-MB> --config <n-c> [--bw <MB/s>]
  fg select  --app <name> --mb <nominal-MB> [--bw <MB/s>]";

struct Options {
    /// `None` when missing or not an app `fg apps` lists.
    app: Option<PaperApp>,
    mb: f64,
    config: Option<Configuration>,
    bw: f64,
    json: Option<String>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut opts =
            Options { app: None, mb: 200.0, config: None, bw: DEFAULT_BW_MBPS * 1e6, json: None };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next().map(String::as_str).ok_or_else(|| format!("flag {flag} needs a value"))
            };
            match flag.as_str() {
                "--app" => opts.app = PaperApp::parse(value()?),
                "--mb" => {
                    opts.mb = value()?.parse().map_err(|e| format!("bad --mb: {e}"))?;
                    if opts.mb <= 0.0 {
                        return Err("--mb must be positive".into());
                    }
                }
                "--config" => {
                    let v = value()?.to_string();
                    let (n, c) = v
                        .split_once('-')
                        .ok_or_else(|| format!("bad --config {v:?}, expected n-c"))?;
                    let n: usize = n.parse().map_err(|e| format!("bad --config: {e}"))?;
                    let c: usize = c.parse().map_err(|e| format!("bad --config: {e}"))?;
                    opts.config = Some(Configuration::new(n, c));
                }
                "--bw" => {
                    let mbps: f64 = value()?.parse().map_err(|e| format!("bad --bw: {e}"))?;
                    if mbps <= 0.0 {
                        return Err("--bw must be positive".into());
                    }
                    opts.bw = mbps * 1e6;
                }
                "--json" => opts.json = Some(value()?.to_string()),
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(opts)
    }
}

fn deployment(cfg: Configuration, bw: f64) -> Deployment {
    pentium_deployment(cfg.data_nodes, cfg.compute_nodes, bw)
}

/// The app's dataset at `--mb` nominal megabytes.
fn dataset(app: PaperApp, opts: &Options) -> Dataset {
    app.generate(&format!("cli-{}-{}", app.name(), opts.mb), opts.mb, SCALE, 42)
}

/// Generate the dataset and execute on a configuration.
fn execute(app: PaperApp, cfg: Configuration, opts: &Options) -> ExecutionReport {
    app.execute(deployment(cfg, opts.bw), &dataset(app, opts))
}

fn cmd_profile(app: PaperApp, opts: &Options) -> ExitCode {
    let profile = Profile::from_report(&execute(app, Configuration::new(1, 1), opts));
    println!(
        "profile {} 1-1 @ {:.0} MB: t_d={:.2}s t_n={:.2}s t_c={:.2}s \
         (t_ro={:.3}s t_g={:.3}s), rho={} B, {} passes",
        app.name(),
        opts.mb,
        profile.t_disk,
        profile.t_network,
        profile.t_compute,
        profile.t_ro,
        profile.t_g,
        profile.max_obj_bytes,
        profile.passes
    );
    if let Some(path) = &opts.json {
        let json = serde_json::to_string_pretty(&profile).expect("serialize profile");
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("profile written to {path}");
    }
    ExitCode::SUCCESS
}

fn cmd_predict(app: PaperApp, cfg: Configuration, opts: &Options) {
    let predictor = ExecTimePredictor {
        profile: Profile::from_report(&execute(app, Configuration::new(1, 1), opts)),
        classes: app.classes(),
        interconnect: InterconnectParams::of_site(&pentium_deployment(1, 1, opts.bw).compute),
        model: ComputeModel::GlobalReduction,
    };
    let target = Target {
        data_nodes: cfg.data_nodes,
        compute_nodes: cfg.compute_nodes,
        wan_bw: opts.bw,
        dataset_bytes: dataset(app, opts).logical_bytes(),
    };
    let predicted = predictor.predict(&target);
    println!(
        "predicted {}: T_disk={:.2}s T_network={:.2}s T_compute={:.2}s total={:.2}s",
        cfg.label(),
        predicted.t_disk,
        predicted.t_network,
        predicted.t_compute,
        predicted.total()
    );
    let actual = execute(app, cfg, opts).total().as_secs_f64();
    println!(
        "actual    {}: total={actual:.2}s  (error {:.2}%)",
        cfg.label(),
        relative_error(actual, predicted.total()) * 100.0
    );
}

fn cmd_select(app: PaperApp, opts: &Options) {
    let profile = Profile::from_report(&execute(app, Configuration::new(1, 1), opts));
    let deployments: Vec<Deployment> =
        Configuration::paper_grid().into_iter().map(|cfg| deployment(cfg, opts.bw)).collect();
    let bytes = dataset(app, opts).logical_bytes();
    let ranked = rank_deployments(&profile, app.classes(), &deployments, bytes, &HashMap::new());
    println!("deployments ranked by predicted cost ({} @ {:.0} MB):", app.name(), opts.mb);
    for (i, cand) in ranked.iter().enumerate() {
        println!(
            "  {:>2}. {:<6} {:>10.1}s  (disk {:>7.1}s net {:>7.1}s compute {:>8.1}s)",
            i + 1,
            cand.deployment.config.label(),
            cand.cost(),
            cand.predicted.t_disk,
            cand.predicted.t_network,
            cand.predicted.t_compute
        );
    }
}
