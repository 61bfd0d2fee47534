//! Bandwidth estimation feeding the network predictor: the §3.2 loop of
//! "determine `b̂` with a forecaster, then predict `T_network` with it",
//! closed end-to-end against actual executions on a fluctuating WAN.

use freeride_g::apps::knn;
use freeride_g::cluster::{ComputeSite, Configuration, Deployment, RepositorySite, Wan};
use freeride_g::middleware::Executor;
use freeride_g::predict::bandwidth::{synthetic_trace, Ewma};
use freeride_g::predict::{relative_error, Profile};

const SCALE: f64 = 0.004;

fn deployment(n: usize, c: usize, bw: f64) -> Deployment {
    Deployment::new(
        RepositorySite::pentium_repository("repo", 8),
        ComputeSite::pentium_myrinet("cs", 16),
        Wan::per_stream(bw),
        Configuration::new(n, c),
    )
}

/// The end-to-end loop: observe transfer bandwidths from a trace, predict
/// the next run's network time with `b̂`, and compare against the actual
/// network time at the realized bandwidth.
#[test]
fn forecasted_bandwidth_predicts_network_time() {
    let ds = knn::generate("bw-e2e", 350.0, SCALE, 9);
    let app = knn::Knn::paper(9);
    // Profile at the trace's long-run level.
    let mean_bw = 20e6;
    let profile =
        Profile::from_report(&Executor::new(deployment(1, 2, mean_bw)).run(&app, &ds).report);
    let trace = synthetic_trace(mean_bw, 40, 3);
    let mut estimator = Ewma::new(0.4);
    let mut errors = Vec::new();
    for window in trace.windows(2) {
        estimator.observe(window[0]);
        let b_hat = estimator.estimate();
        let b_actual = window[1];
        // Model: T̂_network = (b/b̂) * t_n at the same (n, s).
        let predicted_net = profile.t_network * (profile.wan_bw / b_hat);
        let actual_net = Executor::new(deployment(1, 2, b_actual))
            .run(&app, &ds)
            .report
            .t_network()
            .as_secs_f64();
        errors.push(relative_error(actual_net, predicted_net));
    }
    let mean_err = errors.iter().sum::<f64>() / errors.len() as f64;
    assert!(
        mean_err < 0.20,
        "forecast-driven network predictions too loose: mean {:.1}%",
        mean_err * 100.0
    );
    // And with a *perfect* forecast the model is essentially exact,
    // confirming the residual comes from forecasting, not the model.
    let oracle_err = {
        let b = trace[5];
        let predicted = profile.t_network * (profile.wan_bw / b);
        let actual =
            Executor::new(deployment(1, 2, b)).run(&app, &ds).report.t_network().as_secs_f64();
        relative_error(actual, predicted)
    };
    assert!(oracle_err < 0.01, "oracle bandwidth should be near-exact: {oracle_err}");
}
