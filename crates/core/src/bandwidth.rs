//! Estimating the achievable WAN bandwidth `b̂`.
//!
//! The network predictor needs the bandwidth available to the *next*
//! data-movement task. §3.2 of the paper: "in recent years, many efforts
//! have focused on determining the effective bandwidth available for a
//! particular data movement task [Dinda, Qiao, Vazhkudai & Schopf] — we
//! can directly use this work to determine `b̂`." This module supplies
//! that ingredient: an EWMA over observed transfer bandwidths (the
//! estimator the scheduler's bandwidth feedback uses), plus a synthetic
//! shared-WAN trace generator to drive it (we have no wide-area
//! testbed, same as the paper).

use fg_sim::rng::stream_rng;
use rand::Rng;

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

    /// Record one observed transfer bandwidth (bytes/sec).
    pub fn observe(&mut self, bw: f64) {
        self.value = Some(match self.value {
            None => bw,
            Some(v) => self.alpha * bw + (1.0 - self.alpha) * v,
        });
    }

    /// Estimate the bandwidth of the next transfer. Panics if called
    /// before any observation.
    pub fn estimate(&self) -> f64 {
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

#[cfg(test)]
mod tests {
    use super::*;

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
        Ewma::new(0.5).estimate();
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
}
