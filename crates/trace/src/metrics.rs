//! A run's metrics: counters, gauges, and fixed-bucket histograms, as
//! one plain owned value.
//!
//! Whoever records a run holds its [`Metrics`] directly and writes to
//! it through three recorders — [`add`](Metrics::add),
//! [`set`](Metrics::set) and [`observe`](Metrics::observe) — each of
//! which creates its instrument on first use, in name order. The value
//! is therefore its own deterministic snapshot. No external
//! dependencies, consistent with the workspace's vendored-only policy.

use serde::{required, Deserialize, Reader, Serialize};
use std::fmt::Write as _;

/// A fixed-bucket histogram of real observations.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Histogram {
    /// Instrument name.
    pub name: String,
    /// Finite bucket upper bounds, strictly increasing; an implicit
    /// overflow bucket catches everything above the last one.
    pub bounds: Vec<f64>,
    /// Per-bucket counts (`bounds.len() + 1`, last is overflow).
    pub counts: Vec<u64>,
    /// Sum of observations.
    pub sum: f64,
}

impl Histogram {
    /// An empty histogram named `name` over `bounds`, which must be
    /// finite and strictly increasing.
    pub fn new(name: &str, bounds: &[f64]) -> Histogram {
        assert!(bounds_ok(bounds), "histogram bounds must be finite and strictly increasing");
        Histogram {
            name: name.to_string(),
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
        }
    }

    /// Record one observation into the first bucket whose upper bound
    /// is `>= value`. Non-finite values (NaN, ±∞) are dropped: a single
    /// NaN folded into `sum` would poison it for the rest of the run.
    pub fn observe(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.counts[self.bounds.partition_point(|&b| b < value)] += 1;
        self.sum += value;
    }

    /// Total observations across all buckets.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Bucket-interpolated quantile estimate for `q ∈ [0, 1]`: walk
    /// the cumulative counts to the bucket holding the target rank and
    /// interpolate linearly inside it. A rank landing in the unbounded
    /// overflow bucket answers the last finite edge — a floor on the
    /// true value. `None` when the histogram is empty, `q` is out of
    /// range, or there is no finite edge to answer with.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        quantile(&self.bounds, &self.counts, q)
    }
}

/// The one definition of a bucket-interpolated quantile, over per-bucket
/// `counts` (`bounds.len() + 1`, last is overflow): behind both
/// [`Histogram::quantile`] and
/// [`SlidingHistogram::quantile`](crate::SlidingHistogram::quantile).
pub(crate) fn quantile(bounds: &[f64], counts: &[u64], q: f64) -> Option<f64> {
    let total: u64 = counts.iter().sum();
    if !(0.0..=1.0).contains(&q) || total == 0 {
        return None;
    }
    let rank = q * total as f64;
    let mut cumulative = 0u64;
    for (i, (&count, &hi)) in counts.iter().zip(bounds).enumerate() {
        let next = cumulative + count;
        if (next as f64) >= rank && count > 0 {
            let lo = if i == 0 { 0.0 } else { bounds[i - 1] };
            let into = (rank - cumulative as f64) / count as f64;
            return Some(lo + (hi - lo) * into.clamp(0.0, 1.0));
        }
        cumulative = next;
    }
    // Saturated: the rank is in the overflow bucket.
    bounds.last().copied()
}

/// Finite and strictly increasing: what a histogram's bounds must be.
pub(crate) fn bounds_ok(bounds: &[f64]) -> bool {
    bounds.iter().all(|b| b.is_finite()) && bounds.windows(2).all(|w| w[0] < w[1])
}

/// A run's instrument values, each list sorted by name.
///
/// Decoding refuses a value no recorder could have written (see
/// [`Metrics::check`]), so a malformed record read from a file or off
/// the wire is an error where it is read, not a panic in a later
/// [`Histogram::quantile`].
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct Metrics {
    /// Counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram states, sorted by name.
    pub histograms: Vec<Histogram>,
}

/// The entry named `name` in the name-sorted `items`, inserted in
/// order with `new` on first use.
fn entry<'a, T>(
    items: &'a mut Vec<T>,
    name: &str,
    key: impl Fn(&T) -> &str,
    new: impl FnOnce() -> T,
) -> &'a mut T {
    let i = items.binary_search_by(|item| key(item).cmp(name)).unwrap_or_else(|i| {
        items.insert(i, new());
        i
    });
    &mut items[i]
}

impl Deserialize for Metrics {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, serde::Error> {
        let (mut counters, mut gauges, mut histograms) = (None, None, None);
        let mut more = r.object_start("Metrics")?;
        while more {
            match &*r.key()? {
                "counters" => r.field(&mut counters)?,
                "gauges" => r.field(&mut gauges)?,
                "histograms" => r.field(&mut histograms)?,
                _ => r.skip_value()?,
            }
            more = r.object_more()?;
        }
        let metrics = Metrics {
            counters: required(counters, "counters", "Metrics")?,
            gauges: required(gauges, "gauges", "Metrics")?,
            histograms: required(histograms, "histograms", "Metrics")?,
        };
        metrics.check().map_err(serde::Error::custom)?;
        Ok(metrics)
    }
}

impl Metrics {
    /// Add `by` to the counter `name`, created at zero on first use.
    pub fn add(&mut self, name: &str, by: u64) {
        entry(&mut self.counters, name, |(n, _)| n, || (name.to_string(), 0)).1 += by;
    }

    /// Set the gauge `name`, created on first use.
    pub fn set(&mut self, name: &str, value: f64) {
        entry(&mut self.gauges, name, |(n, _)| n, || (name.to_string(), 0.0)).1 = value;
    }

    /// Record `value` in the histogram `name`, created with `bounds` on
    /// first use (later calls keep the existing bounds).
    pub fn observe(&mut self, name: &str, bounds: &[f64], value: f64) {
        entry(&mut self.histograms, name, |h| &h.name, || Histogram::new(name, bounds))
            .observe(value);
    }

    /// A counter's value, if it was recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// A gauge's value, if it was recorded.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// A histogram's state, if it was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Why no sequence of recorder calls could have produced this
    /// value, if none could: names unsorted or repeated, histogram
    /// bounds not finite and strictly increasing, or a histogram with
    /// other than `bounds.len() + 1` counts. Every decode runs it.
    pub fn check(&self) -> Result<(), String> {
        let sorted = |what: &str, names: Vec<&str>| match names.windows(2).find(|w| w[0] >= w[1]) {
            Some(w) => Err(format!("{what} {:?} is out of name order or repeated", w[1])),
            None => Ok(()),
        };
        sorted("counter", self.counters.iter().map(|(n, _)| n.as_str()).collect())?;
        sorted("gauge", self.gauges.iter().map(|(n, _)| n.as_str()).collect())?;
        sorted("histogram", self.histograms.iter().map(|h| h.name.as_str()).collect())?;
        for h in &self.histograms {
            if !bounds_ok(&h.bounds) {
                return Err(format!("histogram {:?}: bounds not finite and increasing", h.name));
            }
            if h.counts.len() != h.bounds.len() + 1 {
                return Err(format!(
                    "histogram {:?}: {} counts for {} bounds",
                    h.name,
                    h.counts.len(),
                    h.bounds.len()
                ));
            }
        }
        Ok(())
    }

    /// Render as a Prometheus-style text exposition (for logs and the
    /// `trace_dump` example).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "{name} {v}");
        }
        for h in &self.histograms {
            let mut cumulative = 0u64;
            for (i, count) in h.counts.iter().enumerate() {
                cumulative += count;
                let le = h.bounds.get(i).map_or("+Inf".to_string(), f64::to_string);
                let _ = writeln!(out, "{}_bucket{{le=\"{le}\"}} {cumulative}", h.name);
            }
            let _ = writeln!(out, "{}_sum {}", h.name, h.sum);
            let _ = writeln!(out, "{}_count {cumulative}", h.name);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::default();
        m.add("passes", 1);
        m.add("passes", 2);
        assert_eq!(m.counter("passes"), Some(3));
        assert_eq!(m.counter("missing"), None);
    }

    #[test]
    fn gauges_keep_the_last_value() {
        let mut m = Metrics::default();
        m.set("nodes", 4.0);
        m.set("nodes", 8.0);
        assert_eq!(m.gauge("nodes"), Some(8.0));
        assert_eq!(m.gauge("missing"), None);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut m = Metrics::default();
        for v in [0.5, 5.0, 50.0] {
            m.observe("pass_seconds", &[1.0, 10.0], v);
        }
        let h = m.histogram("pass_seconds").unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum, 55.5);
        assert_eq!(h.counts, vec![1, 1, 1]);
    }

    #[test]
    fn non_finite_observations_cannot_poison_the_sum() {
        // Regression: one NaN folded into `sum` made it NaN for the
        // rest of the run (and +∞ is just as sticky); every later
        // snapshot and text rendering carried the poison.
        let mut h = Histogram::new("t", &[1.0, 10.0]);
        for v in [5.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.5] {
            h.observe(v);
        }
        assert_eq!(h.counts, vec![1, 1, 0], "dropped values must not occupy buckets");
        assert_eq!(h.sum, 5.5);
    }

    #[test]
    fn partition_point_bucketing_matches_the_linear_scan() {
        // Bound-exact, mid-bucket, below-all, and above-all values land
        // where `position(|b| value <= b)` put them.
        let bounds = [1.0, 5.0, 25.0];
        let linear = |v: f64| bounds.iter().position(|&b| v <= b).unwrap_or(bounds.len());
        for v in [0.0, 0.5, 1.0, 1.5, 5.0, 7.0, 25.0, 26.0, 1e12] {
            let mut h = Histogram::new("t", &bounds);
            h.observe(v);
            assert_eq!(h.counts[linear(v)], 1, "value {v} should land in bucket {}", linear(v));
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_rejected() {
        Histogram::new("bad", &[2.0, 1.0]);
    }

    #[test]
    fn instruments_are_kept_in_name_order() {
        let mut m = Metrics::default();
        m.add("z", 1);
        m.add("a", 1);
        m.add("m", 1);
        m.observe("y", &[1.0], 0.5);
        m.observe("b", &[1.0], 0.5);
        let names: Vec<&str> = m.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a", "m", "z"]);
        assert_eq!(m.histograms[0].name, "b");
        assert_eq!(m.check(), Ok(()));
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let mut h = Histogram::new("q", &[10.0, 20.0, 40.0]);
        // 10 observations in (0,10], 10 in (10,20]: the median sits at
        // the 10/20 boundary, p25 halfway into the first bucket.
        for i in 0..10 {
            h.observe(i as f64 + 0.5);
            h.observe(10.0 + i as f64 + 0.5);
        }
        assert_eq!(h.count(), 20);
        assert!((h.quantile(0.5).unwrap() - 10.0).abs() < 1e-9);
        assert!((h.quantile(0.25).unwrap() - 5.0).abs() < 1e-9);
        assert!((h.quantile(1.0).unwrap() - 20.0).abs() < 1e-9);
        assert_eq!(h.quantile(1.5), None);
        // Overflow observations report the last edge, never +inf.
        h.observe(1e9);
        assert_eq!(h.quantile(1.0), Some(40.0));
    }

    #[test]
    fn empty_histograms_have_no_quantiles() {
        // Regression (edge-case audit): "no data" must not impersonate
        // a reading of 0.0.
        let h = Histogram::new("e", &[1.0, 10.0]);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), None);
        }
        assert_eq!(Histogram::default().quantile(0.5), None);
    }

    #[test]
    fn single_sample_quantiles_stay_inside_their_bucket() {
        let mut h = Histogram::new("s", &[1.0, 10.0]);
        h.observe(5.0);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            let v = h.quantile(q).unwrap();
            assert!((1.0..=10.0).contains(&v), "q={q} escaped the bucket: {v}");
        }
    }

    #[test]
    fn saturated_top_buckets_answer_their_floor() {
        // All mass in the unbounded overflow bucket: the histogram can
        // only name a floor — a defensible lower bound — not a
        // fabricated interpolation.
        let mut h = Histogram::new("sat", &[1.0, 10.0]);
        h.observe(1e9);
        assert_eq!(h.quantile(0.5), Some(10.0));
        // A histogram with no finite buckets has nothing to clamp to.
        let mut boundless = Histogram::new("b", &[]);
        boundless.observe(30.0);
        assert_eq!(boundless.quantile(0.5), None);
    }

    #[test]
    fn text_rendering_includes_every_instrument() {
        let mut m = Metrics::default();
        m.add("passes", 2);
        m.set("bw", 1e6);
        m.observe("t", &[1.0], 0.5);
        let text = m.render_text();
        assert!(text.contains("passes 2"));
        assert!(text.contains("bw 1000000"));
        assert!(text.contains("t_bucket{le=\"1\"} 1"));
        assert!(text.contains("t_count 1"));
    }
}
