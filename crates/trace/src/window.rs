//! Sliding-window metrics: a histogram over a ring of fixed-width time
//! buckets.
//!
//! The cumulative instruments in [`metrics`](crate::metrics) answer
//! "how many, ever?" — the right shape for a run summary, the wrong
//! shape for a live dashboard, where a deadline-violation spike an
//! hour ago must not drown out the last minute. [`SlidingHistogram`]
//! keeps the most recent `buckets × bucket_width` seconds of
//! observations and forgets the rest, bucket by bucket, as the clock
//! advances.
//!
//! Time is supplied by the caller on every call (`now` in seconds):
//! the scheduler feeds its sim clock, a wall-clock consumer feeds
//! `Instant`-derived seconds. Nothing here reads a clock, so the
//! windows stay deterministic under the sim clock — the property
//! the flight recorder's golden tests lean on. Clocks must not run
//! backwards: a `now` earlier than the newest bucket is clamped into
//! it rather than resurrecting expired history.

use crate::metrics::{bounds_ok, Histogram};

/// The shape of a sliding window: `buckets` ring slots, each covering
/// `bucket_width` seconds of time, for a total span of
/// `buckets × bucket_width`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSpec {
    /// Width of one time bucket, in seconds. Must be positive.
    pub bucket_width: f64,
    /// Number of buckets in the ring. Must be at least one.
    pub buckets: usize,
}

/// Per-bucket state of a [`SlidingHistogram`]: observation counts per
/// value bucket (`bounds.len() + 1`, last is overflow, allocated on the
/// bucket's first observation) plus the sum.
#[derive(Debug, Clone, PartialEq, Default)]
struct HistSlot {
    counts: Vec<u64>,
    sum: f64,
}

/// A fixed-bound histogram over a sliding time window: observations
/// land in the time bucket of their timestamp, and every read merges
/// the buckets still inside the window — so
/// [`quantile`](SlidingHistogram::quantile), which shares its
/// interpolation with [`Histogram::quantile`], inherits the cumulative
/// histogram's answers *and* its edge-case handling (empty windows
/// answer `None`, not 0.0).
#[derive(Debug, Clone, PartialEq)]
pub struct SlidingHistogram {
    bucket_width: f64,
    bounds: Vec<f64>,
    /// Absolute bucket index (since t=0) of the newest slot;
    /// `u64::MAX` until the first observation or read.
    head: u64,
    slots: Vec<HistSlot>,
}

impl SlidingHistogram {
    /// A windowed histogram of `spec`'s shape with the given finite,
    /// strictly increasing value bucket bounds.
    pub fn new(spec: WindowSpec, bounds: &[f64]) -> SlidingHistogram {
        assert!(
            spec.bucket_width.is_finite() && spec.bucket_width > 0.0,
            "bucket width must be positive and finite"
        );
        assert!(spec.buckets >= 1, "a window needs at least one bucket");
        assert!(bounds_ok(bounds), "histogram bounds must be finite and strictly increasing");
        SlidingHistogram {
            bucket_width: spec.bucket_width,
            bounds: bounds.to_vec(),
            head: u64::MAX,
            slots: vec![HistSlot::default(); spec.buckets],
        }
    }

    /// Rotate the ring so the slot for `now`'s bucket is current,
    /// clearing every bucket the clock skipped over. Returns the slot
    /// index for `now` (clamped into the newest bucket if `now` is in
    /// the past — time does not run backwards here).
    fn advance(&mut self, now: f64) -> usize {
        let epoch = (now / self.bucket_width).floor().max(0.0) as u64;
        let n = self.slots.len() as u64;
        if self.head == u64::MAX {
            self.head = epoch;
        } else if epoch > self.head {
            for i in 1..=(epoch - self.head).min(n) {
                self.slots[((self.head + i) % n) as usize] = HistSlot::default();
            }
            self.head = epoch;
        }
        (self.head % n) as usize
    }

    /// Record `value` at instant `now`. Non-finite values are dropped.
    pub fn observe(&mut self, now: f64, value: f64) {
        if !value.is_finite() {
            return;
        }
        let idx = self.advance(now);
        let slot = &mut self.slots[idx];
        if slot.counts.is_empty() {
            slot.counts = vec![0; self.bounds.len() + 1];
        }
        let b = self.bounds.partition_point(|&b| b < value);
        slot.counts[b] += 1;
        slot.sum += value;
    }

    /// The live buckets' counts summed into one buffer, and their sum.
    fn merge(&mut self, now: f64) -> (Vec<u64>, f64) {
        self.advance(now);
        let mut counts = vec![0u64; self.bounds.len() + 1];
        let mut sum = 0.0;
        for slot in self.slots.iter().filter(|s| !s.counts.is_empty()) {
            for (c, s) in counts.iter_mut().zip(&slot.counts) {
                *c += s;
            }
            sum += slot.sum;
        }
        (counts, sum)
    }

    /// Merge the live buckets into one frozen histogram named `name`.
    pub fn merged(&mut self, now: f64, name: &str) -> Histogram {
        let (counts, sum) = self.merge(now);
        Histogram { name: name.to_string(), bounds: self.bounds.clone(), counts, sum }
    }

    /// Bucket-interpolated quantile over the window ending at `now`;
    /// `None` when the window is empty or `q` is out of range (see
    /// [`Histogram::quantile`]). Builds no [`Histogram`]: one counts
    /// buffer, read by the same interpolation.
    pub fn quantile(&mut self, now: f64, q: f64) -> Option<f64> {
        let (counts, _) = self.merge(now);
        crate::metrics::quantile(&self.bounds, &counts, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WindowSpec {
        WindowSpec { bucket_width: 10.0, buckets: 6 } // 60-second window
    }

    fn count(h: &mut SlidingHistogram, now: f64) -> u64 {
        h.merged(now, "w").count()
    }

    #[test]
    fn a_long_silence_clears_everything() {
        let mut h = SlidingHistogram::new(spec(), &[1.0]);
        h.observe(0.0, 0.5);
        h.observe(0.0, 3.0);
        assert_eq!(count(&mut h, 1e9), 0);
        assert_eq!(h.merged(1e9, "w").counts, vec![0, 0]);
    }

    #[test]
    fn time_cannot_run_backwards() {
        let mut h = SlidingHistogram::new(spec(), &[1.0]);
        h.observe(50.0, 0.5);
        // A stale timestamp lands in the newest bucket, not a revived
        // old one — and must not panic or corrupt the ring.
        h.observe(3.0, 3.0);
        assert_eq!(h.merged(50.0, "w").counts, vec![1, 1]);
        // At 60 s the bucket of t=3 has rotated out, the newest has not:
        // the stale value lives exactly as long as the bucket it landed in.
        assert_eq!(h.merged(60.0, "w").counts, vec![1, 1]);
        assert_eq!(count(&mut h, 110.0), 0);
    }

    #[test]
    fn non_finite_values_are_dropped() {
        let mut h = SlidingHistogram::new(spec(), &[1.0]);
        h.observe(0.0, f64::NAN);
        h.observe(0.0, f64::INFINITY);
        h.observe(0.0, f64::NEG_INFINITY);
        h.observe(0.0, 2.0);
        let m = h.merged(0.0, "w");
        assert_eq!(m.counts, vec![0, 1]);
        assert_eq!(m.sum, 2.0);
    }

    #[test]
    fn histogram_quantile_tracks_the_window() {
        let mut h = SlidingHistogram::new(spec(), &[1.0, 10.0, 100.0]);
        for _ in 0..99 {
            h.observe(5.0, 0.5);
        }
        h.observe(5.0, 50.0);
        let p99 = h.quantile(5.0, 0.99).unwrap();
        assert!(p99 <= 1.0, "99 of 100 samples are below 1.0, got {p99}");
        // Once the early mass expires, the window is empty: typed None,
        // never a silent zero.
        assert_eq!(h.quantile(500.0, 0.99), None);
    }

    #[test]
    fn histogram_merges_across_buckets() {
        let mut h = SlidingHistogram::new(spec(), &[10.0, 20.0]);
        for i in 0..10 {
            h.observe(i as f64, 5.0); // bucket epochs 0..=0
            h.observe(10.0 + i as f64, 15.0); // epoch 1
        }
        assert_eq!(count(&mut h, 19.0), 20);
        let m = h.merged(19.0, "w");
        assert_eq!(m.counts, vec![10, 10, 0]);
        assert!((m.sum - 200.0).abs() < 1e-9);
        let median = m.quantile(0.5).unwrap();
        assert!((median - 10.0).abs() < 1e-9, "median at the bucket edge, got {median}");
    }

    #[test]
    fn determinism_identical_feeds_are_bit_identical() {
        let feed: Vec<(f64, f64)> = (0..500).map(|i| (i as f64 * 0.37, (i % 17) as f64)).collect();
        let run = |feed: &[(f64, f64)]| {
            let mut h = SlidingHistogram::new(spec(), &[2.0, 8.0, 16.0]);
            for &(t, v) in feed {
                h.observe(t, v);
            }
            h
        };
        assert_eq!(run(&feed), run(&feed));
    }

    #[test]
    fn quantile_is_the_merged_histograms_quantile_bit_for_bit() {
        let mut h = SlidingHistogram::new(spec(), &[2.0, 8.0, 16.0]);
        for i in 0..400 {
            let t = i as f64 * 0.37;
            h.observe(t, (i % 23) as f64);
            for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0, 1.5] {
                let want = h.merged(t, "w").quantile(q).map(f64::to_bits);
                assert_eq!(h.quantile(t, q).map(f64::to_bits), want, "q {q} at {t}");
            }
        }
        assert_eq!(h.quantile(1e9, 0.5), None, "an expired window answers None");
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_rejected() {
        SlidingHistogram::new(WindowSpec { bucket_width: 1.0, buckets: 0 }, &[1.0]);
    }
}
