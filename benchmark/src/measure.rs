//! How a number is taken.
//!
//! The benchmark runs on a small shared VM, where a neighbour only ever
//! *slows* work down — by half again or more, for five to fifteen
//! seconds at a stretch, several times a minute. No statistic over
//! whole segments survives that: a run can easily have no quiet second
//! in it. So every timed phase repeats one fixed segment of ops a
//! fixed number of times, each op is timed on its own, and the figures
//! come from the fastest repetition *of each op*; set-up is repeated
//! from scratch a fixed number of times, spread through the run, and
//! the fastest repetition is reported. Both counts are constants of
//! the workload, so the same estimator sees the same number of samples
//! on every commit. README.md has the sizing runs behind these rules.

use std::time::Instant;

/// Fewest timed segments a run reports from, however short `--seconds`.
pub const MIN_SEGMENTS: usize = 8;

/// `peak_rss_mb` is read once this many timed segments have run: the
/// first one already holds the workload's peak (its own result and the
/// warm-up's, both alive).
pub const RSS_AFTER_SEGMENTS: usize = 1;

/// Quantile `q` of an ascending slice by the nearest lower rank;
/// 0 for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q) as usize]
}

pub fn sort(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    quantile_sorted(&sort(v.to_vec()), 0.5)
}

/// Median of a segment's op latencies, in ns.
pub fn median_ns(lat: &mut [u64]) -> f64 {
    if lat.is_empty() {
        return 0.0;
    }
    let mid = (lat.len() - 1) / 2;
    *lat.select_nth_unstable(mid).1 as f64
}

/// Time one call, in ns, as the op loops do around every op.
#[inline(always)]
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_nanos() as u64)
}

/// Median ns per call of `f`, timing `reps` batches of `batch` calls
/// each (a batch amortises the clock read for calls that take tens of
/// nanoseconds).
pub fn ns_per_call(reps: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    let per_call: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                f();
            }
            start.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    median(&per_call)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// FNV-1a over 64-bit words: the digest the output checks compare
/// between segments.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    #[inline]
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    pub fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }
    pub fn opt(&mut self, v: Option<f64>) {
        self.word(v.map_or(u64::MAX, f64::to_bits));
    }
}
