//! The six workloads. Each is a fixed number of segments of a fixed
//! number of ops over generated inputs; `README.md` says why each
//! exists and which layers it is meant to move.

pub mod chain;
pub mod quote;
pub mod replay;
pub mod sim;
pub mod sweep;

/// What one timed segment produced.
pub struct Segment {
    /// Wall seconds of the segment's ops (per-segment preparation such
    /// as cloning the job list or starting a fresh server is outside).
    pub secs: f64,
    /// Ops that failed: an `Error`/`SubmitFailed`/undecodable response,
    /// a `None` quote for a known app, an invariant violation.
    pub failed: u64,
    /// FNV digest of everything the ops returned. Segments repeat the
    /// same ops on the same state, so every segment of a run must
    /// produce the same digest — policy rejections included.
    pub digest: u64,
}

/// A workload the runner can set up, time in segments, and check.
pub trait Workload: Sized {
    /// Ops in one segment.
    const OPS: usize;

    /// Timed segments in a run of `run_seconds`, sized on the build VM
    /// so that they span about that long: a slow stretch of the machine
    /// lasts 5–15 s, and a run must reach past it.
    const SEGMENTS: usize;

    /// From-scratch repetitions of the set-up in a run, about 1.5 s of
    /// them together.
    const SETUP_REPS: usize;

    /// Everything before the first op, from scratch.
    fn setup(seed: u64) -> Self;

    /// Run one segment, pushing the latency (ns) of every timed call
    /// onto `lat`, in the same order every time: one per op, plus any
    /// call that is part of the segment's cost without being an op
    /// (the simulator's `new` and `finish`).
    fn segment(&mut self, lat: &mut Vec<u64>) -> Segment;

    /// Check the outputs of the segments run so far against a
    /// reference computed another way, and score the predictions they
    /// carry against the simulated run: `pred_err_pct`. Runs outside
    /// the timed phase.
    fn verify(&mut self) -> Result<f64, String>;
}
