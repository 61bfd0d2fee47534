//! Every input the benchmark feeds the program. The program under
//! test sees only what this module makes.
//!
//! What the inputs *contain* — job traces, preload, datasets — is the
//! workload's definition, generated from the constant [`CONTENT_SEED`];
//! `--seed` deals the *order* the quote requests and the sweep's ops
//! come in. The reason is measured, not chosen: the acceptance check
//! reruns a workload on ten values of `--seed` and reads the spread as
//! noise, and content changes the amount of work far beyond any bound.
//! Ten `sim-learn` traces from ten seeds take 0.58 to 1.02 s per
//! segment (EDF admission admits 4 644 to 9 183 of the 60 000 jobs,
//! the predictor's epoch moves 320 to 3 680 times), and EM's time per
//! pass follows how many responsibilities underflow to subnormals in
//! the generated clusters (`paper-sweep` read 33 to 52 ops/s). A
//! recorded trace is likewise one trace. README.md has the table.

use fg_bench::figures::sched_models;
use fg_sched::{
    GridSpec, JobSpec, LoadLevel, Policy, Scheduler, Workload, WorkloadShape, WorkloadSpec,
};
use fg_sim::rng::stream_rng;
use rand::Rng;

/// Deadline slack every quote asks for, as in `bench_serve`.
pub const QUOTE_SLACK: f64 = 2.0;

/// Jobs submitted to a serving session before quotes are timed, so the
/// snapshot a quote is priced against has a backlog, a running set and
/// EWMA-corrected bandwidths.
pub const PRELOAD_JOBS: (usize, usize) = (8, 32);

/// Seed of every generated trace, preload and dataset.
pub const CONTENT_SEED: u64 = 42;

/// The demo grid over freshly profiled apps, plus the run's `--seed`.
#[derive(Clone)]
pub struct Ctx {
    pub seed: u64,
    pub grid: GridSpec,
}

impl Ctx {
    /// Profile the scheduler's apps (`sched_models`, the one part of
    /// set-up that runs the middleware executor) and build the grid.
    pub fn new(seed: u64) -> Ctx {
        Ctx { seed, grid: GridSpec::demo(sched_models()) }
    }

    pub fn apps(&self) -> Vec<&str> {
        self.grid.apps.iter().map(|(n, _)| n.as_str()).collect()
    }

    pub fn scheduler(&self, policy: Policy) -> Scheduler {
        Scheduler::new(self.grid.clone(), policy)
    }

    /// A trace-shaped spec (Guazzone's heavy-tailed sizes and diurnal
    /// arrivals, through the `WorkloadShape` presets).
    pub fn spec(&self, load: LoadLevel, tenants: usize, jobs_per_tenant: usize) -> WorkloadSpec {
        WorkloadSpec::shaped_scaled(
            WorkloadShape::HeavyTail,
            load,
            &self.apps(),
            CONTENT_SEED,
            tenants,
            jobs_per_tenant,
        )
    }

    /// The jobs a serving session is preloaded with.
    pub fn preload(&self) -> Vec<JobSpec> {
        self.spec(LoadLevel::Heavy, PRELOAD_JOBS.0, PRELOAD_JOBS.1).generate()
    }

    /// A workload loaded the way an operator loads a recorded trace:
    /// generated, dumped to JSONL, and parsed back.
    pub fn replayed(&self, spec: &WorkloadSpec) -> Vec<JobSpec> {
        let text = Workload::from_spec(spec).expect("preset specs are valid").dump_jsonl();
        Workload::replay(&text).expect("a dumped workload replays").jobs
    }

    /// Quote requests as (app index, dataset bytes): `bench_serve`'s
    /// cycle over every app and twelve sizes from 1 MiB to 2 GiB.
    fn quote_requests(&self) -> impl Iterator<Item = (usize, u64)> {
        let napps = self.grid.apps.len();
        (0..).map(move |q| (q % napps, 1u64 << (20 + q % 12)))
    }

    /// Whole turns of the cycle: every distinct request, equally often.
    pub fn quote_cycle(&self) -> Vec<(usize, u64)> {
        self.quote_requests().take(self.grid.apps.len() * 12).collect()
    }

    /// The first `n` requests of the cycle, so each segment prices the
    /// same mix, in an order drawn from `--seed`.
    pub fn quote_stream(&self, n: usize) -> Vec<(usize, u64)> {
        let mut stream: Vec<(usize, u64)> = self.quote_requests().take(n).collect();
        shuffle(&mut stream, self.seed, "benchmark-quote-stream");
        stream
    }
}

/// Fisher–Yates under a seeded stream.
pub fn shuffle<T>(items: &mut [T], seed: u64, label: &str) {
    let mut rng = stream_rng(seed, label);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}
