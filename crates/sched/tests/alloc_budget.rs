//! What a job costs in heap allocations — counted, not timed, so the
//! numbers repeat exactly and a shared machine cannot move them.
//!
//! Three quantities, each as the *margin* between a 1 000-job and a
//! 2 000-job run of the same shape (so whatever a run owns regardless of
//! its length — the grid, the name table, the run's metrics, ledger
//! rings once full — cancels):
//!
//! * the live allocations a [`SchedResult`] owns per job. The job table
//!   is one vector shared by the result's outcomes and its unbuilt
//!   trace, and every name in a row is a reference-count bump on a
//!   string the core made once, so an admitted job owns none and a
//!   rejected one one (its reason is its own text).
//! * the allocations the first read of [`SchedResult::trace`] leaves
//!   live: the span tree, whose only per-job allocation is the `Job`
//!   span's attributes. A second read builds nothing.
//! * the allocations `submit` + `finish` make per job, whether or not
//!   they survive. The ceilings are what was measured plus less than one
//!   allocation a job, so a `String` made per start or per completion
//!   fails here and not in a benchmark.

use fg_learn::LearnedPredictor;
use fg_predict::{AppClasses, Predictor, Profile};
use fg_sched::{
    AppModel, Degradation, GridSpec, JobSpec, LoadLevel, Policy, SchedCore, SchedResult, Scheduler,
    TelemetryConfig, WorkloadShape, WorkloadSpec,
};
use fg_trace::Trace;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// The system allocator, counting per thread (tests run in parallel).
struct Counting;

thread_local! {
    /// Allocations made on this thread.
    static MADE: Cell<u64> = const { Cell::new(0) };
    /// Allocations made on this thread minus allocations freed on it.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are plain thread-local cells
// that neither allocate nor have destructors.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        MADE.with(|c| c.set(c.get() + 1));
        LIVE.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.with(|c| c.set(c.get() - 1));
        // SAFETY: `ptr` came from `System` through `alloc` or `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A block that grows is a call into the allocator, and still one
        // block.
        MADE.with(|c| c.set(c.get() + 1));
        // SAFETY: as for `dealloc`, with the caller's `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn made() -> u64 {
    MADE.with(Cell::get)
}

fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// The demo grid under two toy applications whose profiled times are
/// `secs_per_mb` × (0.8 disk, 0.4 network, 2 or 10 compute): at 1.0 the
/// heavy-tail stream overloads the grid sixfold (a deep backlog), at 0.1
/// an admitting policy admits about four jobs in ten.
fn grid(secs_per_mb: f64) -> GridSpec {
    let kmeans = Profile {
        app: "kmeans".into(),
        data_nodes: 1,
        compute_nodes: 1,
        wan_bw: 1e6,
        dataset_bytes: 1_000_000,
        t_disk: 0.8 * secs_per_mb,
        t_network: 0.4 * secs_per_mb,
        t_compute: 2.0 * secs_per_mb,
        t_ro: 0.0,
        t_g: 0.01 * secs_per_mb,
        max_obj_bytes: 512,
        passes: 1,
        repo_machine: "pentium-700".into(),
        compute_machine: "pentium-700".into(),
    };
    let em = Profile {
        app: "em".into(),
        t_compute: 10.0 * secs_per_mb,
        t_ro: 0.06 * secs_per_mb,
        max_obj_bytes: 40_000,
        passes: 10,
        ..kmeans.clone()
    };
    GridSpec::demo(vec![
        ("em".into(), AppModel { profile: em, classes: AppClasses::LINEAR_CONSTANT_LINEAR }),
        (
            "kmeans".into(),
            AppModel { profile: kmeans, classes: AppClasses::CONSTANT_LINEAR_CONSTANT },
        ),
    ])
}

fn jobs(n: usize) -> Vec<JobSpec> {
    let spec = WorkloadSpec::shaped_scaled(
        WorkloadShape::HeavyTail,
        LoadLevel::Heavy,
        &["em", "kmeans"],
        42,
        10,
        n / 10,
    );
    let mut jobs = spec.generate();
    jobs.sort_by(|a, b| a.arrival.total_cmp(&b.arrival).then(a.id.cmp(&b.id)));
    assert_eq!(jobs.len(), n);
    jobs
}

/// One run's counts.
struct Cost {
    /// Allocations `SchedCore::new` + every `submit` + `finish` made.
    made: u64,
    /// Allocations the result owned (freed by dropping it).
    owned: i64,
    admitted: usize,
}

/// Drive `jobs` through a fresh core of `scheduler` one `submit` at a
/// time and drain it, counting on this thread.
fn run(scheduler: Scheduler, jobs: &[JobSpec], check: impl FnOnce(&SchedResult)) -> Cost {
    let made_before = made();
    let mut core = SchedCore::new(scheduler);
    for job in jobs {
        core.submit(job.clone()).expect("a generated job is accepted");
    }
    let result = core.finish();
    // Each copy handed over was one allocation (the app name), and the
    // caller's, not the core's.
    let made = made() - made_before - jobs.len() as u64;
    assert!(result.violations.is_empty(), "{:?}", result.violations);
    assert_eq!(result.outcomes.len(), jobs.len());
    check(&result);
    let admitted = result.outcomes.iter().filter(|o| o.admitted).count();
    let live_before = live();
    drop(result);
    Cost { made, owned: live_before - live(), admitted }
}

/// Per-job margins between the two runs: allocations made, allocations
/// the result owned, and the share of the extra jobs that was admitted.
fn margins(small: &Cost, large: &Cost, extra_jobs: usize) -> (f64, f64, f64) {
    let per_job = |delta: f64| delta / extra_jobs as f64;
    (
        per_job(large.made as f64 - small.made as f64),
        per_job((large.owned - small.owned) as f64),
        per_job(large.admitted as f64 - small.admitted as f64),
    )
}

/// The backfilling scheduler on the overloaded grid: every job runs.
fn backfill() -> Scheduler {
    Scheduler::new(grid(1.0), Policy::FcfsBackfill)
}

#[test]
fn a_backfilled_job_owns_nothing_and_makes_a_pinned_few() {
    let every_job_ran = |r: &SchedResult| {
        assert!(r.outcomes.iter().all(|o| o.admitted && o.finish.is_some()));
        // Names are shared, not copied: two jobs placed at one
        // repository hold the same string.
        let placed: Vec<_> = r.outcomes.iter().filter_map(|o| o.placement.as_ref()).collect();
        let twin = placed[1..].iter().find(|p| p.repo == placed[0].repo).expect("a shared repo");
        assert!(Arc::ptr_eq(&placed[0].repo_name, &twin.repo_name));
    };
    let small = run(backfill(), &jobs(1_000), every_job_ran);
    let large = run(backfill(), &jobs(2_000), every_job_ran);
    let (made, owned, admitted) = margins(&small, &large, 1_000);
    assert_eq!(admitted, 1.0);
    // Its row lives in the shared table, its names are shared, and its
    // span is not built.
    assert_eq!(owned, 0.0, "a finished job owns {owned} allocations");
    assert!(made <= MADE_PER_BACKFILLED_JOB, "a job costs {made} allocations");
}

#[test]
fn the_first_read_of_the_trace_builds_it_and_a_second_reuses_it() {
    // The allocations the first read leaves live; the second read must
    // make none and return the same tree.
    let built = |n: usize| {
        let mut built = 0;
        run(backfill(), &jobs(n), |r| {
            let before = live();
            let first: &Trace = &r.trace;
            built = live() - before;
            let made_before = made();
            let second: &Trace = &r.trace;
            assert_eq!(made(), made_before, "the second read built the tree again");
            assert!(std::ptr::eq(first, second));
            assert_eq!(first.spans.len(), 1 + 5 * n, "a root, and five spans per job");
        });
        built
    };
    let per_job = (built(2_000) - built(1_000)) as f64 / 1_000.0;
    // Exactly the `Job` span's attributes.
    assert_eq!(per_job, 1.0, "a job's spans own {per_job} allocations");
}

#[test]
fn under_telemetry_and_a_learned_predictor_only_a_rejected_job_owns_its_reason() {
    let learned_run = |jobs: &[JobSpec]| {
        let learned = Arc::new(LearnedPredictor::default());
        let scheduler = Scheduler::new(grid(0.1), Policy::EdfAdmit)
            .with_telemetry(TelemetryConfig::default())
            .with_predictor(Arc::clone(&learned) as Arc<dyn Predictor>)
            .with_degradation(Degradation {
                repo: 0,
                start: jobs[jobs.len() / 2].arrival,
                factor: 0.15,
            });
        let cost = run(scheduler, jobs, |r| {
            let report = r.telemetry.as_ref().expect("telemetry was armed");
            assert!(report.ledger.total() > 100, "{} samples", report.ledger.total());
        });
        assert!(learned.trained_keys() > 0, "the predictor never trained");
        cost
    };
    let (small, large) = (learned_run(&jobs(1_000)), learned_run(&jobs(2_000)));
    let (made, owned, admitted) = margins(&small, &large, 1_000);
    assert!(admitted > 0.25, "the policy admitted only {admitted} of the extra jobs");
    // Nothing for an admitted job, one for a rejected one (its reason);
    // a ledger sample owns nothing.
    assert!(owned <= (1.0 - admitted) + 0.05, "{owned} owned at {admitted} admitted");
    assert!(made <= MADE_PER_LEARNED_JOB, "a job costs {made} allocations");
}

/// Ceilings on the allocations a job costs between `SchedCore::new` and
/// the end of `finish`: the measured margin plus half an allocation.
/// Measured 4.174 and 2.285 (a rejected job never reaches the pass, whose
/// fair-share vectors are three of a started job's four); a debug build
/// adds its redundant guards' scratch (17.374 and 7.753).
const MADE_PER_BACKFILLED_JOB: f64 = if cfg!(debug_assertions) { 17.9 } else { 4.7 };
const MADE_PER_LEARNED_JOB: f64 = if cfg!(debug_assertions) { 8.3 } else { 2.8 };
