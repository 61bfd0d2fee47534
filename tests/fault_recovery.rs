//! Fault-injection invariants across the whole stack: recovery may
//! change *when* the answer arrives, never *what* it is.
//!
//! The executor keeps the chunk-to-compute-node assignment fixed for
//! the life of a run — crashes, degradation windows, stragglers, and
//! migrations only move the *fetch* side and the clock. These tests pin
//! that contract from outside the crate: any schedule yields the same
//! final reduction state, an empty schedule is bit-identical to the
//! fault-free executor, and a seeded schedule is fully deterministic.

use freeride_g::apps::kmeans;
use freeride_g::chunks::Dataset;
use freeride_g::cluster::{ComputeSite, Configuration, Deployment, RepositorySite, Wan};
use freeride_g::middleware::{Executor, RunMode, RunResult};
use freeride_g::sim::{FaultSchedule, SimDuration, SimTime};
use proptest::prelude::*;

const SCALE: f64 = 0.01;

fn deployment(n: usize, c: usize) -> Deployment {
    Deployment::new(
        RepositorySite::pentium_repository("repo", 8),
        ComputeSite::pentium_myrinet("cs", 16),
        Wan::per_stream(40e6),
        Configuration::new(n, c),
    )
}

/// Like [`deployment`], but with no compute-side storage: every pass
/// refetches over the WAN, so mid-run faults stay observable.
fn refetch_deployment(n: usize, c: usize) -> Deployment {
    let mut site = ComputeSite::pentium_myrinet("cs", 16);
    site.node_storage_bytes = 0;
    Deployment::new(
        RepositorySite::pentium_repository("repo", 8),
        site,
        Wan::per_stream(40e6),
        Configuration::new(n, c),
    )
}

/// Run `app` to completion under `schedule` with default recovery.
fn run_faulty(
    deployment: Deployment,
    app: &kmeans::KMeans,
    ds: &Dataset,
    schedule: &FaultSchedule,
) -> RunResult<kmeans::KMeansState> {
    let full = RunMode::Full { trace: false };
    Executor::new(deployment).run_with(app, ds, schedule, full).finished()
}

fn centroid_bits(state: &kmeans::KMeansState) -> Vec<Vec<u32>> {
    state.centroids.iter().map(|c| c.iter().map(|v| v.to_bits()).collect()).collect()
}

#[test]
fn empty_schedule_is_bit_identical_to_the_fault_free_executor() {
    let ds = kmeans::generate("fr-empty", 20.0, SCALE, 11, 4);
    let app = kmeans::KMeans::paper(11);
    let plain = Executor::new(deployment(4, 8)).run(&app, &ds);
    let faulty = run_faulty(deployment(4, 8), &app, &ds, &FaultSchedule::none());
    assert_eq!(plain.report, faulty.report);
    assert_eq!(centroid_bits(&plain.final_state), centroid_bits(&faulty.final_state));
}

#[test]
fn seeded_schedules_are_deterministic() {
    let ds = kmeans::generate("fr-det", 20.0, SCALE, 12, 4);
    let app = kmeans::KMeans::paper(12);
    let horizon = SimDuration::from_secs(120);
    let schedule = FaultSchedule::random(8, 4, 8, horizon);
    let run = || run_faulty(refetch_deployment(4, 8), &app, &ds, &schedule);
    let (a, b) = (run(), run());
    assert_eq!(a.report, b.report);
    assert_eq!(centroid_bits(&a.final_state), centroid_bits(&b.final_state));
}

#[test]
fn crash_recovery_costs_time_but_not_correctness() {
    let ds = kmeans::generate("fr-crash", 20.0, SCALE, 13, 4);
    let app = kmeans::KMeans::paper(13);
    let plain = Executor::new(refetch_deployment(4, 8)).run(&app, &ds);
    // Two of four data nodes die before the run starts: every pass pays
    // the slower surviving streams, the first pays detection too.
    let schedule = FaultSchedule::none().crash(1, SimTime::ZERO).crash(3, SimTime::ZERO);
    let faulty = run_faulty(refetch_deployment(4, 8), &app, &ds, &schedule);
    assert!(!faulty.report.t_fault_detection().is_zero());
    assert!(faulty.report.total() > plain.report.total());
    assert_eq!(centroid_bits(&plain.final_state), centroid_bits(&faulty.final_state));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline invariant: whatever the schedule throws at the run
    /// — crashes, WAN degradation, stragglers, in any combination — the
    /// final reduction state is bit-for-bit the fault-free one.
    #[test]
    fn any_fault_schedule_preserves_the_reduction_result(seed in 0u64..1000) {
        let ds = kmeans::generate("fr-prop", 8.0, SCALE, 17, 4);
        let app = kmeans::KMeans::paper(17);
        let plain = Executor::new(refetch_deployment(4, 8)).run(&app, &ds);
        let horizon = plain.report.total();
        let schedule = FaultSchedule::random(seed, 4, 8, horizon);
        let faulty = run_faulty(refetch_deployment(4, 8), &app, &ds, &schedule);
        prop_assert_eq!(centroid_bits(&plain.final_state), centroid_bits(&faulty.final_state));
        // Faults never make the run faster.
        prop_assert!(faulty.report.total() >= plain.report.total());
        // And recovery components account exactly for the report's own
        // bookkeeping: total stays the component sum.
        let r = &faulty.report;
        prop_assert_eq!(
            r.total(),
            r.t_disk() + r.t_network() + r.t_compute() + r.t_recovery()
        );
    }

    /// Hand-built single-fault schedules, exercised one dimension at a
    /// time so a regression pinpoints its dimension.
    #[test]
    fn single_faults_preserve_the_reduction_result(
        crash_node in 1usize..4,
        crash_at_ms in 0u64..60_000,
        factor in 0.2f64..1.0,
        slowdown in 1.5f64..8.0,
        straggler in 0usize..8,
    ) {
        let ds = kmeans::generate("fr-single", 8.0, SCALE, 19, 4);
        let app = kmeans::KMeans::paper(19);
        let plain = Executor::new(refetch_deployment(4, 8)).run(&app, &ds);
        let schedules = [
            FaultSchedule::none()
                .crash(crash_node, SimTime::ZERO + SimDuration::from_millis(crash_at_ms)),
            FaultSchedule::none().degrade(
                SimTime::ZERO,
                SimTime::ZERO + SimDuration::from_millis(crash_at_ms + 1),
                factor,
            ),
            FaultSchedule::none().straggler(straggler, slowdown),
        ];
        for schedule in &schedules {
            let faulty = run_faulty(refetch_deployment(4, 8), &app, &ds, schedule);
            prop_assert_eq!(
                centroid_bits(&plain.final_state),
                centroid_bits(&faulty.final_state)
            );
            prop_assert!(faulty.report.total() >= plain.report.total());
        }
    }
}
