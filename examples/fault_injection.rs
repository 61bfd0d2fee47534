//! Fault injection and recovery: crash two data nodes, throttle the
//! WAN, slow a compute node — and watch the middleware route around all
//! of it while the prediction framework migrates to a better replica.
//!
//! ```text
//! cargo run --release --example fault_injection
//! ```

use freeride_g::apps::kmeans;
use freeride_g::cluster::{ComputeSite, Configuration, Deployment, RepositorySite, Wan};
use freeride_g::middleware::{timeline, Executor, FaultOptions, RunOptions};
use freeride_g::predict::bandwidth::Ewma;
use freeride_g::predict::{AppClasses, Profile, ReselectionController};
use freeride_g::sim::{FaultSchedule, SimDuration, SimTime};
use std::collections::HashMap;

/// A replica site. Compute-side storage is disabled so every pass
/// refetches over the WAN — mid-run faults stay visible to every pass.
fn replica(repo_name: &str, wan_bw: f64, n: usize, c: usize) -> Deployment {
    let mut site = ComputeSite::pentium_myrinet("cluster", 16);
    site.node_storage_bytes = 0;
    Deployment::new(
        RepositorySite::pentium_repository(repo_name, 8),
        site,
        Wan::per_stream(wan_bw),
        Configuration::new(n, c),
    )
}

fn main() {
    let dataset = kmeans::generate("faulty-points", 200.0, 0.01, 42, 8);
    let app = kmeans::KMeans::paper(7);
    let (n, c) = (4, 8);

    // Baseline: the fault-free run.
    let plain = Executor::new(replica("primary", 40e6, n, c)).run(&app, &dataset);
    println!("fault-free:  {:.2}s", plain.report.total().as_secs_f64());

    // A hand-built worst day: two data-node crashes at t=0, the WAN at
    // 30% for the first minute, and one compute node 4x slower.
    let schedule = FaultSchedule::none()
        .crash(1, SimTime::ZERO)
        .crash(3, SimTime::ZERO)
        .degrade(SimTime::ZERO, SimTime::ZERO + SimDuration::from_secs(60), 0.3)
        .straggler(5, 4.0);
    let recovery = FaultOptions::default();
    let faulty = Executor::new(replica("primary", 40e6, n, c))
        .run_with(&app, &dataset, RunOptions::new(&schedule, &recovery))
        .finished();
    let r = &faulty.report;
    println!(
        "under faults: {:.2}s (detection {:.2}s, straggler recovery {:.2}s)",
        r.total().as_secs_f64(),
        r.t_fault_detection().as_secs_f64(),
        r.t_straggler_recovery().as_secs_f64()
    );
    // Recovery changed the clock, never the answer.
    for (a, b) in plain.final_state.centroids.iter().zip(faulty.final_state.centroids.iter()) {
        assert_eq!(a, b, "faults must not change the reduction result");
    }
    println!("reduction result: bit-identical to the fault-free run");
    println!("{}", timeline::render(r));

    // Now close the loop: a profile-driven controller watches observed
    // bandwidth and migrates to the backup replica when the primary's
    // WAN path collapses for the rest of the run.
    let profile_run = Executor::new(replica("primary", 40e6, 1, 1)).run(&app, &dataset);
    let profile = Profile::from_report(&profile_run.report);
    let mut controller = ReselectionController::new(
        profile,
        AppClasses::for_app("kmeans"),
        vec![replica("primary", 40e6, n, c), replica("backup", 25e6, n, c)],
        dataset.logical_bytes(),
        HashMap::new(),
        Box::new(Ewma::new(0.5)),
    );
    // The collapse is a window, not a property of the replica: it hits
    // whichever path the run is on. Keep it transient so the controller
    // escapes to the backup once instead of chasing its own tail.
    let collapse = FaultSchedule::none().degrade(
        SimTime::ZERO,
        SimTime::ZERO + SimDuration::from_secs(40),
        0.1,
    );
    let migrated = Executor::new(replica("primary", 40e6, n, c))
        .run_with(
            &app,
            &dataset,
            RunOptions {
                controller: Some(&mut controller),
                ..RunOptions::new(&collapse, &recovery)
            },
        )
        .finished();
    println!(
        "primary collapsed to 4 MB/s: controller migrated {} time(s), finished in {:.2}s \
         ({:.2}s charged to migration)",
        controller.migrations(),
        migrated.report.total().as_secs_f64(),
        migrated.report.t_migration().as_secs_f64()
    );
}
