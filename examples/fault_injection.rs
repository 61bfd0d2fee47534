//! Fault injection and recovery: crash two data nodes, throttle the
//! WAN, slow a compute node — and watch the middleware route around all
//! of it; then checkpoint a run whose replica's WAN path collapses and
//! resume it on the replica the prediction framework picks.
//!
//! ```text
//! cargo run --release --example fault_injection
//! ```

use freeride_g::apps::kmeans::{self, KMeansState};
use freeride_g::cluster::{ComputeSite, Configuration, Deployment, RepositorySite, Wan};
use freeride_g::middleware::{timeline, Executor, RunMode, StopPoint, MIGRATION_OVERHEAD};
use freeride_g::predict::{
    decide_migration, try_predict_deployment, AppClasses, InterconnectParams, Prediction, Profile,
};
use freeride_g::sched::MIGRATION_MARGIN;
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

/// The centroids' exact bits: "the same answer" means bit for bit.
fn centroid_bits(state: &KMeansState) -> Vec<u32> {
    state.centroids.iter().flatten().map(|v| v.to_bits()).collect()
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
    let faulty = Executor::new(replica("primary", 40e6, n, c))
        .run_with(&app, &dataset, &schedule, RunMode::Full { trace: false })
        .finished();
    let r = &faulty.report;
    println!(
        "under faults: {:.2}s (detection {:.2}s, straggler recovery {:.2}s)",
        r.total().as_secs_f64(),
        r.t_fault_detection().as_secs_f64(),
        r.t_straggler_recovery().as_secs_f64()
    );
    // Recovery changed the clock, never the answer.
    assert_eq!(
        centroid_bits(&plain.final_state),
        centroid_bits(&faulty.final_state),
        "faults must not change the reduction result"
    );
    println!("reduction result: bit-identical to the fault-free run");
    println!("{}", timeline::render(r));

    // Now close the loop. The primary's WAN path collapses to a tenth of
    // nominal for the whole run; the backup replica's path stays healthy.
    // A collapse belongs to a path, so each replica runs under its own
    // schedule.
    let primary = replica("primary", 40e6, n, c);
    let backup = replica("backup", 25e6, n, c);
    let collapse = FaultSchedule::none().degrade(SimTime::ZERO, SimTime::MAX, 0.1);
    let faults_of = |d: &Deployment| {
        if d.repository.name == primary.repository.name {
            collapse.clone()
        } else {
            FaultSchedule::none()
        }
    };

    // 1. Run on the primary and suspend after the first pass.
    let ck = Executor::new(primary.clone())
        .run_with(&app, &dataset, &collapse, RunMode::Suspend(StopPoint { pass: 1, cursor: 0 }))
        .expect_suspended("k-means runs more than one pass");

    // 2. The first pass's transfer against its prediction gives the
    //    primary path's achievable bandwidth `b̂`. The profile run's
    //    nodes cache the dataset, so its `t_network` is one pass's
    //    transfer and a refetching candidate's prediction is `passes`
    //    of them.
    let profile = Profile::from_report(
        &Executor::new(Deployment::new(
            RepositorySite::pentium_repository("primary", 8),
            ComputeSite::pentium_myrinet("cluster", 16),
            Wan::per_stream(40e6),
            Configuration::new(1, 1),
        ))
        .run(&app, &dataset)
        .report,
    );
    let (classes, factors) = (AppClasses::for_app("kmeans"), HashMap::new());
    let predict = |d: &Deployment| -> Prediction {
        try_predict_deployment(&profile, classes, d.as_ref(), dataset.logical_bytes(), &factors)
            .expect("every replica runs on the profiled machine types")
    };
    let passes = profile.passes as f64;
    let observed = ck.completed[0].network.as_secs_f64();
    let mut degraded = primary.clone();
    degraded.wan.stream_bw *= predict(&primary).t_network / passes / observed;

    // 3. Price the move over the share of the run still ahead: the
    //    passes after the suspended one plus what is left of it.
    let f_rem = (passes - ck.pass_idx as f64 - 1.0 + ck.remaining_fraction()) / passes;
    let checkpoint_bytes = serde_json::to_string(&ck).expect("checkpoint serializes").len();
    let decision = decide_migration(
        f_rem * predict(&degraded).total(),
        &predict(&backup),
        f_rem,
        checkpoint_bytes as u64,
        &InterconnectParams::of_site(&primary.compute),
    );
    let winner = if decision.worthwhile(MIGRATION_MARGIN) { &backup } else { &primary };
    println!(
        "primary collapsed to {:.1} MB/s after pass 0: stay {:.1}s vs move {:.1}s -> resume on {}",
        degraded.wan.stream_bw / 1e6,
        decision.stay,
        decision.migrate,
        winner.repository.name
    );

    // 4. Resume on the winner, and for comparison on the collapsed
    //    primary.
    let resume = |d: &Deployment| {
        Executor::new(d.clone())
            .run_with(&app, &dataset, &faults_of(d), RunMode::Resume(ck.clone()))
            .finished()
    };
    let migrated = resume(winner);
    let stayed = resume(&primary);
    println!(
        "resumed on {}: finished in {:.2}s ({:.2}s charged to migration); \
         staying on primary: {:.2}s",
        winner.repository.name,
        migrated.report.total().as_secs_f64(),
        migrated.report.t_migration().as_secs_f64(),
        stayed.report.total().as_secs_f64()
    );
    assert_eq!(
        centroid_bits(&plain.final_state),
        centroid_bits(&migrated.final_state),
        "migration must not change the reduction result"
    );
    assert_eq!(migrated.report.t_migration(), MIGRATION_OVERHEAD, "exactly one migration");
    assert!(
        migrated.report.total() < stayed.report.total(),
        "the replica the cost model picked must finish first"
    );
}
