//! Reading the telemetry plane changes no state: a core whose plane is
//! frozen after every submit and one whose plane is frozen only when
//! [`SchedCore::telemetry_epoch`] moves agree at every move, and their
//! drained runs report the same plane and the same ledger.
//!
//! A read rotates expired buckets out of the per-tenant wait windows,
//! so this is what lets a server skip the reads between completions:
//! the rotation a skipped read would have done is done by the next one.

use fg_predict::{AppClasses, Profile};
use fg_sched::{
    AppModel, Degradation, GridSpec, JobSpec, LoadLevel, Policy, SchedCore, Scheduler,
    TelemetryConfig, WorkloadShape, WorkloadSpec,
};

/// The demo grid under two toy applications: `em` computes five times
/// longer than `kmeans`, and both overload the grid at heavy load.
fn grid() -> GridSpec {
    let kmeans = Profile {
        app: "kmeans".into(),
        data_nodes: 1,
        compute_nodes: 1,
        wan_bw: 1e6,
        dataset_bytes: 1_000_000,
        t_disk: 0.08,
        t_network: 0.04,
        t_compute: 0.2,
        t_ro: 0.0,
        t_g: 0.001,
        max_obj_bytes: 512,
        passes: 1,
        repo_machine: "pentium-700".into(),
        compute_machine: "pentium-700".into(),
    };
    let em = Profile {
        app: "em".into(),
        t_compute: 1.0,
        t_ro: 0.006,
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

fn jobs(shape: WorkloadShape, load: LoadLevel) -> Vec<JobSpec> {
    let spec = WorkloadSpec::shaped_scaled(shape, load, &["em", "kmeans"], 9, 6, 80);
    let mut jobs = spec.generate();
    jobs.sort_by(|a, b| a.arrival.total_cmp(&b.arrival).then(a.id.cmp(&b.id)));
    jobs
}

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serializes")
}

/// Run `jobs` through two cores of `cfg` side by side; returns how
/// often the epoch moved.
fn compare(label: &str, cfg: Scheduler, jobs: &[JobSpec]) -> usize {
    let mut every = SchedCore::new(cfg.clone());
    let mut on_move = SchedCore::new(cfg);
    let (mut last, mut moves) = (on_move.telemetry_epoch(), 0);
    for job in jobs {
        every.submit(job.clone()).expect("a generated job is accepted");
        on_move.submit(job.clone()).expect("a generated job is accepted");
        let read = every.telemetry_snapshot().expect("telemetry is armed");
        let epoch = on_move.telemetry_epoch();
        assert_eq!(read.epoch, epoch, "{label}: the epochs diverged");
        if epoch != last {
            let skipped = on_move.telemetry_snapshot().expect("telemetry is armed");
            assert_eq!(json(&skipped), json(&read), "{label}: planes differ at epoch {epoch}");
            (last, moves) = (epoch, moves + 1);
        }
    }
    let (every, on_move) = (every.finish(), on_move.finish());
    let (every, on_move) = (every.telemetry.as_ref(), on_move.telemetry.as_ref());
    let (every, on_move) = (every.expect("armed"), on_move.expect("armed"));
    assert_eq!(json(&every.snapshot), json(&on_move.snapshot), "{label}: final planes");
    assert_eq!(every, on_move, "{label}: final reports");
    moves
}

#[test]
fn a_plane_read_between_completions_changes_nothing() {
    for shape in WorkloadShape::ALL {
        for policy in [Policy::Fcfs, Policy::FcfsBackfill, Policy::EdfAdmit] {
            let label = format!("{}/{policy:?}", shape.name());
            let cfg = Scheduler::new(grid(), policy).with_telemetry(TelemetryConfig::default());
            let jobs = jobs(shape, LoadLevel::Heavy);
            let moves = compare(&label, cfg, &jobs);
            assert!(moves > 10 && moves < jobs.len(), "{label}: the epoch moved {moves} times");
        }
    }
}

#[test]
fn drift_alarms_survive_skipped_reads() {
    let jobs = jobs(WorkloadShape::Uniform, LoadLevel::Medium);
    let mut telemetry = TelemetryConfig::default();
    telemetry.drift.min_samples = 3;
    let onset = jobs[jobs.len() / 2].arrival;
    let cfg = Scheduler::new(grid(), Policy::Fcfs)
        .with_telemetry(telemetry)
        .with_degradation(Degradation { repo: 0, start: onset, factor: 0.15 });
    compare("uniform/Fcfs degraded", cfg.clone(), &jobs);
    let run = cfg.run(&jobs);
    let report = run.telemetry.as_ref().expect("armed");
    assert!(!report.snapshot.alarms.is_empty(), "the WAN fault raised no drift alarm");
}
