//! Serde round-trips of the publicly persisted types: profiles (written
//! by `fg profile --json`), execution reports, figure tables, and the
//! checkpoint wire format that migration ships between deployments.

use fg_bench::PaperApp;
use freeride_g::apps::{ann, apriori, defect, em, kmeans, knn, vortex};
use freeride_g::chunks::Dataset;
use freeride_g::cluster::{ComputeSite, Configuration, Deployment, RepositorySite, Wan};
use freeride_g::middleware::{
    Checkpoint, Executor, FaultOptions, ReductionApp, RunOptions, StopPoint,
};
use freeride_g::predict::{Prediction, Profile, ScalingFactors, Target};
use freeride_g::sim::FaultSchedule;
use serde::{Deserialize, Serialize, Value};

fn deployment(n: usize, c: usize) -> Deployment {
    Deployment::new(
        RepositorySite::pentium_repository("repo", 8),
        ComputeSite::pentium_myrinet("cs", 16),
        Wan::per_stream(40e6),
        Configuration::new(n, c),
    )
}

#[test]
fn profile_roundtrips_through_json() {
    let ds = kmeans::generate("ser-km", 50.0, 0.004, 1, 4);
    let app = kmeans::KMeans { k: 4, passes: 3, seed: 1 };
    let report = Executor::new(deployment(2, 4)).run(&app, &ds).report;
    let profile = Profile::from_report(&report);
    let json = serde_json::to_string(&profile).expect("serialize");
    let back: Profile = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(profile, back);
}

#[test]
fn execution_report_roundtrips_preserving_breakdown() {
    let ds = kmeans::generate("ser-rep", 50.0, 0.004, 2, 4);
    let app = kmeans::KMeans { k: 4, passes: 2, seed: 2 };
    let report = Executor::new(deployment(1, 2)).run(&app, &ds).report;
    let json = serde_json::to_string(&report).expect("serialize");
    let back: freeride_g::middleware::ExecutionReport =
        serde_json::from_str(&json).expect("deserialize");
    assert_eq!(report.total(), back.total());
    assert_eq!(report.t_disk(), back.t_disk());
    assert_eq!(report.t_ro(), back.t_ro());
    assert_eq!(report.num_passes(), back.num_passes());
    assert_eq!(report.cache_mode, back.cache_mode);
}

#[test]
fn deployment_roundtrips_with_cache_site() {
    let mut d = deployment(2, 4);
    d.cache = Some(freeride_g::cluster::CacheSite::new(
        RepositorySite::pentium_repository("cache", 4),
        2,
        Wan::per_stream(50e6),
    ));
    let json = serde_json::to_string(&d).expect("serialize");
    let back: Deployment = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(d, back);
}

/// Suspend a run mid-first-pass and push the checkpoint through its
/// wire format: decoding must be lossless (re-serialization is a
/// fixpoint) and the decoded checkpoint must still resume to the
/// uninterrupted run's final state.
fn checkpoint_roundtrip<A>(app: &A, ds: &Dataset)
where
    A: ReductionApp,
    A::State: Serialize + Deserialize,
    A::Obj: Serialize + Deserialize,
{
    let ex = Executor::new(deployment(2, 4));
    let (sched, opts) = (FaultSchedule::none(), FaultOptions::default());
    let stop = StopPoint { pass: 0, cursor: ds.num_chunks() / 2 };
    let ck = ex
        .run_with(app, ds, RunOptions { stop_at: Some(stop), ..RunOptions::new(&sched, &opts) })
        .expect_suspended("every app runs at least one full pass");

    let wire = serde_json::to_value(&ck).expect("checkpoint serializes");
    let back: Checkpoint<A::State, A::Obj> =
        serde_json::from_value(&wire).unwrap_or_else(|e| panic!("{}: decode: {e}", app.name()));
    assert_eq!(
        serde_json::to_value(&back).unwrap(),
        wire,
        "{}: re-serialization must be a fixpoint",
        app.name()
    );
    assert_eq!(back.app, app.name());
    assert_eq!(back.pass_idx, stop.pass);
    assert_eq!(back.cursor, stop.cursor);
    assert_eq!(back.num_chunks, ds.num_chunks());
    assert_eq!(back.partials.len(), 4, "one partial-object vector per compute node");

    let unsplit = ex.run(app, ds);
    let resumed = ex
        .run_with(app, ds, RunOptions { resume_from: Some(back), ..RunOptions::new(&sched, &opts) })
        .finished();
    assert_eq!(
        serde_json::to_value(&resumed.final_state).unwrap(),
        serde_json::to_value(&unsplit.final_state).unwrap(),
        "{}: a decoded checkpoint must resume to the unsplit answer",
        app.name()
    );
}

#[test]
fn checkpoints_roundtrip_for_all_seven_apps() {
    let gen = |app: PaperApp| app.generate(&format!("ser-ck-{}", app.name()), 6.0, 0.01, 37);
    checkpoint_roundtrip(&kmeans::KMeans::paper(7), &gen(PaperApp::KMeans));
    checkpoint_roundtrip(&em::Em::paper(7), &gen(PaperApp::Em));
    checkpoint_roundtrip(&knn::Knn::paper(7), &gen(PaperApp::Knn));
    checkpoint_roundtrip(&vortex::VortexDetect::default(), &gen(PaperApp::Vortex));
    let defect_ds = gen(PaperApp::Defect);
    checkpoint_roundtrip(&defect::DefectDetect::for_dataset(&defect_ds), &defect_ds);
    checkpoint_roundtrip(&apriori::Apriori::standard(), &gen(PaperApp::Apriori));
    checkpoint_roundtrip(&ann::AnnTrain::paper(7), &gen(PaperApp::Ann));
}

fn kmeans_checkpoint() -> (Dataset, Value) {
    let ds = kmeans::generate("ser-ck-corrupt", 50.0, 0.004, 5, 4);
    let app = kmeans::KMeans { k: 4, passes: 3, seed: 5 };
    let (sched, opts) = (FaultSchedule::none(), FaultOptions::default());
    let stop_at = Some(StopPoint { pass: 1, cursor: 3 });
    let ck = Executor::new(deployment(2, 4))
        .run_with(&app, &ds, RunOptions { stop_at, ..RunOptions::new(&sched, &opts) })
        .expect_suspended("three passes reach pass 1");
    let wire = serde_json::to_value(&ck).expect("checkpoint serializes");
    (ds, wire)
}

type KmCheckpoint = Checkpoint<kmeans::KMeansState, kmeans::KMeansObj>;

#[test]
fn truncated_checkpoint_is_rejected() {
    let (_, wire) = kmeans_checkpoint();
    let Value::Object(fields) = wire else { panic!("checkpoint serializes as an object") };
    // A checkpoint cut off mid-write loses its trailing fields; every
    // truncation point must fail decoding with the missing field named.
    for keep in 0..fields.len() {
        let cut = Value::Object(fields[..keep].to_vec());
        let err = serde_json::from_value::<KmCheckpoint>(&cut)
            .err()
            .unwrap_or_else(|| panic!("truncation at {keep} fields must be rejected"));
        assert!(
            err.to_string().contains(&fields[keep].0),
            "error should name the first missing field `{}`: {err}",
            fields[keep].0
        );
    }
}

#[test]
fn corrupt_checkpoint_fields_are_rejected() {
    let (_, wire) = kmeans_checkpoint();
    let Value::Object(fields) = wire else { panic!("checkpoint serializes as an object") };
    for victim in ["cursor", "state", "partials", "elapsed"] {
        let mut bad = fields.clone();
        bad.iter_mut().find(|(k, _)| k == victim).expect("field exists").1 =
            Value::Str("garbage".into());
        assert!(
            serde_json::from_value::<KmCheckpoint>(&Value::Object(bad)).is_err(),
            "type-corrupted `{victim}` must be rejected"
        );
    }
}

#[test]
#[should_panic(expected = "checkpoint cursor out of range")]
fn out_of_range_checkpoint_cursor_is_rejected_at_resume() {
    let (ds, wire) = kmeans_checkpoint();
    let mut ck: KmCheckpoint = serde_json::from_value(&wire).expect("intact wire decodes");
    ck.cursor = ds.num_chunks() + 7;
    let app = kmeans::KMeans { k: 4, passes: 3, seed: 5 };
    let (sched, opts) = (FaultSchedule::none(), FaultOptions::default());
    Executor::new(deployment(2, 4)).run_with(
        &app,
        &ds,
        RunOptions { resume_from: Some(ck), ..RunOptions::new(&sched, &opts) },
    );
}

#[test]
fn model_value_types_roundtrip() {
    let t = Target { data_nodes: 4, compute_nodes: 8, wan_bw: 1e6, dataset_bytes: 42 };
    let p = Prediction { t_disk: 1.5, t_network: 2.5, t_compute: 3.5 };
    let f = ScalingFactors { disk: 0.3, network: 1.0, compute: 0.25 };
    let tt: Target = serde_json::from_str(&serde_json::to_string(&t).unwrap()).unwrap();
    let pp: Prediction = serde_json::from_str(&serde_json::to_string(&p).unwrap()).unwrap();
    let ff: ScalingFactors = serde_json::from_str(&serde_json::to_string(&f).unwrap()).unwrap();
    assert_eq!(t, tt);
    assert_eq!(p, pp);
    assert_eq!(f, ff);
}
