//! The predictor-accuracy ledger's determinism contract, checked from
//! outside every crate: a ledger rebuilt from its own JSONL dump is
//! bit-identical to the live one (same EWMA state, same alarms, same
//! re-dump bytes), telemetry-armed clean runs never raise a drift
//! alarm on any workload shape, and a seeded WAN degradation raises
//! alarms only on the network component — the predictor's disk and
//! compute terms stay calibrated when only the WAN lies.

use fg_bench::figures::sched_models;
use freeride_g::sched::{
    AccuracyLedger, AccuracySample, Component, Degradation, DriftConfig, GridSpec, JobSpec,
    LoadLevel, Policy, Scheduler, TelemetryConfig, WorkloadShape, WorkloadSpec,
};
use proptest::prelude::*;

/// SplitMix64 value well (the vendored proptest has no combinator
/// strategies): one drawn seed fans out into sample fields.
struct Well(u64);

impl Well {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A positive duration with awkward mantissa bits.
    fn secs(&mut self) -> f64 {
        0.05 + (self.next() % 1_000_000) as f64 / 9973.0
    }

    /// A sample over a small key space so EWMA chains get long enough
    /// to make replay order-sensitivity observable.
    fn sample(&mut self, i: usize) -> AccuracySample {
        let apps = ["kmeans", "apriori"];
        let repos = ["repo-0", "repo-1"];
        let predicted = [self.secs(), self.secs(), self.secs()];
        // Observed = predicted scaled by a per-component factor in
        // roughly [0.5, 2): residuals big enough to move the EWMA,
        // occasionally big enough to trip an alarm (replay must then
        // re-raise it identically).
        let observed = [
            predicted[0] * (0.5 + (self.next() % 150) as f64 / 100.0),
            predicted[1] * (0.5 + (self.next() % 150) as f64 / 100.0),
            predicted[2] * (0.5 + (self.next() % 150) as f64 / 100.0),
        ];
        let placed_at = self.secs();
        AccuracySample {
            seq: 0, // the ledger assigns ingestion order
            id: i,
            tenant: (self.next() % 4) as usize,
            app: apps[(self.next() % 2) as usize].into(),
            repo: repos[(self.next() % 2) as usize].into(),
            config: "demo".into(),
            dataset_bytes: self.next() % (1 << 32),
            predicted,
            observed,
            placed_at,
            finish: placed_at + observed.iter().sum::<f64>(),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Rebuild-from-dump is a fixpoint: replaying a ledger's JSONL
    /// dump reproduces the EWMA state, the alarm history, and the
    /// dump bytes themselves, bit for bit. (Holds as long as nothing
    /// was evicted — the dump carries only retained samples — so the
    /// sample count stays under the per-key capacity here.)
    #[test]
    fn a_ledger_rebuilt_from_its_dump_is_bit_identical(seed in any::<u64>()) {
        let mut w = Well(seed);
        let mut live = AccuracyLedger::new(DriftConfig::default());
        let n = 1 + (w.next() % 48) as usize;
        for i in 0..n {
            let s = w.sample(i);
            live.ingest(s);
        }

        let dump = live.dump_jsonl();
        let rebuilt = AccuracyLedger::replay_jsonl(&dump).expect("dump replays");

        prop_assert_eq!(rebuilt.total(), live.total());
        prop_assert_eq!(rebuilt.key_drift(), live.key_drift());
        prop_assert_eq!(rebuilt.alarms(), live.alarms());
        // The re-dump is a fixpoint: byte-identical to the original.
        prop_assert_eq!(rebuilt.dump_jsonl(), dump);
    }
}

fn shaped_jobs(shape: WorkloadShape, seed: u64) -> Vec<JobSpec> {
    let grid = GridSpec::demo(sched_models());
    let names: Vec<&str> = grid.apps.iter().map(|(n, _)| n.as_str()).collect();
    WorkloadSpec::shaped(shape, LoadLevel::Medium, &names, seed).generate()
}

/// A fault-free run never trips the drift detector, on any workload
/// shape: every completion lands in the ledger, yet the alarm list
/// stays empty — the z-gate's whole point is to stay quiet while the
/// predictor is honest.
#[test]
fn clean_runs_never_raise_a_drift_alarm_on_any_shape() {
    for shape in WorkloadShape::ALL {
        for seed in [3, 17] {
            let jobs = shaped_jobs(shape, seed);
            let result = Scheduler::new(GridSpec::demo(sched_models()), Policy::EdfAdmit)
                .with_telemetry(TelemetryConfig::default())
                .run(&jobs);
            let report = result.telemetry.expect("telemetry was armed");
            assert!(
                report.snapshot.samples > 0,
                "{} seed {seed}: completions must reach the ledger",
                shape.name()
            );
            assert!(
                report.snapshot.alarms.is_empty(),
                "{} seed {seed}: clean run tripped {:?}",
                shape.name(),
                report.snapshot.alarms
            );
            assert!(report.ledger.alarms().is_empty());
        }
    }
}

/// A seeded WAN degradation mid-run trips the drift detector, and
/// every alarm blames the network component — the disk and compute
/// terms of the prediction stayed honest, so the ledger must not smear
/// the fault across them.
#[test]
fn a_wan_degradation_raises_net_alarms_only() {
    let grid = GridSpec::demo(sched_models());
    let jobs =
        WorkloadSpec::shaped(WorkloadShape::Uniform, LoadLevel::Heavy, &["kmeans"], 9).generate();
    // Onset at the median arrival: enough clean completions first to
    // build per-key baselines, enough faulted ones after to trip.
    let mut arrivals: Vec<f64> = jobs.iter().map(|j| j.arrival).collect();
    arrivals.sort_by(f64::total_cmp);
    let onset = arrivals[arrivals.len() / 2];

    // The degraded repository serves only a handful of this stream's
    // jobs, so shorten the detector's warm-up; everything else stays
    // at the defaults.
    let mut telemetry = TelemetryConfig::default();
    telemetry.drift.min_samples = 3;

    let clean =
        Scheduler::new(grid.clone(), Policy::Fcfs).with_telemetry(telemetry.clone()).run(&jobs);
    let report = clean.telemetry.expect("telemetry armed");
    assert!(report.snapshot.alarms.is_empty(), "no fault, no alarm");

    let degraded = Scheduler::new(grid, Policy::Fcfs)
        .with_telemetry(telemetry)
        .with_degradation(Degradation { repo: 0, start: onset, factor: 0.15 })
        .run(&jobs);
    let report = degraded.telemetry.expect("telemetry armed");
    assert!(
        !report.snapshot.alarms.is_empty(),
        "a 6.7x WAN slowdown must trip the drift detector (ledger: {:?})",
        report.ledger.key_drift()
    );
    for alarm in &report.snapshot.alarms {
        assert_eq!(alarm.component, Component::Net, "only the WAN lied: {alarm:?}");
        assert!(alarm.at >= onset, "alarm {alarm:?} predates the fault at {onset}");
        assert_eq!(alarm.repo, "repo-a", "the degraded repository is to blame: {alarm:?}");
    }
}
