//! Quote ≡ admission, for every submission: a quote taken from
//! `SchedCore::snapshot()` for job B's parameters, with B arriving at
//! the snapshot's instant, carries B's standalone prediction and
//! admission estimate bit for bit and — under an admitting policy —
//! the verdict B's submission then receives. Walked across every
//! workload shape and three policies with the clock advancing, under
//! the analytical predictor and under a learned one whose epoch moves
//! as the walk's own completions train it.

use fg_bench::figures::{sched_models, workload_jobs};
use fg_learn::LearnedPredictor;
use freeride_g::predict::Predictor;
use freeride_g::sched::{GridSpec, JobSpec, Policy, SchedCore, Scheduler, WorkloadShape};
use std::sync::Arc;

const POLICIES: [Policy; 3] = [Policy::EdfAdmit, Policy::FcfsBackfill, Policy::Spjf];

/// Walk `shape`'s stream in pairs (A, B): submit A at its own arrival
/// so the clock advances, move B onto A's arrival (a quote is priced
/// at the snapshot's instant), quote B, submit B, compare.
fn quotes_match_admissions(shape: WorkloadShape, policy: Policy, sched: Scheduler) {
    let ctx = format!("{} / {policy:?}", shape.name());
    let jobs = workload_jobs(shape);
    assert!(jobs.len() >= 120, "{ctx}: at least 60 pairs");
    let mut core = SchedCore::new(sched);
    for pair in jobs.chunks_exact(2) {
        let (a, mut b) = (pair[0].clone(), pair[1].clone());
        b.arrival = a.arrival;
        core.submit(a).expect("submit A");
        let quote = core
            .snapshot()
            .quote(&b.app, b.dataset_bytes, b.deadline_slack)
            .expect("the grid knows every generated app");
        let id = b.id;
        let ack = core.submit(b).expect("submit B");
        assert_eq!(
            Some(quote.standalone.to_bits()),
            ack.standalone.map(f64::to_bits),
            "{ctx}: job {id} standalone"
        );
        assert_eq!(
            Some(quote.estimate.to_bits()),
            ack.admission_estimate.map(f64::to_bits),
            "{ctx}: job {id} estimate"
        );
        if policy.admits() {
            assert_eq!(quote.would_admit, Some(ack.admitted), "{ctx}: job {id} verdict");
        } else {
            assert_eq!(quote.would_admit, None, "{ctx}: job {id}");
            assert!(ack.admitted, "{ctx}: job {id} — only admitting policies reject on price");
        }
    }

    // An app the grid does not know: no quote, and the submission is
    // rejected for that reason.
    let last = jobs.last().expect("non-empty stream");
    let stranger = JobSpec { id: jobs.len(), app: "no-such-app".into(), ..last.clone() };
    assert_eq!(core.snapshot().quote(&stranger.app, stranger.dataset_bytes, 2.0), None, "{ctx}");
    let ack = core.submit(stranger).expect("a well-formed submission");
    assert!(!ack.admitted, "{ctx}");
    let reason = ack.reject_reason.expect("rejections carry a reason");
    assert!(reason.contains("unknown app"), "{ctx}: {reason}");
}

fn demo_sched(policy: Policy) -> Scheduler {
    Scheduler::new(GridSpec::demo(sched_models()), policy)
}

#[test]
fn every_quote_is_its_admission_under_the_analytical_predictor() {
    for shape in WorkloadShape::ALL {
        for policy in POLICIES {
            quotes_match_admissions(shape, policy, demo_sched(policy));
        }
    }
}

#[test]
fn every_quote_is_its_admission_while_a_learned_predictor_trains() {
    for shape in WorkloadShape::ALL {
        for policy in POLICIES {
            let learned = Arc::new(LearnedPredictor::default());
            let sched = demo_sched(policy).with_predictor(learned.clone());
            quotes_match_admissions(shape, policy, sched);
            assert!(
                learned.epoch() > 0,
                "{} / {policy:?}: the walk's completions never moved the epoch",
                shape.name()
            );
        }
    }
}
