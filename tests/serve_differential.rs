//! The service determinism contract, checked from outside every
//! crate: replaying a workload through fg-serve's wire protocol —
//! frames, the core thread, session threads answering reads from the
//! snapshot it publishes — produces a schedule **bit-identical** to
//! calling `Scheduler::run` directly on the same jobs. Outcomes, makespan
//! bits, violations, and the full trace JSONL must all match, across
//! every workload shape, with prediction queries deliberately
//! interleaved to prove reads never perturb the schedule.

use fg_bench::figures::sched_models;
use fg_serve::{replay, ClientError, ServeClient, Server};
use freeride_g::sched::{
    GridSpec, JobSpec, LoadLevel, Policy, Scheduler, WorkloadShape, WorkloadSpec,
};

fn demo_sched(policy: Policy) -> Scheduler {
    Scheduler::new(GridSpec::demo(sched_models()), policy)
}

fn shaped_jobs(shape: WorkloadShape, load: LoadLevel, seed: u64) -> Vec<JobSpec> {
    let grid = GridSpec::demo(sched_models());
    let names: Vec<&str> = grid.apps.iter().map(|(n, _)| n.as_str()).collect();
    WorkloadSpec::shaped(shape, load, &names, seed).generate()
}

#[test]
fn served_schedules_are_bit_identical_across_every_shape() {
    for shape in WorkloadShape::ALL {
        let jobs = shaped_jobs(shape, LoadLevel::Medium, 42);
        let direct = demo_sched(Policy::EdfAdmit).run(&jobs);

        let server = Server::start(demo_sched(Policy::EdfAdmit));
        // quote_every interleaves reads with submissions: answered
        // from snapshots by the session thread, they must not move a
        // single bit of the schedule.
        let served = replay(&server, &jobs, Some(7)).expect("replay succeeds");
        server.shutdown();

        assert_eq!(
            serde_json::to_string(&*direct.outcomes).unwrap(),
            serde_json::to_string(&served.drained.outcomes).unwrap(),
            "{}: outcomes diverged",
            shape.name()
        );
        assert_eq!(
            direct.makespan.to_bits(),
            served.drained.makespan.to_bits(),
            "{}: makespan diverged",
            shape.name()
        );
        assert_eq!(direct.violations, served.drained.violations, "{}", shape.name());
        // With the rows and the makespan, the metrics are the last input
        // of the span tree: equal inputs build the same tree.
        assert_eq!(direct.trace.metrics, served.drained.metrics, "{}: metrics", shape.name());

        // The wire acknowledgements agree with the final outcomes.
        assert_eq!(served.submits.len(), jobs.len());
        for (ack, outcome) in served.submits.iter().zip(direct.outcomes.iter()) {
            assert_eq!(ack.id, outcome.id);
            assert_eq!(ack.admitted, outcome.admitted);
            assert_eq!(
                ack.admission_estimate.map(f64::to_bits),
                outcome.admission_estimate.map(f64::to_bits)
            );
        }
    }
}

#[test]
fn the_streamed_event_log_matches_the_outcomes() {
    let jobs = shaped_jobs(WorkloadShape::HeavyTail, LoadLevel::Light, 7);
    let direct = demo_sched(Policy::FcfsBackfill).run(&jobs);
    let server = Server::start(demo_sched(Policy::FcfsBackfill));
    let served = replay(&server, &jobs, None).expect("replay succeeds");
    server.shutdown();

    use freeride_g::sched::CoreEvent;
    let submitted: Vec<usize> = served
        .events
        .iter()
        .filter_map(|e| match e {
            CoreEvent::Submitted { id, .. } => Some(*id),
            _ => None,
        })
        .collect();
    assert_eq!(submitted, (0..jobs.len()).collect::<Vec<_>>(), "one Submitted event per job");

    let completed =
        served.events.iter().filter(|e| matches!(e, CoreEvent::Completed { .. })).count();
    let finished = direct.outcomes.iter().filter(|o| o.finish.is_some()).count();
    assert_eq!(completed, finished, "one Completed event per finished job");

    // Placement events carry the same instants the outcomes record.
    for e in &served.events {
        if let CoreEvent::Placed { id, at, predicted, .. } = e {
            let o = &direct.outcomes[*id];
            assert_eq!(o.placed_at.map(f64::to_bits), Some(at.to_bits()), "job {id}");
            // The first placement's prediction; preempted jobs get
            // re-placed, so only check jobs with a single placement.
            if o.preemptions.is_empty() && o.migration.is_none() {
                assert_eq!(o.predicted.map(f64::to_bits), Some(predicted.to_bits()), "job {id}");
            }
        }
    }
}

/// The admission-quote contract: a quote for job B's parameters taken
/// *after* job A's acknowledgement, with B arriving at the same
/// instant as A, equals B's actual admission estimate bit for bit.
/// This leans on two guarantees — the core parks its event loop before
/// the scheduling pass so the quote sees exactly the state B's arrival
/// block will see, and the server publishes the fresh snapshot before
/// acknowledging A.
#[test]
fn a_quote_taken_between_submissions_is_the_admission_estimate() {
    let jobs = shaped_jobs(WorkloadShape::Uniform, LoadLevel::Medium, 11);
    let (a, b) = (&jobs[4], &jobs[5]);

    let server = Server::start(demo_sched(Policy::EdfAdmit));
    let mut client = ServeClient::connect(&server);
    for j in &jobs[..4] {
        client.submit(j.clone()).expect("submit");
    }
    let a = a.clone();
    let mut b = b.clone();
    // Force the equal-arrival case: B lands in the same arrival batch
    // as A, the exact situation where a naive incremental loop would
    // diverge from the batch scheduler.
    b.arrival = a.arrival;

    client.submit(a).expect("submit A");
    let quote = client
        .quote(&b.app, b.dataset_bytes, b.deadline_slack)
        .expect("quote call")
        .expect("app is known");
    let ack = client.submit(b).expect("submit B");

    let estimate = ack.admission_estimate.expect("EdfAdmit computes estimates");
    assert_eq!(
        quote.estimate.to_bits(),
        estimate.to_bits(),
        "quote {} != admission estimate {estimate}",
        quote.estimate
    );
    assert_eq!(quote.would_admit, Some(ack.admitted));

    client.drain().expect("drain");
    drop(client);
    server.shutdown();
}

/// Invalid submissions are rejected with a typed reason over the wire
/// and leave the session fully usable.
#[test]
fn out_of_order_submissions_fail_loudly_without_killing_the_session() {
    let jobs = shaped_jobs(WorkloadShape::Bursty, LoadLevel::Light, 3);
    let server = Server::start(demo_sched(Policy::Fcfs));
    let mut client = ServeClient::connect(&server);

    client.submit(jobs[5].clone()).expect("submit");
    let err = client.submit(jobs[0].clone()).expect_err("arrival went backwards");
    assert!(err.to_string().contains("behind the accepted stream"), "typed reason: {err}");

    // The failed submission left no residue: the remaining stream
    // still replays and drains.
    for j in &jobs[6..] {
        client.submit(j.clone()).expect("later submissions still work");
    }
    let drained = client.drain().expect("drain");
    assert_eq!(drained.outcomes.len(), jobs.len() - 5);
    drop(client);
    server.shutdown();
}

/// A job `Workload::replay` would refuse is refused at the wire too —
/// the JSON codec round-trips `nan`, and a NaN slack used to defeat
/// EDF admission (`estimate > NaN` is false) while the quote for the
/// same job said the opposite. Each refusal names the field, counts
/// nothing, and leaves the session usable.
#[test]
fn malformed_jobs_are_refused_at_submit_and_quoted_as_none() {
    let jobs = shaped_jobs(WorkloadShape::Uniform, LoadLevel::Light, 5);
    let server = Server::start(demo_sched(Policy::EdfAdmit));
    let mut client = ServeClient::connect(&server);
    client.submit(jobs[0].clone()).expect("a well-formed job");
    let submitted = client.stats().expect("stats").submitted;

    for slack in [f64::NAN, 0.5, f64::NEG_INFINITY] {
        let bad = JobSpec { deadline_slack: slack, ..jobs[1].clone() };
        match client.submit(bad) {
            Err(ClientError::Server(reason)) => {
                assert!(reason.contains("deadline slack"), "slack {slack}: {reason}")
            }
            other => panic!("slack {slack} must be refused, got {other:?}"),
        }
    }
    match client.submit(JobSpec { dataset_bytes: 0, ..jobs[1].clone() }) {
        Err(ClientError::Server(reason)) => assert!(reason.contains("dataset"), "{reason}"),
        other => panic!("an empty dataset must be refused, got {other:?}"),
    }
    assert_eq!(client.stats().expect("stats").submitted, submitted, "refusals count nothing");

    let (app, bytes) = (&jobs[1].app, jobs[1].dataset_bytes);
    assert_eq!(client.quote(app, bytes, f64::NAN).expect("quote call"), None);
    assert!(client.quote(app, bytes, 2.0).expect("quote call").is_some());

    // The refused id is still free: the well-formed job goes through.
    client.submit(jobs[1].clone()).expect("the session is still usable");
    assert_eq!(client.stats().expect("stats").submitted, submitted + 1);
    client.drain().expect("drain");
    drop(client);
    server.shutdown();
}
