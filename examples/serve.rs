//! The prediction-and-placement service end to end: start an
//! `fg-serve` server, connect a client over the wire protocol, ask for
//! prediction quotes, submit a trace-shaped multi-tenant workload, and
//! drain the session into the same `SchedResult` a direct
//! `Scheduler::run` would have produced — bit for bit.
//!
//! ```text
//! cargo run --release --example serve
//! ```

use fg_bench::figures::sched_models;
use fg_serve::{ServeClient, Server};
use freeride_g::sched::{GridSpec, LoadLevel, Policy, Scheduler, WorkloadShape, WorkloadSpec};

fn main() {
    // The server owns one scheduling session: a demo grid, the
    // EDF-with-admission-control policy, and a decision core that lives
    // on the server's core thread.
    let grid = GridSpec::demo(sched_models());
    let apps: Vec<&str> = grid.apps.iter().map(|(n, _)| n.as_str()).collect();
    let jobs =
        WorkloadSpec::shaped(WorkloadShape::HeavyTail, LoadLevel::Medium, &apps, 42).generate();
    let server = Server::start(Scheduler::new(grid, Policy::EdfAdmit));
    println!("server up: one core thread, one session thread per connection\n");

    let mut client = ServeClient::connect(&server);

    // A quote is a read: the session thread answers it from the
    // snapshot the core last published, so it never perturbs the
    // schedule.
    let probe = &jobs[0];
    let quote = client
        .quote(&probe.app, probe.dataset_bytes, probe.deadline_slack)
        .expect("quote round trip")
        .expect("app is known to the grid");
    println!(
        "quote for {} ({} MB): finish ≈ {:.0}s, would admit: {:?}",
        probe.app,
        probe.dataset_bytes >> 20,
        quote.estimate,
        quote.would_admit,
    );

    // Submissions stream in arrival order; each acknowledgement
    // carries the admission decision and estimate.
    let mut admitted = 0usize;
    for job in &jobs {
        let ack = client.submit(job.clone()).expect("submit round trip");
        admitted += usize::from(ack.admitted);
    }
    println!("submitted {} jobs, {admitted} admitted", jobs.len());

    // Drain runs the schedule to completion and returns the flattened
    // result; the streamed event log holds every decision in order.
    let drained = client.drain().expect("drain round trip");
    let events = client.take_events();
    println!(
        "drained: makespan {:.0}s, {} violations, {} scheduling events streamed",
        drained.makespan,
        drained.violations.len(),
        events.len()
    );

    // The served schedule is bit-identical to driving the scheduler
    // directly — the whole point of the deterministic service layer.
    let direct = Scheduler::new(GridSpec::demo(sched_models()), Policy::EdfAdmit).run(&jobs);
    assert_eq!(direct.makespan.to_bits(), drained.makespan.to_bits());
    println!("\ndirect run makespan matches the served run bit for bit");

    drop(client);
    server.shutdown();
}
