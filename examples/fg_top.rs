//! `fg_top`: a terminal dashboard over the live telemetry plane.
//!
//! Starts an `fg-serve` server whose WAN degrades mid-run (repository
//! 0's bandwidth drops to 15% at the median arrival), subscribes the
//! session to metrics, and replays a kmeans workload while rendering
//! the pushed `MetricsSnapshot` stream as a refreshing status panel:
//! core progress counters, the predictor-accuracy ledger's per-key
//! residual means, per-tenant SLO gauges, and every drift alarm the
//! ledger raises as the degradation bites. After the drain it prints
//! the incident bundles the flight recorder cut along the way.
//!
//! ```text
//! cargo run --release --example fg_top
//! ```

use fg_bench::figures::sched_models;
use fg_serve::{IncidentReason, ServeClient, ServeMetrics, Server};
use freeride_g::sched::{
    Degradation, DriftConfig, GridSpec, LoadLevel, Policy, Scheduler, TelemetryConfig,
    WorkloadShape, WorkloadSpec,
};

/// One refresh of the dashboard panel.
fn render(m: &ServeMetrics) {
    let s = &m.stats;
    let t = &m.telemetry;
    println!("── fg-top · epoch {:<6} · t = {:>7.0}s ──────────────────────────", m.epoch, t.now);
    println!(
        "   jobs     submitted {:>4}  admitted {:>4}  completed {:>4}  queued {:>3}  running {:>3}",
        s.submitted, s.admitted, s.completed, s.queued, s.running
    );
    println!("   ledger   {} accuracy samples over {} (app, repo) keys", t.samples, t.keys.len());
    for k in &t.keys {
        println!(
            "            {:<10} @ {:<8}  residual mean  disk {:+.2}  net {:+.2}  comp {:+.2}",
            k.app, k.repo, k.mean[0], k.mean[1], k.mean[2]
        );
    }
    for slo in &t.tenants {
        let p99 = slo.queue_wait_p99.map_or("—".into(), |w| format!("{w:.0}s"));
        println!(
            "   tenant {} completed {:>4}  deadline misses {:>4} ({:>5.1}%)  \
             quote err {:>5.1}%  p99 wait {}",
            slo.tenant,
            slo.completed,
            slo.deadline_violations,
            100.0 * slo.violation_rate,
            100.0 * slo.mean_quote_error,
            p99
        );
    }
    if t.alarms.is_empty() {
        println!("   alarms   none");
    } else {
        println!("   ALARMS   {}", t.alarms.len());
        for a in &t.alarms {
            println!(
                "            {:?} drift: {} via {} at t = {:.0}s  (z {:.1}, residual {:+.2})",
                a.component, a.app, a.repo, a.at, a.z, a.residual
            );
        }
    }
    println!();
}

fn main() {
    // A kmeans-only heavy workload against the demo grid; halfway
    // through the arrivals, repository 0's uplink degrades to 15% of
    // its provisioned bandwidth — the predictor keeps quoting the
    // healthy rate, so observed network times drift away from the
    // predictions and the ledger's alarm gate trips.
    let jobs =
        WorkloadSpec::shaped(WorkloadShape::Uniform, LoadLevel::Heavy, &["kmeans"], 9).generate();
    let mut arrivals: Vec<f64> = jobs.iter().map(|j| j.arrival).collect();
    arrivals.sort_by(f64::total_cmp);
    let onset = arrivals[arrivals.len() / 2];

    let telemetry = TelemetryConfig {
        // Alarm after three samples per key instead of eight: the demo
        // workload is small, and we want detection on screen.
        drift: DriftConfig { min_samples: 3, ..DriftConfig::default() },
    };
    let sched = Scheduler::new(GridSpec::demo(sched_models()), Policy::Fcfs)
        .with_telemetry(telemetry)
        .with_degradation(Degradation { repo: 0, start: onset, factor: 0.15 });
    let server = Server::start(sched);
    let mut client = ServeClient::connect(&server);
    println!("fg-top: {} jobs, WAN degradation on repository 0 from t = {onset:.0}s\n", jobs.len());

    // One submission primes the metrics hub (its acknowledgement
    // proves the core thread has published), then the subscription ack
    // is the first panel.
    client.submit(jobs[0].clone()).expect("submit");
    let ack = client.subscribe_metrics(0).expect("subscribe");
    render(&ack);

    // Stream the rest of the workload; snapshots are pushed behind
    // responses whenever the telemetry epoch advances, and we redraw
    // on the freshest one every few submissions.
    for (i, job) in jobs[1..].iter().enumerate() {
        client.submit(job.clone()).expect("submit");
        if (i + 2) % 8 == 0 {
            if let Some(m) = client.take_metrics().into_iter().next_back() {
                render(&m);
            }
        }
    }

    // The final plane rides behind the drain response: everything
    // admitted has completed, and the alarm log is complete.
    let drained = client.drain().expect("drain");
    let fin = client.recv_metrics().expect("final metrics push");
    render(&fin);
    println!(
        "drained: makespan {:.0}s, {} of {} jobs completed, {} drift alarms",
        drained.makespan,
        fin.stats.completed,
        jobs.len(),
        fin.telemetry.alarms.len()
    );

    // The flight recorder cut one incident bundle per trip — each a
    // self-contained JSONL black box (reason, recent decision events,
    // ledger tail, core stats).
    drop(client);
    let incidents = server.incidents();
    println!("incident bundles: {}", incidents.len());
    for b in &incidents {
        let what = match &b.reason {
            IncidentReason::Drift { alarm } => {
                format!("drift ({} via {})", alarm.app, alarm.repo)
            }
            IncidentReason::SloBreach { tenant, violation_rate, .. } => {
                format!("SLO breach (tenant {tenant}, {:.0}% violations)", 100.0 * violation_rate)
            }
            IncidentReason::DecodePoisoned { error } => format!("decode poisoned ({error})"),
        };
        println!("  t = {:>7.0}s  {what}  [{} events recorded]", b.at, b.events.len());
    }
    server.shutdown();
}
