//! Criterion benchmarks for the service path: frame codec throughput,
//! quote requests through the full wire round trip, and a submit
//! stream replayed end to end. For interactive profiling; `benchmark/`
//! holds the numbers changes are judged by.

use criterion::{criterion_group, criterion_main, Criterion};
use fg_bench::figures::sched_models;
use fg_sched::{GridSpec, LoadLevel, Policy, Scheduler, WorkloadShape, WorkloadSpec};
use fg_serve::frame::{encode_frame, FrameDecoder, FrameKind};
use fg_serve::{replay, ServeClient, Server};
use std::hint::black_box;

fn scheduler() -> Scheduler {
    Scheduler::new(GridSpec::demo(sched_models()), Policy::EdfAdmit)
}

fn frame_codec(c: &mut Criterion) {
    let payload = vec![0x5a_u8; 512];
    c.bench_function("frame-encode-decode-512B", |b| {
        b.iter(|| {
            let wire = encode_frame(FrameKind::Request, 7, black_box(&payload));
            let mut dec = FrameDecoder::new();
            dec.push(&wire);
            dec.next_frame().unwrap().unwrap()
        })
    });
}

fn quote_round_trip(c: &mut Criterion) {
    let server = Server::start(scheduler());
    let mut client = ServeClient::connect(&server);
    c.bench_function("quote-wire-round-trip", |b| {
        b.iter(|| client.quote(black_box("kmeans"), 64 << 20, 2.0).unwrap())
    });
    drop(client);
    server.shutdown();
}

fn replay_heavy_tail(c: &mut Criterion) {
    let grid = GridSpec::demo(sched_models());
    let names: Vec<&str> = grid.apps.iter().map(|(n, _)| n.as_str()).collect();
    let jobs =
        WorkloadSpec::shaped(WorkloadShape::HeavyTail, LoadLevel::Light, &names, 42).generate();
    c.bench_function("replay-heavy-tail-light", |b| {
        b.iter(|| {
            let server = Server::start(scheduler());
            let run = replay(&server, &jobs, None).unwrap();
            server.shutdown();
            run.drained.makespan
        })
    });
}

criterion_group!(benches, frame_codec, quote_round_trip, replay_heavy_tail);
criterion_main!(benches);
