//! Workload-layer microbenchmarks: generator throughput for each
//! traffic shape (uniform, heavy-tail, bursty) and the JSONL trace
//! round trip (dump and replay): the per-shape and per-stage breakdown
//! behind `benchmark/`'s `sched.workload.generate_ns_per_job` and
//! `sched.replay.*` layer metrics.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fg_bench::figures::sched_models;
use fg_sched::{GridSpec, LoadLevel, Workload, WorkloadShape, WorkloadSpec};
use std::hint::black_box;

fn shaped_spec(shape: WorkloadShape, tenants: usize, jobs_per_tenant: usize) -> WorkloadSpec {
    let grid = GridSpec::demo(sched_models());
    let names: Vec<&str> = grid.apps.iter().map(|(n, _)| n.as_str()).collect();
    WorkloadSpec::shaped_scaled(shape, LoadLevel::Heavy, &names, 42, tenants, jobs_per_tenant)
}

fn bench_generate(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload-generate");
    for shape in WorkloadShape::ALL {
        let spec = shaped_spec(shape, 12, 200);
        let jobs = spec.generate().len() as u64;
        group.throughput(Throughput::Elements(jobs));
        group.bench_with_input(BenchmarkId::new(shape.name(), jobs), &spec, |b, spec| {
            b.iter(|| black_box(spec.generate()))
        });
    }
    group.finish();
}

fn bench_trace_roundtrip(c: &mut Criterion) {
    let spec = shaped_spec(WorkloadShape::Bursty, 12, 200);
    let workload = Workload::from_spec(&spec).expect("valid preset");
    let text = workload.dump_jsonl();

    let mut group = c.benchmark_group("workload-trace");
    group.throughput(Throughput::Elements(workload.jobs.len() as u64));
    group.bench_with_input(BenchmarkId::new("dump", workload.jobs.len()), &workload, |b, w| {
        b.iter(|| black_box(w.dump_jsonl()))
    });
    group.bench_with_input(BenchmarkId::new("replay", workload.jobs.len()), &text, |b, text| {
        b.iter(|| black_box(Workload::replay(text).expect("round trip")))
    });
    group.finish();
}

criterion_group!(benches, bench_generate, bench_trace_roundtrip);
criterion_main!(benches);
