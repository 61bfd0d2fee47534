//! Placement hot-path microbenchmarks: the cached incremental ranking
//! engine against the naive exhaustive scan it replaces, plus a small
//! end-to-end scheduler run. For interactive profiling; `benchmark/`
//! holds the numbers changes are judged by.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fg_bench::figures::sched_models;
use fg_sched::{
    naive_best_placement, FreeSlices, GridSpec, LoadLevel, PlacementEngine, Policy, Scheduler,
    WorkloadSpec,
};
use std::hint::black_box;

/// Dataset sizes cycled through by the query stream, in bytes.
const SIZES: [u64; 4] = [200 << 20, 800 << 20, 3200 << 20, 12_800 << 20];

/// Deterministic query stream over (app, dataset size) pairs with a
/// periodic EWMA-style bandwidth nudge so the cache sees realistic
/// invalidation traffic rather than a single warm ranking.
fn query_stream(grid: &GridSpec, queries: usize) -> Vec<(usize, u64, Vec<f64>)> {
    let nominal: Vec<f64> = grid.repos.iter().map(|r| r.wan.stream_bw).collect();
    let mut bw = nominal.clone();
    let mut out = Vec::with_capacity(queries);
    for q in 0..queries {
        if q % 64 == 63 {
            // Drift one repository's estimate, round-robin, like the
            // scheduler's per-repo EWMA feedback does after transfers.
            let r = (q / 64) % bw.len();
            bw[r] = nominal[r] * (0.6 + 0.05 * ((q / 64 % 8) as f64));
        }
        out.push((q % grid.apps.len(), SIZES[q % SIZES.len()], bw.clone()));
    }
    out
}

fn bench_placement(c: &mut Criterion) {
    let grid = GridSpec::demo(sched_models());
    let free = FreeSlices::new(
        grid.repos.iter().map(|r| r.site.max_nodes).collect(),
        grid.sites.iter().map(|s| s.site.max_nodes).collect(),
    );
    let stream = query_stream(&grid, 256);

    let mut group = c.benchmark_group("placement");
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.bench_with_input(BenchmarkId::new("cached", stream.len()), &stream, |b, stream| {
        let mut engine = PlacementEngine::new(&grid);
        b.iter(|| {
            for (app_idx, bytes, bw) in stream {
                let app = &grid.apps[*app_idx].0;
                black_box(engine.best_placement(
                    &fg_predict::AnalyticalPredictor,
                    &grid,
                    app,
                    *bytes,
                    &free,
                    bw,
                    None,
                ));
            }
        })
    });
    group.bench_with_input(BenchmarkId::new("naive", stream.len()), &stream, |b, stream| {
        b.iter(|| {
            for (app_idx, bytes, bw) in stream {
                let model = &grid.apps[*app_idx].1;
                black_box(naive_best_placement(
                    &grid,
                    model,
                    *bytes,
                    free.data(),
                    free.cmp(),
                    bw,
                    None,
                ));
            }
        })
    });
    group.finish();
}

fn bench_sim_rate(c: &mut Criterion) {
    let grid = GridSpec::demo(sched_models());
    let names: Vec<&str> = grid.apps.iter().map(|(n, _)| n.as_str()).collect();
    let jobs = WorkloadSpec::preset_scaled(LoadLevel::Heavy, &names, 42, 12, 200).generate();

    let mut group = c.benchmark_group("sim-rate");
    group.sample_size(10);
    group.throughput(Throughput::Elements(jobs.len() as u64));
    group.bench_with_input(BenchmarkId::new("heavy", jobs.len()), &jobs, |b, jobs| {
        let grid = GridSpec::demo(sched_models());
        let sched = Scheduler::new(grid, Policy::FcfsBackfill);
        b.iter(|| black_box(sched.run(jobs)))
    });
    group.finish();
}

criterion_group!(benches, bench_placement, bench_sim_rate);
criterion_main!(benches);
