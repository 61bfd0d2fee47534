//! Pipelined (overlapped) execution — an extension beyond the paper.
//!
//! The paper's additive model, `T_exec = T_disk + T_network + T_compute`,
//! matches a *phase-structured* runtime: all chunks are retrieved, then
//! shipped, then processed. A streaming middleware can instead overlap
//! the stages: a chunk is transferred while the next is read, and
//! processed while others are in flight. This module implements that
//! mode as a chunk-level queueing simulation (per-data-node disk and
//! uplink servers, per-compute-node core pools, serialized gather at the
//! master) and reports how much the overlap saves — i.e. how far the
//! additive model would over-predict on a pipelined system.
//!
//! Results (the application's final state) are identical to the
//! phase-based executor: the same chunks are folded in the same per-node
//! order; only the virtual-time accounting differs.
//!
//! Limitations (asserted): local or no caching only — the non-local
//! caching extension remains phase-based.

use crate::api::{PassOutcome, ReductionApp, ReductionObject};
use crate::comm;
use crate::meter::WorkMeter;
use crate::report::CacheMode;
use fg_chunks::{distribution, partition, Dataset};
use fg_cluster::Deployment;
use fg_sim::{FifoServer, ServerPool, SimDuration, SimTime};
use fg_trace::{NodeRef, RunMeta, SpanKind, Trace, Tracer};
use rayon::prelude::*;

/// Outcome of a pipelined execution.
pub struct PipelinedRun<S> {
    /// End-to-end virtual time.
    pub total: SimDuration,
    /// Per-pass completion spans.
    pub pass_totals: Vec<SimDuration>,
    /// The cache mode used (Local or SinglePass).
    pub cache_mode: CacheMode,
    /// The application's final state.
    pub final_state: S,
}

/// Run `app` over `dataset` with chunk-level stage overlap.
pub fn run_pipelined<A: ReductionApp>(
    deployment: &Deployment,
    app: &A,
    dataset: &Dataset,
) -> PipelinedRun<A::State> {
    run_pipelined_inner(deployment, app, dataset, None)
}

/// [`run_pipelined`] with trace capture. Stage overlap has no
/// phase-makespan structure, so the trace is coarser than the phased
/// executor's: per-pass spans with per-node compute completion, the
/// gather window, and the global reduction, on the cumulative clock.
pub fn run_pipelined_traced<A: ReductionApp>(
    deployment: &Deployment,
    app: &A,
    dataset: &Dataset,
) -> (PipelinedRun<A::State>, Trace) {
    let mut tracer = Tracer::new();
    let run = run_pipelined_inner(deployment, app, dataset, Some(&mut tracer));
    let meta = RunMeta {
        app: app.name().to_string(),
        dataset: dataset.id.clone(),
        dataset_bytes: dataset.logical_bytes(),
        data_nodes: deployment.config.data_nodes,
        compute_nodes: deployment.config.compute_nodes,
        wan_bw: deployment.wan.stream_bw,
        repo_machine: deployment.repository.machine.name.clone(),
        compute_machine: deployment.compute.machine.name.clone(),
        cache_mode: run.cache_mode.label().to_string(),
    };
    (run, tracer.finish(Some(meta)))
}

fn run_pipelined_inner<A: ReductionApp>(
    deployment: &Deployment,
    app: &A,
    dataset: &Dataset,
    mut tracer: Option<&mut Tracer>,
) -> PipelinedRun<A::State> {
    let d = deployment;
    assert!(
        d.cache.is_none(),
        "pipelined execution supports local caching only; remove the cache site"
    );
    let n = d.config.data_nodes;
    let c = d.config.compute_nodes;
    assert!(dataset.num_chunks() >= n, "fewer chunks than data nodes");
    let inflation = dataset.work_inflation();

    let placement = partition::contiguous(dataset.num_chunks(), n);
    let dest = distribution::assign_destinations(&placement, c);
    let mut node_chunks: Vec<Vec<usize>> = vec![Vec::new(); c];
    for (k, &cn) in dest.iter().enumerate() {
        node_chunks[cn].push(k);
    }
    // Which data node owns each chunk.
    let mut owner = vec![0usize; dataset.num_chunks()];
    for (dn, chunks) in placement.iter().enumerate() {
        for &k in chunks {
            owner[k] = dn;
        }
    }

    let site = &d.compute;
    let machine = &site.machine;
    let repo = &d.repository;
    // Effective per-node disk rate under the backplane cap, assuming all
    // n nodes stream concurrently (they do, in steady state).
    let disk_rate = repo.machine.disk_bw.min(repo.backplane_bw / n as f64);
    let uplink_rate = d.wan.stream_bw.min(repo.machine.nic_bw);

    let max_node_bytes: u64 = node_chunks
        .iter()
        .map(|list| list.iter().map(|&k| dataset.chunks[k].logical_bytes).sum())
        .max()
        .unwrap_or(0);
    let cache_mode = if !app.caches() {
        CacheMode::SinglePass
    } else {
        assert!(
            max_node_bytes <= site.node_storage_bytes,
            "pipelined execution requires chunks to fit compute-node storage"
        );
        CacheMode::Local
    };

    let mut state = app.initial_state();
    let mut pass_totals: Vec<SimDuration> = Vec::new();
    let mut total = SimDuration::ZERO;
    let run_span = tracer.as_deref_mut().map(|tr| tr.begin(SpanKind::Run, None, SimTime::ZERO));

    loop {
        assert!(pass_totals.len() < app.max_passes(), "pass bound exceeded");
        let pass_idx = pass_totals.len();
        let remote = pass_idx == 0 || cache_mode == CacheMode::SinglePass;

        // Fold chunks per node (real execution, per-chunk meters so each
        // chunk has its own service time). Parallel over nodes.
        struct NodeOutcome<O> {
            obj: O,
            chunk_times: Vec<SimDuration>,
        }
        let outcomes: Vec<NodeOutcome<A::Obj>> = node_chunks
            .par_iter()
            .map(|chunks| {
                let mut obj = app.new_object(&state);
                let mut chunk_times = Vec::with_capacity(chunks.len());
                for &k in chunks {
                    let mut meter = WorkMeter::new();
                    app.local_reduce(&state, &dataset.chunks[k], &mut obj, &mut meter);
                    chunk_times.push(meter.time_on(machine, inflation) + site.costs.chunk_dispatch);
                }
                NodeOutcome { obj, chunk_times }
            })
            .collect();

        // Queueing simulation of the pass: per-data-node disk and uplink
        // servers, per-compute-node core pools; chunks traverse
        // disk -> uplink -> cores in index order.
        let mut disks: Vec<FifoServer> = (0..n).map(|_| FifoServer::new()).collect();
        let mut uplinks: Vec<FifoServer> = (0..n).map(|_| FifoServer::new()).collect();
        let mut cores: Vec<ServerPool> =
            (0..c).map(|_| ServerPool::new(machine.cores.max(1))).collect();
        // Position of each chunk within its compute node's fold order.
        let mut chunk_pos = vec![0usize; dataset.num_chunks()];
        for chunks in &node_chunks {
            for (i, &k) in chunks.iter().enumerate() {
                chunk_pos[k] = i;
            }
        }
        let mut node_done = vec![SimTime::ZERO; c];
        for k in 0..dataset.num_chunks() {
            let chunk = &dataset.chunks[k];
            let cn = dest[k];
            let arrival_at_compute = if remote {
                let dn = owner[k];
                let read_service = repo.machine.disk_seek
                    + SimDuration::from_secs_f64(chunk.logical_bytes as f64 / disk_rate);
                let read = disks[dn].submit(SimTime::ZERO, read_service);
                let ship_service = d.wan.latency
                    + SimDuration::from_secs_f64(chunk.logical_bytes as f64 / uplink_rate);
                uplinks[dn].submit(read.end, ship_service).end
            } else {
                // Local cache read on the compute node's disk: model as a
                // per-chunk delay before the fold (the node's disk streams
                // ahead of the cores).
                SimTime::ZERO
                    + (machine.disk_seek
                        + site.costs.cache_chunk_overhead
                        + SimDuration::from_secs_f64(chunk.logical_bytes as f64 / machine.disk_bw))
                        * (chunk_pos[k] as u64 + 1)
            };
            let mut service = outcomes[cn].chunk_times[chunk_pos[k]];
            if cache_mode == CacheMode::Local && remote {
                // Write-through to the local cache overlaps the fold but
                // occupies the core's chunk slot.
                service += machine.disk_seek
                    + site.costs.cache_chunk_overhead
                    + SimDuration::from_secs_f64(chunk.logical_bytes as f64 / machine.disk_bw);
            }
            let (_, interval) = cores[cn].submit(arrival_at_compute, service);
            node_done[cn] = node_done[cn].max(interval.end);
        }

        // Gather: serialized at the master, each object sent when its
        // node finishes; the master receives them FIFO.
        let obj_sizes: Vec<u64> =
            outcomes.iter().map(|o| o.obj.size().logical(inflation)).collect();
        let mut gather = FifoServer::new();
        // Master's own object is ready at node_done[0].
        let mut order: Vec<usize> = (1..c).collect();
        order.sort_by_key(|&p| (node_done[p], p));
        let mut gather_end = node_done[0];
        for &p in &order {
            let service = site.costs.gather_latency
                + SimDuration::from_secs_f64(obj_sizes[p] as f64 / site.interconnect_bw);
            let interval = gather.submit(node_done[p], service);
            gather_end = gather_end.max(interval.end);
        }

        // Global reduction (same real merges as the phased path).
        let mut results = outcomes;
        let mut master_meter = WorkMeter::new();
        let mut iter = results.drain(..);
        let mut merged = iter.next().expect("at least one node").obj;
        for r in iter {
            merged.merge(&r.obj, &mut master_meter);
        }
        let outcome = app.global_finalize(&state, merged, &mut master_meter);
        let (next_state, finished) = match outcome {
            PassOutcome::NextPass(s) => (s, false),
            PassOutcome::Finished(s) => (s, true),
        };
        let broadcast = if finished {
            SimDuration::ZERO
        } else {
            comm::broadcast_time(site, app.state_size(&next_state).logical(inflation), c)
        };
        let t_g = site.costs.obj_handling * c as u64
            + master_meter.time_on(machine, inflation)
            + broadcast;
        let pass_total = gather_end.saturating_since(SimTime::ZERO) + t_g;

        // The pass's internal sim runs from its own zero; spans shift it
        // onto the cumulative clock.
        if let Some(tr) = tracer.as_deref_mut() {
            let start = SimTime::ZERO + total;
            let pass_span = tr.begin(SpanKind::Pass, None, start);
            for (p, done) in node_done.iter().enumerate() {
                let dt = done.saturating_since(SimTime::ZERO);
                if !dt.is_zero() {
                    tr.record(SpanKind::NodeCompute, Some(NodeRef::compute(p)), start, start + dt);
                }
            }
            if let Some(first_send) = order.iter().map(|&p| node_done[p]).min() {
                let g0 = start + first_send.saturating_since(SimTime::ZERO);
                let g1 = start + gather_end.saturating_since(SimTime::ZERO);
                if g1 > g0 {
                    tr.record(SpanKind::Gather, None, g0, g1);
                }
            }
            if !t_g.is_zero() {
                let g1 = start + gather_end.saturating_since(SimTime::ZERO);
                tr.record(SpanKind::GlobalReduce, Some(NodeRef::master()), g1, g1 + t_g);
            }
            tr.end(pass_span, start + pass_total);
            tr.metrics.add("passes", 1);
        }

        pass_totals.push(pass_total);
        total += pass_total;
        state = next_state;
        if finished {
            break;
        }
    }

    if let (Some(tr), Some(id)) = (tracer, run_span) {
        tr.end(id, SimTime::ZERO + total);
    }

    PipelinedRun { total, pass_totals, cache_mode, final_state: state }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Executor;
    use fg_cluster::{ComputeSite, Configuration, RepositorySite, Wan};

    // Reuse the sum app from the compute server tests via a local copy.
    use crate::api::ObjSize;
    use fg_chunks::{codec, DatasetBuilder};

    struct SumApp {
        passes: usize,
    }

    #[derive(Clone)]
    struct SumObj(f64);

    impl ReductionObject for SumObj {
        fn merge(&mut self, other: &Self, meter: &mut WorkMeter) {
            self.0 += other.0;
            meter.fixed_flops(1);
        }
        fn size(&self) -> ObjSize {
            ObjSize { fixed: 8, data: 0 }
        }
    }

    impl ReductionApp for SumApp {
        type Obj = SumObj;
        type State = (usize, f64);
        fn name(&self) -> &str {
            "sum"
        }
        fn initial_state(&self) -> (usize, f64) {
            (0, 0.0)
        }
        fn new_object(&self, _: &(usize, f64)) -> SumObj {
            SumObj(0.0)
        }
        fn local_reduce(
            &self,
            _: &(usize, f64),
            chunk: &fg_chunks::Chunk,
            obj: &mut SumObj,
            meter: &mut WorkMeter,
        ) {
            let vals = codec::decode_f32s(&chunk.payload);
            for v in &vals {
                obj.0 += *v as f64;
            }
            meter.data_flops(vals.len() as u64 * 50);
            meter.data_mem(vals.len() as u64 * 10);
        }
        fn global_finalize(
            &self,
            state: &(usize, f64),
            merged: SumObj,
            _: &mut WorkMeter,
        ) -> PassOutcome<(usize, f64)> {
            let next = (state.0 + 1, merged.0);
            if next.0 >= self.passes {
                PassOutcome::Finished(next)
            } else {
                PassOutcome::NextPass(next)
            }
        }
        fn state_size(&self, _: &(usize, f64)) -> ObjSize {
            ObjSize { fixed: 16, data: 0 }
        }
        fn caches(&self) -> bool {
            self.passes > 1
        }
    }

    fn dataset(chunks: usize, per_chunk: usize) -> Dataset {
        let mut b = DatasetBuilder::new("d", "t", 0.01);
        let mut x = 0u32;
        for _ in 0..chunks {
            let vals: Vec<f32> = (0..per_chunk)
                .map(|_| {
                    x = x.wrapping_mul(1103515245).wrapping_add(12345) & 0xffff;
                    (x % 100) as f32
                })
                .collect();
            b.push_chunk(codec::encode_f32s(&vals), per_chunk as u64, None);
        }
        b.build()
    }

    fn deployment(n: usize, c: usize) -> Deployment {
        Deployment::new(
            RepositorySite::pentium_repository("repo", 8),
            ComputeSite::pentium_myrinet("cs", 16),
            Wan::per_stream(40e6),
            Configuration::new(n, c),
        )
    }

    #[test]
    fn pipelining_preserves_the_answer() {
        let ds = dataset(32, 500);
        let app = SumApp { passes: 3 };
        let phased = Executor::new(deployment(2, 4)).run(&app, &ds);
        let piped = run_pipelined(&deployment(2, 4), &app, &ds);
        assert_eq!(phased.final_state.1, piped.final_state.1);
        assert_eq!(piped.pass_totals.len(), 3);
    }

    #[test]
    fn overlap_never_loses_to_phases() {
        let ds = dataset(64, 500);
        for (n, c) in [(1, 1), (2, 4), (4, 8)] {
            for passes in [1usize, 3] {
                let app = SumApp { passes };
                let phased = Executor::new(deployment(n, c)).run(&app, &ds).report.total();
                let piped = run_pipelined(&deployment(n, c), &app, &ds).total;
                assert!(
                    piped <= phased,
                    "pipelined ({piped}) slower than phased ({phased}) at {n}-{c} x{passes}"
                );
            }
        }
    }

    #[test]
    fn overlap_is_bounded_below_by_the_slowest_stage() {
        let ds = dataset(64, 500);
        let app = SumApp { passes: 1 };
        let dep = deployment(2, 4);
        let phased = Executor::new(dep.clone()).run(&app, &ds).report;
        let piped = run_pipelined(&dep, &app, &ds).total;
        // Can't beat any single stage's makespan.
        let floor = phased
            .t_disk()
            .max(phased.t_network())
            .max(phased.passes.iter().map(|p| p.local_compute).sum());
        assert!(piped >= floor, "pipelined ({piped}) beat the slowest stage ({floor})");
    }

    #[test]
    fn overlap_saves_meaningfully_when_stages_are_balanced() {
        // I/O-heavy single pass: disk, network, and compute all
        // comparable; overlap should cut a visible fraction.
        let ds = dataset(64, 2000);
        let app = SumApp { passes: 1 };
        let dep = deployment(2, 2);
        let phased = Executor::new(dep.clone()).run(&app, &ds).report.total();
        let piped = run_pipelined(&dep, &app, &ds).total;
        let ratio = piped.as_secs_f64() / phased.as_secs_f64();
        assert!(ratio < 0.9, "expected >10% overlap savings, got ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "cache site")]
    fn cache_sites_are_rejected() {
        let ds = dataset(16, 10);
        let app = SumApp { passes: 2 };
        let mut dep = deployment(1, 1);
        dep.cache = Some(fg_cluster::CacheSite::new(
            RepositorySite::pentium_repository("cache", 4),
            2,
            Wan::per_stream(1e6),
        ));
        run_pipelined(&dep, &app, &ds);
    }
}
