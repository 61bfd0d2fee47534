//! The compute server: real execution of local reductions (including the
//! shared-memory path within SMP nodes), plus compute-side cache costs.
//!
//! Each simulated compute node folds its chunks into its reduction object
//! by actually running the application kernel. On an SMP node the chunks
//! are split round-robin across the node's cores, each core folds into a
//! replicated sub-object, and the sub-objects are combined node-locally —
//! FREERIDE's shared-memory reduction strategy, behind the same API.
//! Distinct nodes (and cores) are independent, written as a `par_iter`
//! over nodes; the vendored `rayon` runs it sequentially, one node after
//! another. Within a worker, chunks are processed in assignment order, so
//! results and meters are deterministic whatever runs the nodes.
//!
//! A pass is folded as *segments* of the global chunk order — one
//! covering everything, or a prefix and a suffix around a checkpoint —
//! and the per-core objects are combined only when the pass completes.

use crate::api::{ReductionApp, ReductionObject};
use crate::meter::WorkMeter;
use fg_chunks::Dataset;
use fg_cluster::{MachineSpec, MiddlewareCosts};
use fg_sim::SimDuration;
use rayon::prelude::*;

/// One node's state after folding a *segment* of its chunk assignment:
/// the per-core partial objects (not yet combined node-locally) plus the
/// kernel meters and traffic of this segment only.
pub struct SegmentResult<O> {
    /// Per-core partial reduction objects, in core order.
    pub core_objs: Vec<O>,
    /// Metered kernel work of each core *for this segment*.
    pub core_meters: Vec<WorkMeter>,
    /// Chunks of this node inside the segment.
    pub chunks: usize,
    /// Logical bytes of those chunks.
    pub bytes: u64,
}

/// Run the local reduction of every compute node restricted to chunks
/// with global ids in `lo..hi`, optionally continuing from previously
/// checkpointed per-core objects.
///
/// `node_chunks[p]` lists the chunk indices assigned to node `p`, in
/// processing order; `cores` is the node machine's processor count. The
/// round-robin core split is computed from the node's *full* chunk
/// assignment and then filtered to the segment, so each core folds the
/// same chunk sequence whether the pass runs as one full-range segment
/// or as a prefix segment resumed with its suffix. That is the invariant
/// the checkpoint/resume machinery rests on.
#[allow(clippy::too_many_arguments)]
pub fn run_segment_reductions<A: ReductionApp>(
    app: &A,
    state: &A::State,
    dataset: &Dataset,
    node_chunks: &[Vec<usize>],
    cores: usize,
    lo: usize,
    hi: usize,
    initial: Option<Vec<Vec<A::Obj>>>,
) -> Vec<SegmentResult<A::Obj>> {
    assert!(cores >= 1, "a compute node has at least one core");
    let initial: Vec<Option<Vec<A::Obj>>> = match initial {
        Some(objs) => {
            assert_eq!(objs.len(), node_chunks.len(), "one object set per node");
            objs.into_iter().map(Some).collect()
        }
        None => node_chunks.iter().map(|_| None).collect(),
    };
    node_chunks
        .par_iter()
        .zip(initial.into_par_iter())
        .map(|(chunks, init)| {
            let active = cores.min(chunks.len()).max(1);
            let per_core: Vec<Vec<usize>> = (0..active)
                .map(|w| {
                    chunks
                        .iter()
                        .skip(w)
                        .step_by(active)
                        .copied()
                        .filter(|&k| k >= lo && k < hi)
                        .collect()
                })
                .collect();
            let init_objs: Vec<Option<A::Obj>> = match init {
                Some(objs) => {
                    assert_eq!(objs.len(), active, "one partial object per active core");
                    objs.into_iter().map(Some).collect()
                }
                None => (0..active).map(|_| None).collect(),
            };
            let results: Vec<(A::Obj, WorkMeter)> = per_core
                .par_iter()
                .zip(init_objs.into_par_iter())
                .map(|(core_chunks, init)| {
                    let mut obj = init.unwrap_or_else(|| app.new_object(state));
                    let mut meter = WorkMeter::new();
                    for &k in core_chunks {
                        app.local_reduce(state, &dataset.chunks[k], &mut obj, &mut meter);
                    }
                    (obj, meter)
                })
                .collect();
            let (core_objs, core_meters): (Vec<_>, Vec<_>) = results.into_iter().unzip();
            let in_segment = |&k: &usize| k >= lo && k < hi;
            let bytes = chunks
                .iter()
                .filter(|k| in_segment(k))
                .map(|&k| dataset.chunks[k].logical_bytes)
                .sum();
            SegmentResult {
                core_objs,
                core_meters,
                chunks: chunks.iter().filter(|k| in_segment(k)).count(),
                bytes,
            }
        })
        .collect()
}

/// Combine one node's per-core partial objects node-locally at the end
/// of a pass: merge in core order into core 0's object, metering the
/// merge work (real work; it runs on one core after the folds complete).
pub fn combine_segment<O: ReductionObject>(mut core_objs: Vec<O>) -> (O, WorkMeter) {
    let mut smp_merge = WorkMeter::new();
    let mut iter = core_objs.drain(..);
    let mut obj = iter.next().expect("at least one core");
    for sub in iter {
        obj.merge(&sub, &mut smp_merge);
    }
    (obj, smp_merge)
}

/// A node's processing time for one *segment* of a pass: the slowest
/// core's metered kernel work (under shared-memory-bus contention),
/// per-chunk dispatch overhead, and any cache traffic for the segment's
/// chunks. The intra-node combination is not included — it happens
/// once, when the pass completes (see [`combine_segment`]).
///
/// Cache reads and writes are charged here (to compute time, not disk
/// time) because they are compute-node-local pipeline stages that scale
/// with `1/c`, matching the prediction model's treatment of `t_c`;
/// repository-side retrieval is what the model's `t_d` covers.
pub fn segment_compute_time<O>(
    seg: &SegmentResult<O>,
    machine: &MachineSpec,
    costs: &MiddlewareCosts,
    inflation: f64,
    cache: CacheTraffic,
) -> SimDuration {
    let active = seg.core_meters.len();
    let kernel = seg
        .core_meters
        .iter()
        .map(|m| m.time_on_cores(machine, inflation, active))
        .max()
        .unwrap_or(SimDuration::ZERO);
    let dispatch = costs.chunk_dispatch * seg.chunks as u64;
    let cache_time = match cache {
        CacheTraffic::None => SimDuration::ZERO,
        CacheTraffic::Write => cache_write_time(machine, costs, seg.bytes, seg.chunks),
        CacheTraffic::Read => cache_read_time(machine, costs, seg.bytes, seg.chunks),
    };
    kernel + dispatch + cache_time
}

/// Virtual time for a node to write its chunks into the local cache
/// (first pass of a caching application): streamed at local disk
/// bandwidth plus a fixed per-chunk middleware overhead.
pub fn cache_write_time(
    machine: &MachineSpec,
    costs: &MiddlewareCosts,
    bytes: u64,
    chunks: usize,
) -> SimDuration {
    cache_io_time(machine, costs, bytes, chunks)
}

/// Virtual time for a node to re-read its chunks from the local cache
/// (subsequent passes). Same cost model as the write path.
pub fn cache_read_time(
    machine: &MachineSpec,
    costs: &MiddlewareCosts,
    bytes: u64,
    chunks: usize,
) -> SimDuration {
    cache_io_time(machine, costs, bytes, chunks)
}

fn cache_io_time(
    machine: &MachineSpec,
    costs: &MiddlewareCosts,
    bytes: u64,
    chunks: usize,
) -> SimDuration {
    if bytes == 0 {
        return SimDuration::ZERO;
    }
    SimDuration::from_secs_f64(bytes as f64 / machine.disk_bw)
        + (machine.disk_seek + costs.cache_chunk_overhead) * chunks as u64
}

/// Which direction (if any) the cache moves during a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTraffic {
    /// Non-caching application or single pass: no cache traffic.
    None,
    /// First pass of a caching application: chunks written as processed.
    Write,
    /// Later pass of a caching application: chunks read from local disk.
    Read,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{ObjSize, PassOutcome};
    use fg_chunks::{codec, DatasetBuilder};

    /// Toy app: sums all f32 elements; one flop metered per element.
    struct SumApp;

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
        type State = ();
        fn name(&self) -> &str {
            "sum"
        }
        fn initial_state(&self) {}
        fn new_object(&self, _: &()) -> SumObj {
            SumObj(0.0)
        }
        fn local_reduce(
            &self,
            _: &(),
            chunk: &fg_chunks::Chunk,
            obj: &mut SumObj,
            meter: &mut WorkMeter,
        ) {
            let vals = codec::decode_f32s(&chunk.payload);
            for v in &vals {
                obj.0 += *v as f64;
            }
            meter.data_flops(vals.len() as u64);
            meter.data_mem(vals.len() as u64);
        }
        fn global_finalize(&self, _: &(), merged: SumObj, _: &mut WorkMeter) -> PassOutcome<()> {
            let _ = merged;
            PassOutcome::Finished(())
        }
        fn state_size(&self, _: &()) -> ObjSize {
            ObjSize::default()
        }
        fn caches(&self) -> bool {
            false
        }
    }

    fn dataset() -> Dataset {
        let mut b = DatasetBuilder::new("d", "t", 1.0);
        for i in 0..4 {
            let vals: Vec<f32> = (0..10).map(|j| (i * 10 + j) as f32).collect();
            b.push_chunk(codec::encode_f32s(&vals), 10, None);
        }
        b.build()
    }

    /// A whole pass, the way the executor runs an uninterrupted one: a
    /// single segment over every chunk.
    fn whole_pass(
        ds: &Dataset,
        node_chunks: &[Vec<usize>],
        cores: usize,
    ) -> Vec<SegmentResult<SumObj>> {
        run_segment_reductions(&SumApp, &(), ds, node_chunks, cores, 0, ds.num_chunks(), None)
    }

    /// Each node's combined object and intra-node merge meter.
    fn combined(segs: Vec<SegmentResult<SumObj>>) -> Vec<(SumObj, WorkMeter)> {
        segs.into_iter().map(|s| combine_segment(s.core_objs)).collect()
    }

    #[test]
    fn local_reductions_cover_all_chunks() {
        let ds = dataset();
        let segs = whole_pass(&ds, &[vec![0, 1], vec![2, 3]], 1);
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].core_meters.len(), 1);
        assert_eq!(segs[0].core_meters[0].data_counts().flop, 20);
        assert_eq!(segs[0].chunks, 2);
        let total: f64 = combined(segs).iter().map(|(obj, _)| obj.0).sum();
        assert_eq!(total, (0..40).sum::<i32>() as f64);
    }

    #[test]
    fn smp_split_preserves_the_answer() {
        let ds = dataset();
        let single = whole_pass(&ds, &[vec![0, 1, 2, 3]], 1);
        let dual = whole_pass(&ds, &[vec![0, 1, 2, 3]], 2);
        assert_eq!(dual[0].core_meters.len(), 2);
        // Two cores split the metered kernel work...
        let total_flops: u64 = dual[0].core_meters.iter().map(|m| m.data_counts().flop).sum();
        assert_eq!(total_flops, single[0].core_meters[0].data_counts().flop);
        let (single, dual) = (combined(single), combined(dual));
        assert_eq!(single[0].0 .0, dual[0].0 .0);
        // ...and the node pays a real intra-node merge.
        assert!(dual[0].1.fixed_counts().flop > 0);
        assert!(single[0].1.fixed_counts().total() == 0);
    }

    #[test]
    fn more_cores_than_chunks_leaves_cores_idle() {
        let ds = dataset();
        let segs = whole_pass(&ds, &[vec![0]], 8);
        assert_eq!(segs[0].core_meters.len(), 1, "one chunk cannot use 8 cores");
    }

    #[test]
    fn idle_node_produces_identity_object() {
        let ds = dataset();
        let segs = whole_pass(&ds, &[vec![0, 1, 2, 3], vec![]], 2);
        assert_eq!(segs[1].bytes, 0);
        assert_eq!(combined(segs)[1].0 .0, 0.0);
    }

    #[test]
    fn parallel_matches_sequential() {
        let ds = dataset();
        let par = combined(whole_pass(&ds, &[vec![0], vec![1], vec![2], vec![3]], 2));
        let seq = combined(whole_pass(&ds, &[vec![0, 1, 2, 3]], 1));
        let par_total: f64 = par.iter().map(|(obj, _)| obj.0).sum();
        assert_eq!(par_total, seq[0].0 .0);
    }

    #[test]
    fn split_segments_resume_bit_identically_at_every_boundary() {
        let ds = dataset();
        let node_chunks = vec![vec![0, 2], vec![1, 3]];
        let unsplit = combined(whole_pass(&ds, &node_chunks, 2));
        for cut in 0..=4 {
            let prefix = run_segment_reductions(&SumApp, &(), &ds, &node_chunks, 2, 0, cut, None);
            let carried: Vec<Vec<SumObj>> = prefix.into_iter().map(|s| s.core_objs).collect();
            let suffix =
                run_segment_reductions(&SumApp, &(), &ds, &node_chunks, 2, cut, 4, Some(carried));
            for ((u, _), (obj, _)) in unsplit.iter().zip(combined(suffix)) {
                assert_eq!(obj.0.to_bits(), u.0.to_bits(), "cut at {cut}");
            }
        }
    }

    #[test]
    fn segment_counts_cover_only_the_range() {
        let ds = dataset();
        let segs = run_segment_reductions(&SumApp, &(), &ds, &[vec![0, 1, 2, 3]], 1, 1, 3, None);
        assert_eq!(segs[0].chunks, 2);
        let full: f64 = codecs_sum(&ds, &[1, 2]);
        assert_eq!(segs[0].core_objs[0].0, full);
    }

    fn codecs_sum(ds: &Dataset, chunks: &[usize]) -> f64 {
        chunks
            .iter()
            .flat_map(|&k| codec::decode_f32s(&ds.chunks[k].payload))
            .map(|v| v as f64)
            .sum()
    }

    #[test]
    fn cache_time_includes_seeks_and_overhead() {
        let m = MachineSpec {
            disk_bw: 100.0,
            disk_seek: SimDuration::from_millis(1),
            ..MachineSpec::pentium_700()
        };
        let costs = MiddlewareCosts {
            cache_chunk_overhead: SimDuration::from_millis(1),
            ..MiddlewareCosts::default()
        };
        let t = cache_read_time(&m, &costs, 1000, 5);
        assert!((t.as_secs_f64() - (10.0 + 0.010)).abs() < 1e-9);
        assert_eq!(cache_read_time(&m, &costs, 0, 0), SimDuration::ZERO);
    }

    #[test]
    fn segment_compute_time_adds_components() {
        let ds = dataset();
        let segs = whole_pass(&ds, &[vec![0, 1]], 1);
        let m = MachineSpec {
            flop_per_sec: 10.0,
            mem_per_sec: 1e12,
            disk_bw: 100.0,
            disk_seek: SimDuration::ZERO,
            ..MachineSpec::pentium_700()
        };
        let costs = MiddlewareCosts {
            chunk_dispatch: SimDuration::from_secs(1),
            cache_chunk_overhead: SimDuration::ZERO,
            ..MiddlewareCosts::default()
        };
        // kernel: 20 flops / 10 = 2 s (mem negligible); dispatch: 2 chunks * 1 s.
        let t_none = segment_compute_time(&segs[0], &m, &costs, 1.0, CacheTraffic::None);
        assert!((t_none.as_secs_f64() - 4.0).abs() < 1e-6);
        // + cache write of 80 bytes at 100 B/s
        let t_write = segment_compute_time(&segs[0], &m, &costs, 1.0, CacheTraffic::Write);
        assert!((t_write.as_secs_f64() - 4.8).abs() < 1e-6);
        // inflation doubles the kernel time only.
        let t_infl = segment_compute_time(&segs[0], &m, &costs, 2.0, CacheTraffic::None);
        assert!((t_infl.as_secs_f64() - 6.0).abs() < 1e-6);
    }

    #[test]
    fn smp_speedup_is_real_but_sublinear_for_mem_heavy_work() {
        let ds = dataset();
        let m = MachineSpec {
            cores: 2,
            flop_per_sec: 1e12,
            mem_per_sec: 100.0, // memory-bound
            disk_bw: 1e12,
            disk_seek: SimDuration::ZERO,
            ..MachineSpec::pentium_700()
        };
        let costs = MiddlewareCosts {
            chunk_dispatch: SimDuration::ZERO,
            cache_chunk_overhead: SimDuration::ZERO,
            ..MiddlewareCosts::default()
        };
        // A node's pass time: its folds, then the intra-node combination.
        let node_time = |cores| {
            let seg = whole_pass(&ds, &[vec![0, 1, 2, 3]], cores).remove(0);
            let folds = segment_compute_time(&seg, &m, &costs, 1.0, CacheTraffic::None);
            folds + combine_segment(seg.core_objs).1.time_on(&m, 1.0)
        };
        let speedup = node_time(1).as_secs_f64() / node_time(2).as_secs_f64();
        assert!(speedup > 1.2, "two cores should help: {speedup}");
        assert!(speedup < 1.7, "memory-bound work must not scale linearly: {speedup}");
    }
}
