//! The executor: drives an application over a deployment, pass by pass.
//!
//! There is one pass loop, [`Executor::run_with`]: it takes an injected
//! fault schedule and a [`RunMode`] — a full run (optionally controlled
//! and traced), a run that suspends at a chunk boundary, or the
//! continuation of a checkpoint — and [`Executor::run`] is the full run
//! under no faults. A pass's phase arithmetic therefore lives in exactly
//! one place.
//!
//! # Fault model
//!
//! The [`fg_sim::FaultSchedule`] is threaded through the phase
//! structure:
//!
//! * **Data-node crashes** are detected during remote retrieval: fetches
//!   against a dead node time out and are retried, the
//!   [`dataserver::DETECTION_DELAY`] is charged once per detection round
//!   (`fault_detection`), and the dead node's chunks are rebalanced
//!   contiguously over the surviving replica holders for this and later
//!   remote passes.
//! * **WAN degradation windows** scale the per-stream (and aggregate)
//!   bandwidth of the origin transfer by the window factor in force when
//!   the transfer starts.
//! * **Straggler compute nodes** stretch their local-reduction time by
//!   their slowdown factor. When a straggler's projected time exceeds
//!   [`STRAGGLER_THRESHOLD`] times the slowest healthy node, the
//!   middleware completes in degraded mode: the master re-executes the
//!   straggler's chunks at spec speed after the healthy makespan
//!   (`straggler_recovery`). Object contents are unchanged, so the final
//!   reduction state equals the fault-free state.
//! * A [`PassController`] observes each pass and may **migrate** the run
//!   to a different replica (same compute site and node count); the
//!   switch costs [`MIGRATION_OVERHEAD`] and redirects all later remote
//!   fetches.
//!
//! Chunk-to-compute-node assignment never changes under faults — only
//! the fetch side does — so every chunk is folded on the same node in
//! the same order as the fault-free run and the final state is
//! bit-identical by construction. With an empty schedule and no
//! controller every fault term is zero and the report is the fault-free
//! one.
//!
//! # Suspend and resume
//!
//! A pass folds the chunks with global id in `[lo, hi)`: the whole
//! dataset, except in the pass a [`RunMode::Suspend`] point suspends
//! (`hi` is its cursor) and in the first pass of a [`RunMode::Resume`]
//! checkpoint (`lo` is its cursor). Per-core partial objects are carried
//! across the split unmerged, so fold and merge orders — and with them
//! the final state — match the uninterrupted run bit for bit.

use crate::api::{PassOutcome, ReductionApp, ReductionObject};
use crate::checkpoint::{Checkpoint, ResumableOutcome, StopPoint};
use crate::comm::{self, TransferFlow};
use crate::computeserver::{self, CacheTraffic};
use crate::dataserver::{self, DETECTION_DELAY};
use crate::meter::WorkMeter;
use crate::report::{CacheMode, ExecutionReport, PassReport};
use fg_chunks::{distribution, partition, Dataset};
use fg_cluster::Deployment;
use fg_sim::{FaultSchedule, SimDuration, SimTime};
use fg_trace::{NodeRef, SpanKind, Trace, Tracer};

/// Outcome of a full execution: the measured report plus the
/// application's final state.
pub struct RunResult<S> {
    /// Measured time breakdown.
    pub report: ExecutionReport,
    /// The application's final state (clusters found, features detected,
    /// ...).
    pub final_state: S,
    /// Where the virtual time went, when a traced [`RunMode::Full`] asked
    /// for it. Its component sums reproduce the report exactly.
    pub trace: Option<Trace>,
}

/// A straggler whose projected local-reduction time exceeds this multiple
/// of the slowest healthy node is abandoned and its chunks re-executed at
/// the master.
pub const STRAGGLER_THRESHOLD: f64 = 3.0;

/// Virtual-time cost of switching a run to a different replica.
pub const MIGRATION_OVERHEAD: SimDuration = SimDuration::from_millis(500);

/// What a [`PassController`] sees after each pass.
#[derive(Debug, Clone)]
pub struct PassObservation {
    /// Index of the pass that just completed.
    pub pass_idx: usize,
    /// Virtual time when the pass's phases completed (before any
    /// migration overhead).
    pub elapsed: SimTime,
    /// Whether this pass fetched chunks over the WAN.
    pub remote: bool,
    /// Effective per-stream WAN bandwidth observed this pass
    /// (bytes/sec); `None` on cached passes, which see no WAN traffic.
    pub observed_wan_bw: Option<f64>,
    /// Whether the application finished on this pass.
    pub finished: bool,
}

/// A controller's verdict after observing a pass.
#[derive(Debug, Clone)]
pub enum PassAction {
    /// Keep the current replica.
    Continue,
    /// Switch subsequent remote fetches to this deployment (its compute
    /// site and node count must match the running one). Boxed: the rare
    /// migration verdict should not size every `Continue`.
    Migrate(Box<Deployment>),
}

/// Observes each pass of a fault-injected run and may migrate it to a
/// different replica — the hook `fg-predict` uses for mid-run
/// re-selection.
pub trait PassController {
    /// Called after every pass, including the last (where a migration
    /// request is ignored).
    fn after_pass(&mut self, obs: &PassObservation, current: &Deployment) -> PassAction;
}

/// How [`Executor::run_with`] runs. Only a full run takes a controller
/// or records a trace; the two checkpointed modes take neither, and
/// neither supports a deployment with a non-local cache site.
#[allow(clippy::large_enum_variant)]
pub enum RunMode<'a, S, O> {
    /// An uninterrupted run from the first pass to the last.
    Full {
        /// Mid-run re-selection hook.
        controller: Option<&'a mut dyn PassController>,
        /// Record a structured trace into [`RunResult::trace`]. Tracing
        /// observes the run, it never perturbs it: the report is
        /// bit-identical to the untraced run's.
        trace: bool,
    },
    /// Suspend into a [`Checkpoint`] at this chunk boundary: chunks with
    /// global id below `cursor` are folded in pass `pass` before the
    /// snapshot is taken. A run that finishes before reaching it just
    /// finishes.
    Suspend(StopPoint),
    /// Continue this suspended run. The executor's deployment may serve a
    /// *different replica* of the same dataset — that is a migration,
    /// charged [`MIGRATION_OVERHEAD`] in the resumed pass — but the
    /// compute site and node count must match the checkpoint's.
    Resume(Checkpoint<S, O>),
}

/// The remote-fetch side of a pass: what each data node serves and the
/// resulting per-(data node, compute node) flows. The default is the
/// empty plan of a pass that fetches nothing.
#[derive(Default)]
struct FetchPlan {
    dn_bytes: Vec<u64>,
    dn_chunks: Vec<usize>,
    flows: Vec<TransferFlow>,
}

/// Assign every chunk a serving data node (contiguous over the `n - dead`
/// survivors), honoring the fixed chunk-to-compute-node map `dest`. The
/// placement spans the whole dataset (chunk-to-data-node assignment is
/// static), but only the chunks with global id in `[lo, hi)` contribute
/// bytes and flows.
fn fetch_plan(
    dataset: &Dataset,
    n: usize,
    dest: &[usize],
    dead: &[usize],
    lo: usize,
    hi: usize,
) -> FetchPlan {
    let alive: Vec<usize> = (0..n).filter(|i| !dead.contains(i)).collect();
    assert!(
        !alive.is_empty(),
        "every data node of the serving replica has crashed; no survivor holds the data"
    );
    let placement = partition::contiguous(dataset.num_chunks(), alive.len());
    let mut dn_bytes = vec![0u64; n];
    let mut dn_chunks = vec![0usize; n];
    let mut flow_map = std::collections::BTreeMap::<(usize, usize), (u64, usize)>::new();
    for (ai, chunks) in placement.iter().enumerate() {
        let dn = alive[ai];
        for &k in chunks {
            if k < lo || k >= hi {
                continue;
            }
            dn_bytes[dn] += dataset.chunks[k].logical_bytes;
            dn_chunks[dn] += 1;
            let entry = flow_map.entry((dn, dest[k])).or_insert((0, 0));
            entry.0 += dataset.chunks[k].logical_bytes;
            entry.1 += 1;
        }
    }
    let flows: Vec<TransferFlow> = flow_map
        .into_iter()
        .map(|((dn, cn), (bytes, chunks))| TransferFlow {
            data_node: dn,
            compute_node: cn,
            bytes,
            chunks,
        })
        .collect();
    FetchPlan { dn_bytes, dn_chunks, flows }
}

/// The compute phase's shape under stragglers: the makespan, the
/// degraded-mode recovery time, and the per-node breakdown behind them
/// (for trace attribution).
struct StragglerPlan {
    /// Local-reduction makespan across the nodes that complete in-phase.
    makespan: SimDuration,
    /// Master re-execution time of the abandoned nodes' chunks.
    recovery: SimDuration,
    /// Each node's effective (slowdown-stretched) in-phase time; `None`
    /// for abandoned nodes, which do not contribute to the makespan.
    node_times: Vec<Option<SimDuration>>,
    /// Abandoned nodes with their spec-speed re-execution times, in
    /// node order (the master runs them serially in this order).
    abandoned: Vec<(usize, SimDuration)>,
}

/// Local-reduction makespan under stragglers, plus the degraded-mode
/// recovery time. A straggler whose stretched time would exceed
/// [`STRAGGLER_THRESHOLD`] times the slowest healthy node is abandoned;
/// the master re-executes its chunks at spec speed after the healthy
/// nodes finish (serially, one abandoned node after another). If every
/// node straggles there is no healthy baseline and nothing is abandoned;
/// if none does, the makespan is simply the slowest node's time.
fn straggler_plan(base: &[SimDuration], schedule: &FaultSchedule) -> StragglerPlan {
    let slow: Vec<f64> = (0..base.len()).map(|i| schedule.slowdown(i)).collect();
    let healthy_max = base.iter().zip(&slow).filter(|&(_, &s)| s == 1.0).map(|(t, _)| *t).max();
    match healthy_max {
        None => {
            let node_times: Vec<Option<SimDuration>> =
                base.iter().zip(&slow).map(|(t, &s)| Some(t.mul_f64(s))).collect();
            StragglerPlan {
                makespan: node_times.iter().flatten().copied().max().unwrap_or(SimDuration::ZERO),
                recovery: SimDuration::ZERO,
                node_times,
                abandoned: Vec::new(),
            }
        }
        Some(hmax) => {
            let mut makespan = SimDuration::ZERO;
            let mut recovery = SimDuration::ZERO;
            let mut node_times = Vec::with_capacity(base.len());
            let mut abandoned = Vec::new();
            for (i, (t, &s)) in base.iter().zip(&slow).enumerate() {
                let scaled = if s == 1.0 { *t } else { t.mul_f64(s) };
                if s > 1.0 && !hmax.is_zero() && scaled > hmax.mul_f64(STRAGGLER_THRESHOLD) {
                    recovery += *t;
                    node_times.push(None);
                    abandoned.push((i, *t));
                } else {
                    makespan = makespan.max(scaled);
                    node_times.push(Some(scaled));
                }
            }
            StragglerPlan { makespan, recovery, node_times, abandoned }
        }
    }
}

/// One pass's times below the phase level: what a trace attributes to
/// individual nodes.
struct PassDetail<'a> {
    remote: bool,
    plan: &'a FetchPlan,
    read_times: &'a [(usize, SimDuration)],
    flow_times: &'a [(TransferFlow, SimDuration)],
    node_times: &'a [Option<SimDuration>],
    abandoned: &'a [(usize, SimDuration)],
    send_times: &'a [SimDuration],
    obj_bytes: &'a [u64],
    dead_data_nodes: usize,
}

/// Record the span tree of the pass that started at `now`: one phase span
/// per non-zero phase, in clock order, with per-node children where the
/// phase has a breakdown. The cursor retraces exactly the integer
/// additions that advance the executor's clock, so span durations
/// reproduce the report bit for bit.
fn trace_pass(tr: &mut Tracer, now: SimTime, pass: &PassReport, detail: &PassDetail<'_>) {
    let pass_span = tr.begin(SpanKind::Pass, None, now);
    let mut t = now;
    if !pass.fault_detection.is_zero() {
        tr.record(SpanKind::FaultDetection, None, t, t + pass.fault_detection);
        t += pass.fault_detection;
    }
    if !pass.retrieval.is_zero() {
        let s = tr.begin(SpanKind::Retrieval, None, t);
        for &(dn, dt) in detail.read_times {
            let id = tr.record(SpanKind::NodeRead, Some(NodeRef::data(dn)), t, t + dt);
            tr.attr(id, "bytes", detail.plan.dn_bytes[dn]);
            tr.attr(id, "chunks", detail.plan.dn_chunks[dn] as u64);
        }
        tr.end(s, t + pass.retrieval);
        t += pass.retrieval;
    }
    if !pass.network.is_zero() {
        let s = tr.begin(SpanKind::Network, None, t);
        for &(f, dt) in detail.flow_times {
            let id = tr.record(SpanKind::NodeTransfer, Some(NodeRef::data(f.data_node)), t, t + dt);
            tr.attr(id, "bytes", f.bytes);
            tr.attr(id, "chunks", f.chunks as u64);
            tr.attr(id, "to_compute", f.compute_node as u64);
        }
        tr.end(s, t + pass.network);
        t += pass.network;
    }
    if !pass.cache_disk.is_zero() {
        tr.record(SpanKind::CacheDisk, None, t, t + pass.cache_disk);
        t += pass.cache_disk;
    }
    if !pass.cache_network.is_zero() {
        tr.record(SpanKind::CacheNetwork, None, t, t + pass.cache_network);
        t += pass.cache_network;
    }
    if !pass.local_compute.is_zero() {
        let s = tr.begin(SpanKind::Compute, None, t);
        for (p, nt) in detail.node_times.iter().enumerate() {
            if let Some(dt) = nt {
                if !dt.is_zero() {
                    tr.record(SpanKind::NodeCompute, Some(NodeRef::compute(p)), t, t + *dt);
                }
            }
        }
        tr.end(s, t + pass.local_compute);
        t += pass.local_compute;
    }
    if !pass.t_ro.is_zero() {
        let s = tr.begin(SpanKind::Gather, None, t);
        let mut g = t;
        for (i, &dt) in detail.send_times.iter().enumerate() {
            if !dt.is_zero() {
                let id = tr.record(SpanKind::NodeSend, Some(NodeRef::compute(i + 1)), g, g + dt);
                tr.attr(id, "obj_bytes", detail.obj_bytes[i + 1]);
            }
            g += dt;
        }
        tr.end(s, t + pass.t_ro);
        t += pass.t_ro;
    }
    if !pass.t_g.is_zero() {
        tr.record(SpanKind::GlobalReduce, Some(NodeRef::master()), t, t + pass.t_g);
        t += pass.t_g;
    }
    if !pass.migration.is_zero() {
        tr.record(SpanKind::Migration, None, t, t + pass.migration);
        t += pass.migration;
    }
    if !pass.straggler_recovery.is_zero() {
        let s = tr.begin(SpanKind::StragglerRecovery, None, t);
        let mut g = t;
        for &(p, dt) in detail.abandoned {
            let id = tr.record(SpanKind::NodeReexec, Some(NodeRef::master()), g, g + dt);
            tr.attr(id, "node", p as u64);
            g += dt;
        }
        tr.end(s, t + pass.straggler_recovery);
        t += pass.straggler_recovery;
    }
    tr.attr(pass_span, "max_obj_bytes", pass.max_obj_bytes);
    tr.attr(pass_span, "remote", u64::from(detail.remote));
    tr.end(pass_span, t);

    tr.metrics.counter("passes").inc();
    if detail.remote {
        let (fb, fc) = detail
            .flow_times
            .iter()
            .fold((0u64, 0u64), |(b, k), (f, _)| (b + f.bytes, k + f.chunks as u64));
        tr.metrics.counter("bytes_fetched").add(fb);
        tr.metrics.counter("chunks_fetched").add(fc);
    }
    if !pass.fault_detection.is_zero() {
        tr.metrics.counter("fault_detections").inc();
        tr.metrics.gauge("dead_data_nodes").set(detail.dead_data_nodes as f64);
    }
    tr.metrics.counter("stragglers_abandoned").add(detail.abandoned.len() as u64);
    if !pass.migration.is_zero() {
        tr.metrics.counter("migrations").inc();
    }
    tr.metrics
        .histogram("pass_seconds", &[0.01, 0.1, 1.0, 10.0, 100.0, 1000.0])
        .observe(t.saturating_since(now).as_secs_f64());
}

/// Executes FREERIDE-G applications on a deployment.
pub struct Executor {
    deployment: Deployment,
}

impl Executor {
    /// An executor for the given deployment.
    pub fn new(deployment: Deployment) -> Executor {
        Executor { deployment }
    }

    /// The deployment this executor runs on.
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// Run `app` over `dataset` to completion.
    ///
    /// The dataset must have at least as many chunks as there are data
    /// nodes, so every data node holds data (a configuration that leaves
    /// repository nodes empty is a resource-selection bug, not a
    /// middleware condition).
    pub fn run<A: ReductionApp>(&self, app: &A, dataset: &Dataset) -> RunResult<A::State> {
        let mode = RunMode::Full { controller: None, trace: false };
        self.run_with(app, dataset, &FaultSchedule::none(), mode).finished()
    }

    /// Run `app` over `dataset` under the faults in `schedule` (empty for
    /// none) as `mode` says: to completion, or into a [`Checkpoint`] if a
    /// [`RunMode::Suspend`] point is reached first.
    pub fn run_with<A: ReductionApp>(
        &self,
        app: &A,
        dataset: &Dataset,
        schedule: &FaultSchedule,
        mode: RunMode<'_, A::State, A::Obj>,
    ) -> ResumableOutcome<A::State, A::Obj> {
        let (mut controller, trace, start, stop) = match mode {
            RunMode::Full { controller, trace } => (controller, trace, None, None),
            RunMode::Suspend(sp) => (None, false, None, Some(sp)),
            RunMode::Resume(ck) => (None, false, Some(ck), None),
        };
        let d = &self.deployment;
        let n = d.config.data_nodes;
        let c = d.config.compute_nodes;
        let num_chunks = dataset.num_chunks();
        assert!(
            num_chunks >= n,
            "dataset {} has {} chunks but the configuration uses {} data nodes",
            dataset.id,
            num_chunks,
            n
        );
        if start.is_some() || stop.is_some() {
            assert!(d.cache.is_none(), "checkpointed runs do not support non-local cache sites");
        }
        if let Some(sp) = stop {
            assert!(
                sp.cursor <= num_chunks,
                "stop cursor {} exceeds the dataset's {} chunks",
                sp.cursor,
                num_chunks
            );
        }
        let inflation = dataset.work_inflation();
        let site = &d.compute;
        let machine = &site.machine;

        // Where the run starts: a checkpoint (validated against this
        // executor) or nothing done yet. `n0` is the data-node count that
        // fixed the chunk-to-compute-node map; migration may change the
        // fetch-side count but never `n0`.
        let (n0, start_pass, start_cursor, stored_mode, mut migration_due) = match &start {
            Some(ck) => {
                assert_eq!(ck.app, app.name(), "checkpoint was taken by a different app");
                assert_eq!(ck.dataset, dataset.id, "checkpoint was taken over a different dataset");
                assert_eq!(ck.num_chunks, num_chunks, "checkpoint chunk count mismatch");
                assert_eq!(ck.compute_nodes, c, "resume cannot change the compute-node count");
                assert_eq!(
                    ck.compute_machine, machine.name,
                    "resume is a replica switch; the compute site stays"
                );
                assert!(ck.cursor <= num_chunks, "checkpoint cursor out of range");
                assert_eq!(
                    ck.partials.len(),
                    c,
                    "checkpoint has one partial-object set per compute node"
                );
                assert!(
                    num_chunks >= ck.data_nodes,
                    "checkpoint's original configuration used {} data nodes over {num_chunks} chunks",
                    ck.data_nodes
                );
                // A resume on a different replica pays the restart
                // overhead in its first pass.
                let overhead = if ck.repository != d.repository.name {
                    MIGRATION_OVERHEAD
                } else {
                    SimDuration::ZERO
                };
                (ck.data_nodes, ck.pass_idx, ck.cursor, Some(ck.cache_mode), overhead)
            }
            None => (n, 0, 0, None, SimDuration::ZERO),
        };
        // Virtual clock: faults materialize against the accumulated pass
        // time, so a crash at t=0 hits the first fetch and one past the
        // horizon never fires.
        let (mut state, mut passes, mut carried, mut pending_prefix, mut now) = match start {
            Some(ck) => (ck.state, ck.completed, Some(ck.partials), Some(ck.prefix), ck.elapsed),
            None => (app.initial_state(), Vec::new(), None, None, SimTime::ZERO),
        };

        // Static plan: chunk -> data node over `n0`, chunk -> compute
        // node. The chunk-to-compute-node map `dest` is fixed for the
        // whole run (faults only move the fetch side), so local
        // reductions — and hence the final state — never depend on the
        // schedule.
        let placement = partition::contiguous(num_chunks, n0);
        let dest = distribution::assign_destinations(&placement, c);

        // The replica currently serving remote fetches; migration
        // replaces it. Compute-side phases always use `d`.
        let mut current: Deployment = d.clone();
        // Data nodes already detected dead (crash indices follow node
        // positions, so they persist across migration).
        let mut known_dead: Vec<usize> = Vec::new();

        // Per-compute-node chunk lists, in chunk order.
        let mut node_chunks: Vec<Vec<usize>> = vec![Vec::new(); c];
        for (k, &cn) in dest.iter().enumerate() {
            node_chunks[cn].push(k);
        }

        // Per-compute-node volumes (for cache planning and cache-site
        // traffic).
        let node_bytes: Vec<u64> = node_chunks
            .iter()
            .map(|list| list.iter().map(|&k| dataset.chunks[k].logical_bytes).sum())
            .collect();

        // Decide how chunks persist between passes: locally if every
        // node's share fits its scratch storage, at the non-local caching
        // site if one is attached, else by re-fetching from the origin.
        // The decision is sticky across a resume: the compute-local cache
        // survives the replica switch.
        let max_node_bytes = node_bytes.iter().copied().max().unwrap_or(0);
        let cache_mode = match stored_mode {
            Some(m) => m,
            None if !app.caches() => CacheMode::SinglePass,
            None if max_node_bytes <= site.node_storage_bytes => CacheMode::Local,
            None if d.cache.is_some() => CacheMode::NonLocal,
            None => CacheMode::Refetch,
        };

        // Cache-site traffic plan (compute node <-> cache node, banded).
        let cache_plan = d.cache.as_ref().filter(|_| cache_mode == CacheMode::NonLocal).map(|cs| {
            let eff_nodes = cs.nodes.min(c);
            let flows: Vec<TransferFlow> = (0..c)
                .filter(|&p| node_bytes[p] > 0)
                .map(|p| TransferFlow {
                    // `data_node` is the cache-site side of the stream.
                    data_node: p * eff_nodes / c,
                    compute_node: p,
                    bytes: node_bytes[p],
                    chunks: node_chunks[p].len(),
                })
                .collect();
            let mut per_node_bytes = vec![0u64; eff_nodes];
            let mut per_node_chunks = vec![0usize; eff_nodes];
            for f in &flows {
                per_node_bytes[f.data_node] += f.bytes;
                per_node_chunks[f.data_node] += f.chunks;
            }
            (cs, eff_nodes, flows, per_node_bytes, per_node_chunks)
        });

        let mut tracer = trace.then(|| {
            let mut tr = Tracer::new();
            let run_span = tr.begin(SpanKind::Run, None, now);
            (tr, run_span)
        });
        let mut pass_idx = start_pass;

        loop {
            assert!(
                pass_idx < app.max_passes(),
                "application {} exceeded its pass bound of {}",
                app.name(),
                app.max_passes()
            );
            // Caching runs fetch from the origin once; single-pass and
            // storage-starved (Refetch) runs fetch every pass (the paper:
            // "if caching was performed on the initial iteration, each
            // subsequent pass retrieves data chunks from local disk").
            let remote =
                pass_idx == 0 || matches!(cache_mode, CacheMode::SinglePass | CacheMode::Refetch);
            // This iteration's chunk range: the whole pass, minus what a
            // resumed checkpoint already folded, minus what lies past a
            // stop point.
            let lo = if pass_idx == start_pass { start_cursor } else { 0 };
            let stop_here = stop.filter(|sp| sp.pass == pass_idx);
            let hi = stop_here.map_or(num_chunks, |sp| sp.cursor);
            let fetches = remote && hi > lo;
            let n_cur = current.config.data_nodes;

            // Phase 0 (faults only): crash detection. Fetches against
            // nodes that died by now time out and exhaust their retries;
            // the timeouts run concurrently, so one detection delay
            // covers the round. Orphaned chunks are rebalanced over the
            // survivors before retrieval begins.
            let mut fault_detection = SimDuration::ZERO;
            if fetches && !schedule.crashes.is_empty() {
                let dead_now: Vec<usize> =
                    schedule.crashed_nodes(now).into_iter().filter(|&i| i < n_cur).collect();
                if dead_now.iter().any(|i| !known_dead.contains(i)) {
                    fault_detection = DETECTION_DELAY;
                    known_dead = dead_now;
                }
            }

            // Phase 1: origin repository retrieval of the range's chunks.
            // The per-node times feed trace attribution; the phase is
            // their makespan.
            let plan = if fetches {
                let dead: Vec<usize> = known_dead.iter().copied().filter(|&i| i < n_cur).collect();
                fetch_plan(dataset, n_cur, &dest, &dead, lo, hi)
            } else {
                FetchPlan::default()
            };
            let read_times =
                dataserver::retrieval_times(&current.repository, &plan.dn_bytes, &plan.dn_chunks);
            let retrieval = read_times.iter().map(|&(_, t)| t).max().unwrap_or(SimDuration::ZERO);

            // Phase 2: origin WAN transfer, at whatever bandwidth the
            // degradation windows leave when the transfer starts.
            let net_factor = schedule.bandwidth_factor(now + fault_detection + retrieval);
            let mut wan = current.wan.clone();
            wan.stream_bw *= net_factor;
            if let Some(cap) = wan.aggregate_cap.as_mut() {
                *cap *= net_factor;
            }
            let flow_times = comm::transfer_times(
                &wan,
                &current.repository.machine,
                machine,
                n_cur,
                c,
                &plan.flows,
            );
            let network = flow_times.iter().map(|&(_, t)| t).max().unwrap_or(SimDuration::ZERO);

            // Non-local cache traffic: write-through on the first pass,
            // reads on later passes.
            let (cache_disk, cache_network) = match &cache_plan {
                Some((cs, eff_nodes, cache_flows, pnb, pnc)) => {
                    let disk = dataserver::retrieval_makespan(&cs.site, pnb, pnc);
                    let net = if pass_idx == 0 {
                        // Compute nodes stream to the cache site.
                        comm::transfer_makespan(
                            &cs.wan,
                            machine,
                            &cs.site.machine,
                            c,
                            *eff_nodes,
                            &cache_flows
                                .iter()
                                .map(|f| TransferFlow {
                                    data_node: f.compute_node,
                                    compute_node: f.data_node,
                                    bytes: f.bytes,
                                    chunks: f.chunks,
                                })
                                .collect::<Vec<_>>(),
                        )
                    } else {
                        // The cache site streams back to the compute nodes.
                        comm::transfer_makespan(
                            &cs.wan,
                            &cs.site.machine,
                            machine,
                            *eff_nodes,
                            c,
                            cache_flows,
                        )
                    };
                    (disk, net)
                }
                None => (SimDuration::ZERO, SimDuration::ZERO),
            };

            // Phase 3: local reductions over the range (real execution;
            // SMP nodes fold on all cores), seeded with the carried
            // partials when resuming mid-pass.
            let cache = if cache_mode != CacheMode::Local {
                CacheTraffic::None
            } else if pass_idx == 0 {
                CacheTraffic::Write
            } else {
                CacheTraffic::Read
            };
            let segs = computeserver::run_segment_reductions(
                app,
                &state,
                dataset,
                &node_chunks,
                machine.cores,
                lo,
                hi,
                carried.take(),
            );
            let fold_times: Vec<SimDuration> = segs
                .iter()
                .map(|s| {
                    computeserver::segment_compute_time(s, machine, &site.costs, inflation, cache)
                })
                .collect();

            if let Some(sp) = stop_here {
                // Suspend: per-core partials stay unmerged so the resume
                // replays the exact merge tree.
                let folds = straggler_plan(&fold_times, schedule);
                let prefix = PassReport {
                    retrieval,
                    network,
                    local_compute: folds.makespan,
                    fault_detection,
                    straggler_recovery: folds.recovery,
                    ..PassReport::default()
                };
                return ResumableOutcome::Suspended(Checkpoint {
                    app: app.name().to_string(),
                    dataset: dataset.id.clone(),
                    num_chunks,
                    data_nodes: n0,
                    compute_nodes: c,
                    repository: d.repository.name.clone(),
                    compute_machine: machine.name.clone(),
                    cache_mode,
                    pass_idx,
                    cursor: sp.cursor,
                    state,
                    partials: segs.into_iter().map(|s| s.core_objs).collect(),
                    elapsed: now
                        + fault_detection
                        + retrieval
                        + network
                        + folds.makespan
                        + folds.recovery,
                    completed: passes,
                    prefix,
                });
            }

            // The pass completes: each node combines its cores' objects.
            let mut objs = Vec::with_capacity(c);
            let mut base_times = Vec::with_capacity(c);
            for (fold_t, seg) in fold_times.iter().zip(segs) {
                let (obj, smp_merge) = computeserver::combine_segment(seg.core_objs);
                base_times.push(*fold_t + smp_merge.time_on(machine, inflation));
                objs.push(obj);
            }
            let StragglerPlan {
                makespan: local_compute,
                recovery: straggler_recovery,
                node_times,
                abandoned,
            } = straggler_plan(&base_times, schedule);

            // Phase 4: reduction-object communication (serialized
            // gather): t_ro is exactly the sum of the per-sender times.
            let obj_bytes: Vec<u64> = objs.iter().map(|o| o.size().logical(inflation)).collect();
            let send_times = comm::gather_times(site, &obj_bytes[1..]);
            let t_ro: SimDuration = send_times.iter().copied().sum();
            let max_obj_bytes = obj_bytes.iter().copied().max().unwrap_or(0);

            // Phase 5: global reduction at the master (node 0): handle
            // every object (the master's own included), merge, finalize,
            // broadcast the next state.
            let mut master_meter = WorkMeter::new();
            let mut iter = objs.into_iter();
            let mut merged = iter.next().expect("at least one compute node");
            for o in iter {
                merged.merge(&o, &mut master_meter);
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

            // The controller sees the pass and may migrate the fetch
            // side to another replica for subsequent remote passes.
            let mut migration = std::mem::take(&mut migration_due);
            let phases_done = now
                + fault_detection
                + retrieval
                + network
                + cache_disk
                + cache_network
                + local_compute
                + t_ro
                + t_g;
            if let Some(ctrl) = controller.as_deref_mut() {
                let obs = PassObservation {
                    pass_idx,
                    elapsed: phases_done,
                    remote,
                    observed_wan_bw: remote.then_some(wan.stream_bw),
                    finished,
                };
                match ctrl.after_pass(&obs, &current) {
                    PassAction::Continue => {}
                    PassAction::Migrate(new_d) => {
                        if !finished {
                            assert_eq!(
                                new_d.config.compute_nodes, c,
                                "migration cannot change the compute-node count"
                            );
                            assert_eq!(
                                new_d.compute.machine.name, d.compute.machine.name,
                                "migration is a replica switch; the compute site stays"
                            );
                            migration = MIGRATION_OVERHEAD;
                            current = *new_d;
                        }
                    }
                }
            }

            let mut report = PassReport {
                retrieval,
                network,
                cache_disk,
                cache_network,
                local_compute,
                t_ro,
                t_g,
                max_obj_bytes,
                fault_detection,
                straggler_recovery,
                migration,
            };
            if let Some((tr, _)) = tracer.as_mut() {
                let detail = PassDetail {
                    remote,
                    plan: &plan,
                    read_times: &read_times,
                    flow_times: &flow_times,
                    node_times: &node_times,
                    abandoned: &abandoned,
                    send_times: &send_times,
                    obj_bytes: &obj_bytes,
                    dead_data_nodes: known_dead.len(),
                };
                trace_pass(tr, now, &report, &detail);
            }
            // A resumed split pass folds the checkpointed prefix's phase
            // components into its report, so the run has one report per
            // logical pass.
            if let Some(prefix) = pending_prefix.take() {
                report.retrieval += prefix.retrieval;
                report.network += prefix.network;
                report.local_compute += prefix.local_compute;
                report.fault_detection += prefix.fault_detection;
                report.straggler_recovery += prefix.straggler_recovery;
            }
            passes.push(report);
            now = phases_done + migration + straggler_recovery;
            state = next_state;
            if finished {
                break;
            }
            pass_idx += 1;
        }

        let report = ExecutionReport {
            app: app.name().to_string(),
            dataset: dataset.id.clone(),
            dataset_bytes: dataset.logical_bytes(),
            data_nodes: n,
            compute_nodes: c,
            wan_bw: d.wan.stream_bw,
            repo_machine: d.repository.machine.name.clone(),
            compute_machine: machine.name.clone(),
            cache_mode,
            passes,
        };
        let trace = tracer.map(|(mut tr, run_span)| {
            tr.end(run_span, now);
            tr.finish(Some(report.run_meta()))
        });
        ResumableOutcome::Finished(RunResult { report, final_state: state, trace })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ObjSize;
    use fg_chunks::{codec, DatasetBuilder};
    use fg_cluster::{ComputeSite, Configuration, RepositorySite, Wan};
    use serde::{Deserialize, Serialize};

    /// Two-pass app: pass 1 sums elements, pass 2 counts elements above
    /// the mean. Exercises caching, state broadcast, and merge.
    struct TwoPass;

    #[derive(Clone, Serialize, Deserialize)]
    struct Acc {
        sum: f64,
        count: u64,
    }

    impl ReductionObject for Acc {
        fn merge(&mut self, other: &Self, meter: &mut WorkMeter) {
            self.sum += other.sum;
            self.count += other.count;
            meter.fixed_flops(2);
        }
        fn size(&self) -> ObjSize {
            ObjSize { fixed: 16, data: 0 }
        }
    }

    #[derive(Clone, Serialize, Deserialize)]
    enum Phase {
        ComputeMean,
        CountAbove(f64),
        Done(u64),
    }

    impl ReductionApp for TwoPass {
        type Obj = Acc;
        type State = Phase;
        fn name(&self) -> &str {
            "two-pass"
        }
        fn initial_state(&self) -> Phase {
            Phase::ComputeMean
        }
        fn new_object(&self, _: &Phase) -> Acc {
            Acc { sum: 0.0, count: 0 }
        }
        fn local_reduce(
            &self,
            state: &Phase,
            chunk: &fg_chunks::Chunk,
            obj: &mut Acc,
            meter: &mut WorkMeter,
        ) {
            let vals = codec::decode_f32s(&chunk.payload);
            match state {
                Phase::ComputeMean => {
                    for v in &vals {
                        obj.sum += *v as f64;
                        obj.count += 1;
                    }
                }
                Phase::CountAbove(mean) => {
                    for v in &vals {
                        if (*v as f64) > *mean {
                            obj.count += 1;
                        }
                    }
                }
                Phase::Done(_) => unreachable!("no pass after Done"),
            }
            meter.data_flops(vals.len() as u64);
        }
        fn global_finalize(
            &self,
            state: &Phase,
            merged: Acc,
            _: &mut WorkMeter,
        ) -> PassOutcome<Phase> {
            match state {
                Phase::ComputeMean => {
                    PassOutcome::NextPass(Phase::CountAbove(merged.sum / merged.count as f64))
                }
                Phase::CountAbove(_) => PassOutcome::Finished(Phase::Done(merged.count)),
                Phase::Done(_) => unreachable!(),
            }
        }
        fn state_size(&self, _: &Phase) -> ObjSize {
            ObjSize { fixed: 8, data: 0 }
        }
        fn caches(&self) -> bool {
            true
        }
    }

    fn dataset(chunks: usize, per_chunk: usize) -> Dataset {
        let mut b = DatasetBuilder::new("d", "t", 1.0);
        let mut x = 0u32;
        for _ in 0..chunks {
            let vals: Vec<f32> = (0..per_chunk)
                .map(|_| {
                    x += 1;
                    x as f32
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
            Wan::per_stream(1e6),
            Configuration::new(n, c),
        )
    }

    #[test]
    fn two_pass_app_gets_right_answer_on_any_configuration() {
        let ds = dataset(8, 100); // values 1..=800, mean 400.5 -> 400 above
        for (n, c) in [(1, 1), (2, 4), (4, 8), (8, 16)] {
            let result = Executor::new(deployment(n, c)).run(&TwoPass, &ds);
            match result.final_state {
                Phase::Done(count) => assert_eq!(count, 400, "config {n}-{c}"),
                _ => panic!("did not finish"),
            }
            assert_eq!(result.report.num_passes(), 2);
        }
    }

    #[test]
    fn caching_suppresses_second_pass_io() {
        let ds = dataset(8, 100);
        let r = Executor::new(deployment(2, 2)).run(&TwoPass, &ds).report;
        assert!(!r.passes[0].retrieval.is_zero());
        assert!(!r.passes[0].network.is_zero());
        assert!(r.passes[1].retrieval.is_zero());
        assert!(r.passes[1].network.is_zero());
    }

    #[test]
    fn single_node_has_no_gather_cost() {
        let ds = dataset(4, 10);
        let r = Executor::new(deployment(1, 1)).run(&TwoPass, &ds).report;
        assert!(r.t_ro().is_zero());
        // But t_g is nonzero: the master still handles its own object.
        assert!(!r.t_g().is_zero());
    }

    #[test]
    fn gather_cost_grows_with_compute_nodes() {
        let ds = dataset(16, 10);
        let r2 = Executor::new(deployment(1, 2)).run(&TwoPass, &ds).report;
        let r8 = Executor::new(deployment(1, 8)).run(&TwoPass, &ds).report;
        assert!(r8.t_ro() > r2.t_ro());
        assert!(r8.t_g() > r2.t_g());
    }

    #[test]
    fn more_data_nodes_speed_up_retrieval() {
        let ds = dataset(16, 1000);
        let r1 = Executor::new(deployment(1, 4)).run(&TwoPass, &ds).report;
        let r4 = Executor::new(deployment(4, 4)).run(&TwoPass, &ds).report;
        assert!(r4.t_disk() < r1.t_disk());
        assert!(r4.t_network() < r1.t_network());
    }

    #[test]
    fn report_identifies_the_run() {
        let ds = dataset(4, 10);
        let r = Executor::new(deployment(2, 4)).run(&TwoPass, &ds).report;
        assert_eq!(r.app, "two-pass");
        assert_eq!(r.data_nodes, 2);
        assert_eq!(r.compute_nodes, 4);
        assert_eq!(r.dataset_bytes, ds.logical_bytes());
        assert_eq!(r.repo_machine, "pentium-700");
    }

    #[test]
    #[should_panic(expected = "chunks but the configuration")]
    fn too_few_chunks_rejected() {
        let ds = dataset(2, 10);
        Executor::new(deployment(4, 4)).run(&TwoPass, &ds);
    }

    #[test]
    fn deterministic_across_runs() {
        let ds = dataset(8, 50);
        let a = Executor::new(deployment(2, 8)).run(&TwoPass, &ds).report;
        let b = Executor::new(deployment(2, 8)).run(&TwoPass, &ds).report;
        assert_eq!(a.total(), b.total());
        assert_eq!(a.t_ro(), b.t_ro());
        assert_eq!(a.t_g(), b.t_g());
    }

    fn final_count(state: &Phase) -> u64 {
        match state {
            Phase::Done(count) => *count,
            _ => panic!("did not finish"),
        }
    }

    /// An untraced full run to completion under `schedule`.
    fn run_faulty(ex: &Executor, ds: &Dataset, schedule: &FaultSchedule) -> RunResult<Phase> {
        ex.run_with(&TwoPass, ds, schedule, RunMode::Full { controller: None, trace: false })
            .finished()
    }

    /// [`run_faulty`] with trace capture and an optional controller.
    fn run_traced(
        ex: &Executor,
        ds: &Dataset,
        schedule: &FaultSchedule,
        controller: Option<&mut dyn PassController>,
    ) -> (RunResult<Phase>, Trace) {
        let mode = RunMode::Full { controller, trace: true };
        let mut result = ex.run_with(&TwoPass, ds, schedule, mode).finished();
        let trace = result.trace.take().expect("a traced run returns its trace");
        (result, trace)
    }

    /// Suspend at `stop`.
    fn suspend(
        ex: &Executor,
        ds: &Dataset,
        schedule: &FaultSchedule,
        stop: StopPoint,
    ) -> ResumableOutcome<Phase, Acc> {
        ex.run_with(&TwoPass, ds, schedule, RunMode::Suspend(stop))
    }

    /// Continue `ck` to completion.
    fn resume(
        ex: &Executor,
        ds: &Dataset,
        schedule: &FaultSchedule,
        ck: Checkpoint<Phase, Acc>,
    ) -> RunResult<Phase> {
        ex.run_with(&TwoPass, ds, schedule, RunMode::Resume(ck)).finished()
    }

    #[test]
    fn empty_schedule_is_bit_identical_to_run() {
        let ds = dataset(8, 100);
        let ex = Executor::new(deployment(2, 4));
        let plain = ex.run(&TwoPass, &ds);
        let faulty = run_faulty(&ex, &ds, &FaultSchedule::none());
        assert_eq!(plain.report, faulty.report);
        assert_eq!(final_count(&plain.final_state), final_count(&faulty.final_state));
        assert_eq!(faulty.report.t_recovery(), SimDuration::ZERO);
    }

    #[test]
    fn crash_charges_detection_and_reroutes_to_survivors() {
        let ds = dataset(8, 100);
        let ex = Executor::new(deployment(4, 4));
        let plain = ex.run(&TwoPass, &ds);
        let s = FaultSchedule::none().crash(1, SimTime::ZERO).crash(3, SimTime::ZERO);
        let faulty = run_faulty(&ex, &ds, &s);
        // Both crashes are found in one concurrent detection round.
        assert_eq!(faulty.report.passes[0].fault_detection, DETECTION_DELAY);
        // Cached second pass touches no data nodes: nothing to detect.
        assert_eq!(faulty.report.passes[1].fault_detection, SimDuration::ZERO);
        // Two survivors serve what four nodes did: retrieval slows down.
        assert!(faulty.report.passes[0].retrieval > plain.report.passes[0].retrieval);
        assert!(faulty.report.total() > plain.report.total());
        // The answer is unaffected.
        assert_eq!(final_count(&faulty.final_state), final_count(&plain.final_state));
    }

    #[test]
    #[should_panic(expected = "no survivor holds the data")]
    fn losing_every_data_node_is_fatal() {
        let ds = dataset(8, 10);
        let s = FaultSchedule::none().crash(0, SimTime::ZERO).crash(1, SimTime::ZERO);
        run_faulty(&Executor::new(deployment(2, 2)), &ds, &s);
    }

    #[test]
    fn crash_after_the_only_remote_pass_changes_nothing() {
        // Local caching fetches remotely on pass 0 only; a node dying
        // one instant later is never even detected.
        let ds = dataset(8, 100);
        let ex = Executor::new(deployment(2, 4));
        let plain = ex.run(&TwoPass, &ds);
        let s = FaultSchedule::none().crash(1, SimTime::from_nanos(1));
        let faulty = run_faulty(&ex, &ds, &s);
        assert_eq!(plain.report, faulty.report);
    }

    #[test]
    fn degradation_window_slows_the_transfer() {
        let ds = dataset(8, 100);
        let ex = Executor::new(deployment(2, 4));
        let plain = ex.run(&TwoPass, &ds);
        let s = FaultSchedule::none().degrade(SimTime::ZERO, SimTime::MAX, 0.5);
        let faulty = run_faulty(&ex, &ds, &s);
        assert!(faulty.report.passes[0].network > plain.report.passes[0].network);
        assert_eq!(faulty.report.passes[0].retrieval, plain.report.passes[0].retrieval);
        assert_eq!(final_count(&faulty.final_state), final_count(&plain.final_state));
    }

    #[test]
    fn mild_straggler_stretches_compute_within_threshold() {
        let ds = dataset(8, 100);
        let ex = Executor::new(deployment(2, 4));
        let plain = ex.run(&TwoPass, &ds);
        let s = FaultSchedule::none().straggler(2, 1.5);
        let faulty = run_faulty(&ex, &ds, &s);
        assert!(faulty.report.passes[0].local_compute >= plain.report.passes[0].local_compute);
        assert_eq!(faulty.report.t_straggler_recovery(), SimDuration::ZERO);
        assert_eq!(final_count(&faulty.final_state), final_count(&plain.final_state));
    }

    #[test]
    fn extreme_straggler_is_abandoned_and_reexecuted() {
        let ds = dataset(8, 100);
        let ex = Executor::new(deployment(2, 4));
        let plain = ex.run(&TwoPass, &ds);
        let s = FaultSchedule::none().straggler(2, 100.0);
        let faulty = run_faulty(&ex, &ds, &s);
        // Degraded-mode completion: the healthy nodes bound the phase,
        // and the master re-runs the abandoned share afterwards.
        assert!(!faulty.report.t_straggler_recovery().is_zero());
        assert!(faulty.report.passes[0].local_compute <= plain.report.passes[0].local_compute);
        assert_eq!(final_count(&faulty.final_state), final_count(&plain.final_state));
    }

    /// Migrates to a fixed replica after the first pass, once.
    struct MigrateOnce {
        target: Option<Deployment>,
        observed: Vec<Option<f64>>,
    }

    impl PassController for MigrateOnce {
        fn after_pass(&mut self, obs: &PassObservation, _: &Deployment) -> PassAction {
            self.observed.push(obs.observed_wan_bw);
            match self.target.take() {
                Some(d) if !obs.finished => PassAction::Migrate(Box::new(d)),
                _ => PassAction::Continue,
            }
        }
    }

    fn refetch_deployment(n: usize, c: usize, wan_bw: f64) -> Deployment {
        let mut site = ComputeSite::pentium_myrinet("cs", 16);
        site.node_storage_bytes = 0; // forces CacheMode::Refetch
        Deployment::new(
            RepositorySite::pentium_repository("repo", 8),
            site,
            Wan::per_stream(wan_bw),
            Configuration::new(n, c),
        )
    }

    #[test]
    fn controller_migration_redirects_later_passes() {
        let ds = dataset(8, 100);
        let slow = refetch_deployment(2, 4, 1e5);
        let fast = refetch_deployment(2, 4, 1e6);
        let mut ctrl = MigrateOnce { target: Some(fast), observed: Vec::new() };
        let mode = RunMode::Full { controller: Some(&mut ctrl), trace: false };
        let r = Executor::new(slow).run_with(&TwoPass, &ds, &FaultSchedule::none(), mode);
        let r = r.finished().report;
        assert_eq!(r.passes[0].migration, MIGRATION_OVERHEAD);
        assert_eq!(r.passes[1].migration, SimDuration::ZERO);
        // Refetch mode keeps every pass remote; the new replica's faster
        // WAN shows up immediately.
        assert!(r.passes[1].network < r.passes[0].network);
        // The controller observed the per-stream bandwidth of each pass.
        assert_eq!(ctrl.observed, vec![Some(1e5), Some(1e6)]);
    }

    #[test]
    fn traced_run_matches_untraced_bit_for_bit() {
        let ds = dataset(8, 100);
        let ex = Executor::new(deployment(2, 4));
        let plain = ex.run(&TwoPass, &ds);
        let (traced, trace) = run_traced(&ex, &ds, &FaultSchedule::none(), None);
        assert_eq!(plain.report, traced.report);
        assert_eq!(final_count(&plain.final_state), final_count(&traced.final_state));
        trace.check_well_formed().expect("trace must be well-formed");
        assert_eq!(trace.passes().len(), traced.report.num_passes());
    }

    #[test]
    fn trace_component_sums_equal_report_components() {
        let ds = dataset(8, 100);
        let (result, trace) =
            run_traced(&Executor::new(deployment(2, 4)), &ds, &FaultSchedule::none(), None);
        let r = &result.report;
        assert_eq!(
            trace.component_sum(SpanKind::Retrieval) + trace.component_sum(SpanKind::CacheDisk),
            r.t_disk()
        );
        assert_eq!(
            trace.component_sum(SpanKind::Network) + trace.component_sum(SpanKind::CacheNetwork),
            r.t_network()
        );
        assert_eq!(trace.component_sum(SpanKind::Compute) + r.t_ro() + r.t_g(), r.t_compute());
        assert_eq!(trace.component_sum(SpanKind::Gather), r.t_ro());
        assert_eq!(trace.component_sum(SpanKind::GlobalReduce), r.t_g());
        // The run span covers the whole execution.
        let root = trace.root().expect("run span");
        assert_eq!(root.duration(), r.total());
    }

    #[test]
    fn report_round_trips_through_its_trace() {
        let ds = dataset(8, 100);
        let (result, trace) =
            run_traced(&Executor::new(deployment(2, 4)), &ds, &FaultSchedule::none(), None);
        let rebuilt = crate::ExecutionReport::from_trace(&trace).expect("reconstructable");
        assert_eq!(rebuilt, result.report);
    }

    #[test]
    fn faulted_trace_records_recovery_spans() {
        let ds = dataset(8, 100);
        let ex = Executor::new(deployment(4, 4));
        let s = FaultSchedule::none().crash(1, SimTime::ZERO).straggler(2, 100.0);
        let (result, trace) = run_traced(&ex, &ds, &s, None);
        trace.check_well_formed().expect("faulted trace must be well-formed");
        let r = &result.report;
        assert_eq!(trace.component_sum(SpanKind::FaultDetection), r.t_fault_detection());
        assert_eq!(trace.component_sum(SpanKind::StragglerRecovery), r.t_straggler_recovery());
        assert!(!r.t_straggler_recovery().is_zero());
        // The abandoned straggler's re-execution is attributed to the master.
        let reexec: Vec<_> =
            trace.spans.iter().filter(|sp| sp.kind == SpanKind::NodeReexec).collect();
        assert!(!reexec.is_empty());
        assert_eq!(
            reexec.iter().map(|sp| sp.duration()).sum::<SimDuration>(),
            r.t_straggler_recovery()
        );
        let rebuilt = crate::ExecutionReport::from_trace(&trace).expect("reconstructable");
        assert_eq!(rebuilt, *r);
    }

    #[test]
    fn traced_migration_records_its_overhead() {
        let ds = dataset(8, 100);
        let fast = refetch_deployment(2, 4, 1e6);
        let mut ctrl = MigrateOnce { target: Some(fast), observed: Vec::new() };
        let ex = Executor::new(refetch_deployment(2, 4, 1e5));
        let (result, trace) = run_traced(&ex, &ds, &FaultSchedule::none(), Some(&mut ctrl));
        trace.check_well_formed().expect("migrated trace must be well-formed");
        assert_eq!(trace.component_sum(SpanKind::Migration), MIGRATION_OVERHEAD);
        let rebuilt = crate::ExecutionReport::from_trace(&trace).expect("reconstructable");
        assert_eq!(rebuilt, result.report);
    }

    #[test]
    fn traced_run_collects_metrics() {
        let ds = dataset(8, 100);
        let (result, trace) =
            run_traced(&Executor::new(deployment(2, 4)), &ds, &FaultSchedule::none(), None);
        assert_eq!(trace.metrics.counter("passes"), Some(result.report.num_passes() as u64));
        let fetched = trace.metrics.counter("bytes_fetched").unwrap_or(0);
        assert_eq!(fetched, ds.logical_bytes(), "pass 0 fetches the whole dataset once");
    }

    #[test]
    #[should_panic(expected = "cannot change the compute-node count")]
    fn migration_to_different_compute_count_is_rejected() {
        let ds = dataset(8, 10);
        let mut ctrl =
            MigrateOnce { target: Some(refetch_deployment(2, 8, 1e6)), observed: Vec::new() };
        let mode = RunMode::Full { controller: Some(&mut ctrl), trace: false };
        Executor::new(refetch_deployment(2, 4, 1e5)).run_with(
            &TwoPass,
            &ds,
            &FaultSchedule::none(),
            mode,
        );
    }

    /// [`refetch_deployment`] pointed at a different replica of the same
    /// dataset (resuming here is a migration).
    fn refetch_replica(n: usize, c: usize, wan_bw: f64) -> Deployment {
        let mut site = ComputeSite::pentium_myrinet("cs", 16);
        site.node_storage_bytes = 0;
        Deployment::new(
            RepositorySite::pentium_repository("repo-b", 8),
            site,
            Wan::per_stream(wan_bw),
            Configuration::new(n, c),
        )
    }

    #[test]
    fn resumable_split_is_bit_identical_at_every_boundary() {
        let ds = dataset(8, 100);
        let ex = Executor::new(deployment(2, 4));
        let sched = FaultSchedule::none();
        let unsplit = ex.run(&TwoPass, &ds);
        for pass in 0..2 {
            for cursor in 0..=ds.num_chunks() {
                let ck = suspend(&ex, &ds, &sched, StopPoint { pass, cursor })
                    .expect_suspended("two-pass app suspends inside either pass");
                assert_eq!(ck.pass_idx, pass);
                assert_eq!(ck.cursor, cursor);
                let resumed = resume(&ex, &ds, &sched, ck);
                assert_eq!(
                    final_count(&resumed.final_state),
                    final_count(&unsplit.final_state),
                    "split at pass {pass} chunk {cursor}"
                );
                assert_eq!(resumed.report.num_passes(), unsplit.report.num_passes());
                // Resuming on the same replica is not a migration.
                assert_eq!(resumed.report.passes[pass].migration, SimDuration::ZERO);
            }
        }
    }

    #[test]
    fn unreached_stop_point_finishes_with_the_unsplit_report() {
        let ds = dataset(8, 100);
        let ex = Executor::new(deployment(2, 4));
        let unsplit = ex.run(&TwoPass, &ds);
        let outcome = suspend(&ex, &ds, &FaultSchedule::none(), StopPoint { pass: 7, cursor: 0 });
        match outcome {
            ResumableOutcome::Finished(r) => {
                assert_eq!(r.report, unsplit.report);
                assert_eq!(final_count(&r.final_state), final_count(&unsplit.final_state));
            }
            ResumableOutcome::Suspended(_) => panic!("two passes never reach pass 7"),
        }
    }

    #[test]
    fn resume_on_another_replica_charges_the_migration_overhead() {
        let ds = dataset(8, 100);
        let sched = FaultSchedule::none();
        let home = Executor::new(refetch_deployment(2, 4, 1e5));
        let unsplit = home.run(&TwoPass, &ds);
        let ck = suspend(&home, &ds, &sched, StopPoint { pass: 1, cursor: 3 })
            .expect_suspended("stops mid second pass");
        // A faster replica serves the remaining fraction after the
        // switch; the answer is unchanged and the overhead is charged to
        // the resumed pass.
        let away = Executor::new(refetch_replica(2, 4, 1e6));
        let resumed = resume(&away, &ds, &sched, ck);
        assert_eq!(final_count(&resumed.final_state), final_count(&unsplit.final_state));
        assert_eq!(resumed.report.passes[1].migration, MIGRATION_OVERHEAD);
    }

    #[test]
    fn resumable_split_under_faults_matches_the_uninterrupted_run() {
        let ds = dataset(8, 100);
        let ex = Executor::new(deployment(4, 4));
        let sched = FaultSchedule::none()
            .crash(1, SimTime::ZERO)
            .degrade(SimTime::ZERO, SimTime::MAX, 0.5)
            .straggler(2, 100.0);
        let unsplit = run_faulty(&ex, &ds, &sched);
        for (pass, cursor) in [(0, 1), (0, 5), (1, 4), (1, 8)] {
            let ck = suspend(&ex, &ds, &sched, StopPoint { pass, cursor })
                .expect_suspended("stops inside the run");
            let resumed = resume(&ex, &ds, &sched, ck);
            assert_eq!(
                final_count(&resumed.final_state),
                final_count(&unsplit.final_state),
                "split at pass {pass} chunk {cursor} under faults"
            );
        }
    }

    #[test]
    fn checkpoint_resumes_after_a_serialization_roundtrip() {
        let ds = dataset(8, 100);
        let ex = Executor::new(deployment(2, 4));
        let sched = FaultSchedule::none();
        let unsplit = ex.run(&TwoPass, &ds);
        let ck = suspend(&ex, &ds, &sched, StopPoint { pass: 1, cursor: 5 })
            .expect_suspended("stops mid second pass");
        let mut wire = serde::Writer::new();
        ck.serialize(&mut wire);
        let back =
            Checkpoint::<Phase, Acc>::deserialize(&mut serde::Reader::new(&wire.into_string()))
                .expect("checkpoint round-trips");
        let resumed = resume(&ex, &ds, &sched, back);
        assert_eq!(final_count(&resumed.final_state), final_count(&unsplit.final_state));
    }

    #[test]
    #[should_panic(expected = "resume cannot change the compute-node count")]
    fn resume_with_a_different_compute_count_is_rejected() {
        let ds = dataset(8, 100);
        let sched = FaultSchedule::none();
        let ck = suspend(&Executor::new(deployment(2, 4)), &ds, &sched, mid_first_pass())
            .expect_suspended("stops mid first pass");
        resume(&Executor::new(deployment(2, 8)), &ds, &sched, ck);
    }

    const fn mid_first_pass() -> StopPoint {
        StopPoint { pass: 0, cursor: 4 }
    }

    /// A deployment with a non-local cache site attached.
    fn cache_site_deployment() -> Deployment {
        deployment(2, 4).with_cache(fg_cluster::CacheSite::new(
            RepositorySite::pentium_repository("cache", 4),
            2,
            Wan::per_stream(1e6),
        ))
    }

    /// A checkpoint taken mid first pass on `deployment(2, 4)`.
    fn a_checkpoint(ds: &Dataset) -> Checkpoint<Phase, Acc> {
        suspend(&Executor::new(deployment(2, 4)), ds, &FaultSchedule::none(), mid_first_pass())
            .expect_suspended("stops mid first pass")
    }

    #[test]
    #[should_panic(expected = "checkpointed runs do not support non-local cache sites")]
    fn stop_point_with_a_cache_site_is_rejected() {
        let ex = Executor::new(cache_site_deployment());
        suspend(&ex, &dataset(8, 100), &FaultSchedule::none(), mid_first_pass());
    }

    #[test]
    #[should_panic(expected = "checkpointed runs do not support non-local cache sites")]
    fn resume_with_a_cache_site_is_rejected() {
        let ds = dataset(8, 100);
        resume(
            &Executor::new(cache_site_deployment()),
            &ds,
            &FaultSchedule::none(),
            a_checkpoint(&ds),
        );
    }

    #[test]
    #[should_panic(expected = "stop cursor 9 exceeds the dataset's 8 chunks")]
    fn stop_cursor_past_the_dataset_is_rejected() {
        let ex = Executor::new(deployment(2, 4));
        suspend(&ex, &dataset(8, 100), &FaultSchedule::none(), StopPoint { pass: 0, cursor: 9 });
    }
}
