//! Execution reports: the middleware's measured time breakdowns.
//!
//! A report from one run on one configuration *is* the "profile" of the
//! prediction framework — the breakdown into data retrieval, network
//! communication, and processing components (`t_d`, `t_n`, `t_c`), with
//! the reduction-object communication (`t_ro`) and global reduction
//! (`t_g`) sub-components of processing called out, plus the maximum
//! reduction-object size.

use fg_sim::SimDuration;
use fg_trace::{RunMeta, SpanKind, Trace};
use serde::{Deserialize, Serialize};

/// Per-pass timing detail.
///
/// The three recovery components (`fault_detection`,
/// `straggler_recovery`, `migration`) are zero on fault-free runs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PassReport {
    /// Origin-repository retrieval makespan (zero on cached passes).
    pub retrieval: SimDuration,
    /// Origin WAN transfer makespan (zero on cached passes).
    pub network: SimDuration,
    /// Non-local caching-site disk makespan this pass (write-through on
    /// the first pass, reads on later passes); zero unless the run uses
    /// a non-local cache.
    pub cache_disk: SimDuration,
    /// Non-local caching-site WAN transfer makespan this pass.
    pub cache_network: SimDuration,
    /// Local-reduction makespan across compute nodes (kernel + dispatch +
    /// cache traffic).
    pub local_compute: SimDuration,
    /// Reduction-object communication time (serialized gather).
    pub t_ro: SimDuration,
    /// Global reduction time (object handling, merges, finalize,
    /// broadcast).
    pub t_g: SimDuration,
    /// Largest per-node reduction object this pass, logical bytes.
    pub max_obj_bytes: u64,
    /// Time spent discovering dead data nodes (fetch timeouts plus
    /// retry backoff); zero when nothing crashed.
    #[serde(default)]
    pub fault_detection: SimDuration,
    /// Time the master spent re-executing chunks abandoned by straggler
    /// compute nodes (degraded-mode completion).
    #[serde(default)]
    pub straggler_recovery: SimDuration,
    /// Overhead of switching to a different replica mid-run.
    #[serde(default)]
    pub migration: SimDuration,
}

impl PassReport {
    /// Total virtual time of the pass.
    pub fn total(&self) -> SimDuration {
        self.retrieval
            + self.network
            + self.cache_disk
            + self.cache_network
            + self.local_compute
            + self.t_ro
            + self.t_g
            + self.recovery()
    }

    /// Recovery time of the pass (fault detection + straggler re-execution
    /// + migration overhead).
    pub fn recovery(&self) -> SimDuration {
        self.fault_detection + self.straggler_recovery + self.migration
    }
}

/// How a multi-pass application's chunks were kept between passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheMode {
    /// Single-pass application: nothing to keep.
    SinglePass,
    /// Chunks cached on compute-node scratch storage (the paper's
    /// implemented mode).
    Local,
    /// Chunks cached at a non-local storage site (§2.1's deferred mode,
    /// implemented here as an extension).
    NonLocal,
    /// No storage anywhere: every pass re-fetches from the origin.
    Refetch,
}

impl CacheMode {
    /// Stable name, as carried in a trace's [`RunMeta`].
    pub fn label(self) -> &'static str {
        match self {
            CacheMode::SinglePass => "SinglePass",
            CacheMode::Local => "Local",
            CacheMode::NonLocal => "NonLocal",
            CacheMode::Refetch => "Refetch",
        }
    }

    /// Inverse of [`CacheMode::label`].
    pub fn parse(s: &str) -> Option<CacheMode> {
        match s {
            "SinglePass" => Some(CacheMode::SinglePass),
            "Local" => Some(CacheMode::Local),
            "NonLocal" => Some(CacheMode::NonLocal),
            "Refetch" => Some(CacheMode::Refetch),
            _ => None,
        }
    }
}

/// The full result of one execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionReport {
    /// Application name.
    pub app: String,
    /// Dataset identifier.
    pub dataset: String,
    /// Logical dataset size in bytes (the model's `s`).
    pub dataset_bytes: u64,
    /// Data nodes used (`n`).
    pub data_nodes: usize,
    /// Compute nodes used (`c`).
    pub compute_nodes: usize,
    /// Per-data-node WAN bandwidth (`b`), bytes/sec.
    pub wan_bw: f64,
    /// Repository machine type name.
    pub repo_machine: String,
    /// Compute machine type name.
    pub compute_machine: String,
    /// How chunks were kept between passes.
    pub cache_mode: CacheMode,
    /// Per-pass details.
    pub passes: Vec<PassReport>,
}

impl ExecutionReport {
    /// Data retrieval component `t_d` (origin repository plus any
    /// non-local caching-site disk, all passes).
    pub fn t_disk(&self) -> SimDuration {
        self.passes.iter().map(|p| p.retrieval + p.cache_disk).sum()
    }

    /// Network communication component `t_n` (origin WAN plus any
    /// caching-site WAN).
    pub fn t_network(&self) -> SimDuration {
        self.passes.iter().map(|p| p.network + p.cache_network).sum()
    }

    /// The caching-site share of the disk component.
    pub fn t_disk_cache(&self) -> SimDuration {
        self.passes.iter().map(|p| p.cache_disk).sum()
    }

    /// The caching-site share of the network component.
    pub fn t_network_cache(&self) -> SimDuration {
        self.passes.iter().map(|p| p.cache_network).sum()
    }

    /// Processing component `t_c`, inclusive of `t_ro` and `t_g` (the
    /// paper subtracts them back out when fitting the scalable part).
    pub fn t_compute(&self) -> SimDuration {
        self.passes.iter().map(|p| p.local_compute + p.t_ro + p.t_g).sum()
    }

    /// Total reduction-object communication time.
    pub fn t_ro(&self) -> SimDuration {
        self.passes.iter().map(|p| p.t_ro).sum()
    }

    /// Total global reduction time.
    pub fn t_g(&self) -> SimDuration {
        self.passes.iter().map(|p| p.t_g).sum()
    }

    /// Total recovery time `t_r`: fault detection, straggler
    /// re-execution, and migration overhead over all passes. Zero on
    /// fault-free runs.
    pub fn t_recovery(&self) -> SimDuration {
        self.passes.iter().map(|p| p.recovery()).sum()
    }

    /// The fault-detection share of the recovery component.
    pub fn t_fault_detection(&self) -> SimDuration {
        self.passes.iter().map(|p| p.fault_detection).sum()
    }

    /// The straggler re-execution share of the recovery component.
    pub fn t_straggler_recovery(&self) -> SimDuration {
        self.passes.iter().map(|p| p.straggler_recovery).sum()
    }

    /// The migration-overhead share of the recovery component.
    pub fn t_migration(&self) -> SimDuration {
        self.passes.iter().map(|p| p.migration).sum()
    }

    /// End-to-end execution time: `T_exec = T_disk + T_network +
    /// T_compute` plus, under fault injection, the recovery time `t_r`.
    pub fn total(&self) -> SimDuration {
        self.t_disk() + self.t_network() + self.t_compute() + self.t_recovery()
    }

    /// Maximum per-node reduction-object size over all passes (logical
    /// bytes) — part of the profile summary information.
    pub fn max_obj_bytes(&self) -> u64 {
        self.passes.iter().map(|p| p.max_obj_bytes).max().unwrap_or(0)
    }

    /// Number of passes executed.
    pub fn num_passes(&self) -> usize {
        self.passes.len()
    }

    /// The run header a trace carries, mirroring this report's identity
    /// fields. [`ExecutionReport::from_trace`] inverts it.
    pub fn run_meta(&self) -> RunMeta {
        RunMeta {
            app: self.app.clone(),
            dataset: self.dataset.clone(),
            dataset_bytes: self.dataset_bytes,
            data_nodes: self.data_nodes,
            compute_nodes: self.compute_nodes,
            wan_bw: self.wan_bw,
            repo_machine: self.repo_machine.clone(),
            compute_machine: self.compute_machine.clone(),
            cache_mode: self.cache_mode.label().to_string(),
        }
    }

    /// Rebuild a report from a trace recorded by the executor: header
    /// fields from the run meta, one [`PassReport`] per `Pass` span with
    /// each phase field taken from the matching phase child's duration
    /// (absent phase spans were zero). On executor-produced traces this
    /// is bit-identical to the report of the run that emitted the trace.
    pub fn from_trace(trace: &Trace) -> Result<ExecutionReport, String> {
        let meta = trace.meta.as_ref().ok_or("trace has no run meta")?;
        let cache_mode = CacheMode::parse(&meta.cache_mode)
            .ok_or_else(|| format!("unknown cache mode {:?}", meta.cache_mode))?;
        let mut passes = Vec::new();
        for pass in trace.passes() {
            let mut pr = PassReport {
                max_obj_bytes: pass.attr("max_obj_bytes").unwrap_or(0),
                ..PassReport::default()
            };
            for child in trace.children(pass.id) {
                let d = child.duration();
                match child.kind {
                    SpanKind::FaultDetection => pr.fault_detection = d,
                    SpanKind::Retrieval => pr.retrieval = d,
                    SpanKind::Network => pr.network = d,
                    SpanKind::CacheDisk => pr.cache_disk = d,
                    SpanKind::CacheNetwork => pr.cache_network = d,
                    SpanKind::Compute => pr.local_compute = d,
                    SpanKind::Gather => pr.t_ro = d,
                    SpanKind::GlobalReduce => pr.t_g = d,
                    SpanKind::StragglerRecovery => pr.straggler_recovery = d,
                    other => return Err(format!("unexpected {other:?} span under a pass")),
                }
            }
            passes.push(pr);
        }
        Ok(ExecutionReport {
            app: meta.app.clone(),
            dataset: meta.dataset.clone(),
            dataset_bytes: meta.dataset_bytes,
            data_nodes: meta.data_nodes,
            compute_nodes: meta.compute_nodes,
            wan_bw: meta.wan_bw,
            repo_machine: meta.repo_machine.clone(),
            compute_machine: meta.compute_machine.clone(),
            cache_mode,
            passes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(r: u64, n: u64, c: u64, ro: u64, g: u64, obj: u64) -> PassReport {
        PassReport {
            retrieval: SimDuration::from_secs(r),
            network: SimDuration::from_secs(n),
            cache_disk: SimDuration::ZERO,
            cache_network: SimDuration::ZERO,
            local_compute: SimDuration::from_secs(c),
            t_ro: SimDuration::from_secs(ro),
            t_g: SimDuration::from_secs(g),
            max_obj_bytes: obj,
            ..PassReport::default()
        }
    }

    fn report() -> ExecutionReport {
        ExecutionReport {
            app: "a".into(),
            dataset: "d".into(),
            dataset_bytes: 1000,
            data_nodes: 2,
            compute_nodes: 4,
            wan_bw: 1e6,
            repo_machine: "m".into(),
            compute_machine: "m".into(),
            cache_mode: CacheMode::Local,
            passes: vec![pass(10, 5, 20, 1, 2, 64), pass(0, 0, 18, 1, 2, 128)],
        }
    }

    #[test]
    fn components_sum_over_passes() {
        let r = report();
        assert_eq!(r.t_disk(), SimDuration::from_secs(10));
        assert_eq!(r.t_network(), SimDuration::from_secs(5));
        assert_eq!(r.t_compute(), SimDuration::from_secs(44));
        assert_eq!(r.t_ro(), SimDuration::from_secs(2));
        assert_eq!(r.t_g(), SimDuration::from_secs(4));
        assert_eq!(r.total(), SimDuration::from_secs(59));
        assert_eq!(r.max_obj_bytes(), 128);
        assert_eq!(r.num_passes(), 2);
    }

    #[test]
    fn total_is_sum_of_components() {
        let r = report();
        assert_eq!(r.t_recovery(), SimDuration::ZERO);
        assert_eq!(r.total(), r.t_disk() + r.t_network() + r.t_compute());
    }

    #[test]
    fn recovery_components_count_toward_total() {
        let mut r = report();
        r.passes[0].fault_detection = SimDuration::from_secs(2);
        r.passes[0].straggler_recovery = SimDuration::from_secs(5);
        r.passes[1].migration = SimDuration::from_secs(1);
        assert_eq!(r.t_fault_detection(), SimDuration::from_secs(2));
        assert_eq!(r.t_straggler_recovery(), SimDuration::from_secs(5));
        assert_eq!(r.t_migration(), SimDuration::from_secs(1));
        assert_eq!(r.t_recovery(), SimDuration::from_secs(8));
        assert_eq!(r.total(), r.t_disk() + r.t_network() + r.t_compute() + r.t_recovery());
        assert_eq!(r.passes[0].recovery(), SimDuration::from_secs(7));
    }

    #[test]
    fn pass_total() {
        assert_eq!(pass(1, 2, 3, 4, 5, 0).total(), SimDuration::from_secs(15));
    }

    #[test]
    fn cache_components_count_toward_disk_and_network() {
        let mut r = report();
        r.passes[1].cache_disk = SimDuration::from_secs(3);
        r.passes[1].cache_network = SimDuration::from_secs(7);
        assert_eq!(r.t_disk(), SimDuration::from_secs(13));
        assert_eq!(r.t_network(), SimDuration::from_secs(12));
        assert_eq!(r.t_disk_cache(), SimDuration::from_secs(3));
        assert_eq!(r.t_network_cache(), SimDuration::from_secs(7));
        assert_eq!(r.total(), r.t_disk() + r.t_network() + r.t_compute());
    }
}
