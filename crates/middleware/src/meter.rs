//! Work metering: how real execution turns into virtual compute time.
//!
//! Application kernels run for real and report the operations they
//! perform. Counts come in two flavors:
//!
//! * **data-proportional** work — loops over elements, detected features,
//!   candidate matches: anything that scales with dataset volume. When an
//!   experiment runs on reduced-scale data, these counts are inflated by
//!   `1/scale` so virtual time corresponds to the nominal dataset.
//! * **fixed** work — loops over application parameters (k centroids,
//!   catalog templates, query sets): independent of dataset volume, never
//!   inflated.
//!
//! The split is what keeps reduction-object classes honest: k-means'
//! global merge is fixed work regardless of scale, while defect
//! detection's catalog merge is data-proportional.

use fg_cluster::{MachineSpec, OpCounts};
use fg_sim::SimDuration;

/// Accumulates metered work during real kernel execution.
#[derive(Debug, Clone, Default)]
pub struct WorkMeter {
    data: OpCounts,
    fixed: OpCounts,
}

impl WorkMeter {
    /// A fresh, empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record data-proportional floating-point operations.
    pub fn data_flops(&mut self, n: u64) {
        self.data.flop += n;
    }

    /// Record data-proportional memory operations.
    pub fn data_mem(&mut self, n: u64) {
        self.data.mem += n;
    }

    /// Record data-proportional compare/branch operations.
    pub fn data_cmp(&mut self, n: u64) {
        self.data.cmp += n;
    }

    /// Record fixed (parameter-proportional) floating-point operations.
    pub fn fixed_flops(&mut self, n: u64) {
        self.fixed.flop += n;
    }

    /// Record fixed memory operations.
    pub fn fixed_mem(&mut self, n: u64) {
        self.fixed.mem += n;
    }

    /// Record fixed compare/branch operations.
    pub fn fixed_cmp(&mut self, n: u64) {
        self.fixed.cmp += n;
    }

    /// Raw data-proportional counts.
    pub fn data_counts(&self) -> OpCounts {
        self.data
    }

    /// Raw fixed counts.
    pub fn fixed_counts(&self) -> OpCounts {
        self.fixed
    }

    /// Effective counts after inflating data-proportional work.
    pub fn effective(&self, inflation: f64) -> OpCounts {
        self.data.scaled(inflation) + self.fixed
    }

    /// Virtual time this work takes on one core of `machine`, with the
    /// given data-work inflation factor.
    pub fn time_on(&self, machine: &MachineSpec, inflation: f64) -> SimDuration {
        machine.compute_time(&self.effective(inflation))
    }

    /// Virtual time this work takes on one core of `machine` while
    /// `active_cores` cores of the node are busy (shared-memory bus
    /// contention applies to the memory-class operations).
    pub fn time_on_cores(
        &self,
        machine: &MachineSpec,
        inflation: f64,
        active_cores: usize,
    ) -> SimDuration {
        machine.compute_time_on_cores(&self.effective(inflation), active_cores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> MachineSpec {
        MachineSpec {
            name: "t".into(),
            cores: 1,
            flop_per_sec: 100.0,
            mem_per_sec: 100.0,
            cmp_per_sec: 100.0,
            disk_bw: 1.0,
            disk_seek: SimDuration::ZERO,
            nic_bw: 1.0,
        }
    }

    #[test]
    fn inflation_applies_to_data_work_only() {
        let mut m = WorkMeter::new();
        m.data_flops(100);
        m.fixed_flops(100);
        let eff = m.effective(10.0);
        assert_eq!(eff.flop, 1100);
        // time = 1100 ops / 100 ops/s = 11 s
        assert_eq!(m.time_on(&machine(), 10.0), SimDuration::from_secs(11));
    }

    #[test]
    fn unit_inflation_is_identity() {
        let mut m = WorkMeter::new();
        m.data_flops(42);
        m.data_cmp(8);
        assert_eq!(m.effective(1.0), OpCounts { flop: 42, mem: 0, cmp: 8 });
    }
}
