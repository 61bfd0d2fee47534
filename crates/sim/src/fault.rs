//! Fault schedules: seeded, deterministic descriptions of what goes
//! wrong during a simulated run.
//!
//! A [`FaultSchedule`] is pure data — it says *what* fails and *when*,
//! in virtual time, and nothing about how the middleware reacts. Three
//! fault kinds cover the grid failure modes FREERIDE-G-style middleware
//! must survive:
//!
//! * **Data-node crashes** — a repository node goes off-line at an
//!   instant and stays down for the rest of the run (fail-stop).
//! * **WAN degradation windows** — the achievable per-stream bandwidth
//!   drops to a fraction of nominal over `[from, until)`; overlapping
//!   windows compound multiplicatively.
//! * **Straggler compute nodes** — a node computes slower than its spec
//!   by a constant factor for the whole run (the classic gray failure).
//!
//! Schedules are plain serializable values, so an experiment's fault
//! injection is part of its recorded configuration. [`FaultSchedule::random`]
//! derives a schedule from a seed through [`crate::rng::stream_rng`],
//! making randomized fault campaigns reproducible bit-for-bit.

use crate::time::{SimDuration, SimTime};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A fail-stop crash of one repository data node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrashFault {
    /// Index of the data node that dies.
    pub data_node: usize,
    /// Instant the node stops serving (it never returns).
    pub at: SimTime,
}

/// A WAN bandwidth degradation window `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegradationWindow {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Fraction of nominal bandwidth still available, `0 < factor <= 1`.
    pub factor: f64,
}

/// A compute node that runs slower than its machine spec.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StragglerFault {
    /// Index of the straggling compute node.
    pub compute_node: usize,
    /// Service-time multiplier, `>= 1`.
    pub slowdown: f64,
}

/// The full fault plan of one run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultSchedule {
    /// Fail-stop data-node crashes.
    pub crashes: Vec<CrashFault>,
    /// WAN degradation windows.
    pub degradations: Vec<DegradationWindow>,
    /// Straggling compute nodes.
    pub stragglers: Vec<StragglerFault>,
}

impl FaultSchedule {
    /// The empty schedule: nothing ever fails.
    pub fn none() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// True if nothing ever fails — executors use this to stay on the
    /// exact fault-free code path.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.degradations.is_empty() && self.stragglers.is_empty()
    }

    /// Add a data-node crash. Chainable.
    pub fn crash(mut self, data_node: usize, at: SimTime) -> FaultSchedule {
        self.crashes.push(CrashFault { data_node, at });
        self
    }

    /// Add a WAN degradation window. Chainable. Panics unless
    /// `from < until` and `0 < factor <= 1`.
    pub fn degrade(mut self, from: SimTime, until: SimTime, factor: f64) -> FaultSchedule {
        assert!(from < until, "degradation window must have positive length");
        assert!(
            factor > 0.0 && factor <= 1.0,
            "degradation factor must be in (0, 1], got {factor}"
        );
        self.degradations.push(DegradationWindow { from, until, factor });
        self
    }

    /// Add a straggler compute node. Chainable. Panics unless
    /// `slowdown >= 1`.
    pub fn straggler(mut self, compute_node: usize, slowdown: f64) -> FaultSchedule {
        assert!(slowdown >= 1.0, "a straggler is slower, not faster: {slowdown}");
        self.stragglers.push(StragglerFault { compute_node, slowdown });
        self
    }

    /// Data nodes dead at instant `t`, ascending, deduplicated.
    pub fn crashed_nodes(&self, t: SimTime) -> Vec<usize> {
        let mut dead: Vec<usize> =
            self.crashes.iter().filter(|c| c.at <= t).map(|c| c.data_node).collect();
        dead.sort_unstable();
        dead.dedup();
        dead
    }

    /// Fraction of nominal WAN bandwidth available at instant `t`
    /// (product of all windows covering `t`; `1.0` outside every window).
    pub fn bandwidth_factor(&self, t: SimTime) -> f64 {
        self.degradations.iter().filter(|w| w.from <= t && t < w.until).map(|w| w.factor).product()
    }

    /// Service-time multiplier of `compute_node` (`1.0` for healthy
    /// nodes; straggler factors compound if listed twice).
    pub fn slowdown(&self, compute_node: usize) -> f64 {
        self.stragglers
            .iter()
            .filter(|s| s.compute_node == compute_node)
            .map(|s| s.slowdown)
            .product()
    }

    /// A seeded random schedule over a run expected to span `horizon`:
    /// up to `max_crashes` crashes among `data_nodes` (always leaving at
    /// least one survivor), up to `max_windows` degradation windows, and
    /// up to `max_stragglers` stragglers among `compute_nodes`. The same
    /// `(seed, shape)` always yields the same schedule.
    pub fn random(
        seed: u64,
        data_nodes: usize,
        compute_nodes: usize,
        horizon: SimDuration,
    ) -> FaultSchedule {
        let mut rng = crate::rng::stream_rng(seed, "fault-schedule");
        let mut s = FaultSchedule::none();
        let span = horizon.as_nanos().max(1);
        // Crashes: each node beyond the first has a 1-in-3 chance, so at
        // least one data node always survives.
        for node in 1..data_nodes {
            if rng.gen_bool(1.0 / 3.0) {
                let at = SimTime::from_nanos(rng.gen_range(0..span));
                s = s.crash(node, at);
            }
        }
        // Zero to two degradation windows.
        for _ in 0..rng.gen_range(0usize..3) {
            let a = rng.gen_range(0..span);
            let b = rng.gen_range(0..span);
            let (from, until) = (a.min(b), a.max(b));
            if from < until {
                s = s.degrade(
                    SimTime::from_nanos(from),
                    SimTime::from_nanos(until),
                    rng.gen_range(0.2..1.0),
                );
            }
        }
        // Stragglers: each compute node has a 1-in-4 chance.
        for node in 0..compute_nodes {
            if rng.gen_bool(0.25) {
                s = s.straggler(node, rng.gen_range(1.5..6.0));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_nanos(secs * 1_000_000_000)
    }

    #[test]
    fn empty_schedule_reports_nothing() {
        let s = FaultSchedule::none();
        assert!(s.is_empty());
        assert!(s.crashed_nodes(SimTime::MAX).is_empty());
        assert_eq!(s.bandwidth_factor(SimTime::ZERO), 1.0);
        assert_eq!(s.slowdown(5), 1.0);
    }

    #[test]
    fn crashes_are_fail_stop() {
        let s = FaultSchedule::none().crash(2, t(10));
        assert_eq!(s.crashed_nodes(t(10)), vec![2]);
        assert_eq!(s.crashed_nodes(SimTime::MAX), vec![2]);
        assert!(s.crashed_nodes(t(9)).is_empty());
    }

    #[test]
    fn degradation_windows_compound() {
        let s = FaultSchedule::none().degrade(t(0), t(100), 0.5).degrade(t(50), t(60), 0.5);
        assert_eq!(s.bandwidth_factor(t(10)), 0.5);
        assert_eq!(s.bandwidth_factor(t(55)), 0.25);
        assert_eq!(s.bandwidth_factor(t(100)), 1.0); // end exclusive
    }

    #[test]
    fn stragglers_slow_only_their_node() {
        let s = FaultSchedule::none().straggler(1, 3.0);
        assert_eq!(s.slowdown(1), 3.0);
        assert_eq!(s.slowdown(0), 1.0);
    }

    #[test]
    #[should_panic(expected = "slower, not faster")]
    fn negative_slowdown_rejected() {
        let _ = FaultSchedule::none().straggler(0, 0.5);
    }

    #[test]
    #[should_panic(expected = "degradation factor")]
    fn zero_degradation_factor_rejected() {
        let _ = FaultSchedule::none().degrade(t(0), t(1), 0.0);
    }

    #[test]
    fn random_schedules_are_seed_deterministic() {
        let h = SimDuration::from_secs(100);
        let a = FaultSchedule::random(7, 8, 16, h);
        let b = FaultSchedule::random(7, 8, 16, h);
        assert_eq!(a, b);
        let c = FaultSchedule::random(8, 8, 16, h);
        assert_ne!(a, c);
    }

    #[test]
    fn random_schedules_always_leave_a_survivor() {
        let h = SimDuration::from_secs(100);
        for seed in 0..50 {
            let s = FaultSchedule::random(seed, 4, 8, h);
            let dead = s.crashed_nodes(SimTime::MAX);
            assert!(dead.len() < 4, "seed {seed} killed every data node");
            assert!(!dead.contains(&0), "node 0 must survive");
            for w in &s.degradations {
                assert!(w.factor > 0.0 && w.factor <= 1.0);
            }
            for st in &s.stragglers {
                assert!(st.slowdown >= 1.0);
            }
        }
    }

    #[test]
    fn schedules_serialize_round_trip() {
        let s = FaultSchedule::none().crash(1, t(10)).degrade(t(5), t(20), 0.25).straggler(3, 2.5);
        let mut w = serde::Writer::new();
        serde::Serialize::serialize(&s, &mut w);
        let back: FaultSchedule =
            serde::Deserialize::deserialize(&mut serde::Reader::new(&w.into_string())).unwrap();
        assert_eq!(back, s);
    }
}
