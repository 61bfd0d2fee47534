//! Analytic FIFO queueing servers.
//!
//! Disks and CPUs in the cluster model are work-conserving FIFO servers
//! with deterministic service times, so their schedules can be computed
//! directly (arrival by arrival) instead of via the event loop. The
//! results are identical to an event-driven simulation of an M/G/1-style
//! queue with deterministic input, and far cheaper.

use crate::time::{SimDuration, SimTime};

/// A closed service interval `[start, end)` produced by a server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// When service began (>= arrival).
    pub start: SimTime,
    /// When service completed.
    pub end: SimTime,
}

impl Interval {
    /// Length of the interval.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// A single work-conserving FIFO server.
///
/// Jobs must be submitted in non-decreasing arrival order (FIFO means the
/// queue discipline is arrival order; submitting out of order would let a
/// later arrival overtake an earlier one).
#[derive(Debug, Clone)]
pub struct FifoServer {
    free_at: SimTime,
    last_arrival: SimTime,
    busy: SimDuration,
    jobs: u64,
    slowdown: f64,
}

impl Default for FifoServer {
    fn default() -> Self {
        Self::new()
    }
}

impl FifoServer {
    /// An idle server.
    pub fn new() -> Self {
        FifoServer {
            free_at: SimTime::ZERO,
            last_arrival: SimTime::ZERO,
            busy: SimDuration::ZERO,
            jobs: 0,
            slowdown: 1.0,
        }
    }

    /// An idle server whose service times are stretched by `slowdown >= 1`
    /// — a straggler (fault injection). A factor of exactly `1.0` keeps
    /// service times bit-identical to a healthy server.
    pub fn with_slowdown(slowdown: f64) -> Self {
        assert!(slowdown >= 1.0, "a straggler is slower, not faster: {slowdown}");
        FifoServer { slowdown, ..Self::new() }
    }

    /// This server's service-time multiplier.
    pub fn slowdown(&self) -> f64 {
        self.slowdown
    }

    /// Submit a job arriving at `arrival` needing `service` time (on a
    /// healthy server; stragglers stretch it by their factor).
    pub fn submit(&mut self, arrival: SimTime, service: SimDuration) -> Interval {
        assert!(
            arrival >= self.last_arrival,
            "FIFO server requires non-decreasing arrivals: last={}, got={}",
            self.last_arrival,
            arrival
        );
        self.last_arrival = arrival;
        // Guarded so healthy servers never round-trip through floats.
        let service = if self.slowdown == 1.0 { service } else { service.mul_f64(self.slowdown) };
        let start = self.free_at.max(arrival);
        let end = start + service;
        self.free_at = end;
        self.busy += service;
        self.jobs += 1;
        Interval { start, end }
    }

    /// When the server next becomes idle.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Total busy time accumulated.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Number of jobs served.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }
}

/// A pool of `k` identical FIFO servers; each job goes to the server that
/// can start it earliest (ties broken by lowest index, deterministically).
#[derive(Debug, Clone)]
pub struct ServerPool {
    servers: Vec<FifoServer>,
    last_arrival: SimTime,
}

impl ServerPool {
    /// A pool of `k >= 1` idle servers.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "a server pool needs at least one server");
        ServerPool { servers: vec![FifoServer::new(); k], last_arrival: SimTime::ZERO }
    }

    /// A pool with one server per slowdown factor (fault injection:
    /// stragglers run at `factor >= 1`, healthy servers at exactly `1.0`).
    pub fn with_slowdowns(slowdowns: &[f64]) -> Self {
        assert!(!slowdowns.is_empty(), "a server pool needs at least one server");
        ServerPool {
            servers: slowdowns.iter().map(|&f| FifoServer::with_slowdown(f)).collect(),
            last_arrival: SimTime::ZERO,
        }
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Always false; pools have at least one server.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Submit a job; returns the chosen server index and its interval.
    pub fn submit(&mut self, arrival: SimTime, service: SimDuration) -> (usize, Interval) {
        assert!(arrival >= self.last_arrival, "server pool requires non-decreasing arrivals");
        self.last_arrival = arrival;
        let idx = self
            .servers
            .iter()
            .enumerate()
            .min_by_key(|(i, s)| (s.free_at().max(arrival), *i))
            .map(|(i, _)| i)
            .expect("pool is non-empty");
        let iv = self.servers[idx].submit(arrival, service);
        (idx, iv)
    }

    /// Per-server busy times (for utilization reporting).
    pub fn busy_times(&self) -> Vec<SimDuration> {
        self.servers.iter().map(|s| s.busy_time()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }
    fn d(ns: u64) -> SimDuration {
        SimDuration::from_nanos(ns)
    }

    #[test]
    fn idle_server_starts_immediately() {
        let mut s = FifoServer::new();
        let iv = s.submit(t(10), d(5));
        assert_eq!(iv, Interval { start: t(10), end: t(15) });
    }

    #[test]
    fn busy_server_queues() {
        let mut s = FifoServer::new();
        s.submit(t(0), d(100));
        let iv = s.submit(t(10), d(5));
        assert_eq!(iv.start, t(100));
        assert_eq!(iv.end, t(105));
        assert_eq!(s.busy_time(), d(105));
        assert_eq!(s.jobs(), 2);
    }

    #[test]
    fn server_goes_idle_between_bursts() {
        let mut s = FifoServer::new();
        s.submit(t(0), d(10));
        let iv = s.submit(t(50), d(10));
        assert_eq!(iv.start, t(50)); // idle gap, not back-to-back
    }

    #[test]
    #[should_panic(expected = "non-decreasing arrivals")]
    fn out_of_order_arrival_panics() {
        let mut s = FifoServer::new();
        s.submit(t(10), d(1));
        s.submit(t(5), d(1));
    }

    #[test]
    fn straggler_stretches_service_time() {
        let mut s = FifoServer::with_slowdown(3.0);
        let iv = s.submit(t(0), d(10));
        assert_eq!(iv, Interval { start: t(0), end: t(30) });
        assert_eq!(s.busy_time(), d(30));
    }

    #[test]
    fn unit_slowdown_is_bit_identical_to_healthy() {
        let mut healthy = FifoServer::new();
        let mut unit = FifoServer::with_slowdown(1.0);
        for i in 0..50u64 {
            assert_eq!(healthy.submit(t(i * 3), d(7)), unit.submit(t(i * 3), d(7)));
        }
        assert_eq!(healthy.busy_time(), unit.busy_time());
    }

    #[test]
    #[should_panic(expected = "slower, not faster")]
    fn speedup_factor_is_rejected() {
        FifoServer::with_slowdown(0.5);
    }

    #[test]
    fn pool_routes_around_a_straggler() {
        // One straggler at 10x: back-to-back jobs should pile onto the
        // healthy server once the straggler falls behind.
        let mut p = ServerPool::with_slowdowns(&[10.0, 1.0]);
        let mut straggler_jobs = 0;
        for _ in 0..10 {
            let (idx, _) = p.submit(SimTime::ZERO, d(10));
            if idx == 0 {
                straggler_jobs += 1;
            }
        }
        assert!(straggler_jobs < 5, "straggler took {straggler_jobs}/10 jobs");
    }

    #[test]
    fn pool_balances_over_servers() {
        let mut p = ServerPool::new(2);
        let (i0, _) = p.submit(t(0), d(100));
        let (i1, _) = p.submit(t(0), d(100));
        let (i2, iv2) = p.submit(t(0), d(100));
        assert_ne!(i0, i1);
        // Third job waits for whichever frees first (both at 100).
        assert!(i2 == i0 || i2 == i1);
        assert_eq!(iv2, Interval { start: t(100), end: t(200) });
    }

    #[test]
    fn pool_of_one_behaves_like_single_server() {
        let mut p = ServerPool::new(1);
        let mut s = FifoServer::new();
        for i in 0..20u64 {
            let (idx, iv_pool) = p.submit(t(i * 7), d(13));
            let iv_single = s.submit(t(i * 7), d(13));
            assert_eq!(idx, 0);
            assert_eq!(iv_pool, iv_single);
        }
    }

    proptest! {
        /// FIFO invariant: service intervals on one server never overlap and
        /// never start before arrival.
        #[test]
        fn intervals_never_overlap(jobs in proptest::collection::vec((0u64..1000, 1u64..100), 1..100)) {
            let mut sorted = jobs.clone();
            sorted.sort_by_key(|&(a, _)| a);
            let mut s = FifoServer::new();
            let mut prev_end = SimTime::ZERO;
            for (a, sv) in sorted {
                let iv = s.submit(t(a), d(sv));
                prop_assert!(iv.start >= t(a));
                prop_assert!(iv.start >= prev_end);
                prop_assert_eq!(iv.duration(), d(sv));
                prev_end = iv.end;
            }
        }

        /// Work conservation: total busy time equals the sum of services,
        /// and the makespan is at least total work / k.
        #[test]
        fn pool_is_work_conserving(
            k in 1usize..8,
            jobs in proptest::collection::vec(1u64..100, 1..100),
        ) {
            let mut p = ServerPool::new(k);
            let mut total = 0u64;
            let mut all_done = SimTime::ZERO;
            for &sv in &jobs {
                all_done = all_done.max(p.submit(SimTime::ZERO, d(sv)).1.end);
                total += sv;
            }
            let busy: u64 = p.busy_times().iter().map(|b| b.as_nanos()).sum();
            prop_assert_eq!(busy, total);
            let lower_bound = total / k as u64;
            prop_assert!(all_done.as_nanos() >= lower_bound);
            // And no worse than serializing everything.
            prop_assert!(all_done.as_nanos() <= total);
        }
    }
}
