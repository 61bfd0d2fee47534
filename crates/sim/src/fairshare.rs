//! Max-min fair sharing of capacitated resources among flows.
//!
//! The data-movement phases of the middleware (repository disk backplane,
//! data-node NICs, the wide-area link, compute-node NICs) are modeled as a
//! set of capacitated resources. Each *flow* (e.g. "all chunks data node 2
//! sends to compute node 5 this pass") has a byte demand, an optional
//! per-flow rate cap, and traverses a set of resources. Bandwidth is
//! allocated by **max-min fairness with progressive filling**: all active
//! flows' rates rise together until a flow hits its cap or a resource
//! saturates, at which point the constrained flows freeze and the rest
//! continue — the standard fluid model of TCP-fair sharing.
//!
//! The simulation is event-driven in the fluid sense: rates only change at
//! flow arrivals and completions, so the schedule advances from event to
//! event, draining demand at the current rates.
//!
//! Progressive filling is written once, in [`FairShareSim::fair_rates`]:
//! it reads each flow's `(rate cap, resources)` through a borrowing
//! closure and works in a caller-owned [`RateScratch`], so a caller that
//! solves repeatedly — [`FairShareSim::run`]'s event loop, the job
//! scheduler's — allocates nothing once the scratch has grown to its
//! flow count. The allocation never reads a flow's demand: it is a pure
//! function of the capacities and the ordered `(rate cap, resources)`
//! list, which is what lets the scheduler reuse a solution until that
//! list changes. [`FairShareSim::instantaneous_rates`] is the same
//! function over a `&[Flow]`, returning an owned vector.

use crate::time::SimTime;

/// Identifies a capacitated resource within one [`FairShareSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceId(pub usize);

/// A flow to be scheduled.
#[derive(Debug, Clone)]
pub struct Flow {
    /// When the flow becomes eligible to transmit.
    pub arrival: SimTime,
    /// Bytes (or work units) to move; must be positive and finite.
    pub demand: f64,
    /// Per-flow rate ceiling (bytes/sec); `f64::INFINITY` for "no cap".
    pub rate_cap: f64,
    /// Resources the flow consumes capacity on.
    pub resources: Vec<ResourceId>,
}

/// When a flow started and finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowOutcome {
    /// Equal to the flow's arrival (flows start transmitting immediately,
    /// possibly at a low rate).
    pub start: SimTime,
    /// When the last byte drained.
    pub finish: SimTime,
}

/// Working memory of [`FairShareSim::fair_rates`], owned by the caller
/// so that repeated solves reuse its buffers. Every solve overwrites all
/// of it; between solves it holds the last solve's rates.
#[derive(Debug, Default)]
pub struct RateScratch {
    rates: Vec<f64>,
    frozen: Vec<bool>,
    remaining_cap: Vec<f64>,
    users: Vec<usize>,
}

impl RateScratch {
    /// The rates the last solve through this scratch produced, indexed
    /// like its flows (empty before the first).
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }
}

/// The solver's view of the `active` subset of a [`Flow`] list.
fn flow_inputs<'a>(
    flows: &'a [Flow],
    active: &'a [usize],
) -> impl Fn(usize) -> (f64, &'a [ResourceId]) {
    move |ai| {
        let f = &flows[active[ai]];
        (f.rate_cap, f.resources.as_slice())
    }
}

/// A one-shot max-min fair-share scheduling problem.
///
/// ```
/// use fg_sim::{FairShareSim, Flow, ResourceId, SimTime};
///
/// // Two flows share a 100 B/s link; one is capped at 20 B/s, so the
/// // other gets the remaining 80 (max-min fairness).
/// let sim = FairShareSim::new(vec![100.0]);
/// let out = sim.run(&[
///     Flow { arrival: SimTime::ZERO, demand: 200.0, rate_cap: 20.0,
///            resources: vec![ResourceId(0)] },
///     Flow { arrival: SimTime::ZERO, demand: 800.0, rate_cap: f64::INFINITY,
///            resources: vec![ResourceId(0)] },
/// ]);
/// assert!((out[0].finish.as_secs_f64() - 10.0).abs() < 1e-9);
/// assert!((out[1].finish.as_secs_f64() - 10.0).abs() < 1e-9);
/// ```
pub struct FairShareSim {
    capacities: Vec<f64>,
}

impl FairShareSim {
    /// Create a simulator over resources with the given capacities
    /// (bytes/sec); each must be positive and finite.
    pub fn new(capacities: Vec<f64>) -> Self {
        assert!(
            capacities.iter().all(|&c| c.is_finite() && c > 0.0),
            "resource capacities must be positive and finite: {capacities:?}"
        );
        FairShareSim { capacities }
    }

    /// Number of resources.
    pub fn resources(&self) -> usize {
        self.capacities.len()
    }

    /// Compute the instantaneous max-min fair rates for the given active
    /// flows (identified by index into `flows`).
    ///
    /// This is the allocation [`run`](Self::run) applies between events;
    /// it is public so that callers embedding the fluid model in their
    /// own event loop can ask "at what rate does each of these
    /// currently-active flows drain right now?" without committing to
    /// this simulator's arrival/completion bookkeeping. Returned rates
    /// are indexed like `active`. A convenience over
    /// [`fair_rates`](Self::fair_rates), which a caller solving in a
    /// loop should use directly to keep its scratch.
    pub fn instantaneous_rates(&self, flows: &[Flow], active: &[usize]) -> Vec<f64> {
        let mut scratch = RateScratch::default();
        self.fair_rates(active.len(), flow_inputs(flows, active), &mut scratch);
        scratch.rates
    }

    /// Max-min fair rates by progressive filling: all rates rise
    /// uniformly; a flow freezes when it hits its own cap or when one of
    /// its resources saturates. Flow `i` of `n` is described by
    /// `flow(i)` — its rate cap (`f64::INFINITY` for none) and the
    /// resources it crosses, borrowed or by value. The rates, indexed
    /// like the flows, are left in `scratch` and returned borrowed from
    /// it; nothing else of `scratch` outlives the call, so one scratch
    /// serves any sequence of problems.
    pub fn fair_rates<'s, R: AsRef<[ResourceId]>>(
        &self,
        n: usize,
        flow: impl Fn(usize) -> (f64, R),
        scratch: &'s mut RateScratch,
    ) -> &'s [f64] {
        let RateScratch { rates, frozen, remaining_cap, users } = scratch;
        rates.clear();
        rates.resize(n, 0.0);
        frozen.clear();
        frozen.resize(n, false);
        remaining_cap.clear();
        remaining_cap.extend_from_slice(&self.capacities);
        // Count of unfrozen flows using each resource.
        users.clear();
        users.resize(self.capacities.len(), 0);
        for ai in 0..n {
            for r in flow(ai).1.as_ref() {
                users[r.0] += 1;
            }
        }
        let mut unfrozen = n;
        while unfrozen > 0 {
            // Largest uniform rate increment before a constraint binds.
            let mut delta = f64::INFINITY;
            for (&cap, &sharing) in remaining_cap.iter().zip(users.iter()) {
                if sharing > 0 {
                    delta = delta.min(cap / sharing as f64);
                }
            }
            for ai in 0..n {
                if !frozen[ai] {
                    delta = delta.min(flow(ai).0 - rates[ai]);
                }
            }
            assert!(
                delta.is_finite() && delta >= 0.0,
                "progressive filling produced a bad increment: {delta}"
            );
            // Apply the increment and charge the resources.
            for ai in 0..n {
                if !frozen[ai] {
                    rates[ai] += delta;
                    for r in flow(ai).1.as_ref() {
                        remaining_cap[r.0] -= delta;
                    }
                }
            }
            // Freeze flows that hit their cap or sit on a saturated resource.
            let eps = 1e-9;
            for ai in 0..n {
                if frozen[ai] {
                    continue;
                }
                let (rate_cap, resources) = flow(ai);
                let capped = rates[ai] >= rate_cap - eps * rate_cap.max(1.0);
                let saturated = resources
                    .as_ref()
                    .iter()
                    .any(|r| remaining_cap[r.0] <= eps * self.capacities[r.0]);
                if capped || saturated {
                    frozen[ai] = true;
                    unfrozen -= 1;
                    for r in resources.as_ref() {
                        users[r.0] -= 1;
                    }
                }
            }
        }
        rates
    }

    /// Run the fluid schedule to completion and return per-flow outcomes
    /// (indexed like `flows`).
    pub fn run(&self, flows: &[Flow]) -> Vec<FlowOutcome> {
        for f in flows {
            assert!(
                f.demand.is_finite() && f.demand > 0.0,
                "flow demand must be positive and finite: {}",
                f.demand
            );
            assert!(f.rate_cap > 0.0, "flow rate cap must be positive");
            for r in &f.resources {
                assert!(r.0 < self.capacities.len(), "unknown resource {:?}", r);
            }
        }
        let n = flows.len();
        let mut remaining: Vec<f64> = flows.iter().map(|f| f.demand).collect();
        let mut outcome: Vec<FlowOutcome> =
            flows.iter().map(|f| FlowOutcome { start: f.arrival, finish: SimTime::MAX }).collect();
        // Arrival order: by time, index as tie-break (deterministic).
        let mut arrivals: Vec<usize> = (0..n).collect();
        arrivals.sort_by_key(|&i| (flows[i].arrival, i));
        let mut next_arrival = 0usize;
        let mut active: Vec<usize> = Vec::new();
        let mut scratch = RateScratch::default();
        let mut now = 0.0f64; // seconds, fluid clock

        while next_arrival < n || !active.is_empty() {
            // Admit flows that have arrived by `now`.
            while next_arrival < n
                && flows[arrivals[next_arrival]].arrival.as_secs_f64() <= now + 1e-15
            {
                active.push(arrivals[next_arrival]);
                next_arrival += 1;
            }
            if active.is_empty() {
                // Jump to the next arrival.
                now = flows[arrivals[next_arrival]].arrival.as_secs_f64();
                continue;
            }
            let rates = self.fair_rates(active.len(), flow_inputs(flows, &active), &mut scratch);
            // Horizon: the earliest of (next arrival, earliest completion).
            let mut horizon = f64::INFINITY;
            if next_arrival < n {
                horizon = flows[arrivals[next_arrival]].arrival.as_secs_f64() - now;
            }
            for (ai, &fi) in active.iter().enumerate() {
                let _ = fi;
                if rates[ai] > 0.0 {
                    horizon = horizon.min(remaining[active[ai]] / rates[ai]);
                }
            }
            assert!(
                horizon.is_finite() && horizon >= 0.0,
                "fluid schedule stalled: some active flow has zero rate and \
                 no arrival is pending (now={now}, active={active:?})"
            );
            // Drain demand over the horizon.
            now += horizon;
            let mut still_active = Vec::with_capacity(active.len());
            for (ai, &fi) in active.iter().enumerate() {
                remaining[fi] -= rates[ai] * horizon;
                let done = remaining[fi] <= 1e-9 * flows[fi].demand;
                if done {
                    outcome[fi].finish = SimTime::from_secs_f64(now);
                } else {
                    still_active.push(fi);
                }
            }
            active = still_active;
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const INF: f64 = f64::INFINITY;

    fn flow(arrival_s: f64, demand: f64, cap: f64, res: &[usize]) -> Flow {
        Flow {
            arrival: SimTime::from_secs_f64(arrival_s),
            demand,
            rate_cap: cap,
            resources: res.iter().map(|&r| ResourceId(r)).collect(),
        }
    }

    fn secs(t: SimTime) -> f64 {
        t.as_secs_f64()
    }

    #[test]
    fn single_flow_runs_at_capacity() {
        let sim = FairShareSim::new(vec![100.0]);
        let out = sim.run(&[flow(0.0, 500.0, INF, &[0])]);
        assert!((secs(out[0].finish) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn single_flow_respects_own_cap() {
        let sim = FairShareSim::new(vec![100.0]);
        let out = sim.run(&[flow(0.0, 500.0, 50.0, &[0])]);
        assert!((secs(out[0].finish) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn two_equal_flows_split_the_link() {
        let sim = FairShareSim::new(vec![100.0]);
        let out = sim.run(&[flow(0.0, 500.0, INF, &[0]), flow(0.0, 500.0, INF, &[0])]);
        // Each gets 50 B/s: both finish at t=10.
        for o in &out {
            assert!((secs(o.finish) - 10.0).abs() < 1e-9);
        }
    }

    #[test]
    fn max_min_gives_leftover_to_uncapped_flow() {
        let sim = FairShareSim::new(vec![100.0]);
        // Flow 0 capped at 20: flow 1 gets the remaining 80.
        let out = sim.run(&[flow(0.0, 200.0, 20.0, &[0]), flow(0.0, 800.0, INF, &[0])]);
        assert!((secs(out[0].finish) - 10.0).abs() < 1e-9);
        assert!((secs(out[1].finish) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn completion_releases_bandwidth() {
        let sim = FairShareSim::new(vec![100.0]);
        // Both start at 50 B/s; flow 0 finishes at t=1 (demand 50);
        // flow 1 has 450 left and then runs alone at 100 B/s: t=5.5.
        let out = sim.run(&[flow(0.0, 50.0, INF, &[0]), flow(0.0, 500.0, INF, &[0])]);
        assert!((secs(out[0].finish) - 1.0).abs() < 1e-9);
        assert!((secs(out[1].finish) - 5.5).abs() < 1e-9);
    }

    #[test]
    fn late_arrival_shares_from_its_arrival() {
        let sim = FairShareSim::new(vec![100.0]);
        // Flow 0 alone until t=2 (200 done), then both at 50 B/s.
        let out = sim.run(&[flow(0.0, 400.0, INF, &[0]), flow(2.0, 100.0, INF, &[0])]);
        // Flow 0: 200 left at t=2 at 50 B/s => finishes t=6... but flow 1
        // finishes first: 100 at 50 B/s => t=4, then flow 0 alone at 100:
        // at t=4 flow 0 has 100 left => t=5.
        assert!((secs(out[1].finish) - 4.0).abs() < 1e-9);
        assert!((secs(out[0].finish) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn two_resource_path_takes_the_tighter_bottleneck() {
        let sim = FairShareSim::new(vec![100.0, 30.0]);
        let out = sim.run(&[flow(0.0, 300.0, INF, &[0, 1])]);
        assert!((secs(out[0].finish) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_flows_do_not_interfere() {
        let sim = FairShareSim::new(vec![100.0, 100.0]);
        let out = sim.run(&[flow(0.0, 100.0, INF, &[0]), flow(0.0, 100.0, INF, &[1])]);
        for o in &out {
            assert!((secs(o.finish) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn shared_wan_with_private_nics() {
        // Two senders, each with a private 100 B/s NIC, sharing a 120 B/s
        // WAN: max-min gives each 60.
        let sim = FairShareSim::new(vec![100.0, 100.0, 120.0]);
        let out = sim.run(&[flow(0.0, 600.0, INF, &[0, 2]), flow(0.0, 600.0, INF, &[1, 2])]);
        for o in &out {
            assert!((secs(o.finish) - 10.0).abs() < 1e-9);
        }
    }

    #[test]
    fn asymmetric_demands_on_shared_wan() {
        // Same WAN, but sender 0 has a 40 B/s NIC: it gets 40, sender 1
        // gets the remaining 80 (capped by its own 100 NIC).
        let sim = FairShareSim::new(vec![40.0, 100.0, 120.0]);
        let out = sim.run(&[flow(0.0, 400.0, INF, &[0, 2]), flow(0.0, 800.0, INF, &[1, 2])]);
        assert!((secs(out[0].finish) - 10.0).abs() < 1e-9);
        assert!((secs(out[1].finish) - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_capacity_rejected() {
        let _ = FairShareSim::new(vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "demand must be positive")]
    fn zero_demand_rejected() {
        let sim = FairShareSim::new(vec![1.0]);
        sim.run(&[flow(0.0, 0.0, INF, &[0])]);
    }

    /// Brute-force fluid reference: time-step the same model in tiny
    /// increments and compare completion times.
    fn brute_force(capacities: &[f64], flows: &[Flow], dt: f64) -> Vec<f64> {
        let sim = FairShareSim::new(capacities.to_vec());
        let mut remaining: Vec<f64> = flows.iter().map(|f| f.demand).collect();
        let mut finish = vec![f64::NAN; flows.len()];
        let mut now = 0.0;
        let max_t = 1e5;
        while now < max_t && finish.iter().any(|f| f.is_nan()) {
            let active: Vec<usize> = (0..flows.len())
                .filter(|&i| finish[i].is_nan() && flows[i].arrival.as_secs_f64() <= now)
                .collect();
            if active.is_empty() {
                now += dt;
                continue;
            }
            let rates = sim.instantaneous_rates(flows, &active);
            for (ai, &fi) in active.iter().enumerate() {
                remaining[fi] -= rates[ai] * dt;
                if remaining[fi] <= 0.0 {
                    finish[fi] = now + dt;
                }
            }
            now += dt;
        }
        finish
    }

    impl FairShareSim {
        /// Progressive filling as it was written before
        /// [`FairShareSim::fair_rates`] took borrowed inputs and a
        /// caller-owned scratch, kept verbatim: `instantaneous_rates` is
        /// a wrapper over the new function, so this is the only
        /// independent statement of the arithmetic and its order.
        fn fair_rates_reference(&self, flows: &[Flow], active: &[usize]) -> Vec<f64> {
            let mut rates = vec![0.0f64; active.len()];
            let mut frozen = vec![false; active.len()];
            let mut remaining_cap = self.capacities.clone();
            // Count of unfrozen flows using each resource.
            let mut users = vec![0usize; self.capacities.len()];
            for (&fi, _) in active.iter().zip(rates.iter()) {
                for r in &flows[fi].resources {
                    users[r.0] += 1;
                }
            }
            let mut unfrozen = active.len();
            while unfrozen > 0 {
                // Largest uniform rate increment before a constraint binds.
                let mut delta = f64::INFINITY;
                for (r, (&cap, &n)) in remaining_cap.iter().zip(users.iter()).enumerate() {
                    let _ = r;
                    if n > 0 {
                        delta = delta.min(cap / n as f64);
                    }
                }
                for (ai, &fi) in active.iter().enumerate() {
                    if !frozen[ai] {
                        delta = delta.min(flows[fi].rate_cap - rates[ai]);
                    }
                }
                assert!(
                    delta.is_finite() && delta >= 0.0,
                    "progressive filling produced a bad increment: {delta}"
                );
                // Apply the increment and charge the resources.
                for (ai, &fi) in active.iter().enumerate() {
                    if !frozen[ai] {
                        rates[ai] += delta;
                        for r in &flows[fi].resources {
                            remaining_cap[r.0] -= delta;
                        }
                    }
                }
                // Freeze flows that hit their cap or sit on a saturated resource.
                let eps = 1e-9;
                for (ai, &fi) in active.iter().enumerate() {
                    if frozen[ai] {
                        continue;
                    }
                    let capped =
                        rates[ai] >= flows[fi].rate_cap - eps * flows[fi].rate_cap.max(1.0);
                    let saturated = flows[fi]
                        .resources
                        .iter()
                        .any(|r| remaining_cap[r.0] <= eps * self.capacities[r.0]);
                    if capped || saturated {
                        frozen[ai] = true;
                        unfrozen -= 1;
                        for r in &flows[fi].resources {
                            users[r.0] -= 1;
                        }
                    }
                }
            }
            rates
        }
    }

    /// One generated flow of the solver differential: cap selector and
    /// value (selector 0 means uncapped), three resource selectors and
    /// how many of them the flow crosses (one to three).
    type FlowCase = (usize, f64, usize, usize, usize, usize);

    /// The tuple-of-strategies that generates one [`FlowCase`].
    type FlowCaseStrategy = (
        std::ops::Range<usize>,
        std::ops::Range<f64>,
        std::ops::Range<usize>,
        std::ops::Range<usize>,
        std::ops::Range<usize>,
        std::ops::Range<usize>,
    );

    fn flow_cases(max: usize) -> proptest::collection::VecStrategy<FlowCaseStrategy> {
        proptest::collection::vec(
            (0usize..4, 1.0f64..500.0, 0usize..8, 0usize..8, 0usize..8, 1usize..4),
            0..max,
        )
    }

    fn flows_of(cases: &[FlowCase], nres: usize) -> Vec<Flow> {
        cases
            .iter()
            .map(|&(cap_sel, cap, a, b, c, crossing)| {
                let rate_cap = if cap_sel == 0 { INF } else { cap };
                flow(0.0, 1.0, rate_cap, &[a % nres, b % nres, c % nres][..crossing])
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The borrowed-input solver reproduces the reference bit for
        /// bit — through the `instantaneous_rates` wrapper, and through
        /// one scratch reused across problems of different sizes, which
        /// must carry nothing from one solve into the next.
        #[test]
        fn solver_is_bit_identical_to_the_reference(
            caps in proptest::collection::vec(10.0f64..200.0, 1..6),
            first in flow_cases(33),
            second in flow_cases(33),
        ) {
            let sim = FairShareSim::new(caps.clone());
            let mut scratch = RateScratch::default();
            for cases in [&first, &second, &first] {
                let flows = flows_of(cases, caps.len());
                let active: Vec<usize> = (0..flows.len()).collect();
                let want: Vec<u64> =
                    sim.fair_rates_reference(&flows, &active).iter().map(|r| r.to_bits()).collect();
                let reused: Vec<u64> = sim
                    .fair_rates(flows.len(), flow_inputs(&flows, &active), &mut scratch)
                    .iter()
                    .map(|r| r.to_bits())
                    .collect();
                prop_assert_eq!(&reused, &want);
                prop_assert_eq!(scratch.rates(), sim.instantaneous_rates(&flows, &active));
            }
        }

        /// Any selection from a flow list, in any order, solves like the
        /// reference does over the same `active` indices.
        #[test]
        fn active_subsets_match_the_reference(
            caps in proptest::collection::vec(10.0f64..200.0, 1..6),
            cases in flow_cases(33),
            picks in proptest::collection::vec(0usize..32, 0..16),
        ) {
            let flows = flows_of(&cases, caps.len());
            prop_assume!(!flows.is_empty());
            let active: Vec<usize> = picks.iter().map(|p| p % flows.len()).collect();
            let sim = FairShareSim::new(caps.clone());
            let want = sim.fair_rates_reference(&flows, &active);
            let got = sim.instantaneous_rates(&flows, &active);
            prop_assert_eq!(
                got.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|r| r.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Event-driven schedule matches a brute-force time-stepped run of
        /// the same fluid model (within step-size tolerance).
        #[test]
        fn matches_brute_force(
            caps in proptest::collection::vec(10.0f64..200.0, 1..4),
            specs in proptest::collection::vec(
                (0.0f64..5.0, 10.0f64..300.0, 0usize..4), 1..6),
        ) {
            let nres = caps.len();
            let flows: Vec<Flow> = specs
                .iter()
                .map(|&(arr, dem, seed)| {
                    let r = seed % nres;
                    flow(arr, dem, INF, &[r])
                })
                .collect();
            let sim = FairShareSim::new(caps.clone());
            let fast = sim.run(&flows);
            let slow = brute_force(&caps, &flows, 0.002);
            for (o, s) in fast.iter().zip(slow.iter()) {
                prop_assert!(
                    (secs(o.finish) - s).abs() < 0.05,
                    "event-driven {} vs brute {}", secs(o.finish), s
                );
            }
        }

        /// Multi-resource paths: the event-driven schedule matches the
        /// brute-force reference when flows traverse two resources.
        #[test]
        fn matches_brute_force_on_paths(
            caps in proptest::collection::vec(10.0f64..200.0, 2..5),
            specs in proptest::collection::vec(
                (0.0f64..5.0, 10.0f64..300.0, 0usize..6, 1usize..6), 1..6),
        ) {
            let nres = caps.len();
            let flows: Vec<Flow> = specs
                .iter()
                .map(|&(arr, dem, a, b)| {
                    let r1 = a % nres;
                    let r2 = (a + b) % nres;
                    let mut f = flow(arr, dem, INF, &[r1]);
                    if r2 != r1 {
                        f.resources.push(ResourceId(r2));
                    }
                    f
                })
                .collect();
            let sim = FairShareSim::new(caps.clone());
            let fast = sim.run(&flows);
            let slow = brute_force(&caps, &flows, 0.002);
            for (o, s) in fast.iter().zip(slow.iter()) {
                prop_assert!(
                    (secs(o.finish) - s).abs() < 0.05,
                    "event-driven {} vs brute {}", secs(o.finish), s
                );
            }
        }

        /// Work conservation and instantaneous capacity: replaying the
        /// piecewise-constant rate schedule (active sets change only at
        /// arrivals and completions) through the public
        /// `instantaneous_rates`, (a) no resource's allocated rate sum
        /// ever exceeds its capacity, and (b) integrating each flow's
        /// rate over its lifetime drains exactly its demand — the fluid
        /// model neither loses nor invents bytes.
        #[test]
        fn rates_conserve_work_and_respect_capacity(
            caps in proptest::collection::vec(10.0f64..200.0, 1..4),
            specs in proptest::collection::vec(
                (0.0f64..5.0, 10.0f64..300.0, 0usize..6, 1usize..6, 10.0f64..500.0), 1..8),
        ) {
            let nres = caps.len();
            let flows: Vec<Flow> = specs
                .iter()
                .map(|&(arr, dem, a, b, cap)| {
                    let r1 = a % nres;
                    let r2 = (a + b) % nres;
                    let mut f = flow(arr, dem, cap, &[r1]);
                    if r2 != r1 {
                        f.resources.push(ResourceId(r2));
                    }
                    f
                })
                .collect();
            let sim = FairShareSim::new(caps.clone());
            let out = sim.run(&flows);
            // Event instants: every arrival and every completion.
            let mut events: Vec<f64> = flows
                .iter()
                .map(|f| f.arrival.as_secs_f64())
                .chain(out.iter().map(|o| secs(o.finish)))
                .collect();
            events.sort_by(f64::total_cmp);
            events.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
            let mut drained = vec![0.0f64; flows.len()];
            for w in events.windows(2) {
                let (t0, t1) = (w[0], w[1]);
                if t1 - t0 < 1e-12 {
                    continue;
                }
                let active: Vec<usize> = (0..flows.len())
                    .filter(|&i| {
                        flows[i].arrival.as_secs_f64() <= t0 + 1e-9
                            && secs(out[i].finish) > t0 + 1e-9
                    })
                    .collect();
                if active.is_empty() {
                    continue;
                }
                let rates = sim.instantaneous_rates(&flows, &active);
                // (a) capacity holds at this instant, per resource.
                for (r, &cap) in caps.iter().enumerate() {
                    let load: f64 = active
                        .iter()
                        .zip(rates.iter())
                        .filter(|(&fi, _)| flows[fi].resources.contains(&ResourceId(r)))
                        .map(|(_, &rate)| rate)
                        .sum();
                    prop_assert!(
                        load <= cap * (1.0 + 1e-6),
                        "resource {r} oversubscribed: {load} > {cap} at t={t0}"
                    );
                }
                for (ai, &fi) in active.iter().enumerate() {
                    drained[fi] += rates[ai] * (t1 - t0);
                }
            }
            // (b) every flow's integral equals its demand.
            for (f, d) in flows.iter().zip(drained.iter()) {
                prop_assert!(
                    (d - f.demand).abs() <= 1e-6 * f.demand.max(1.0),
                    "work not conserved: drained {d} of demand {}", f.demand
                );
            }
        }

        /// No flow finishes before its physically minimal time, and every
        /// resource's aggregate throughput constraint holds in aggregate.
        #[test]
        fn physical_lower_bounds_hold(
            caps in proptest::collection::vec(10.0f64..200.0, 1..4),
            specs in proptest::collection::vec(
                (0.0f64..5.0, 10.0f64..300.0, 0usize..4, 10.0f64..500.0), 1..8),
        ) {
            let nres = caps.len();
            let flows: Vec<Flow> = specs
                .iter()
                .map(|&(arr, dem, seed, cap)| flow(arr, dem, cap, &[seed % nres]))
                .collect();
            let sim = FairShareSim::new(caps.clone());
            let out = sim.run(&flows);
            for (f, o) in flows.iter().zip(out.iter()) {
                let min_rate_cap = f.rate_cap.min(
                    f.resources.iter().map(|r| caps[r.0]).fold(INF, f64::min));
                let min_time = f.demand / min_rate_cap;
                prop_assert!(
                    secs(o.finish) + 1e-6 >= f.arrival.as_secs_f64() + min_time,
                    "flow finished impossibly fast"
                );
            }
            // Aggregate per-resource: total bytes through r can't exceed
            // cap_r * (makespan - earliest arrival touching r).
            for (r, &cap) in caps.iter().enumerate() {
                let touching: Vec<usize> = (0..flows.len())
                    .filter(|&i| flows[i].resources.contains(&ResourceId(r)))
                    .collect();
                if touching.is_empty() { continue; }
                let bytes: f64 = touching.iter().map(|&i| flows[i].demand).sum();
                let first = touching.iter()
                    .map(|&i| flows[i].arrival.as_secs_f64())
                    .fold(INF, f64::min);
                let last = touching.iter()
                    .map(|&i| secs(out[i].finish))
                    .fold(0.0, f64::max);
                prop_assert!(bytes <= cap * (last - first) * (1.0 + 1e-6) + 1e-6);
            }
        }
    }
}
