//! Token-bucket quota enforcement, checked from outside the scheduler.
//!
//! The scheduler's `with_quotas` gate spends one token per submission
//! from a per-tenant bucket that refills continuously and rejects when
//! the bucket is empty. These tests reconstruct the bucket from the
//! *outcomes alone* and prove the gate honest: the accept/reject
//! pattern is exactly what an external bucket replay predicts, no
//! tenant ever exceeds `capacity + refill · window` acceptances inside
//! any time window, a zero-quota tenant starves without perturbing the
//! other tenants' outcomes by a single bit, and the structural
//! violation counter stays at zero throughout.

use fg_bench::figures::sched_models;
use fg_bench::PaperApp;
use freeride_g::sched::{
    GridSpec, JobOutcome, LoadLevel, Policy, SchedResult, Scheduler, TenantQuota, WorkloadShape,
    WorkloadSpec,
};
use proptest::prelude::*;

const EPS: f64 = 1e-6;

fn preset_jobs(load: LoadLevel, seed: u64) -> Vec<freeride_g::sched::JobSpec> {
    let names: Vec<&str> = PaperApp::ALL.iter().map(|a| a.name()).collect();
    WorkloadSpec::preset(load, &names, seed).generate()
}

fn shaped_jobs(
    shape: WorkloadShape,
    load: LoadLevel,
    seed: u64,
) -> Vec<freeride_g::sched::JobSpec> {
    let names: Vec<&str> = PaperApp::ALL.iter().map(|a| a.name()).collect();
    WorkloadSpec::shaped(shape, load, &names, seed).generate()
}

fn run_with_quotas(quotas: Vec<TenantQuota>, jobs: &[freeride_g::sched::JobSpec]) -> SchedResult {
    Scheduler::new(GridSpec::demo(sched_models()), Policy::FcfsBackfill)
        .with_quotas(quotas)
        .run(jobs)
}

fn is_quota_rejected(o: &JobOutcome) -> bool {
    o.reject_reason.as_deref().is_some_and(|r| r.starts_with("quota"))
}

/// Equal up to fluid-integration rounding.
fn close(x: f64, y: f64) -> bool {
    (x - y).abs() <= 1e-6 * x.abs().max(y.abs()).max(1.0)
}

/// Replay the token bucket from the submission stream and check the
/// scheduler's accept/reject pattern against it, then bound acceptances
/// over every window.
fn check_bucket_accounting(outcomes: &[JobOutcome], quotas: &[TenantQuota], label: &str) {
    for (tenant, q) in quotas.iter().enumerate() {
        let subs: Vec<&JobOutcome> = outcomes.iter().filter(|o| o.tenant == tenant).collect();

        // External bucket replay: the gate must agree decision by
        // decision, not just in aggregate.
        let mut tokens = q.capacity;
        let mut last = 0.0_f64;
        for o in &subs {
            tokens = (tokens + q.refill_per_sec * (o.arrival - last)).min(q.capacity);
            last = o.arrival;
            let accept = tokens + EPS >= 1.0;
            assert_eq!(
                !is_quota_rejected(o),
                accept,
                "{label}: tenant {tenant} job {} at t={:.3}: bucket replay predicts \
                 accept={accept} with {tokens:.3} tokens, scheduler disagreed ({:?})",
                o.id,
                o.arrival,
                o.reject_reason
            );
            if accept {
                tokens -= 1.0;
            }
        }

        // The defining token-bucket property: within any window the
        // number of accepted submissions is at most a full bucket plus
        // what the window refills.
        let accepted: Vec<f64> =
            subs.iter().filter(|o| !is_quota_rejected(o)).map(|o| o.arrival).collect();
        for (i, &start) in accepted.iter().enumerate() {
            for (j, &end) in accepted.iter().enumerate().skip(i) {
                let count = (j - i + 1) as f64;
                let budget = q.capacity + q.refill_per_sec * (end - start);
                assert!(
                    count <= budget + EPS,
                    "{label}: tenant {tenant} accepted {count} submissions in \
                     [{start:.3}, {end:.3}] against a budget of {budget:.3}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Seeded workloads at every load level against a deliberately
    /// tight bucket: the quota is never exceeded in any window, the
    /// gate matches an external replay, quota-rejected jobs never touch
    /// the grid, and the violation counter stays zero.
    #[test]
    fn token_bucket_quotas_are_never_exceeded(seed in 0u64..10_000) {
        let load = LoadLevel::ALL[(seed % 3) as usize];
        // Tight enough that every preset load rejects some submissions.
        let quotas = vec![TenantQuota { capacity: 2.0, refill_per_sec: 0.004 }; 3];
        let jobs = preset_jobs(load, seed);
        let r = run_with_quotas(quotas.clone(), &jobs);
        let label = format!("{} seed {seed}", load.name());

        check_bucket_accounting(&r.outcomes, &quotas, &label);
        for o in r.outcomes.iter().filter(|o| is_quota_rejected(o)) {
            prop_assert!(!o.admitted);
            prop_assert!(
                o.placement.is_none() && o.placed_at.is_none() && o.finish.is_none(),
                "{label}: quota-rejected job {} occupied the grid",
                o.id
            );
        }
        prop_assert_eq!(r.trace.metrics.counter("sched_quota_violations"), Some(0));
        prop_assert_eq!(
            r.trace.metrics.counter("sched_quota_rejections"),
            Some(r.outcomes.iter().filter(|o| is_quota_rejected(o)).count() as u64)
        );
        prop_assert!(r.violations.is_empty(), "{}: {:?}", label, r.violations);
    }

    /// Burst sessions are the token bucket's adversarial case: a
    /// cluster of near-simultaneous submissions drains the bucket with
    /// almost no refill in between. The external bucket replay and the
    /// windowed acceptance bound must hold on the trace-shaped presets
    /// exactly as they do on uniform arrivals.
    #[test]
    fn token_bucket_survives_trace_shaped_bursts(seed in 0u64..10_000) {
        let shape = WorkloadShape::TRACE_SHAPED[(seed % 2) as usize];
        let load = LoadLevel::ALL[(seed / 2 % 3) as usize];
        let quotas = vec![TenantQuota { capacity: 2.0, refill_per_sec: 0.004 }; 3];
        let jobs = shaped_jobs(shape, load, seed);
        let r = run_with_quotas(quotas.clone(), &jobs);
        let label = format!("{} {} seed {seed}", shape.name(), load.name());

        check_bucket_accounting(&r.outcomes, &quotas, &label);
        for o in r.outcomes.iter().filter(|o| is_quota_rejected(o)) {
            prop_assert!(!o.admitted);
            prop_assert!(
                o.placement.is_none() && o.placed_at.is_none() && o.finish.is_none(),
                "{label}: quota-rejected job {} occupied the grid",
                o.id
            );
        }
        prop_assert_eq!(r.trace.metrics.counter("sched_quota_violations"), Some(0));
        prop_assert_eq!(
            r.trace.metrics.counter("sched_quota_rejections"),
            Some(r.outcomes.iter().filter(|o| is_quota_rejected(o)).count() as u64)
        );
        prop_assert!(r.violations.is_empty(), "{}: {:?}", label, r.violations);
    }

    /// A zero-capacity tenant is fully starved, and the remaining
    /// tenants get the same decisions, placements, and (up to fluid-
    /// integration rounding: the starved arrivals still split the
    /// drain loop's time steps) the same instants as a run where the
    /// starved tenant never submitted at all.
    #[test]
    fn zero_quota_tenant_starves_without_affecting_others(seed in 0u64..10_000) {
        let load = LoadLevel::ALL[(seed % 3) as usize];
        let quotas = vec![
            TenantQuota { capacity: 0.0, refill_per_sec: 0.0 },
            TenantQuota { capacity: 1e9, refill_per_sec: 1.0 },
            TenantQuota { capacity: 1e9, refill_per_sec: 1.0 },
        ];
        let jobs = preset_jobs(load, seed);
        let with_starved = run_with_quotas(quotas.clone(), &jobs);

        for o in with_starved.outcomes.iter().filter(|o| o.tenant == 0) {
            prop_assert!(!o.admitted, "zero-quota tenant must never be admitted");
            prop_assert!(is_quota_rejected(o));
            prop_assert!(o.placed_at.is_none());
        }

        let others: Vec<freeride_g::sched::JobSpec> =
            jobs.iter().filter(|j| j.tenant != 0).cloned().collect();
        let alone = run_with_quotas(quotas, &others);
        let starved_view: Vec<&JobOutcome> =
            with_starved.outcomes.iter().filter(|o| o.tenant != 0).collect();
        prop_assert_eq!(starved_view.len(), alone.outcomes.len());
        for (a, b) in starved_view.iter().zip(alone.outcomes.iter()) {
            let ctx = format!("tenant {} job {}", b.tenant, b.id);
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(a.admitted, b.admitted);
            prop_assert!(a.reject_reason == b.reject_reason, "{}: reject reason", ctx);
            prop_assert!(a.placement == b.placement, "{}: placement changed", ctx);
            prop_assert_eq!(a.preemptions.len(), b.preemptions.len());
            prop_assert!(a.migration.is_some() == b.migration.is_some(), "{}", ctx);
            for (x, y) in [
                (a.placed_at, b.placed_at),
                (a.disk_end, b.disk_end),
                (a.network_end, b.network_end),
                (a.finish, b.finish),
            ] {
                prop_assert!(x.is_some() == y.is_some(), "{}: phase presence", ctx);
                if let (Some(x), Some(y)) = (x, y) {
                    prop_assert!(
                        close(x, y),
                        "{}: instants diverged beyond rounding: {} vs {}",
                        ctx, x, y
                    );
                }
            }
        }
    }
}
