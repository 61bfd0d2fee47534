//! The scheduler queue: admitted jobs in policy order, indexed once —
//! one ordered set of `(policy key, id, job-table row)` per tenant.
//!
//! Every policy's ordering key is fixed at enqueue time (arrival,
//! standalone prediction, or deadline), so the sets never re-sort, and
//! the *global* policy order is the merge of the per-tenant ones:
//! repeatedly taking the smallest `(key, id)` across the tenants' cursors
//! ([`PolicyQueue::walk`]) visits jobs in exactly the order one set over
//! all of them would — and restricting the cursors to some tenants
//! visits exactly their jobs in that same order, without touching anyone
//! else's. That one walk is round 1 of a scheduling pass (the
//! under-quota tenants; on a saturated trace the capped tenants' ~Q
//! entries are the dominant cost it avoids), round 2 (every tenant) and,
//! taken one step, the queue head. A job's facts stay in the core's job
//! table: the queue reads the key off the row it is handed and keeps
//! only the row's index.

use crate::policy::Policy;
use crate::sched::JobOutcome;
use std::collections::{btree_set, BTreeSet};
use std::iter::Peekable;

/// An `f64` ordered by `total_cmp` so it can key a [`BTreeSet`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrderKey(f64);

impl Eq for OrderKey {}

impl PartialOrd for OrderKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A queued job as the queue holds it: `(policy key, id, job-table
/// row)`. Ids are unique, so the row never decides an ordering — it
/// rides along so a walk reaches the job's facts without a lookup.
type QueueEntry = (OrderKey, usize, usize);

/// The queue (see the module docs for why one index is enough).
#[derive(Debug)]
pub(crate) struct PolicyQueue {
    policy: Policy,
    by_tenant: Vec<BTreeSet<QueueEntry>>,
    len: usize,
    backlog_slot_secs: f64,
    min_slots: usize,
}

impl PolicyQueue {
    pub(crate) fn new(policy: Policy, min_slots: usize) -> PolicyQueue {
        PolicyQueue { policy, by_tenant: Vec::new(), len: 0, backlog_slot_secs: 0.0, min_slots }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub(crate) fn queued_for(&self, tenant: usize) -> usize {
        self.by_tenant.get(tenant).map_or(0, |s| s.len())
    }

    /// Running Σ standalone·min_slots over the queued jobs, for the
    /// submission-time completion estimate. An incremental float sum can
    /// differ from a front-to-back resum in the last bits after
    /// dequeues, which only nudges the *reported* admission estimate;
    /// placement decisions never read it.
    pub(crate) fn backlog_slot_secs(&self) -> f64 {
        self.backlog_slot_secs
    }

    fn entry(&self, job: &JobOutcome, row: usize) -> QueueEntry {
        let (metric, id) = self.policy.key(job);
        (OrderKey(metric), id, row)
    }

    /// The fluid backlog one queued job stands for.
    fn slot_secs(&self, job: &JobOutcome) -> f64 {
        job.standalone.unwrap_or(0.0) * self.min_slots as f64
    }

    /// Enqueue the admitted job at `row` of the job table.
    pub(crate) fn push(&mut self, job: &JobOutcome, row: usize) {
        if job.tenant >= self.by_tenant.len() {
            self.by_tenant.resize(job.tenant + 1, BTreeSet::new());
        }
        let entry = self.entry(job, row);
        let fresh = self.by_tenant[job.tenant].insert(entry);
        assert!(fresh, "job {} queued twice", job.id);
        self.len += 1;
        self.backlog_slot_secs += self.slot_secs(job);
    }

    /// Dequeue a job a walk (or [`head`](PolicyQueue::head)) yielded.
    pub(crate) fn remove(&mut self, job: &JobOutcome, row: usize) {
        let entry = self.entry(job, row);
        let was_queued = self.by_tenant[job.tenant].remove(&entry);
        assert!(was_queued, "job {} dequeued twice", job.id);
        self.len -= 1;
        self.backlog_slot_secs -= self.slot_secs(job);
    }

    /// `(id, row)` of the queued jobs of the `eligible` tenants, in
    /// global policy order (a tenant that never queued a job has none).
    pub(crate) fn walk(&self, eligible: impl Iterator<Item = usize>) -> Walk<'_> {
        let sets = eligible.filter_map(|t| self.by_tenant.get(t));
        Walk { cursors: sets.map(|s| s.iter().peekable()).collect() }
    }

    /// The first job in global policy order: the least of the tenants'
    /// firsts.
    pub(crate) fn head(&self) -> Option<(usize, usize)> {
        self.by_tenant.iter().filter_map(BTreeSet::first).min().map(|&(_, id, row)| (id, row))
    }

    /// `(id, row)` of every queued job in submission-id order — the
    /// order the drain's stuck-job report and the work-conservation
    /// guard list jobs in.
    pub(crate) fn by_id(&self) -> Vec<(usize, usize)> {
        let mut jobs: Vec<(usize, usize)> =
            self.by_tenant.iter().flatten().map(|&(_, id, row)| (id, row)).collect();
        jobs.sort_unstable();
        jobs
    }
}

/// The k-way merge behind [`PolicyQueue::walk`].
pub(crate) struct Walk<'q> {
    cursors: Vec<Peekable<btree_set::Iter<'q, QueueEntry>>>,
}

impl Iterator for Walk<'_> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        let mut least: Option<(usize, QueueEntry)> = None;
        for (ci, cursor) in self.cursors.iter_mut().enumerate() {
            if let Some(&&entry) = cursor.peek() {
                if least.is_none_or(|(_, l)| entry < l) {
                    least = Some((ci, entry));
                }
            }
        }
        let (ci, (_, id, row)) = least?;
        self.cursors[ci].next();
        Some((id, row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::JobSpec;
    use proptest::prelude::*;

    /// The parent commit's queue — three indices over one set of jobs,
    /// each holding a clone of its `JobSpec` — kept verbatim (`key` is
    /// the parent's `Policy::key`); the differential below holds the
    /// one-index queue to it after every step.
    mod reference {
        use super::super::{OrderKey, Policy};
        use crate::workload::JobSpec;
        use std::collections::{BTreeMap, BTreeSet};

        fn key(policy: Policy, job: &QueuedJob) -> (f64, usize) {
            let metric = match policy {
                Policy::Fcfs | Policy::FcfsBackfill => job.spec.arrival,
                Policy::Spjf => job.standalone,
                Policy::EdfAdmit => job.deadline.unwrap_or(f64::INFINITY),
            };
            (metric, job.spec.id)
        }

        /// A job waiting in the scheduler queue.
        #[derive(Debug, Clone)]
        pub struct QueuedJob {
            /// The submitted job.
            pub spec: JobSpec,
            /// Standalone predicted execution time.
            pub standalone: f64,
            /// Deadline instant, when one applies.
            pub deadline: Option<f64>,
        }

        #[derive(Debug)]
        pub struct PolicyQueue {
            policy: Policy,
            jobs: BTreeMap<usize, QueuedJob>,
            pub order: BTreeSet<(OrderKey, usize, usize)>,
            by_tenant: Vec<BTreeSet<(OrderKey, usize)>>,
            pub backlog_slot_secs: f64,
            min_slots: usize,
        }

        impl PolicyQueue {
            pub fn new(policy: Policy, min_slots: usize) -> PolicyQueue {
                PolicyQueue {
                    policy,
                    jobs: BTreeMap::new(),
                    order: BTreeSet::new(),
                    by_tenant: Vec::new(),
                    backlog_slot_secs: 0.0,
                    min_slots,
                }
            }

            pub fn len(&self) -> usize {
                self.jobs.len()
            }

            pub fn is_empty(&self) -> bool {
                self.jobs.is_empty()
            }

            /// Queued jobs in submission-id order (the old `Vec` order).
            pub fn iter(&self) -> impl Iterator<Item = &QueuedJob> {
                self.jobs.values()
            }

            pub fn queued_for(&self, tenant: usize) -> usize {
                self.by_tenant.get(tenant).map_or(0, |s| s.len())
            }

            pub fn push(&mut self, job: QueuedJob) {
                let (metric, id) = key(self.policy, &job);
                if job.spec.tenant >= self.by_tenant.len() {
                    self.by_tenant.resize(job.spec.tenant + 1, BTreeSet::new());
                }
                self.by_tenant[job.spec.tenant].insert((OrderKey(metric), id));
                self.backlog_slot_secs += job.standalone * self.min_slots as f64;
                self.order.insert((OrderKey(metric), id, job.spec.tenant));
                let prev = self.jobs.insert(id, job);
                assert!(prev.is_none(), "job {id} queued twice");
            }

            pub fn remove(&mut self, id: usize) -> QueuedJob {
                let job = self.jobs.remove(&id).expect("removed job is queued");
                let (metric, _) = key(self.policy, &job);
                self.order.remove(&(OrderKey(metric), id, job.spec.tenant));
                self.by_tenant[job.spec.tenant].remove(&(OrderKey(metric), id));
                self.backlog_slot_secs -= job.standalone * self.min_slots as f64;
                job
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Pushes and removes over 1–6 tenants under each policy, with
        /// arrivals, standalones and deadlines drawn from three values
        /// each so most keys tie and the id decides. Ids are a
        /// permutation of the rows, so id order is neither row nor push
        /// order.
        #[test]
        fn the_one_index_queue_walks_in_the_reference_order(
            policy in 0usize..4,
            ntenant in 1usize..7,
            steps in proptest::collection::vec(
                (0u8..3, 0usize..6, 0u8..3, 0u8..3, 0u8..3, any::<u64>()),
                1..48,
            ),
        ) {
            let policy = Policy::ALL[policy];
            let min_slots = 2;
            let mut table: Vec<JobOutcome> = Vec::new();
            let mut queue = PolicyQueue::new(policy, min_slots);
            let mut parent = reference::PolicyQueue::new(policy, min_slots);
            for (kind, tenant, arrival, standalone, deadline, pick) in steps {
                if kind < 2 || parent.is_empty() {
                    let row = table.len();
                    let spec = JobSpec {
                        id: (row * 37 + 11) % 101,
                        tenant: tenant % ntenant,
                        app: "kmeans".into(),
                        dataset_bytes: 1,
                        arrival: f64::from(arrival),
                        deadline_slack: 2.0,
                    };
                    let standalone = 1.5 * f64::from(standalone + 1);
                    let deadline = Some(10.0 * f64::from(deadline + 1));
                    parent.push(reference::QueuedJob { spec: spec.clone(), standalone, deadline });
                    table.push(JobOutcome {
                        standalone: Some(standalone),
                        deadline,
                        ..JobOutcome::submitted(&spec, "kmeans".into())
                    });
                    queue.push(&table[row], row);
                } else {
                    let &(_, id, _) = parent.order.iter().nth(pick as usize % parent.len()).unwrap();
                    parent.remove(id);
                    let row = table.iter().position(|o| o.id == id).unwrap();
                    queue.remove(&table[row], row);
                }
                let order: Vec<(usize, usize)> =
                    parent.order.iter().map(|&(_, id, tenant)| (id, tenant)).collect();
                let ids = |walk: Walk<'_>| -> Vec<usize> {
                    walk.map(|(id, row)| {
                        assert_eq!(table[row].id, id, "a walk pairs an id with its own row");
                        id
                    })
                    .collect()
                };
                prop_assert_eq!(
                    ids(queue.walk(0..ntenant)),
                    order.iter().map(|&(id, _)| id).collect::<Vec<_>>()
                );
                let chosen = |t: usize| pick >> (8 + t) & 1 == 1;
                prop_assert_eq!(
                    ids(queue.walk((0..ntenant).filter(|&t| chosen(t)))),
                    order.iter().filter(|&&(_, t)| chosen(t)).map(|&(id, _)| id).collect::<Vec<_>>()
                );
                prop_assert_eq!(queue.head().map(|(id, _)| id), order.first().map(|&(id, _)| id));
                prop_assert_eq!(
                    queue.by_id().into_iter().map(|(id, _)| id).collect::<Vec<_>>(),
                    parent.iter().map(|q| q.spec.id).collect::<Vec<_>>()
                );
                prop_assert_eq!(queue.len(), parent.len());
                for t in 0..ntenant {
                    prop_assert_eq!(queue.queued_for(t), parent.queued_for(t));
                }
                prop_assert_eq!(
                    queue.backlog_slot_secs.to_bits(),
                    parent.backlog_slot_secs.to_bits()
                );
            }
        }
    }
}
