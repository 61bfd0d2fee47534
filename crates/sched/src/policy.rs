//! Pluggable queueing disciplines.
//!
//! A policy decides three things: the order in which queued jobs are
//! considered for placement, whether the queue head blocks later jobs
//! from starting ahead of it (no backfilling), and whether jobs face
//! predictor-based admission control at submission.

use crate::sched::JobOutcome;

/// The queueing disciplines the scheduler implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// First-come first-served, no backfilling: the oldest queued job
    /// blocks everything behind it until it can be placed.
    Fcfs,
    /// FCFS order, but when the head cannot start, later jobs that fit
    /// the free nodes may run ahead (conservative backfilling without
    /// reservations).
    FcfsBackfill,
    /// Shortest-predicted-job-first: jobs are considered in increasing
    /// order of their standalone predicted execution time; implies
    /// backfilling (a long head never blocks a short job).
    Spjf,
    /// Earliest-deadline-first with predictor-based admission control:
    /// jobs whose predicted completion (queue-backlog estimate plus
    /// load-corrected execution prediction) misses their deadline are
    /// rejected at submission; admitted jobs are served EDF without
    /// backfilling.
    EdfAdmit,
}

impl Policy {
    /// Every policy, in figure order.
    pub const ALL: [Policy; 4] =
        [Policy::Fcfs, Policy::FcfsBackfill, Policy::Spjf, Policy::EdfAdmit];

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Policy::Fcfs => "fcfs",
            Policy::FcfsBackfill => "fcfs-backfill",
            Policy::Spjf => "spjf",
            Policy::EdfAdmit => "edf-admit",
        }
    }

    /// Does the policy reject jobs at submission when their predicted
    /// completion misses the deadline?
    pub fn admits(self) -> bool {
        matches!(self, Policy::EdfAdmit)
    }

    /// Does an unplaceable queue head block the jobs behind it?
    pub fn head_blocking(self) -> bool {
        matches!(self, Policy::Fcfs | Policy::EdfAdmit)
    }

    /// The queue-ordering key of an admitted job, read off its row of
    /// the job table: smaller sorts first; ties broken by submission id
    /// for determinism.
    pub(crate) fn key(self, job: &JobOutcome) -> (f64, usize) {
        let metric = match self {
            Policy::Fcfs | Policy::FcfsBackfill => Some(job.arrival),
            Policy::Spjf => job.standalone,
            Policy::EdfAdmit => job.deadline,
        };
        (metric.unwrap_or(f64::INFINITY), job.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::JobSpec;

    fn queued(id: usize, arrival: f64, standalone: f64, deadline: Option<f64>) -> JobOutcome {
        let spec = JobSpec {
            id,
            tenant: 0,
            app: "kmeans".into(),
            dataset_bytes: 1,
            arrival,
            deadline_slack: 2.0,
        };
        JobOutcome {
            standalone: Some(standalone),
            deadline,
            ..JobOutcome::submitted(&spec, "kmeans".into())
        }
    }

    #[test]
    fn names_are_stable() {
        let names: Vec<&str> = Policy::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names, ["fcfs", "fcfs-backfill", "spjf", "edf-admit"]);
    }

    #[test]
    fn ordering_keys_follow_the_discipline() {
        let early_long = queued(0, 1.0, 50.0, Some(100.0));
        let late_short = queued(1, 2.0, 5.0, Some(20.0));
        assert!(Policy::Fcfs.key(&early_long) < Policy::Fcfs.key(&late_short));
        assert!(Policy::Spjf.key(&late_short) < Policy::Spjf.key(&early_long));
        assert!(Policy::EdfAdmit.key(&late_short) < Policy::EdfAdmit.key(&early_long));
    }

    #[test]
    fn flags_match_the_design() {
        assert!(Policy::Fcfs.head_blocking() && !Policy::Fcfs.admits());
        assert!(!Policy::FcfsBackfill.head_blocking());
        assert!(!Policy::Spjf.head_blocking());
        assert!(Policy::EdfAdmit.head_blocking() && Policy::EdfAdmit.admits());
    }
}
