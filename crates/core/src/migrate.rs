//! Migration cost/benefit model: is moving a checkpointed run worth it?
//!
//! A run whose replica's WAN path degrades can be checkpointed
//! (`fg-middleware`'s `RunMode::Suspend`) and resumed on another
//! replica of the same dataset (`RunMode::Resume`). Ranking the replicas
//! at the observed bandwidth says *where* the run should be; this module
//! says whether moving there pays, because migration is not free. The
//! checkpointed reduction objects must cross a link
//! (`checkpoint_size · ŵ + l`, the paper's per-object interconnect model
//! applied to the snapshot), and the destination replica must redo the
//! remaining fraction of the run's retrieval and WAN transfer —
//! `T̂_disk`/`T̂_network` scaled by the unprocessed share:
//!
//! ```text
//! T̂_migrate = checkpoint_bytes · ŵ + l + f_rem · (T̂_disk + T̂_network)
//! ```
//!
//! [`decide_migration`] puts the two sides on one scale: a move only
//! pays if the predicted remaining time on the candidate *plus*
//! `T̂_migrate` still beats staying put on the degraded path. The
//! scheduler (`fg-sched`) calls it for every mid-run migration it
//! considers, and `examples/fault_injection.rs` for a single run.

use crate::model::{InterconnectParams, Prediction};

/// The components of `T̂_migrate` (seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationCost {
    /// Checkpoint transfer: `checkpoint_bytes · ŵ` at the link's
    /// bandwidth.
    pub checkpoint_transfer: f64,
    /// Per-message latency `l` of the link.
    pub latency: f64,
    /// Restart I/O: the remaining fraction of the destination's
    /// predicted `T̂_disk + T̂_network` (work the move redoes or had
    /// deferred, now priced at the destination).
    pub restart: f64,
}

impl MigrationCost {
    /// `T̂_migrate`: the sum of the components.
    pub fn total(&self) -> f64 {
        self.checkpoint_transfer + self.latency + self.restart
    }
}

/// Price a migration: the checkpoint crosses `link`, and the
/// `destination` prediction's I/O components are redone for the
/// `remaining_fraction` of the run (clamped to `[0, 1]`).
pub fn migration_cost(
    checkpoint_bytes: u64,
    link: &InterconnectParams,
    destination: &Prediction,
    remaining_fraction: f64,
) -> MigrationCost {
    let f = remaining_fraction.clamp(0.0, 1.0);
    MigrationCost {
        checkpoint_transfer: checkpoint_bytes as f64 / link.bandwidth,
        latency: link.latency,
        restart: f * (destination.t_disk + destination.t_network),
    }
}

/// A priced stay-vs-move comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationDecision {
    /// Predicted time to completion if the run stays where it is
    /// (remaining fraction at the observed, degraded bandwidth).
    pub stay: f64,
    /// Predicted time to completion if it moves: `T̂_migrate` plus the
    /// remaining compute on the candidate.
    pub migrate: f64,
    /// The migration-cost breakdown behind `migrate`.
    pub cost: MigrationCost,
}

impl MigrationDecision {
    /// Whether moving beats staying by at least `margin` (relative).
    pub fn worthwhile(&self, margin: f64) -> bool {
        self.migrate < self.stay * (1.0 - margin)
    }
}

/// Compare staying (predicted `stay_remaining` seconds to completion)
/// against migrating to a candidate whose full-run prediction is
/// `candidate`: the move pays `T̂_migrate` and then the remaining
/// fraction of the candidate's compute.
pub fn decide_migration(
    stay_remaining: f64,
    candidate: &Prediction,
    remaining_fraction: f64,
    checkpoint_bytes: u64,
    link: &InterconnectParams,
) -> MigrationDecision {
    let f = remaining_fraction.clamp(0.0, 1.0);
    let cost = migration_cost(checkpoint_bytes, link, candidate, f);
    MigrationDecision {
        stay: stay_remaining,
        migrate: cost.total() + f * candidate.t_compute,
        cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> InterconnectParams {
        InterconnectParams { bandwidth: 1e6, latency: 0.5 }
    }

    fn prediction() -> Prediction {
        Prediction { t_disk: 40.0, t_network: 20.0, t_compute: 100.0 }
    }

    #[test]
    fn migration_cost_adds_transfer_latency_and_restart() {
        let c = migration_cost(2_000_000, &link(), &prediction(), 0.5);
        assert_eq!(c.checkpoint_transfer, 2.0);
        assert_eq!(c.latency, 0.5);
        assert_eq!(c.restart, 30.0);
        assert_eq!(c.total(), 32.5);
    }

    #[test]
    fn remaining_fraction_is_clamped() {
        let c = migration_cost(0, &link(), &prediction(), 7.0);
        assert_eq!(c.restart, 60.0);
        let c = migration_cost(0, &link(), &prediction(), -1.0);
        assert_eq!(c.restart, 0.0);
    }

    #[test]
    fn decide_migration_weighs_both_sides() {
        // Stay: 200 s left. Move: 32.5 s of migration + half the
        // candidate's compute (50 s) = 82.5 s — clearly worthwhile.
        let d = decide_migration(200.0, &prediction(), 0.5, 2_000_000, &link());
        assert_eq!(d.migrate, 82.5);
        assert!(d.worthwhile(0.0));
        assert!(d.worthwhile(0.5));
        // But not against a 60% improvement demand.
        assert!(!d.worthwhile(0.6));
        // A nearly-done run has nothing left to win.
        let d = decide_migration(2.0, &prediction(), 0.01, 2_000_000, &link());
        assert!(!d.worthwhile(0.0));
    }
}
