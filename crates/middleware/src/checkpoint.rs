//! Reduction-object checkpointing: suspend a run at a chunk boundary,
//! serialize its state, and resume it elsewhere.
//!
//! A generalized reduction's entire progress is captured by its
//! reduction objects: folds are associative and commutative, so a
//! snapshot of the per-core partial objects plus the broadcast state and
//! a processed-chunk cursor is a *complete* summary of the work done so
//! far. [`Checkpoint`] is that snapshot. [`crate::Executor::run_with`]
//! produces one at a requested [`StopPoint`]
//! ([`crate::RunOptions::stop_at`]) and continues one
//! ([`crate::RunOptions::resume_from`]) — possibly on a different
//! replica — and the final state is bit-identical to the uninterrupted
//! run.
//!
//! The partial objects are kept *per core*, not merged per node: the
//! intra-node combination and the master's global merge both happen in a
//! fixed order at the end of the pass, so merging early would change the
//! floating-point merge tree and break bit-identity.

use crate::report::{CacheMode, PassReport};
use fg_sim::SimTime;
use serde::{get_field, Deserialize, Error, Serialize, Value};

/// Where a resumable run should suspend: before chunk `cursor` of pass
/// `pass` (both zero-based; `cursor` counts chunks of the whole dataset,
/// so `cursor == 0` checkpoints at the start of the pass and
/// `cursor == num_chunks` after the folds but before the global
/// reduction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StopPoint {
    /// Pass index to suspend in.
    pub pass: usize,
    /// Global chunk-id boundary: chunks with id `< cursor` are folded
    /// before the checkpoint is taken.
    pub cursor: usize,
}

/// A serializable snapshot of a suspended run: the per-core partial
/// reduction objects, the broadcast state, the pass/chunk cursor, and
/// enough identity to validate a resume.
#[derive(Debug, Clone)]
pub struct Checkpoint<S, O> {
    /// Application name ([`crate::ReductionApp::name`]).
    pub app: String,
    /// Dataset id the run was over.
    pub dataset: String,
    /// Chunk count of that dataset.
    pub num_chunks: usize,
    /// Data-node count of the *original* deployment: it fixed the
    /// chunk-to-compute-node map, which must survive migration.
    pub data_nodes: usize,
    /// Compute-node count; a resume cannot change it.
    pub compute_nodes: usize,
    /// Repository (replica) name the run was fetching from; resuming on
    /// a different repository is a migration and pays the overhead.
    pub repository: String,
    /// Compute machine name; a resume is a replica switch, so the
    /// compute site stays.
    pub compute_machine: String,
    /// Cache mode decided at run start (sticky across the resume: the
    /// compute-local cache survives migration).
    pub cache_mode: CacheMode,
    /// Pass the run was suspended in.
    pub pass_idx: usize,
    /// Chunks with global id `< cursor` are already folded in this pass.
    pub cursor: usize,
    /// The broadcast state at the start of the suspended pass.
    pub state: S,
    /// Per-node, per-core partial reduction objects, in node then core
    /// order.
    pub partials: Vec<Vec<O>>,
    /// Virtual time consumed up to the checkpoint.
    pub elapsed: SimTime,
    /// Reports of the passes completed before the suspended one.
    pub completed: Vec<PassReport>,
    /// Phase components already spent inside the suspended pass (merged
    /// into that pass's report on resume).
    pub prefix: PassReport,
}

impl<S, O> Checkpoint<S, O> {
    /// Fraction of this pass's chunks still unprocessed — the "remaining
    /// fraction" of the migration cost model.
    pub fn remaining_fraction(&self) -> f64 {
        if self.num_chunks == 0 {
            return 0.0;
        }
        (self.num_chunks - self.cursor.min(self.num_chunks)) as f64 / self.num_chunks as f64
    }
}

impl<S, O: crate::api::ReductionObject> Checkpoint<S, O> {
    /// Serialized size of the partial reduction objects (the payload a
    /// migration must move), after data-part inflation.
    pub fn object_bytes(&self, inflation: f64) -> u64 {
        self.partials
            .iter()
            .flat_map(|cores| cores.iter())
            .map(|o| o.size().logical(inflation))
            .sum()
    }
}

/// What [`crate::Executor::run_with`] produced: either the run finished
/// (always, without a stop point), or it suspended into a checkpoint.
#[allow(clippy::large_enum_variant)]
pub enum ResumableOutcome<S, O> {
    /// The application finished before the stop point was reached.
    Finished(crate::exec::RunResult<S>),
    /// The run was suspended; resume it with
    /// [`crate::RunOptions::resume_from`].
    Suspended(Checkpoint<S, O>),
}

impl<S, O> ResumableOutcome<S, O> {
    /// The finished run, panicking if it suspended instead — for runs
    /// with no stop point, which cannot.
    pub fn finished(self) -> crate::exec::RunResult<S> {
        match self {
            ResumableOutcome::Finished(result) => result,
            ResumableOutcome::Suspended(ck) => {
                panic!("run suspended at pass {} chunk {}", ck.pass_idx, ck.cursor)
            }
        }
    }

    /// The checkpoint, panicking if the run finished instead.
    pub fn expect_suspended(self, msg: &str) -> Checkpoint<S, O> {
        match self {
            ResumableOutcome::Suspended(ck) => ck,
            ResumableOutcome::Finished(_) => panic!("{msg}: run finished before the stop point"),
        }
    }
}

// The vendored serde_derive does not support generic types, so the
// checkpoint's impls are written out by hand.
impl<S: Serialize, O: Serialize> Serialize for Checkpoint<S, O> {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("app".to_string(), self.app.to_value()),
            ("dataset".to_string(), self.dataset.to_value()),
            ("num_chunks".to_string(), self.num_chunks.to_value()),
            ("data_nodes".to_string(), self.data_nodes.to_value()),
            ("compute_nodes".to_string(), self.compute_nodes.to_value()),
            ("repository".to_string(), self.repository.to_value()),
            ("compute_machine".to_string(), self.compute_machine.to_value()),
            ("cache_mode".to_string(), self.cache_mode.to_value()),
            ("pass_idx".to_string(), self.pass_idx.to_value()),
            ("cursor".to_string(), self.cursor.to_value()),
            ("state".to_string(), self.state.to_value()),
            ("partials".to_string(), self.partials.to_value()),
            ("elapsed".to_string(), self.elapsed.to_value()),
            ("completed".to_string(), self.completed.to_value()),
            ("prefix".to_string(), self.prefix.to_value()),
        ])
    }
}

impl<S: Deserialize, O: Deserialize> Deserialize for Checkpoint<S, O> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let obj = v.as_object().ok_or_else(|| Error::custom("expected object for Checkpoint"))?;
        fn field<T: Deserialize>(obj: &[(String, Value)], name: &str) -> Result<T, Error> {
            let v = get_field(obj, name)
                .ok_or_else(|| Error::custom(format!("missing field `{name}` in Checkpoint")))?;
            T::from_value(v)
        }
        Ok(Checkpoint {
            app: field(obj, "app")?,
            dataset: field(obj, "dataset")?,
            num_chunks: field(obj, "num_chunks")?,
            data_nodes: field(obj, "data_nodes")?,
            compute_nodes: field(obj, "compute_nodes")?,
            repository: field(obj, "repository")?,
            compute_machine: field(obj, "compute_machine")?,
            cache_mode: field(obj, "cache_mode")?,
            pass_idx: field(obj, "pass_idx")?,
            cursor: field(obj, "cursor")?,
            state: field(obj, "state")?,
            partials: field(obj, "partials")?,
            elapsed: field(obj, "elapsed")?,
            completed: field(obj, "completed")?,
            prefix: field(obj, "prefix")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checkpoint() -> Checkpoint<f64, u64> {
        Checkpoint {
            app: "sum".into(),
            dataset: "d".into(),
            num_chunks: 8,
            data_nodes: 2,
            compute_nodes: 4,
            repository: "repo".into(),
            compute_machine: "pentium-700".into(),
            cache_mode: CacheMode::Local,
            pass_idx: 1,
            cursor: 6,
            state: 0.5,
            partials: vec![vec![1, 2], vec![3]],
            elapsed: SimTime::from_nanos(42),
            completed: Vec::new(),
            prefix: PassReport::default(),
        }
    }

    #[test]
    fn checkpoint_roundtrips_through_value() {
        let ck = checkpoint();
        let back: Checkpoint<f64, u64> = Deserialize::from_value(&ck.to_value()).unwrap();
        assert_eq!(back.app, ck.app);
        assert_eq!(back.cursor, 6);
        assert_eq!(back.partials, ck.partials);
        assert_eq!(back.elapsed, ck.elapsed);
    }

    #[test]
    fn missing_field_is_rejected() {
        let Value::Object(mut fields) = checkpoint().to_value() else { unreachable!() };
        fields.retain(|(k, _)| k != "partials");
        let r: Result<Checkpoint<f64, u64>, _> = Deserialize::from_value(&Value::Object(fields));
        assert!(r.unwrap_err().to_string().contains("partials"));
    }

    #[test]
    fn remaining_fraction_tracks_the_cursor() {
        let mut ck = checkpoint();
        assert_eq!(ck.remaining_fraction(), 0.25);
        ck.cursor = 0;
        assert_eq!(ck.remaining_fraction(), 1.0);
        ck.cursor = 8;
        assert_eq!(ck.remaining_fraction(), 0.0);
    }
}
