//! Reduction-object checkpointing: suspend a run at a chunk boundary,
//! serialize its state, and resume it elsewhere.
//!
//! A generalized reduction's entire progress is captured by its
//! reduction objects: folds are associative and commutative, so a
//! snapshot of the per-core partial objects plus the broadcast state and
//! a processed-chunk cursor is a *complete* summary of the work done so
//! far. [`Checkpoint`] is that snapshot. [`crate::Executor::run_with`]
//! produces one at a requested [`StopPoint`]
//! ([`crate::RunMode::Suspend`]) and continues one
//! ([`crate::RunMode::Resume`]) — possibly on a different replica — and
//! the final state is bit-identical to the uninterrupted run.
//!
//! The partial objects are kept *per core*, not merged per node: the
//! intra-node combination and the master's global merge both happen in a
//! fixed order at the end of the pass, so merging early would change the
//! floating-point merge tree and break bit-identity.

use crate::report::{CacheMode, PassReport};
use fg_sim::SimTime;
use serde::{Deserialize, Error, Reader, Serialize, Writer};

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

/// What [`crate::Executor::run_with`] produced: either the run finished
/// (always, without a stop point), or it suspended into a checkpoint.
#[allow(clippy::large_enum_variant)]
pub enum ResumableOutcome<S, O> {
    /// The application finished before the stop point was reached.
    Finished(crate::exec::RunResult<S>),
    /// The run was suspended; resume it with [`crate::RunMode::Resume`].
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
// checkpoint's impls are written out here, in the shape the derive
// emits: literal `"name":` prefixes on the way out; on the way in one
// slot per field filled in key order, unknown keys skipped, and the
// first missing field in declaration order named.
macro_rules! checkpoint_codec {
    ($first:ident $(, $field:ident)*) => {
        impl<S: Serialize, O: Serialize> Serialize for Checkpoint<S, O> {
            fn serialize(&self, w: &mut Writer) {
                w.raw(concat!("{\"", stringify!($first), "\":"));
                self.$first.serialize(w);
                $(
                    w.raw(concat!(",\"", stringify!($field), "\":"));
                    self.$field.serialize(w);
                )*
                w.raw("}");
            }
        }

        impl<S: Deserialize, O: Deserialize> Deserialize for Checkpoint<S, O> {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                let mut $first = None;
                $(let mut $field = None;)*
                let mut more = r.object_start("Checkpoint")?;
                while more {
                    match &*r.key()? {
                        stringify!($first) => r.field(&mut $first)?,
                        $(stringify!($field) => r.field(&mut $field)?,)*
                        _ => r.skip_value()?,
                    }
                    more = r.object_more()?;
                }
                Ok(Checkpoint {
                    $first: serde::required($first, stringify!($first), "Checkpoint")?,
                    $($field: serde::required($field, stringify!($field), "Checkpoint")?,)*
                })
            }
        }
    };
}
checkpoint_codec!(
    app,
    dataset,
    num_chunks,
    data_nodes,
    compute_nodes,
    repository,
    compute_machine,
    cache_mode,
    pass_idx,
    cursor,
    state,
    partials,
    elapsed,
    completed,
    prefix
);

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn text<T: Serialize>(value: &T) -> String {
        let mut w = Writer::new();
        value.serialize(&mut w);
        w.into_string()
    }

    fn parse<T: Deserialize>(text: &str) -> Result<T, Error> {
        T::deserialize(&mut Reader::new(text))
    }

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
    fn checkpoint_roundtrips_through_text() {
        let ck = checkpoint();
        let wire = text(&ck);
        let back: Checkpoint<f64, u64> = parse(&wire).unwrap();
        assert_eq!(text(&back), wire);
        assert_eq!(back.app, ck.app);
        assert_eq!(back.cursor, 6);
        assert_eq!(back.partials, ck.partials);
        assert_eq!(back.elapsed, ck.elapsed);
    }

    #[test]
    fn missing_field_is_rejected() {
        let Value::Object(mut fields) = parse(&text(&checkpoint())).unwrap() else {
            unreachable!()
        };
        fields.retain(|(k, _)| k != "partials");
        let r: Result<Checkpoint<f64, u64>, _> = parse(&text(&Value::Object(fields)));
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
