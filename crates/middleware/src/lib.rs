//! # fg-middleware — the FREERIDE-G runtime
//!
//! FREERIDE-G (FRamework for Rapid Implementation of Datamining Engines
//! in Grid) exposes a *generalized reduction* programming interface:
//! applications provide a reduction object, a local reduction folding
//! chunks into it, and a global reduction merging per-node objects. The
//! middleware handles everything else — remote retrieval, distribution,
//! data movement, caching, inter-processor communication.
//!
//! This crate reimplements that runtime over the `fg-sim` virtual-time
//! substrate. Application kernels execute **for real** (so results are
//! genuine and per-chunk work is data-dependent) while disk, network and
//! middleware costs accrue in virtual time. Each pass runs as five
//! phases, matching the component structure the paper's model predicts:
//!
//! 1. **Retrieval** — data nodes read their chunks (first pass only;
//!    later passes hit the compute-side cache).
//! 2. **Communication** — chunks ship to their assigned compute nodes
//!    across the WAN.
//! 3. **Processing** — each compute node folds its chunks into its
//!    reduction object (real execution, metered), plus cache write/read.
//! 4. **Reduction-object communication** — non-master nodes send their
//!    objects to the master, serialized (`T_ro`).
//! 5. **Global reduction** — the master merges objects, finalizes the
//!    pass, and broadcasts the next state (`T_g`).
//!
//! The reported breakdown `t_disk / t_network / t_compute` (with `t_ro`
//! and `t_g` inside `t_compute`) is exactly the profile the prediction
//! framework consumes.

#![warn(missing_docs)]

pub mod api;
pub mod checkpoint;
pub mod comm;
pub mod computeserver;
pub mod dataserver;
pub mod exec;
pub mod meter;
pub mod pipeline;
pub mod report;
pub mod timeline;

pub use api::{ObjSize, PassOutcome, ReductionApp, ReductionObject};
pub use checkpoint::{Checkpoint, ResumableOutcome, StopPoint};
pub use dataserver::DETECTION_DELAY;
pub use exec::{Executor, RunMode, RunResult, MIGRATION_OVERHEAD, STRAGGLER_THRESHOLD};
pub use meter::WorkMeter;
pub use pipeline::{run_pipelined, run_pipelined_traced, PipelinedRun};
pub use report::{CacheMode, ExecutionReport, PassReport};
