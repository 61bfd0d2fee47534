//! # fg-chunks — chunked remote data repository
//!
//! FREERIDE-G stores datasets in *chunks* whose size is manageable for the
//! repository nodes, and used the Active Data Repository (ADR) to automate
//! retrieval. ADR is not available, so this crate is the substitute: an
//! in-memory chunk store with the pieces the middleware needs —
//!
//! * [`chunk`] — the chunk unit: an opaque payload, element count,
//!   logical (wire) size, and optional spatial span with halo widths for
//!   the two scientific applications that partition with overlap.
//! * [`codec`] — little-endian encode/decode of `f32`/`u32` element
//!   streams into chunk payloads.
//! * [`dataset`] — a chunked dataset plus its builder. Datasets carry a
//!   *scale factor*: experiments run on 1/100th-size physical data while
//!   disk, network, and metered-compute costs are charged at the nominal
//!   (paper-sized) volume.
//! * [`partition`] — chunk → data-node placement (contiguous and
//!   round-robin).
//! * [`distribution`] — chunk → compute-node destination assignment
//!   (the data server's "data distribution" role).
//! * [`replica`] — which repository sites hold a copy of which dataset.

#![warn(missing_docs)]

pub mod chunk;
pub mod codec;
pub mod dataset;
pub mod distribution;
pub mod partition;
pub mod replica;

pub use chunk::{Chunk, Span};
pub use dataset::{Dataset, DatasetBuilder};
pub use replica::ReplicaCatalog;
