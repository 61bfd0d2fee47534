//! # fg-bench — experiment harness
//!
//! Regenerates every experiment figure of the paper's evaluation (§5)
//! plus ablations, printing the same series the paper plots (relative
//! prediction error per configuration), persisting machine-readable
//! results, and checking each figure's claims. See `src/bin/figures.rs`
//! for the CLI.

#![warn(missing_docs)]

pub mod apps;
pub mod figures;
pub mod scenario;
pub mod table;

pub use apps::PaperApp;
pub use scenario::{pentium_deployment, FIGURE_SCALE};
pub use table::Figure;
