//! `fg-learn` — online *learned* execution-time predictors behind the
//! [`fg_predict::Predictor`] seam.
//!
//! The paper's analytical model predicts from first principles: a
//! profiled per-byte cost per component, scaled by node counts and the
//! nominal WAN bandwidth. That is exactly right until the world drifts
//! away from the profile — a congested link that never recovers, a
//! repository whose disk array runs slower than the machine database
//! says. This crate closes the loop from the scheduler's completed-job
//! [`fg_predict::Observation`] stream back into the predictions:
//!
//! - [`LearnedPredictor`] fits a per-`(app, repository)` ridge
//!   regression ([`ridge`]) over physically-motivated features of the
//!   placement tuple, refit online as observations arrive, with a
//!   trust-region clamp around the analytical anchor. Each key's
//!   retained samples are kept — once — in a canonical order, and one
//!   pass over them fits all three components.
//! - [`HybridPredictor`] keeps the analytical model's *shape* and
//!   learns only a per-component multiplicative correction, tracked as
//!   an EWMA of observed/predicted ratios — the cheap, robust choice
//!   when drift is a stable scale factor.
//!
//! Both are deterministic (fixed-order arithmetic, no clocks, no
//! randomness; the learned fit always sums the retained samples in
//! their canonical order, so it depends only on the retained multiset,
//! never on arrival order) and both serialize to versioned JSONL
//! via `dump_jsonl`/`replay_jsonl`, with `dump → replay → dump` a byte
//! fixpoint.

#![warn(missing_docs)]

pub mod predictor;
pub mod ridge;

pub use predictor::{HybridConfig, HybridPredictor, LearnConfig, LearnedPredictor, MODEL_VERSION};
pub use ridge::{fit_ridge, solve_ridge, FitError};
