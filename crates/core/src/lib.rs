//! # fg-predict — the performance prediction framework
//!
//! The paper's contribution (§3): a profile-based analytical model that
//! predicts the execution time of a FREERIDE-G application on any
//! `(n, c, b, s)` configuration from a single profile run, accurate
//! enough to drive resource and replica selection.
//!
//! ```text
//! T_exec = T_disk + T_network + T_compute
//! ```
//!
//! * [`profile`] — the summary information collected from a profile run.
//! * [`model`] — the component predictors, with the three compute models
//!   of increasing fidelity (*no communication*, *reduction
//!   communication*, *global reduction*).
//! * [`classes`] — the reduction-object size and global-reduction time
//!   classes, with inference from multiple profile runs.
//! * [`hetero`] — cross-cluster scaling factors (§3.4).
//! * [`selection`] — enumeration and ranking of (replica, configuration)
//!   pairs (§3's resource allocation problem).
//! * [`cache`] — non-local caching-site planning and prediction (the
//!   §2.1 goal the paper deferred, implemented as an extension).
//! * [`bandwidth`] — on-line estimators of the achievable WAN bandwidth
//!   `b̂` (the §3.2 ingredient the paper imports from related work).
//! * [`reselect`] — mid-run replica re-selection: re-ranks candidates
//!   and migrates when observed bandwidth deviates from nominal.
//! * [`migrate`] — the migration cost/benefit model: prices a
//!   checkpoint move (`T̂_migrate`) and gates re-selection verdicts.
//! * [`calibrate`] — least-squares measurement of the interconnect
//!   parameters `w` and `l` ("experimentally determined", §3.3.1).
//! * [`error`] — the relative-error metric of §5.
//! * [`predictor`] — the pluggable [`Predictor`]
//!   seam every ranking/placement/migration call site prices through,
//!   with the analytical model as the default impl.

#![warn(missing_docs)]

pub mod bandwidth;
pub mod cache;
pub mod calibrate;
pub mod classes;
pub mod error;
pub mod hetero;
pub mod migrate;
pub mod model;
pub mod predictor;
pub mod profile;
pub mod reselect;
pub mod selection;

pub use cache::{predict_plan_components, predict_with_plan, CachePlan};
pub use classes::{AppClasses, GlobalReduceClass, RObjSizeClass};
pub use error::relative_error;
pub use hetero::ScalingFactors;
pub use migrate::{decide_migration, migration_cost, MigrationCost, MigrationDecision};
pub use model::{ComputeModel, ExecTimePredictor, InterconnectParams, Prediction, Target};
pub use predictor::{AnalyticalPredictor, Observation, Predictor, Price};
pub use profile::Profile;
pub use reselect::ReselectionController;
pub use selection::{
    prepare, rank_deployments, try_predict_deployment, try_rank_deployments,
    try_rank_deployments_with, Candidate, Prepared, SelectionError, SiteQuery,
};
