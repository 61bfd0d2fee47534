//! # fg-sim — deterministic discrete-event simulation substrate
//!
//! FREERIDE-G's published evaluation ran on two physical clusters. This
//! reproduction replaces the hardware with a deterministic virtual-time
//! simulation; `fg-sim` provides the building blocks:
//!
//! * [`time`] — integer-nanosecond virtual time ([`SimTime`], [`SimDuration`])
//!   so schedules are totally ordered and runs are bit-reproducible.
//! * [`event`] — a generic event queue with FIFO tie-breaking.
//! * [`engine`] — a minimal event-driven simulation driver.
//! * [`server`] — analytic FIFO queueing servers and server pools used to
//!   model disks and CPUs.
//! * [`fairshare`] — max-min fair bandwidth sharing across capacitated
//!   resources (NICs, WAN links, repository backplanes), the core of the
//!   data-movement model.
//! * [`rng`] — seeded RNG helpers so every experiment is reproducible.
//! * [`fault`] — seeded fault schedules (data-node crashes, WAN
//!   degradation windows, straggler nodes) injected into runs as data.
//!
//! Nothing in this crate knows about grids or data mining; it is a
//! general-purpose substrate with its own invariants and tests.

#![warn(missing_docs)]

pub mod engine;
pub mod event;
pub mod fairshare;
pub mod fault;
pub mod rng;
pub mod server;
pub mod time;

pub use engine::Engine;
pub use event::EventQueue;
pub use fairshare::{FairShareSim, Flow, FlowOutcome, RateScratch, ResourceId};
pub use fault::{CrashFault, DegradationWindow, FaultSchedule, StragglerFault};
pub use server::{FifoServer, Interval, ServerPool};
pub use time::{SimDuration, SimTime};
