//! # qoncord-cloud
//!
//! Discrete-event quantum-cloud queue simulation for the Qoncord
//! reproduction (Sec. V-F and Fig. 12 of the paper):
//!
//! - [`job`] — independent tasks and runtime sessions (batches with
//!   think-time gaps).
//! - [`device`] — interval-scheduled devices with gap filling, plus the
//!   10-device hypothetical fleet (fidelities 0.3–0.9).
//! - [`workload`] — the 1000-job pseudo workload with a sweepable VQA ratio
//!   and 3× execution-time variation.
//! - [`policy`] — Least Busy, Load Weighted, Fidelity Weighted, Best
//!   Fidelity, EQC, and Qoncord placement.
//! - [`sim`] — the simulator producing (throughput, relative fidelity)
//!   points.
//!
//! ## Example
//!
//! ```
//! use qoncord_cloud::device::hypothetical_fleet;
//! use qoncord_cloud::policy::Policy;
//! use qoncord_cloud::sim::simulate;
//! use qoncord_cloud::workload::{generate_workload, WorkloadConfig};
//!
//! let jobs = generate_workload(&WorkloadConfig { n_jobs: 100, ..WorkloadConfig::default() });
//! let fleet = hypothetical_fleet(10, 0.3, 0.9);
//! let result = simulate(Policy::Qoncord, &jobs, &fleet, 7);
//! assert!(result.throughput() > 0.0);
//! assert!(result.mean_relative_fidelity(0.9) > 0.5);
//! ```

#![warn(missing_docs)]

pub mod device;
pub mod fairshare;
pub mod job;
pub mod policy;
pub mod reference;
pub mod sim;
pub mod workload;

pub use device::{hypothetical_fleet, CloudDevice};
pub use fairshare::{FairShareError, FairShareQueue, QueueOpStats, QueuedRequest};
pub use job::{JobKind, JobOutcome, JobSpec};
pub use policy::{
    estimate_feasibility, estimate_feasibility_decayed, merge_shard_results, place_job,
    split_restarts, FeasibilityEstimate, Placement, Policy, QueueModel, ShardPlacement,
    UsageDecayModel,
};
pub use reference::ReferenceFairShareQueue;
pub use sim::{simulate, SimulationResult};
pub use workload::{generate_workload, WorkloadConfig};
