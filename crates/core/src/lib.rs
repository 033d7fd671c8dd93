//! # qoncord-core
//!
//! The Qoncord scheduler — the primary contribution of *"Qoncord: A
//! Multi-Device Job Scheduling Framework for Variational Quantum
//! Algorithms"* (MICRO 2024).
//!
//! Qoncord rests on two observations:
//!
//! 1. **Not all VQA iterations are equal** (Sec. IV-B): early *exploration*
//!    iterations tolerate noise; late *fine-tuning* iterations do not. So
//!    exploration runs on low-fidelity/low-load devices and only fine-tuning
//!    occupies high-fidelity/high-load ones.
//! 2. **Not all restarts are equal** (Sec. IV-C): restart quality is already
//!    visible in intermediate expectation values, which cluster. Poor
//!    restarts are terminated after cheap exploration.
//!
//! The pieces:
//!
//! - [`convergence`] — the adaptive joint (expectation ∧ entropy) saturation
//!   checker with relaxed/strict tiers (Sec. IV-F/IV-G).
//! - [`cluster`] — 1-D k-means triage of intermediate values (Sec. IV-H).
//! - [`executor`] — device lanes: evaluator + P_correct per device.
//! - [`phase`] — resumable per-batch training phases, the unit a
//!   multi-tenant orchestrator schedules as device reservations.
//! - [`scheduler`] — the ladder orchestration (Fig. 7) and single-device
//!   baselines.
//! - [`prof`] — wall-clock span profiling (re-export of `qoncord-prof`):
//!   install a [`prof::Profiler`] and every instrumented kernel from the
//!   simulator up through the orchestrator attributes its real CPU cost.
//!
//! ## Example
//!
//! ```no_run
//! use qoncord_core::executor::QaoaFactory;
//! use qoncord_core::scheduler::{QoncordConfig, QoncordScheduler};
//! use qoncord_device::catalog;
//! use qoncord_vqa::{graph::Graph, maxcut::MaxCut};
//!
//! let factory = QaoaFactory { problem: MaxCut::new(Graph::paper_graph_7()), layers: 3 };
//! let scheduler = QoncordScheduler::new(QoncordConfig::default());
//! let devices = [catalog::ibmq_toronto(), catalog::ibmq_kolkata()];
//! let report = scheduler.run(&devices, &factory, 50).unwrap();
//! println!(
//!     "best ratio {:.3}, {} restarts terminated early, {} total executions",
//!     report.best_approximation_ratio(),
//!     report.terminated_restarts(),
//!     report.total_executions(),
//! );
//! ```

#![warn(missing_docs)]

pub mod cluster;
pub mod convergence;
pub mod executor;
pub mod phase;
pub mod scheduler;

/// Wall-clock span profiling, shared by every layer of the workspace.
///
/// This is the canonical path to the profiler (`core::prof`); the
/// implementation lives in the dependency-free `qoncord-prof` crate so the
/// simulator, transpiler, and queue crates below `qoncord-core` can carry
/// spans too.
pub mod prof {
    pub use qoncord_prof::*;
}

pub use cluster::{kmeans_1d, select_restarts, Clustering, SelectionPolicy};
pub use convergence::{ConvergenceChecker, ConvergenceConfig, ConvergenceStatus};
pub use executor::{build_lanes, DeviceLane, EvaluatorFactory, QaoaFactory, VqeFactory};
pub use phase::{BatchOutcome, PhaseRunner};
pub use scheduler::{
    exploration_seed, finetune_seed, run_single_device, DeviceUsage, PhaseTrace, QoncordConfig,
    QoncordReport, QoncordScheduler, RestartReport, ScheduleError,
};
