//! # qoncord
//!
//! Umbrella crate for the Qoncord reproduction — *"Qoncord: A Multi-Device
//! Job Scheduling Framework for Variational Quantum Algorithms"*
//! (MICRO 2024, arXiv:2409.12432) — re-exporting every layer of the stack:
//!
//! - [`sim`] — statevector / density-matrix / trajectory simulation, noise
//!   channels, outcome-distribution statistics.
//! - [`circuit`] — parametric circuit IR, coupling maps, transpiler.
//! - [`device`] — calibrations, device catalog, P_correct (Eq. 1), noise
//!   models, error mitigation.
//! - [`vqa`] — QAOA / VQE workloads, SPSA, restart driving.
//! - [`core`] — the Qoncord scheduler: adaptive convergence, restart
//!   triage, multi-device phase execution.
//! - [`cloud`] — the discrete-event queue simulator and scheduling
//!   policies.
//! - [`orchestrator`] — multi-tenant orchestration: streams of real VQA
//!   jobs executed concurrently over a shared device fleet on a virtual
//!   clock, with fair-share dispatch of preemptible device leases
//!   (checkpointed optimizer state, urgency-based eviction),
//!   deadline-aware admission control, workload-trace replay, and
//!   pruning-aware cancellation.
//!
//! ## Quickstart
//!
//! ```no_run
//! use qoncord::core::executor::QaoaFactory;
//! use qoncord::core::scheduler::{QoncordConfig, QoncordScheduler};
//! use qoncord::device::catalog;
//! use qoncord::vqa::{graph::Graph, maxcut::MaxCut};
//!
//! let factory = QaoaFactory { problem: MaxCut::new(Graph::paper_graph_7()), layers: 1 };
//! let scheduler = QoncordScheduler::new(QoncordConfig::default());
//! let devices = [catalog::ibmq_toronto(), catalog::ibmq_kolkata()];
//! let report = scheduler.run(&devices, &factory, 10).unwrap();
//! println!("best approximation ratio: {:.3}", report.best_approximation_ratio());
//! ```

#![warn(missing_docs)]

pub use qoncord_circuit as circuit;
pub use qoncord_cloud as cloud;
pub use qoncord_core as core;
pub use qoncord_device as device;
pub use qoncord_orchestrator as orchestrator;
pub use qoncord_sim as sim;
pub use qoncord_vqa as vqa;
