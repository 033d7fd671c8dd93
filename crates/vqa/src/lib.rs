//! # qoncord-vqa
//!
//! Variational-quantum-algorithm workloads and training machinery for the
//! Qoncord reproduction:
//!
//! - [`graph`] / [`maxcut`] / [`qaoa`] — the paper's QAOA Max-Cut benchmarks
//!   on Erdős–Rényi graphs (7, 9, and 14 nodes).
//! - [`pauli`] / [`vqe`] / [`uccsd`] — Pauli observables, the 4-qubit H₂
//!   Hamiltonian, the UCCSD ansatz, and the two-local ansatz.
//! - [`optimizer`] — SPSA (the paper's optimizer).
//! - [`evaluator`] — device-bound cost evaluators with execution counting
//!   and joint expectation/entropy reporting.
//! - [`restart`] — random restarts, step-wise training loop, traces.
//! - [`agd`] — the EQC-style asynchronous-gradient-descent baseline.
//! - [`metrics`] — approximation ratios and box statistics.
//!
//! ## Example: one noisy QAOA training run
//!
//! ```
//! use qoncord_vqa::evaluator::{CostEvaluator, QaoaEvaluator};
//! use qoncord_vqa::{graph::Graph, maxcut::MaxCut, optimizer::Spsa, restart};
//! use qoncord_device::{catalog, noise_model::SimulatedBackend};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let problem = MaxCut::new(Graph::paper_graph_7());
//! let backend = SimulatedBackend::from_calibration(catalog::ibmq_toronto());
//! let mut eval = QaoaEvaluator::new(&problem, 1, backend, 0);
//! let mut spsa = Spsa::default();
//! let mut rng = StdRng::seed_from_u64(1);
//! let start = restart::random_initial_points(2, 1, 42).remove(0);
//! let result = restart::train(&mut eval, &mut spsa, start, 20, &mut rng, |_, _| false);
//! assert_eq!(result.trace.len(), 20);
//! ```

#![warn(missing_docs)]

pub mod agd;
pub mod evaluator;
pub mod graph;
pub mod maxcut;
pub mod metrics;
pub mod optimizer;
pub mod pauli;
pub mod qaoa;
pub mod restart;
pub mod uccsd;
pub mod vqe;

pub use evaluator::{CostEvaluator, Evaluation, QaoaEvaluator, VqeEvaluator};
pub use graph::Graph;
pub use maxcut::MaxCut;
pub use optimizer::Spsa;
pub use pauli::{Pauli, PauliString, PauliSum};
pub use restart::{IterationRecord, Trace, TrainingResult};
