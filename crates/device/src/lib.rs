//! # qoncord-device
//!
//! NISQ device models for the Qoncord reproduction: averaged calibration
//! snapshots, a catalog of the paper's named backends (ibmq_toronto,
//! ibmq_kolkata, IonQ-Forte, and the Fig. 8 sweep devices), the P_correct
//! execution-fidelity estimator (Eq. 1), noise-model construction with
//! density-matrix and trajectory simulation backends, and error-mitigation
//! modelling (Fig. 3).
//!
//! ## Example
//!
//! ```
//! use qoncord_device::{catalog, fidelity};
//! use qoncord_circuit::transpile::CircuitStats;
//!
//! // Rank the paper's two anchor devices for a 7-qubit QAOA footprint.
//! let devices = vec![catalog::ibmq_toronto(), catalog::ibmq_kolkata()];
//! let stats = CircuitStats { n_1q: 40, n_2q: 16, depth: 28, swaps_inserted: 2, n_measured: 7 };
//! let ranked = fidelity::rank_devices(&devices, &stats);
//! // Ascending fidelity: exploration starts on Toronto, fine-tuning on Kolkata.
//! assert_eq!(ranked.first().unwrap().0, 0);
//! assert_eq!(ranked.last().unwrap().0, 1);
//! ```

#![warn(missing_docs)]

pub mod calibration;
pub mod catalog;
pub mod fidelity;
pub mod mitigation;
pub mod noise_model;

pub use calibration::{Calibration, CalibrationBuilder, Technology};
pub use fidelity::{p_correct, rank_devices, MIN_FIDELITY_THRESHOLD};
pub use mitigation::{Mitigation, MitigationStack};
pub use noise_model::{BackendKind, NoiseModel, SimulatedBackend};
