//! # qoncord-sim
//!
//! Quantum state-simulation substrate for the Qoncord reproduction
//! (MICRO 2024, arXiv:2409.12432).
//!
//! The crate provides everything needed to emulate noisy NISQ executions on
//! classical hardware:
//!
//! - [`math`] / [`linalg`] — complex arithmetic, dense matrices, and a Jacobi
//!   Hermitian eigensolver (exact ground-state energies for approximation
//!   ratios).
//! - [`gates`] — standard single- and two-qubit gate matrices.
//! - [`statevector`] — pure-state simulation (ideal executions).
//! - [`density`] — exact mixed-state simulation: the per-op seed loops,
//!   closed-form depolarizing and a generic Kraus-sum channel (≤ 13 qubits).
//! - [`trajectory`] — Monte-Carlo unraveling for larger registers
//!   (the paper's 14-qubit study): the seed loop and the compiled
//!   trajectory program jobs run.
//! - [`noise`] — depolarizing channels and classical readout error.
//! - [`dist`] — outcome distributions with the statistics Qoncord's adaptive
//!   convergence checker uses (Shannon entropy, Hellinger fidelity).
//! - [`fuse`] — gate fusion collapsing adjacent gates into fewer sweeps, and
//!   the wire scan both fused paths plan with.
//! - [`noisy`] — the same for noisy density runs: gates and their
//!   depolarizing channels compiled into a few in-place sweeps.
//! - [`mod@reference`] — the retained scalar seed kernels the fast paths are
//!   differentially tested against; callers reach them only directly.
//!
//! ## Example
//!
//! ```
//! use qoncord_sim::density::DensityMatrix;
//! use qoncord_sim::gates;
//! use qoncord_sim::noise::{NoiseChannel, ReadoutError};
//!
//! // A noisy Bell pair, as a cloud device would produce it.
//! let mut rho = DensityMatrix::zero_state(2);
//! rho.apply_1q(&gates::h(), 0);
//! rho.apply_2q(&gates::cx(), 0, 1);
//! rho.apply_channel(&NoiseChannel::depolarizing_2q(0.02), &[0, 1]);
//! let dist = rho.probabilities().with_uniform_readout_error(ReadoutError::symmetric(0.01));
//! assert!(dist.shannon_entropy() > 1.0); // noise raised the entropy above the ideal 1 bit
//! ```

#![warn(missing_docs)]

pub mod density;
pub mod dist;
pub mod fuse;
pub mod gates;
pub mod linalg;
pub mod math;
pub mod noise;
pub mod noisy;
pub mod reference;
pub mod statevector;
pub mod trajectory;

pub use density::DensityMatrix;
pub use dist::ProbDist;
pub use linalg::Matrix;
pub use math::C64;
pub use noise::{NoiseChannel, ReadoutError};
pub use statevector::StateVector;

/// Which build of the sweeps runs on this CPU: `"avx2"` or `"baseline"`.
/// Both sweep families are built twice from one source and pick the same
/// way, so the answer holds for every [`StateVector`] op and every
/// [`noisy::DensityProgram`] sweep (see the [`statevector`] and [`noisy`]
/// module docs).
pub fn sweep_build() -> &'static str {
    if avx2() {
        "avx2"
    } else {
        "baseline"
    }
}

/// Whether this CPU has AVX2, so that the sweeps run their AVX2 build (std
/// caches the detection). Always false off x86.
#[inline]
pub(crate) fn avx2() -> bool {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    return std::is_x86_feature_detected!("avx2");
    #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
    false
}
