//! Quantum noise channels and classical readout error.
//!
//! Gate noise is depolarizing, the only kind a device's noise model builds.
//! A channel is a mixed-unitary ensemble (probability-weighted Paulis), so
//! the trajectory simulator samples it state-independently, and
//! [`NoiseChannel::kraus_operators`] gives the same channel in Kraus form
//! for the density oracles.

use crate::linalg::Matrix;
use crate::math::C64;

/// A completely-positive trace-preserving (CPTP) noise channel.
///
/// # Examples
///
/// ```
/// use qoncord_sim::noise::NoiseChannel;
///
/// let dep = NoiseChannel::depolarizing_1q(0.01);
/// assert_eq!(dep.n_qubits(), 1);
/// assert_eq!(dep.kraus_operators().len(), 4);
/// ```
#[derive(Debug, Clone)]
pub enum NoiseChannel {
    /// Apply unitary `ops[i].1` with probability `ops[i].0` (probabilities sum to 1).
    MixedUnitary {
        /// Probability-weighted unitaries.
        ops: Vec<(f64, Matrix)>,
    },
}

impl NoiseChannel {
    /// Single-qubit depolarizing channel: with probability `p` replace the
    /// state by the maximally mixed state (equivalently apply X, Y, or Z each
    /// with probability `p/4` and identity with `1 − 3p/4`).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn depolarizing_1q(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        let paulis = pauli_matrices_1q();
        let mut ops = Vec::with_capacity(4);
        ops.push((1.0 - 3.0 * p / 4.0, paulis[0].clone()));
        for pm in &paulis[1..] {
            ops.push((p / 4.0, pm.clone()));
        }
        NoiseChannel::MixedUnitary { ops }
    }

    /// Two-qubit depolarizing channel: identity with probability `1 − 15p/16`,
    /// each of the 15 non-identity two-qubit Paulis with probability `p/16`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn depolarizing_2q(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        let paulis = pauli_matrices_1q();
        let mut ops = Vec::with_capacity(16);
        for a in 0..4 {
            for b in 0..4 {
                let weight = if a == 0 && b == 0 {
                    1.0 - 15.0 * p / 16.0
                } else {
                    p / 16.0
                };
                ops.push((weight, paulis[a].kron(&paulis[b])));
            }
        }
        NoiseChannel::MixedUnitary { ops }
    }

    /// Identity (no-op) channel on `n_qubits` qubits.
    pub fn identity(n_qubits: usize) -> Self {
        NoiseChannel::MixedUnitary {
            ops: vec![(1.0, Matrix::identity(1 << n_qubits))],
        }
    }

    /// Dimension of the Hilbert space the channel acts on (2 or 4).
    pub fn dim(&self) -> usize {
        let NoiseChannel::MixedUnitary { ops } = self;
        ops[0].1.rows()
    }

    /// Number of qubits the channel acts on (1 or 2).
    pub fn n_qubits(&self) -> usize {
        self.dim().trailing_zeros() as usize
    }

    /// The channel's Kraus operators (mixed-unitary ops weighted by `√p`).
    pub fn kraus_operators(&self) -> Vec<Matrix> {
        let NoiseChannel::MixedUnitary { ops } = self;
        ops.iter()
            .filter(|(p, _)| *p > 0.0)
            .map(|(p, u)| u.scale(p.sqrt()))
            .collect()
    }
}

/// Classical readout (measurement assignment) error for one qubit.
///
/// `p_flip_0to1` is the probability of reading `1` when the qubit is `0`, and
/// vice versa. Applied to probability distributions after ideal measurement.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ReadoutError {
    /// P(read 1 | state 0).
    pub p_flip_0to1: f64,
    /// P(read 0 | state 1).
    pub p_flip_1to0: f64,
}

impl ReadoutError {
    /// Symmetric readout error with equal flip probability both ways.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 0.5]`.
    pub fn symmetric(p: f64) -> Self {
        assert!(
            (0.0..=0.5).contains(&p),
            "flip probability must be in [0, 0.5]"
        );
        ReadoutError {
            p_flip_0to1: p,
            p_flip_1to0: p,
        }
    }

    /// Asymmetric readout error.
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `[0, 1]`.
    pub fn new(p_flip_0to1: f64, p_flip_1to0: f64) -> Self {
        assert!((0.0..=1.0).contains(&p_flip_0to1) && (0.0..=1.0).contains(&p_flip_1to0));
        ReadoutError {
            p_flip_0to1,
            p_flip_1to0,
        }
    }

    /// Average assignment error `(p01 + p10) / 2`.
    pub fn mean_error(&self) -> f64 {
        0.5 * (self.p_flip_0to1 + self.p_flip_1to0)
    }

    /// Returns a copy with both flip probabilities scaled by `factor`
    /// (clamped to `[0, 1]`); used by error-mitigation modelling.
    pub fn scaled(&self, factor: f64) -> Self {
        ReadoutError {
            p_flip_0to1: (self.p_flip_0to1 * factor).clamp(0.0, 1.0),
            p_flip_1to0: (self.p_flip_1to0 * factor).clamp(0.0, 1.0),
        }
    }
}

fn pauli_matrices_1q() -> [Matrix; 4] {
    [
        Matrix::identity(2),
        Matrix::from_real(2, 2, &[0.0, 1.0, 1.0, 0.0]),
        Matrix::from_rows(2, 2, &[C64::ZERO, C64::new(0.0, -1.0), C64::I, C64::ZERO]),
        Matrix::from_real(2, 2, &[1.0, 0.0, 0.0, -1.0]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The completeness relation `Σ K†K = I` of a trace-preserving channel.
    fn assert_cptp(channel: &NoiseChannel, tol: f64) {
        let dim = channel.dim();
        let mut sum = Matrix::zeros(dim, dim);
        for k in &channel.kraus_operators() {
            sum = &sum + &(&k.adjoint() * k);
        }
        assert!(sum.approx_eq(&Matrix::identity(dim), tol));
    }

    #[test]
    fn depolarizing_channels_are_cptp() {
        for p in [0.0, 0.001, 0.05, 0.5, 1.0] {
            assert_cptp(&NoiseChannel::depolarizing_1q(p), 1e-9);
            assert_cptp(&NoiseChannel::depolarizing_2q(p), 1e-9);
        }
    }

    #[test]
    fn depolarizing_2q_acts_on_two_qubits() {
        let ch = NoiseChannel::depolarizing_2q(0.01);
        assert_eq!(ch.n_qubits(), 2);
        assert_eq!(ch.dim(), 4);
    }

    #[test]
    fn mixed_unitary_kraus_export_preserves_cptp() {
        assert_cptp(&NoiseChannel::depolarizing_1q(0.08), 1e-9);
    }

    #[test]
    fn readout_error_mean() {
        let r = ReadoutError::new(0.02, 0.04);
        assert!((r.mean_error() - 0.03).abs() < 1e-12);
    }

    #[test]
    fn readout_scaling_clamps() {
        let r = ReadoutError::symmetric(0.4).scaled(10.0);
        assert_eq!(r.p_flip_0to1, 1.0);
    }

    #[test]
    fn identity_channel_is_noop_cptp() {
        assert_cptp(&NoiseChannel::identity(2), 1e-12);
    }
}
