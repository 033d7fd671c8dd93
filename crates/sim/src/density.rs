//! Exact mixed-state simulation via density matrices.
//!
//! A density matrix over `n` qubits stores `4^n` complex entries, so this
//! backend is practical up to roughly 10 qubits; larger registers should use
//! the [`crate::trajectory`] backend. Gate and channel application follow the
//! textbook forms `ρ ↦ UρU†` and `ρ ↦ Σᵢ KᵢρKᵢ†`.
//!
//! # Kernels and determinism
//!
//! Every per-op method here is a plain loop over `ρ` — the seed's scalar
//! kernels, one copy in the crate. They are the per-op reference API:
//! noisy jobs run compiled instead, as a [`crate::noisy::DensityProgram`]
//! that regroups gates and depolarizing channels into far fewer sweeps and
//! is pinned to an op-at-a-time evolution through this module
//! ([`crate::noisy::evolve_unfused`]) to ≤ 1e-12, not bit-for-bit.

use crate::dist::ProbDist;
use crate::fuse::{self, FusedOp};
use crate::gates::{Mat2, Mat4};
use crate::math::C64;
use crate::noise::NoiseChannel;
use crate::statevector::StateVector;

/// A density matrix `ρ` for an `n`-qubit register, stored row-major.
///
/// # Examples
///
/// ```
/// use qoncord_sim::density::DensityMatrix;
/// use qoncord_sim::gates;
/// use qoncord_sim::noise::NoiseChannel;
///
/// let mut rho = DensityMatrix::zero_state(1);
/// rho.apply_1q(&gates::h(), 0);
/// rho.apply_channel(&NoiseChannel::depolarizing_1q(0.1), &[0]);
/// assert!(rho.purity() < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DensityMatrix {
    n_qubits: usize,
    dim: usize,
    data: Vec<C64>,
}

impl DensityMatrix {
    /// An all-zero `2^n × 2^n` buffer, behind the register-size guard every
    /// constructor shares.
    fn zeroed(n_qubits: usize) -> Self {
        assert!(n_qubits <= 13, "density matrix limited to 13 qubits");
        let dim = 1usize << n_qubits;
        DensityMatrix {
            n_qubits,
            dim,
            data: vec![C64::ZERO; dim * dim],
        }
    }

    /// The pure state `|0…0⟩⟨0…0|`.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits > 13` (4^13 entries ≈ 1 GiB; larger registers
    /// should use the trajectory backend).
    pub fn zero_state(n_qubits: usize) -> Self {
        let mut rho = Self::zeroed(n_qubits);
        rho.data[0] = C64::ONE;
        rho
    }

    /// Builds `|ψ⟩⟨ψ|` from a pure state.
    ///
    /// # Panics
    ///
    /// Panics if the state has more than 13 qubits (see
    /// [`DensityMatrix::zero_state`]).
    pub fn from_statevector(sv: &StateVector) -> Self {
        let mut rho = Self::zeroed(sv.n_qubits());
        let dim = rho.dim;
        let amps = sv.amplitudes();
        for r in 0..dim {
            for c in 0..dim {
                rho.data[r * dim + c] = amps[r] * amps[c].conj();
            }
        }
        rho
    }

    /// The maximally mixed state `I / 2^n`.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits > 13` (see [`DensityMatrix::zero_state`]).
    pub fn maximally_mixed(n_qubits: usize) -> Self {
        let mut rho = Self::zeroed(n_qubits);
        let dim = rho.dim;
        let w = 1.0 / dim as f64;
        for r in 0..dim {
            rho.data[r * dim + r] = C64::real(w);
        }
        rho
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Mutable borrow of the row-major entry buffer for in-crate kernels.
    pub(crate) fn data_mut(&mut self) -> &mut [C64] {
        &mut self.data
    }

    /// Entry `ρ[r][c]`.
    pub fn entry(&self, r: usize, c: usize) -> C64 {
        self.data[r * self.dim + c]
    }

    /// Trace of `ρ` (1 for a valid state).
    pub fn trace(&self) -> f64 {
        (0..self.dim).map(|i| self.data[i * self.dim + i].re).sum()
    }

    /// Purity `Tr(ρ²) = Σ |ρᵢⱼ|²`; equals 1 iff the state is pure.
    pub fn purity(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sq()).sum()
    }

    /// Applies a single-qubit unitary: `ρ ↦ (U_q) ρ (U_q)†`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn apply_1q(&mut self, u: &Mat2, q: usize) {
        assert!(q < self.n_qubits, "qubit {q} out of range");
        let _prof = qoncord_prof::span("sim::dm::apply_1q");
        let dim = self.dim;
        let data = &mut self.data;
        let bit = 1usize << q;
        // Left-multiply by U on the row index.
        for r in 0..dim {
            if r & bit != 0 {
                continue;
            }
            let r1 = r | bit;
            for c in 0..dim {
                let a0 = data[r * dim + c];
                let a1 = data[r1 * dim + c];
                data[r * dim + c] = u[0][0] * a0 + u[0][1] * a1;
                data[r1 * dim + c] = u[1][0] * a0 + u[1][1] * a1;
            }
        }
        // Right-multiply by U† on the column index: ρ[r,c] ← Σₖ ρ[r,k]·conj(U[c,k]).
        for row in data.chunks_exact_mut(dim) {
            for c in 0..dim {
                if c & bit != 0 {
                    continue;
                }
                let c1 = c | bit;
                let a0 = row[c];
                let a1 = row[c1];
                row[c] = a0 * u[0][0].conj() + a1 * u[0][1].conj();
                row[c1] = a0 * u[1][0].conj() + a1 * u[1][1].conj();
            }
        }
    }

    /// Applies a two-qubit unitary on `(q0, q1)` (basis `|q1 q0⟩`).
    ///
    /// # Panics
    ///
    /// Panics if the qubits coincide or are out of range.
    pub fn apply_2q(&mut self, u: &Mat4, q0: usize, q1: usize) {
        assert!(q0 != q1, "two-qubit gate needs distinct qubits");
        assert!(
            q0 < self.n_qubits && q1 < self.n_qubits,
            "qubit out of range"
        );
        let _prof = qoncord_prof::span("sim::dm::apply_2q");
        let dim = self.dim;
        let data = &mut self.data;
        let b0 = 1usize << q0;
        let b1 = 1usize << q1;
        // Left-multiply by U.
        for r in 0..dim {
            if r & b0 != 0 || r & b1 != 0 {
                continue;
            }
            let idx = [r, r | b0, r | b1, r | b0 | b1];
            for c in 0..dim {
                let a = [
                    data[idx[0] * dim + c],
                    data[idx[1] * dim + c],
                    data[idx[2] * dim + c],
                    data[idx[3] * dim + c],
                ];
                for (k, &ri) in idx.iter().enumerate() {
                    data[ri * dim + c] =
                        u[k][0] * a[0] + u[k][1] * a[1] + u[k][2] * a[2] + u[k][3] * a[3];
                }
            }
        }
        // Right-multiply by U†.
        for row in data.chunks_exact_mut(dim) {
            for c in 0..dim {
                if c & b0 != 0 || c & b1 != 0 {
                    continue;
                }
                let idx = [c, c | b0, c | b1, c | b0 | b1];
                let a = [row[idx[0]], row[idx[1]], row[idx[2]], row[idx[3]]];
                for (k, &ci) in idx.iter().enumerate() {
                    row[ci] = a[0] * u[k][0].conj()
                        + a[1] * u[k][1].conj()
                        + a[2] * u[k][2].conj()
                        + a[3] * u[k][3].conj();
                }
            }
        }
    }

    /// Applies a noise channel on the given qubits: `ρ ↦ Σᵢ KᵢρKᵢ†`.
    ///
    /// # Panics
    ///
    /// Panics if the channel arity does not match `qubits.len()` or qubits
    /// are invalid.
    pub fn apply_channel(&mut self, channel: &NoiseChannel, qubits: &[usize]) {
        assert_eq!(
            channel.n_qubits(),
            qubits.len(),
            "channel arity does not match qubit list"
        );
        let _prof = qoncord_prof::span("sim::dm::channel");
        let kraus = channel.kraus_operators();
        let mut acc = vec![C64::ZERO; self.data.len()];
        for k in &kraus {
            let mut branch = self.clone();
            match qubits.len() {
                // `apply_1q`/`apply_2q` never renormalize, so a non-unitary
                // `K` gives `KρK†`.
                1 => branch.apply_1q(&matrix_to_mat2(k), qubits[0]),
                2 => branch.apply_2q(&matrix_to_mat4(k), qubits[0], qubits[1]),
                n => panic!("channels on {n} qubits are not supported"),
            }
            for (a, b) in acc.iter_mut().zip(&branch.data) {
                *a += *b;
            }
        }
        self.data = acc;
    }

    /// Fast path for CNOT (control `c`, target `t`): a basis permutation, so
    /// `ρ ↦ PρP` reduces to index swaps with no arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if the qubits coincide or are out of range.
    pub fn apply_cx_fast(&mut self, c: usize, t: usize) {
        assert!(c != t, "CNOT needs distinct qubits");
        assert!(c < self.n_qubits && t < self.n_qubits, "qubit out of range");
        let _prof = qoncord_prof::span("sim::dm::apply_cx");
        let dim = self.dim;
        let cb = 1usize << c;
        let tb = 1usize << t;
        let perm = |i: usize| if i & cb != 0 { i ^ tb } else { i };
        // The permutation is an involution: swap each (r,c) with (π(r),π(c))
        // exactly once by visiting only representatives with index < image.
        for r in 0..dim {
            let pr = perm(r);
            for col in 0..dim {
                let pc = perm(col);
                let src = r * dim + col;
                let dst = pr * dim + pc;
                if src < dst {
                    self.data.swap(src, dst);
                }
            }
        }
    }

    /// Fast path for RZ(θ) on `q`: diagonal phases, one complex multiply per
    /// entry whose row/column bits differ on `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn apply_rz_fast(&mut self, theta: f64, q: usize) {
        assert!(q < self.n_qubits, "qubit {q} out of range");
        let _prof = qoncord_prof::span("sim::dm::apply_rz");
        let bit = 1usize << q;
        // rz = diag(e^{-iθ/2}, e^{+iθ/2}); ρ[r,c] picks up phase(r)·conj(phase(c)),
        // which is e^{+iθ} when (r has bit, c clear), e^{-iθ} mirrored, 1 otherwise.
        let plus = C64::cis(theta);
        let minus = C64::cis(-theta);
        for (r, row) in self.data.chunks_exact_mut(self.dim).enumerate() {
            let rbit = r & bit != 0;
            for (col, v) in row.iter_mut().enumerate() {
                let cbit = col & bit != 0;
                if rbit && !cbit {
                    *v *= plus;
                } else if !rbit && cbit {
                    *v *= minus;
                }
            }
        }
    }

    /// Applies one lowered simulator instruction (the [`crate::fuse`]
    /// instruction set), routing each variant to its dedicated kernel: one
    /// sweep per op. Noisy circuits run fused through
    /// [`crate::noisy::DensityProgram`] instead.
    ///
    /// # Panics
    ///
    /// Panics if an operand qubit is out of range.
    pub fn apply_op(&mut self, op: &FusedOp) {
        match op {
            FusedOp::One(u, q) => self.apply_1q(u, *q),
            FusedOp::Two(u, a, b) => self.apply_2q(u, *a, *b),
            FusedOp::Cx(c, t) => self.apply_cx_fast(*c, *t),
            FusedOp::Rz(theta, q) => self.apply_rz_fast(*theta, *q),
            // Lowered circuits carry no monomial blocks; they only arrive
            // from explicitly fused programs. Expand to the dense matrix.
            FusedOp::Mono(d, src, a, b) => self.apply_2q(&fuse::mono_to_mat4(d, src), *a, *b),
        }
    }

    /// Applies single-qubit depolarizing noise with probability `p` on `q`
    /// in closed form: `ρ ↦ (1−p)ρ + p·(I/2 ⊗ Tr_q ρ)`.
    ///
    /// This is algebraically identical to
    /// `apply_channel(&NoiseChannel::depolarizing_1q(p), &[q])` but runs in
    /// one pass over `ρ` instead of four Kraus branches.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range or `p` is outside `[0, 1]`.
    pub fn apply_depolarizing_1q(&mut self, p: f64, q: usize) {
        assert!(q < self.n_qubits, "qubit {q} out of range");
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        if p == 0.0 {
            return;
        }
        let _prof = qoncord_prof::span("sim::dm::depolarizing");
        let dim = self.dim;
        let data = &mut self.data;
        let bit = 1usize << q;
        let keep = 1.0 - p;
        for r in 0..dim {
            if r & bit != 0 {
                continue;
            }
            let r1 = r | bit;
            for c in 0..dim {
                if c & bit != 0 {
                    continue;
                }
                let c1 = c | bit;
                let d00 = data[r * dim + c];
                let d11 = data[r1 * dim + c1];
                let mixed = (d00 + d11).scale(0.5 * p);
                data[r * dim + c] = d00.scale(keep) + mixed;
                data[r1 * dim + c1] = d11.scale(keep) + mixed;
                data[r * dim + c1] = data[r * dim + c1].scale(keep);
                data[r1 * dim + c] = data[r1 * dim + c].scale(keep);
            }
        }
    }

    /// Applies two-qubit depolarizing noise with probability `p` on
    /// `(q0, q1)`: `ρ ↦ (1−p)ρ + p·(I/4 ⊗ Tr_{q0,q1} ρ)`.
    ///
    /// # Panics
    ///
    /// Panics if the qubits coincide, are out of range, or `p` is outside
    /// `[0, 1]`.
    pub fn apply_depolarizing_2q(&mut self, p: f64, q0: usize, q1: usize) {
        assert!(q0 != q1, "two-qubit channel needs distinct qubits");
        assert!(
            q0 < self.n_qubits && q1 < self.n_qubits,
            "qubit out of range"
        );
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        if p == 0.0 {
            return;
        }
        let _prof = qoncord_prof::span("sim::dm::depolarizing");
        let dim = self.dim;
        let data = &mut self.data;
        let b0 = 1usize << q0;
        let b1 = 1usize << q1;
        let keep = 1.0 - p;
        for r in 0..dim {
            if r & b0 != 0 || r & b1 != 0 {
                continue;
            }
            let ridx = [r, r | b0, r | b1, r | b0 | b1];
            for c in 0..dim {
                if c & b0 != 0 || c & b1 != 0 {
                    continue;
                }
                let cidx = [c, c | b0, c | b1, c | b0 | b1];
                let mut diag_sum = C64::ZERO;
                for k in 0..4 {
                    diag_sum += data[ridx[k] * dim + cidx[k]];
                }
                let mixed = diag_sum.scale(0.25 * p);
                for (ri, &rr) in ridx.iter().enumerate() {
                    for (ci, &cc) in cidx.iter().enumerate() {
                        let v = data[rr * dim + cc].scale(keep);
                        data[rr * dim + cc] = if ri == ci { v + mixed } else { v };
                    }
                }
            }
        }
    }

    /// Measurement probabilities (the real diagonal of `ρ`).
    pub fn probabilities(&self) -> ProbDist {
        let probs: Vec<f64> = (0..self.dim)
            .map(|i| self.data[i * self.dim + i].re.max(0.0))
            .collect();
        ProbDist::new(probs)
    }

    /// Expectation of a diagonal observable.
    pub fn expectation_diagonal(&self, diag: &[f64]) -> f64 {
        assert_eq!(diag.len(), self.dim);
        (0..self.dim)
            .map(|i| self.data[i * self.dim + i].re * diag[i])
            .sum()
    }
}

fn matrix_to_mat2(m: &crate::linalg::Matrix) -> Mat2 {
    assert_eq!(m.rows(), 2);
    let s = m.as_slice();
    [[s[0], s[1]], [s[2], s[3]]]
}

fn matrix_to_mat4(m: &crate::linalg::Matrix) -> Mat4 {
    assert_eq!(m.rows(), 4);
    let s = m.as_slice();
    let mut out = [[C64::ZERO; 4]; 4];
    for r in 0..4 {
        for c in 0..4 {
            out[r][c] = s[r * 4 + c];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;

    #[test]
    fn zero_state_is_pure_with_unit_trace() {
        let rho = DensityMatrix::zero_state(3);
        assert!((rho.trace() - 1.0).abs() < 1e-14);
        assert!((rho.purity() - 1.0).abs() < 1e-14);
    }

    #[test]
    #[should_panic(expected = "limited to 13 qubits")]
    fn zero_state_rejects_14_qubits() {
        DensityMatrix::zero_state(14);
    }

    #[test]
    #[should_panic(expected = "limited to 13 qubits")]
    fn maximally_mixed_rejects_14_qubits() {
        DensityMatrix::maximally_mixed(14);
    }

    #[test]
    #[should_panic(expected = "limited to 13 qubits")]
    fn from_statevector_rejects_14_qubits() {
        DensityMatrix::from_statevector(&StateVector::zero_state(14));
    }

    #[test]
    fn unitary_evolution_matches_statevector() {
        let mut sv = StateVector::zero_state(3);
        let mut rho = DensityMatrix::zero_state(3);
        let ops: Vec<(Mat2, usize)> = vec![
            (gates::h(), 0),
            (gates::t(), 1),
            (gates::ry(0.7), 2),
            (gates::rz(1.1), 0),
        ];
        for (u, q) in &ops {
            sv.apply_1q(u, *q);
            rho.apply_1q(u, *q);
        }
        sv.apply_2q(&gates::cx(), 0, 1);
        rho.apply_2q(&gates::cx(), 0, 1);
        sv.apply_2q(&gates::rzz(0.4), 1, 2);
        rho.apply_2q(&gates::rzz(0.4), 1, 2);

        let ref_rho = DensityMatrix::from_statevector(&sv);
        for (a, b) in rho.data.iter().zip(&ref_rho.data) {
            assert!(a.approx_eq(*b, 1e-10), "{a} vs {b}");
        }
    }

    #[test]
    fn depolarizing_drives_toward_maximally_mixed() {
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_channel(&NoiseChannel::depolarizing_1q(1.0), &[0]);
        let mixed = DensityMatrix::maximally_mixed(1);
        for (a, b) in rho.data.iter().zip(&mixed.data) {
            assert!(a.approx_eq(*b, 1e-12));
        }
    }

    #[test]
    fn channel_preserves_trace() {
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_1q(&gates::h(), 0);
        rho.apply_2q(&gates::cx(), 0, 1);
        rho.apply_channel(&NoiseChannel::depolarizing_2q(0.03), &[0, 1]);
        assert!((rho.trace() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn noise_reduces_purity() {
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_1q(&gates::h(), 0);
        let before = rho.purity();
        rho.apply_channel(&NoiseChannel::depolarizing_1q(0.2), &[0]);
        assert!(rho.purity() < before);
    }

    #[test]
    fn bell_state_probabilities_from_density() {
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_1q(&gates::h(), 0);
        rho.apply_2q(&gates::cx(), 0, 1);
        let p = rho.probabilities();
        assert!((p.probabilities()[0] - 0.5).abs() < 1e-12);
        assert!((p.probabilities()[3] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fast_depolarizing_1q_matches_kraus_form() {
        let mut a = DensityMatrix::zero_state(2);
        a.apply_1q(&gates::h(), 0);
        a.apply_2q(&gates::cx(), 0, 1);
        let mut b = a.clone();
        a.apply_depolarizing_1q(0.17, 1);
        b.apply_channel(&NoiseChannel::depolarizing_1q(0.17), &[1]);
        for (x, y) in a.data.iter().zip(&b.data) {
            assert!(x.approx_eq(*y, 1e-10), "{x} vs {y}");
        }
    }

    #[test]
    fn fast_depolarizing_2q_matches_kraus_form() {
        let mut a = DensityMatrix::zero_state(3);
        a.apply_1q(&gates::h(), 0);
        a.apply_2q(&gates::cx(), 0, 1);
        a.apply_1q(&gates::ry(0.4), 2);
        let mut b = a.clone();
        a.apply_depolarizing_2q(0.09, 0, 2);
        b.apply_channel(&NoiseChannel::depolarizing_2q(0.09), &[0, 2]);
        for (x, y) in a.data.iter().zip(&b.data) {
            assert!(x.approx_eq(*y, 1e-10), "{x} vs {y}");
        }
    }

    #[test]
    fn fast_depolarizing_preserves_trace() {
        let mut rho = DensityMatrix::zero_state(3);
        rho.apply_1q(&gates::h(), 1);
        rho.apply_depolarizing_1q(0.3, 1);
        rho.apply_depolarizing_2q(0.2, 0, 2);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
    }
}

#[cfg(test)]
mod fast_path_tests {
    use super::*;
    use crate::gates;

    #[test]
    fn cx_fast_matches_matrix_form() {
        let mut a = DensityMatrix::zero_state(3);
        a.apply_1q(&gates::h(), 0);
        a.apply_1q(&gates::ry(0.7), 2);
        let mut b = a.clone();
        a.apply_cx_fast(0, 2);
        b.apply_2q(&gates::cx(), 0, 2);
        for r in 0..8 {
            for c in 0..8 {
                assert!(a.entry(r, c).approx_eq(b.entry(r, c), 1e-12));
            }
        }
    }

    #[test]
    fn rz_fast_matches_matrix_form() {
        let mut a = DensityMatrix::zero_state(2);
        a.apply_1q(&gates::h(), 0);
        a.apply_1q(&gates::h(), 1);
        let mut b = a.clone();
        a.apply_rz_fast(0.83, 1);
        b.apply_1q(&gates::rz(0.83), 1);
        for r in 0..4 {
            for c in 0..4 {
                assert!(a.entry(r, c).approx_eq(b.entry(r, c), 1e-12), "({r},{c})");
            }
        }
    }

    #[test]
    fn cx_fast_both_directions() {
        let mut a = DensityMatrix::zero_state(2);
        a.apply_1q(&gates::h(), 1);
        let mut b = a.clone();
        a.apply_cx_fast(1, 0);
        b.apply_2q(&gates::cx(), 1, 0);
        for r in 0..4 {
            for c in 0..4 {
                assert!(a.entry(r, c).approx_eq(b.entry(r, c), 1e-12));
            }
        }
    }
}
