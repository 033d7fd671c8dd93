//! Exact mixed-state simulation via density matrices.
//!
//! A density matrix over `n` qubits stores `4^n` complex entries, so this
//! backend is practical up to roughly 10 qubits; larger registers should use
//! the [`crate::trajectory`] backend. Gate and channel application follow the
//! textbook forms `ρ ↦ UρU†` and `ρ ↦ Σᵢ KᵢρKᵢ†`.
//!
//! # Kernel layout and determinism
//!
//! Gate application runs through cache-blocked fast kernels that enumerate
//! sweep anchors branch-free and may split row ranges across worker threads
//! (see [`crate::par`]). Every fast kernel keeps its per-entry arithmetic
//! expression-identical to the retained scalar seed in [`crate::reference`],
//! and workers own disjoint rows, so results are **bit-identical** to the
//! reference kernels at any thread count. These per-op kernels are the
//! reference the fused noisy path ([`crate::noisy`]) is pinned against:
//! a [`crate::noisy::DensityProgram`] regroups gates and depolarizing
//! channels into far fewer sweeps and matches an op-at-a-time evolution
//! through this module to ≤ 1e-12, not bit-for-bit.

use crate::dist::ProbDist;
use crate::fuse::{self, FusedOp};
use crate::gates::{Mat2, Mat4};
use crate::math::C64;
use crate::noise::NoiseChannel;
use crate::par::{self, expand, SharedAmps};
use crate::reference;
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

    /// Borrow of the row-major entry buffer for in-crate kernels.
    pub(crate) fn data(&self) -> &[C64] {
        &self.data
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
        if reference::forced() {
            reference::raw_dm_apply_1q(&mut self.data, dim, u, q);
        } else {
            fast_dm_apply_1q(&mut self.data, dim, u, q);
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
        if reference::forced() {
            reference::raw_dm_apply_2q(&mut self.data, dim, u, q0, q1);
        } else {
            fast_dm_apply_2q(&mut self.data, dim, u, q0, q1);
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
                1 => {
                    let m = matrix_to_mat2(k);
                    branch.apply_general_1q(&m, qubits[0]);
                }
                2 => {
                    let m = matrix_to_mat4(k);
                    branch.apply_general_2q(&m, qubits[0], qubits[1]);
                }
                n => panic!("channels on {n} qubits are not supported"),
            }
            for (a, b) in acc.iter_mut().zip(&branch.data) {
                *a += *b;
            }
        }
        self.data = acc;
    }

    /// Like [`DensityMatrix::apply_1q`] but for non-unitary `K`: `ρ ↦ KρK†`
    /// (no renormalization).
    fn apply_general_1q(&mut self, k: &Mat2, q: usize) {
        self.apply_1q(k, q);
    }

    fn apply_general_2q(&mut self, k: &Mat4, q0: usize, q1: usize) {
        self.apply_2q(k, q0, q1);
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
        if reference::forced() {
            reference::raw_dm_apply_cx(&mut self.data, dim, c, t);
        } else {
            fast_dm_apply_cx(&mut self.data, dim, c, t);
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
        let dim = self.dim;
        if reference::forced() {
            reference::raw_dm_apply_rz(&mut self.data, dim, theta, q);
        } else {
            fast_dm_apply_rz(&mut self.data, dim, theta, q);
        }
    }

    /// Applies one lowered simulator instruction (the [`crate::fuse`]
    /// instruction set), routing each variant to its dedicated kernel: one
    /// sweep per op, bit-identical to the reference kernels. Noisy circuits
    /// run fused through [`crate::noisy::DensityProgram`] instead.
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
        if reference::forced() {
            reference::raw_dm_depolarizing_1q(&mut self.data, dim, p, q);
        } else {
            fast_dm_depolarizing_1q(&mut self.data, dim, p, q);
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
        if reference::forced() {
            reference::raw_dm_depolarizing_2q(&mut self.data, dim, p, q0, q1);
        } else {
            fast_dm_depolarizing_2q(&mut self.data, dim, p, q0, q1);
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

    /// State fidelity with a pure state: `⟨ψ|ρ|ψ⟩`.
    ///
    /// # Panics
    ///
    /// Panics if register sizes differ.
    pub fn fidelity_with_pure(&self, psi: &StateVector) -> f64 {
        assert_eq!(self.n_qubits, psi.n_qubits());
        let amps = psi.amplitudes();
        let mut acc = C64::ZERO;
        for r in 0..self.dim {
            for c in 0..self.dim {
                acc += amps[r].conj() * self.data[r * self.dim + c] * amps[c];
            }
        }
        acc.re.clamp(0.0, 1.0)
    }
}

pub(crate) fn matrix_to_mat2(m: &crate::linalg::Matrix) -> Mat2 {
    assert_eq!(m.rows(), 2);
    let s = m.as_slice();
    [[s[0], s[1]], [s[2], s[3]]]
}

pub(crate) fn matrix_to_mat4(m: &crate::linalg::Matrix) -> Mat4 {
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

// ---------------------------------------------------------------------------
// Fast kernels: branch-free anchor enumeration, rows split across workers.
// Per-entry arithmetic is expression-identical to `crate::reference`, and
// workers own disjoint rows, so results are bit-identical to the scalar seed
// at any thread count. Sequential sweeps (the planner's single-worker case)
// take a plain slice-indexed path that LLVM can vectorize — same expressions,
// same bits as the shared-pointer loops, just provably non-aliasing.
// ---------------------------------------------------------------------------

/// `ρ ↦ UρU†` in two passes: row pairs (left multiply), then per-row column
/// pairs (right multiply). Parallel over anchor rows / rows.
fn fast_dm_apply_1q(data: &mut [C64], dim: usize, u: &Mat2, q: usize) {
    let bit = 1usize << q;
    if par::plan(dim >> 1) <= 1 {
        for a in 0..dim >> 1 {
            let r = expand(a, q);
            let r1 = r | bit;
            for c in 0..dim {
                let a0 = data[r * dim + c];
                let a1 = data[r1 * dim + c];
                data[r * dim + c] = u[0][0] * a0 + u[0][1] * a1;
                data[r1 * dim + c] = u[1][0] * a0 + u[1][1] * a1;
            }
        }
        for r in 0..dim {
            let base = r * dim;
            for a in 0..dim >> 1 {
                let c = expand(a, q);
                let c1 = c | bit;
                let a0 = data[base + c];
                let a1 = data[base + c1];
                data[base + c] = a0 * u[0][0].conj() + a1 * u[0][1].conj();
                data[base + c1] = a0 * u[1][0].conj() + a1 * u[1][1].conj();
            }
        }
        return;
    }
    let u = *u;
    let ptr = SharedAmps::new(data);
    // Left-multiply by U: anchor a maps to the row pair (r, r | bit).
    par::for_each_range(dim >> 1, |range| {
        for a in range {
            let r = expand(a, q);
            let r1 = r | bit;
            for c in 0..dim {
                // SAFETY: rows r and r1 derive 1:1 from this worker's private
                // anchor range, so no other worker touches them.
                unsafe {
                    let a0 = ptr.get(r * dim + c);
                    let a1 = ptr.get(r1 * dim + c);
                    ptr.set(r * dim + c, u[0][0] * a0 + u[0][1] * a1);
                    ptr.set(r1 * dim + c, u[1][0] * a0 + u[1][1] * a1);
                }
            }
        }
    });
    // Right-multiply by U† on the column index: ρ[r,c] ← Σₖ ρ[r,k]·conj(U[c,k]).
    par::for_each_range(dim, |range| {
        for r in range {
            let base = r * dim;
            for a in 0..dim >> 1 {
                let c = expand(a, q);
                let c1 = c | bit;
                // SAFETY: row r belongs to this worker's private range.
                unsafe {
                    let a0 = ptr.get(base + c);
                    let a1 = ptr.get(base + c1);
                    ptr.set(base + c, a0 * u[0][0].conj() + a1 * u[0][1].conj());
                    ptr.set(base + c1, a0 * u[1][0].conj() + a1 * u[1][1].conj());
                }
            }
        }
    });
}

/// Two-qubit `ρ ↦ UρU†` (basis `|q1 q0⟩`): row quartets then per-row column
/// quartets, anchors enumerated branch-free.
fn fast_dm_apply_2q(data: &mut [C64], dim: usize, u: &Mat4, q0: usize, q1: usize) {
    let b0 = 1usize << q0;
    let b1 = 1usize << q1;
    let (lo, hi) = if q0 < q1 { (q0, q1) } else { (q1, q0) };
    if par::plan(dim >> 2) <= 1 {
        for anchor in 0..dim >> 2 {
            let r = expand(expand(anchor, lo), hi);
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
        for r in 0..dim {
            let base = r * dim;
            for anchor in 0..dim >> 2 {
                let c = expand(expand(anchor, lo), hi);
                let idx = [c, c | b0, c | b1, c | b0 | b1];
                let a = [
                    data[base + idx[0]],
                    data[base + idx[1]],
                    data[base + idx[2]],
                    data[base + idx[3]],
                ];
                for (k, &ci) in idx.iter().enumerate() {
                    data[base + ci] = a[0] * u[k][0].conj()
                        + a[1] * u[k][1].conj()
                        + a[2] * u[k][2].conj()
                        + a[3] * u[k][3].conj();
                }
            }
        }
        return;
    }
    let u = *u;
    let ptr = SharedAmps::new(data);
    // Left-multiply by U.
    par::for_each_range(dim >> 2, |range| {
        for anchor in range {
            let r = expand(expand(anchor, lo), hi);
            let idx = [r, r | b0, r | b1, r | b0 | b1];
            for c in 0..dim {
                // SAFETY: the four rows derive 1:1 from this worker's private
                // anchor range.
                unsafe {
                    let a = [
                        ptr.get(idx[0] * dim + c),
                        ptr.get(idx[1] * dim + c),
                        ptr.get(idx[2] * dim + c),
                        ptr.get(idx[3] * dim + c),
                    ];
                    for (k, &ri) in idx.iter().enumerate() {
                        ptr.set(
                            ri * dim + c,
                            u[k][0] * a[0] + u[k][1] * a[1] + u[k][2] * a[2] + u[k][3] * a[3],
                        );
                    }
                }
            }
        }
    });
    // Right-multiply by U†.
    par::for_each_range(dim, |range| {
        for r in range {
            let base = r * dim;
            for anchor in 0..dim >> 2 {
                let c = expand(expand(anchor, lo), hi);
                let idx = [c, c | b0, c | b1, c | b0 | b1];
                // SAFETY: row r belongs to this worker's private range.
                unsafe {
                    let a = [
                        ptr.get(base + idx[0]),
                        ptr.get(base + idx[1]),
                        ptr.get(base + idx[2]),
                        ptr.get(base + idx[3]),
                    ];
                    for (k, &ci) in idx.iter().enumerate() {
                        ptr.set(
                            base + ci,
                            a[0] * u[k][0].conj()
                                + a[1] * u[k][1].conj()
                                + a[2] * u[k][2].conj()
                                + a[3] * u[k][3].conj(),
                        );
                    }
                }
            }
        }
    });
}

/// CNOT on `ρ` as two permutation passes: whole-row swaps for rows with the
/// control bit set, then per-row column swaps. Pure data movement — the
/// composition equals the reference's single-pass involution bit-for-bit.
fn fast_dm_apply_cx(data: &mut [C64], dim: usize, c: usize, t: usize) {
    let cb = 1usize << c;
    let tb = 1usize << t;
    let (lo, hi) = if c < t { (c, t) } else { (t, c) };
    if par::plan(dim >> 2) <= 1 {
        for anchor in 0..dim >> 2 {
            let r = expand(expand(anchor, lo), hi) | cb;
            let r1 = r | tb;
            for k in 0..dim {
                data.swap(r * dim + k, r1 * dim + k);
            }
        }
        for r in 0..dim {
            let base = r * dim;
            for anchor in 0..dim >> 2 {
                let col = expand(expand(anchor, lo), hi) | cb;
                data.swap(base + col, base + (col | tb));
            }
        }
        return;
    }
    let ptr = SharedAmps::new(data);
    // Pass 1: σ[r][·] = ρ[π(r)][·] — swap row pairs {r, r|tb} where r has
    // the control bit set and the target bit clear.
    par::for_each_range(dim >> 2, |range| {
        for anchor in range {
            let r = expand(expand(anchor, lo), hi) | cb;
            let r1 = r | tb;
            for k in 0..dim {
                // SAFETY: rows r and r1 derive 1:1 from this worker's
                // private anchor range.
                unsafe { ptr.swap(r * dim + k, r1 * dim + k) };
            }
        }
    });
    // Pass 2: σ'[r][col] = σ[r][π(col)] — per-row column swaps.
    par::for_each_range(dim, |range| {
        for r in range {
            let base = r * dim;
            for anchor in 0..dim >> 2 {
                let col = expand(expand(anchor, lo), hi) | cb;
                // SAFETY: row r belongs to this worker's private range.
                unsafe { ptr.swap(base + col, base + (col | tb)) };
            }
        }
    });
}

/// RZ(θ) on `ρ`: conditional diagonal phase per entry, parallel over rows.
fn fast_dm_apply_rz(data: &mut [C64], dim: usize, theta: f64, q: usize) {
    let bit = 1usize << q;
    // rz = diag(e^{-iθ/2}, e^{+iθ/2}); ρ[r,c] picks up phase(r)·conj(phase(c)),
    // which is e^{+iθ} when (r has bit, c clear), e^{-iθ} mirrored, 1 otherwise.
    let plus = C64::cis(theta);
    let minus = C64::cis(-theta);
    if par::plan(dim) <= 1 {
        for r in 0..dim {
            let rbit = r & bit != 0;
            let f = if rbit { plus } else { minus };
            let base = r * dim;
            for a in 0..dim >> 1 {
                let col = expand(a, q) | if rbit { 0 } else { bit };
                data[base + col] *= f;
            }
        }
        return;
    }
    let ptr = SharedAmps::new(data);
    par::for_each_range(dim, |range| {
        for r in range {
            let rbit = r & bit != 0;
            let f = if rbit { plus } else { minus };
            let base = r * dim;
            for a in 0..dim >> 1 {
                // Only entries whose row/column bits differ on q change; the
                // changing column half-space is the one opposite to rbit.
                let col = expand(a, q) | if rbit { 0 } else { bit };
                // SAFETY: row r belongs to this worker's private range.
                unsafe { ptr.set(base + col, ptr.get(base + col) * f) };
            }
        }
    });
}

/// Closed-form single-qubit depolarizing sweep, parallel over anchor rows.
fn fast_dm_depolarizing_1q(data: &mut [C64], dim: usize, p: f64, q: usize) {
    let bit = 1usize << q;
    let keep = 1.0 - p;
    if par::plan(dim >> 1) <= 1 {
        for ar in 0..dim >> 1 {
            let r = expand(ar, q);
            let r1 = r | bit;
            for ac in 0..dim >> 1 {
                let c = expand(ac, q);
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
        return;
    }
    let ptr = SharedAmps::new(data);
    par::for_each_range(dim >> 1, |range| {
        for ar in range {
            let r = expand(ar, q);
            let r1 = r | bit;
            for ac in 0..dim >> 1 {
                let c = expand(ac, q);
                let c1 = c | bit;
                // SAFETY: rows r and r1 derive 1:1 from this worker's
                // private anchor range.
                unsafe {
                    let d00 = ptr.get(r * dim + c);
                    let d11 = ptr.get(r1 * dim + c1);
                    let mixed = (d00 + d11).scale(0.5 * p);
                    ptr.set(r * dim + c, d00.scale(keep) + mixed);
                    ptr.set(r1 * dim + c1, d11.scale(keep) + mixed);
                    ptr.set(r * dim + c1, ptr.get(r * dim + c1).scale(keep));
                    ptr.set(r1 * dim + c, ptr.get(r1 * dim + c).scale(keep));
                }
            }
        }
    });
}

/// Closed-form two-qubit depolarizing sweep, parallel over anchor rows.
fn fast_dm_depolarizing_2q(data: &mut [C64], dim: usize, p: f64, q0: usize, q1: usize) {
    let b0 = 1usize << q0;
    let b1 = 1usize << q1;
    let (lo, hi) = if q0 < q1 { (q0, q1) } else { (q1, q0) };
    let keep = 1.0 - p;
    if par::plan(dim >> 2) <= 1 {
        for ar in 0..dim >> 2 {
            let r = expand(expand(ar, lo), hi);
            let ridx = [r, r | b0, r | b1, r | b0 | b1];
            for ac in 0..dim >> 2 {
                let c = expand(expand(ac, lo), hi);
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
        return;
    }
    let ptr = SharedAmps::new(data);
    par::for_each_range(dim >> 2, |range| {
        for ar in range {
            let r = expand(expand(ar, lo), hi);
            let ridx = [r, r | b0, r | b1, r | b0 | b1];
            for ac in 0..dim >> 2 {
                let c = expand(expand(ac, lo), hi);
                let cidx = [c, c | b0, c | b1, c | b0 | b1];
                // SAFETY: the four rows derive 1:1 from this worker's
                // private anchor range.
                unsafe {
                    let mut diag_sum = C64::ZERO;
                    for k in 0..4 {
                        diag_sum += ptr.get(ridx[k] * dim + cidx[k]);
                    }
                    let mixed = diag_sum.scale(0.25 * p);
                    for (ri, &rr) in ridx.iter().enumerate() {
                        for (ci, &cc) in cidx.iter().enumerate() {
                            let v = ptr.get(rr * dim + cc).scale(keep);
                            ptr.set(rr * dim + cc, if ri == ci { v + mixed } else { v });
                        }
                    }
                }
            }
        }
    });
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
        rho.apply_channel(&NoiseChannel::amplitude_damping(0.1), &[1]);
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
    fn amplitude_damping_decays_excited_state() {
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_1q(&gates::x(), 0);
        rho.apply_channel(&NoiseChannel::amplitude_damping(0.3), &[0]);
        let p = rho.probabilities();
        assert!((p.probabilities()[1] - 0.7).abs() < 1e-12);
        assert!((p.probabilities()[0] - 0.3).abs() < 1e-12);
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
    fn fidelity_with_pure_state() {
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_1q(&gates::h(), 0);
        let mut psi = StateVector::zero_state(1);
        psi.apply_1q(&gates::h(), 0);
        assert!((rho.fidelity_with_pure(&psi) - 1.0).abs() < 1e-12);

        rho.apply_channel(&NoiseChannel::depolarizing_1q(0.5), &[0]);
        let f = rho.fidelity_with_pure(&psi);
        assert!(f < 1.0 && f > 0.4);
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

    #[test]
    fn phase_damping_kills_coherences_not_populations() {
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_1q(&gates::h(), 0);
        let pops_before = rho.probabilities();
        rho.apply_channel(&NoiseChannel::phase_damping(1.0), &[0]);
        let pops_after = rho.probabilities();
        assert!(pops_before
            .probabilities()
            .iter()
            .zip(pops_after.probabilities())
            .all(|(a, b)| (a - b).abs() < 1e-12));
        assert!(rho.entry(0, 1).abs() < 1e-12);
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
