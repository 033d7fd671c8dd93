//! Pure-state (statevector) simulation.
//!
//! Basis states are indexed little-endian: bit `q` of the basis index is the
//! state of qubit `q`. A register of `n` qubits holds `2^n` amplitudes.
//!
//! # Kernel layout and determinism
//!
//! Gate application routes through cache-blocked, branch-free fast kernels:
//! each sweep enumerates only the anchor indices it touches (pair indices
//! for 1q ops, quarter indices for 2q ops) instead of scanning and skipping.
//! The per-amplitude arithmetic is kept *expression-identical* to the
//! retained scalar kernels in [`crate::reference`], so an unfused fast sweep
//! is **bit-identical** to the reference sweep (but for the sign of exact
//! zeros in [`StateVector::apply_2q`]'s two-term sweep). Every sweep is one plain
//! loop on the calling thread (see "Why the simulator is single-threaded"
//! in `docs/ARCHITECTURE.md`). No method here reaches the seed kernels;
//! a caller that wants them calls [`crate::reference`] directly.
//!
//! The sweeps are built twice from one source: `sweep` (the `match` over
//! [`FusedOp`] with every kernel it calls inlined) is compiled once for the
//! crate's target and once more inside `sweep_avx2`, a
//! `#[target_feature(enable = "avx2")]` function; a CPU with AVX2 runs the
//! second ([`crate::sweep_build`] says which). The two builds agree bit for
//! bit: FMA stays off and Rust never contracts `a * b + c`, so AVX2 changes
//! only how many of the same IEEE adds and multiplies one instruction does,
//! in the same order (`sv_avx2_build_is_bitwise_the_baseline_build`). That
//! guarded call is this crate's only `unsafe` outside `noisy/sweep.rs`, whose
//! density sweeps are built twice the same way.

use crate::fuse::FusedOp;
use crate::gates::{Mat2, Mat4};
use crate::math::C64;

/// The state of an `n`-qubit register as `2^n` complex amplitudes.
///
/// # Examples
///
/// ```
/// use qoncord_sim::statevector::StateVector;
/// use qoncord_sim::gates;
///
/// let mut sv = StateVector::zero_state(1);
/// sv.apply_1q(&gates::h(), 0);
/// let probs = sv.probabilities();
/// assert!((probs[0] - 0.5).abs() < 1e-12);
/// assert!((probs[1] - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    n_qubits: usize,
    amps: Vec<C64>,
}

impl StateVector {
    /// Creates the all-zeros computational basis state `|0…0⟩`.
    pub fn zero_state(n_qubits: usize) -> Self {
        assert!(n_qubits <= 30, "statevector limited to 30 qubits");
        let mut amps = vec![C64::ZERO; 1 << n_qubits];
        amps[0] = C64::ONE;
        StateVector { n_qubits, amps }
    }

    /// Creates the computational basis state `|index⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 2^n_qubits`.
    pub fn basis_state(n_qubits: usize, index: usize) -> Self {
        let mut sv = StateVector::zero_state(n_qubits);
        assert!(index < sv.amps.len(), "basis index out of range");
        sv.amps[0] = C64::ZERO;
        sv.amps[index] = C64::ONE;
        sv
    }

    /// Number of qubits in the register.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Borrow of the amplitude vector (little-endian basis order).
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// Mutable borrow of the amplitude buffer for in-crate kernels.
    pub(crate) fn amps_mut(&mut self) -> &mut [C64] {
        &mut self.amps
    }

    /// Applies a single-qubit gate to qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn apply_1q(&mut self, u: &Mat2, q: usize) {
        self.apply_op(&FusedOp::One(*u, q));
    }

    /// Applies a two-qubit gate to qubits `(q0, q1)`; the matrix acts on the
    /// basis `|q1 q0⟩` (see [`crate::gates`]).
    ///
    /// A matrix with exactly two structural non-zeros per row — a 1q gate
    /// folded into a monomial block, most of what fusion leaves dense —
    /// sweeps those two terms only. That is the dense expression minus its
    /// exact-zero products: every amplitude is `==` the dense (and the
    /// reference) sweep's and can differ in bits only by the sign of an exact
    /// zero, which no later `+`, `−` or `×` on finite values turns into
    /// anything else and `norm_sq` squares away, so probabilities keep their
    /// bits. Any other matrix is bit-identical to the reference sweep.
    ///
    /// # Panics
    ///
    /// Panics if the qubits coincide or are out of range.
    pub fn apply_2q(&mut self, u: &Mat4, q0: usize, q1: usize) {
        self.apply_op(&FusedOp::Two(*u, q0, q1));
    }

    /// Fast path for CNOT (control `c`, target `t`): swaps amplitude pairs.
    ///
    /// # Panics
    ///
    /// Panics if the qubits coincide or are out of range.
    pub fn apply_cx_fast(&mut self, c: usize, t: usize) {
        self.apply_op(&FusedOp::Cx(c, t));
    }

    /// Fast path for RZ(θ) on `q`: multiplies the two half-spaces by
    /// `e^{∓iθ/2}`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn apply_rz_fast(&mut self, theta: f64, q: usize) {
        self.apply_op(&FusedOp::Rz(theta, q));
    }

    /// Applies one simulator op (the [`crate::fuse`] instruction set),
    /// routing each variant to its dedicated kernel. A monomial block (see
    /// [`FusedOp::Mono`]) takes phase `d[k]` for pair basis state `k` from
    /// source state `src[k]` — four complex multiplies per quartet instead
    /// of a dense `Mat4` sweep.
    ///
    /// # Panics
    ///
    /// Panics if an operand qubit is out of range, two operands coincide,
    /// or a monomial's `src` is not a permutation of the pair basis.
    pub fn apply_op(&mut self, op: &FusedOp) {
        self.apply_op_within(op, self.n_qubits);
    }

    /// [`Self::apply_op`] on the first `2^width` amplitudes only: the
    /// sub-register of qubits `0..width`, which must hold every operand.
    /// Where every amplitude at or above `2^width` is an exact zero (qubits
    /// `width..` still |0⟩), this leaves the state [`Self::apply_op`] would,
    /// but for the sign of those zeros: each quartet it visits computes the
    /// same expression from the same inputs, and a quartet it skips reads
    /// only zeros.
    ///
    /// # Panics
    ///
    /// As for [`Self::apply_op`], with `width` for the register size; and if
    /// `width` exceeds it.
    pub(crate) fn apply_op_within(&mut self, op: &FusedOp, width: usize) {
        assert!(width <= self.n_qubits, "sweep wider than the register");
        op.validate(width);
        sweep_fastest(&mut self.amps[..1 << width], op);
    }

    /// Applies an op sequence in order (typically the output of
    /// [`crate::fuse::fuse`]).
    pub fn apply_ops(&mut self, ops: &[FusedOp]) {
        for op in ops {
            self.apply_op(op);
        }
    }

    /// Measurement probabilities for every basis state.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sq()).collect()
    }

    /// Inner product `⟨self|other⟩`.
    ///
    /// # Panics
    ///
    /// Panics if the registers have different sizes.
    pub fn inner(&self, other: &StateVector) -> C64 {
        assert_eq!(self.n_qubits, other.n_qubits);
        self.amps
            .iter()
            .zip(&other.amps)
            .map(|(a, b)| a.conj() * *b)
            .sum()
    }

    /// State fidelity `|⟨self|other⟩|²`.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        self.inner(other).norm_sq()
    }

    /// Squared norm of the state (1 for a valid state).
    pub fn norm_sq(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sq()).sum()
    }
}

/// [`sweep`] on the fastest build this CPU runs: [`sweep_avx2`] if it has
/// AVX2, the crate's own build otherwise.
#[inline(always)]
fn sweep_fastest(amps: &mut [C64], op: &FusedOp) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if crate::avx2() {
        // SAFETY: `sweep_avx2` enables AVX2 only, which this CPU was
        // detected to support.
        #[allow(unsafe_code)]
        unsafe {
            sweep_avx2(amps, op)
        };
        return;
    }
    sweep(amps, op);
}

/// [`sweep`] compiled for AVX2. Every kernel is `#[inline(always)]`, so the
/// whole dispatch is built again here with 256-bit registers (a kernel left
/// out of line would run its baseline build from here); without FMA
/// the adds and multiplies are the same IEEE operations in the same order,
/// only more of them per instruction, so the bits are [`sweep`]'s.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn sweep_avx2(amps: &mut [C64], op: &FusedOp) {
    sweep(amps, op);
}

/// Routes a validated `op` to its kernel over all of `amps`.
#[inline(always)]
fn sweep(amps: &mut [C64], op: &FusedOp) {
    match op {
        FusedOp::One(u, q) => {
            let _prof = qoncord_prof::span("sim::sv::apply_1q");
            fast_apply_1q(amps, u, *q);
        }
        FusedOp::Two(u, q0, q1) => {
            let _prof = qoncord_prof::span("sim::sv::apply_2q");
            if let Some(cols) = two_per_row(u) {
                fast_apply_2q_two_term(amps, u, &cols, *q0, *q1);
            } else {
                fast_apply_2q(amps, u, *q0, *q1);
            }
        }
        FusedOp::Cx(c, t) => {
            let _prof = qoncord_prof::span("sim::sv::apply_cx");
            fast_apply_cx(amps, *c, *t);
        }
        FusedOp::Rz(theta, q) => {
            let _prof = qoncord_prof::span("sim::sv::apply_rz");
            fast_apply_rz(amps, *theta, *q);
        }
        FusedOp::Mono(d, src, q0, q1) => {
            let _prof = qoncord_prof::span("sim::sv::apply_mono");
            fast_apply_2q_mono(amps, d, src, *q0, *q1);
        }
    }
}

/// Inserts a zero bit at position `bit` of `i` (all higher bits shift up):
/// maps a dense anchor counter onto the indices with that bit clear, letting
/// kernels enumerate sweep anchors branch-free.
#[inline(always)]
pub(crate) fn expand(i: usize, bit: usize) -> usize {
    ((i >> bit) << (bit + 1)) | (i & ((1 << bit) - 1))
}

/// Blocked single-qubit sweep over pair indices: pair `p` maps to the
/// amplitude pair `(i0, i0 | stride)` with `i0 = expand(p, q)`, so the inner
/// loop is branch-free and walks two contiguous streams. Arithmetic is
/// expression-identical to [`crate::reference::sv_apply_1q`].
#[inline(always)]
fn fast_apply_1q(amps: &mut [C64], u: &Mat2, q: usize) {
    let stride = 1usize << q;
    for p in 0..amps.len() >> 1 {
        let i0 = expand(p, q);
        let i1 = i0 | stride;
        let a0 = amps[i0];
        let a1 = amps[i1];
        amps[i0] = u[0][0] * a0 + u[0][1] * a1;
        amps[i1] = u[1][0] * a0 + u[1][1] * a1;
    }
}

/// Blocked two-qubit sweep over quarter indices: anchor construction sorts
/// the bit positions (correct for `q0 > q1`), while the offset bits `b0`,
/// `b1` follow the argument order so the matrix still acts on `|q1 q0⟩`.
/// Arithmetic is expression-identical to [`crate::reference::sv_apply_2q`].
#[inline(always)]
fn fast_apply_2q(amps: &mut [C64], u: &Mat4, q0: usize, q1: usize) {
    let b0 = 1usize << q0;
    let b1 = 1usize << q1;
    let (lo, hi) = (q0.min(q1), q0.max(q1));
    for p in 0..amps.len() >> 2 {
        let i00 = expand(expand(p, lo), hi);
        let i01 = i00 | b0;
        let i10 = i00 | b1;
        let i11 = i00 | b0 | b1;
        let a = [amps[i00], amps[i01], amps[i10], amps[i11]];
        amps[i00] = u[0][0] * a[0] + u[0][1] * a[1] + u[0][2] * a[2] + u[0][3] * a[3];
        amps[i01] = u[1][0] * a[0] + u[1][1] * a[1] + u[1][2] * a[2] + u[1][3] * a[3];
        amps[i10] = u[2][0] * a[0] + u[2][1] * a[1] + u[2][2] * a[2] + u[2][3] * a[3];
        amps[i11] = u[3][0] * a[0] + u[3][1] * a[1] + u[3][2] * a[2] + u[3][3] * a[3];
    }
}

/// The columns (ascending) of `u`'s non-zeros when every row has exactly
/// two. Zero-tests are exact, as in fusion's monomial classification.
#[inline(always)]
fn two_per_row(u: &Mat4) -> Option<[[usize; 2]; 4]> {
    let mut cols = [[0; 2]; 4];
    for r in 0..4 {
        let mut nonzero = (0..4).filter(|&c| u[r][c].re != 0.0 || u[r][c].im != 0.0);
        cols[r] = [nonzero.next()?, nonzero.next()?];
        if nonzero.next().is_some() {
            return None;
        }
    }
    Some(cols)
}

/// [`fast_apply_2q`] with only the terms in columns `cols` (from
/// [`two_per_row`]): 8 complex multiplies per quartet for 16.
#[inline(always)]
fn fast_apply_2q_two_term(
    amps: &mut [C64],
    u: &Mat4,
    cols: &[[usize; 2]; 4],
    q0: usize,
    q1: usize,
) {
    let b0 = 1usize << q0;
    let b1 = 1usize << q1;
    let (lo, hi) = (q0.min(q1), q0.max(q1));
    let w: [[C64; 2]; 4] = std::array::from_fn(|r| cols[r].map(|c| u[r][c]));
    for p in 0..amps.len() >> 2 {
        let i00 = expand(expand(p, lo), hi);
        let idx = [i00, i00 | b0, i00 | b1, i00 | b0 | b1];
        let a = [amps[idx[0]], amps[idx[1]], amps[idx[2]], amps[idx[3]]];
        for r in 0..4 {
            amps[idx[r]] = w[r][0] * a[cols[r][0]] + w[r][1] * a[cols[r][1]];
        }
    }
}

/// Blocked monomial sweep: each quartet loads its 4 amplitudes through the
/// source permutation and applies one phase multiply per slot — 4 complex
/// multiplies where the dense `Mat4` sweep does 16 plus 12 adds. Each of the
/// 24 permutations gets its own [`mono_sweep`], whose body is straight-line
/// (a runtime `src` gather cost 30 % more per amplitude); the multiplies and
/// their order are the same in all of them. Only ever reached from fused
/// programs (fusion's matrix products already reorder floating-point ops),
/// so the contract is ≤ 1e-12 max-norm vs reference.
#[inline(always)]
fn fast_apply_2q_mono(amps: &mut [C64], d: &[C64; 4], src: &[u8; 4], q0: usize, q1: usize) {
    macro_rules! sweep_for {
        ($([$a:literal $b:literal $c:literal $d:literal])*) => {
            match *src {
                $([$a, $b, $c, $d] => mono_sweep::<$a, $b, $c, $d>(amps, d, q0, q1),)*
                _ => unreachable!("validated as a permutation of the pair basis"),
            }
        };
    }
    sweep_for! {
        [0 1 2 3] [0 1 3 2] [0 2 1 3] [0 2 3 1] [0 3 1 2] [0 3 2 1]
        [1 0 2 3] [1 0 3 2] [1 2 0 3] [1 2 3 0] [1 3 0 2] [1 3 2 0]
        [2 0 1 3] [2 0 3 1] [2 1 0 3] [2 1 3 0] [2 3 0 1] [2 3 1 0]
        [3 0 1 2] [3 0 2 1] [3 1 0 2] [3 1 2 0] [3 2 0 1] [3 2 1 0]
    }
}

/// [`fast_apply_2q_mono`] for the source permutation `[S0, S1, S2, S3]`.
#[inline(always)]
fn mono_sweep<const S0: usize, const S1: usize, const S2: usize, const S3: usize>(
    amps: &mut [C64],
    d: &[C64; 4],
    q0: usize,
    q1: usize,
) {
    let b0 = 1usize << q0;
    let b1 = 1usize << q1;
    let (lo, hi) = (q0.min(q1), q0.max(q1));
    let d = *d;
    for p in 0..amps.len() >> 2 {
        let i00 = expand(expand(p, lo), hi);
        let idx = [i00, i00 | b0, i00 | b1, i00 | b0 | b1];
        let a = [amps[idx[S0]], amps[idx[S1]], amps[idx[S2]], amps[idx[S3]]];
        amps[idx[0]] = d[0] * a[0];
        amps[idx[1]] = d[1] * a[1];
        amps[idx[2]] = d[2] * a[2];
        amps[idx[3]] = d[3] * a[3];
    }
}

/// Blocked CNOT: enumerates exactly the indices with the control bit set and
/// target bit clear (a quarter of the register) instead of scanning all of
/// it, then swaps — the same swaps as [`crate::reference::sv_apply_cx`].
#[inline(always)]
fn fast_apply_cx(amps: &mut [C64], c: usize, t: usize) {
    let cb = 1usize << c;
    let tb = 1usize << t;
    let (lo, hi) = (c.min(t), c.max(t));
    for p in 0..amps.len() >> 2 {
        let i = expand(expand(p, lo), hi) | cb;
        amps.swap(i, i | tb);
    }
}

/// Elementwise RZ phase sweep; each amplitude gets the same single multiply
/// as [`crate::reference::sv_apply_rz`].
#[inline(always)]
fn fast_apply_rz(amps: &mut [C64], theta: f64, q: usize) {
    let bit = 1usize << q;
    let lo = C64::cis(-theta / 2.0);
    let hi = C64::cis(theta / 2.0);
    for (i, a) in amps.iter_mut().enumerate() {
        let f = if i & bit == 0 { lo } else { hi };
        *a *= f;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;

    #[test]
    fn zero_state_has_unit_amp_at_origin() {
        let sv = StateVector::zero_state(3);
        assert_eq!(sv.amplitudes()[0], C64::ONE);
        assert!((sv.norm_sq() - 1.0).abs() < 1e-14);
    }

    #[test]
    fn x_flips_target_qubit_only() {
        let mut sv = StateVector::zero_state(3);
        sv.apply_1q(&gates::x(), 1);
        // Expect |010> = index 2
        assert_eq!(sv.amplitudes()[2], C64::ONE);
    }

    #[test]
    fn bell_state_probabilities() {
        let mut sv = StateVector::zero_state(2);
        sv.apply_1q(&gates::h(), 0);
        sv.apply_2q(&gates::cx(), 0, 1); // control q0, target q1
        let p = sv.probabilities();
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!((p[3] - 0.5).abs() < 1e-12);
        assert!(p[1].abs() < 1e-12 && p[2].abs() < 1e-12);
    }

    #[test]
    fn cx_respects_control_direction() {
        // Control = q1 (second argument order swapped): prepare q1=1, expect q0 flip.
        let mut sv = StateVector::zero_state(2);
        sv.apply_1q(&gates::x(), 1); // |10> = index 2
        sv.apply_2q(&gates::cx(), 1, 0); // control q1, target q0

        // Now |11> = index 3.
        assert!((sv.probabilities()[3] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ghz_state_on_four_qubits() {
        let mut sv = StateVector::zero_state(4);
        sv.apply_1q(&gates::h(), 0);
        for q in 0..3 {
            sv.apply_2q(&gates::cx(), q, q + 1);
        }
        let p = sv.probabilities();
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!((p[15] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn gate_application_preserves_norm() {
        let mut sv = StateVector::zero_state(5);
        for q in 0..5 {
            sv.apply_1q(&gates::h(), q);
            sv.apply_1q(&gates::t(), q);
        }
        for q in 0..4 {
            sv.apply_2q(&gates::cx(), q, q + 1);
        }
        assert!((sv.norm_sq() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inner_product_of_orthogonal_states() {
        let a = StateVector::basis_state(2, 1);
        let b = StateVector::basis_state(2, 2);
        assert_eq!(a.inner(&b), C64::ZERO);
        assert!((a.fidelity(&a) - 1.0).abs() < 1e-14);
    }

    #[test]
    fn rzz_is_diagonal_phase() {
        let mut sv = StateVector::zero_state(2);
        sv.apply_1q(&gates::h(), 0);
        sv.apply_1q(&gates::h(), 1);
        let before = sv.probabilities();
        sv.apply_2q(&gates::rzz(0.9), 0, 1);
        let after = sv.probabilities();
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn apply_to_missing_qubit_panics() {
        let mut sv = StateVector::zero_state(2);
        sv.apply_1q(&gates::x(), 5);
    }
}

#[cfg(test)]
mod fast_path_tests {
    use super::*;
    use crate::{fuse, gates, reference};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn cx_fast_matches_matrix_form() {
        let mut a = StateVector::zero_state(3);
        a.apply_1q(&gates::h(), 0);
        a.apply_1q(&gates::t(), 1);
        let mut b = a.clone();
        a.apply_cx_fast(0, 2);
        b.apply_2q(&gates::cx(), 0, 2);
        assert!((a.fidelity(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rz_fast_matches_matrix_form() {
        let mut a = StateVector::zero_state(2);
        a.apply_1q(&gates::h(), 0);
        let mut b = a.clone();
        a.apply_rz_fast(-1.2, 0);
        b.apply_1q(&gates::rz(-1.2), 0);
        assert!((a.fidelity(&b) - 1.0).abs() < 1e-12);
    }

    /// A 6-qubit state with every amplitude distinct and non-zero.
    fn scrambled() -> StateVector {
        let mut sv = StateVector::zero_state(6);
        for q in 0..6 {
            sv.apply_1q(&gates::u3(0.7 + q as f64, 0.3, -0.5), q);
        }
        for q in 1..6 {
            sv.apply_cx_fast(q - 1, q);
            sv.apply_rz_fast(0.2 * q as f64, q);
        }
        sv
    }

    /// Low, high and adjacent qubit positions, each in both argument orders.
    const PAIRS: [(usize, usize); 6] = [(0, 1), (1, 0), (4, 5), (5, 4), (1, 4), (4, 1)];

    fn bits(amps: &[C64]) -> Vec<(u64, u64)> {
        let of = |z: &C64| (z.re.to_bits(), z.im.to_bits());
        amps.iter().map(of).collect()
    }

    /// The kernel `mono_sweep` specialises: the sources gathered through a
    /// runtime index, as `fast_apply_2q_mono` did before it dispatched on
    /// the permutation.
    fn mono_by_runtime_gather(amps: &mut [C64], d: &[C64; 4], src: &[u8; 4], q0: usize, q1: usize) {
        let (b0, b1) = (1usize << q0, 1usize << q1);
        let (lo, hi) = (q0.min(q1), q0.max(q1));
        for p in 0..amps.len() >> 2 {
            let i00 = expand(expand(p, lo), hi);
            let idx = [i00, i00 | b0, i00 | b1, i00 | b0 | b1];
            let a = src.map(|s| amps[idx[s as usize]]);
            for k in 0..4 {
                amps[idx[k]] = d[k] * a[k];
            }
        }
    }

    #[test]
    fn all_24_specialised_monomial_sweeps_equal_the_runtime_gather_bitwise() {
        let d = [C64::cis(0.3), C64::cis(-1.1), C64::I, C64::new(0.6, -0.8)];
        let mut seen = 0;
        for code in 0..256u32 {
            let src = [code & 3, code >> 2 & 3, code >> 4 & 3, code >> 6].map(|s| s as u8);
            if (0..4).any(|k| !src.contains(&k)) {
                continue;
            }
            seen += 1;
            for (q0, q1) in PAIRS {
                let mut fast = scrambled();
                let mut oracle = fast.clone();
                fast.apply_op(&FusedOp::Mono(d, src, q0, q1));
                mono_by_runtime_gather(oracle.amps_mut(), &d, &src, q0, q1);
                assert_eq!(
                    bits(fast.amplitudes()),
                    bits(oracle.amplitudes()),
                    "{src:?} on ({q0}, {q1})"
                );
            }
        }
        assert_eq!(seen, 24);
    }

    /// `u ⊗ v` on the basis `|q1 q0⟩`: `v` acts on the low bit.
    fn kron(u: &Mat2, v: &Mat2) -> Mat4 {
        let mut out = [[C64::ZERO; 4]; 4];
        for r in 0..4 {
            for c in 0..4 {
                out[r][c] = u[r >> 1][c >> 1] * v[r & 1][c & 1];
            }
        }
        out
    }

    /// Both sweeps of `u` on every pair of [`PAIRS`]: `==` on every
    /// component (an exact zero may change sign), the probabilities bitwise.
    fn assert_two_term_equals_dense(u: &Mat4) {
        let cols = two_per_row(u).expect("two structural non-zeros per row");
        for (q0, q1) in PAIRS {
            let mut two_term = scrambled();
            // Exact zeros, of both signs, where the dropped terms matter.
            two_term.amps_mut()[5] = C64::ZERO;
            two_term.amps_mut()[6] = C64::new(-0.0, 0.0);
            two_term.amps_mut()[40] = C64::new(0.0, -0.0);
            let mut dense = two_term.clone();
            let mut via_op = two_term.clone();
            fast_apply_2q_two_term(two_term.amps_mut(), u, &cols, q0, q1);
            fast_apply_2q(dense.amps_mut(), u, q0, q1);
            via_op.apply_op(&FusedOp::Two(*u, q0, q1));
            assert_eq!(
                bits(via_op.amplitudes()),
                bits(two_term.amplitudes()),
                "apply_op takes the two-term sweep"
            );
            for (x, y) in two_term.amplitudes().iter().zip(dense.amplitudes()) {
                assert!(x.re == y.re && x.im == y.im, "{x} vs {y} on ({q0}, {q1})");
            }
            let of = |sv: &StateVector| {
                sv.probabilities()
                    .iter()
                    .map(|p| p.to_bits())
                    .collect::<Vec<_>>()
            };
            assert_eq!(of(&two_term), of(&dense), "({q0}, {q1})");
        }
    }

    #[test]
    fn two_term_sweep_equals_the_dense_sweep_on_half_sparse_blocks() {
        let u = gates::u3(0.9, -0.4, 1.3);
        let d = [C64::cis(0.3), C64::cis(-0.3), C64::cis(-0.3), C64::cis(0.3)];
        for src in [[0u8, 1, 2, 3], [0, 2, 1, 3], [0, 3, 2, 1], [2, 0, 3, 1]] {
            // The mixer folded into a ZZ or SWAP block, on either wire, as
            // fusion builds it: `(I⊗u)·Mono` and `(u⊗I)·Mono`.
            for wire in [0, 1] {
                let ops = [FusedOp::Mono(d, src, 0, 1), FusedOp::One(u, wire)];
                match fuse::fuse(2, ops)[..] {
                    [FusedOp::Two(m, 0, 1)] => assert_two_term_equals_dense(&m),
                    ref fused => panic!("expected one dense block, got {fused:?}"),
                }
            }
        }
        // Any two columns per row, rows unrelated (need not be unitary).
        let mut next = 0.1f64;
        for choice in 0..36 {
            let picks = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
            let mut m = [[C64::ZERO; 4]; 4];
            for (r, row) in m.iter_mut().enumerate() {
                let (c0, c1) = picks[(choice + r * (1 + choice / 6)) % 6];
                for c in [c0, c1] {
                    next = (next * 7.3 + 0.37).fract();
                    row[c] = C64::new(next - 0.5, 0.8 - next);
                }
            }
            assert_two_term_equals_dense(&m);
        }
    }

    /// A complex number with both parts uniform in `[-1, 1)`.
    fn random_c64(rng: &mut StdRng) -> C64 {
        C64::new(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0))
    }

    /// A random unit-norm state of `width` qubits, with a few exact zeros
    /// of either sign among its amplitudes.
    fn random_state(rng: &mut StdRng, width: usize) -> Vec<C64> {
        let mut amps: Vec<C64> = (0..1usize << width).map(|_| random_c64(rng)).collect();
        let norm = amps.iter().map(|a| a.norm_sq()).sum::<f64>().sqrt();
        amps.iter_mut().for_each(|a| *a = *a * (1.0 / norm));
        for zero in [C64::ZERO, C64::new(-0.0, 0.0), C64::new(0.0, -0.0)] {
            let at = rng.random_range(0..amps.len());
            amps[at] = zero;
        }
        amps
    }

    /// Every kernel [`sweep`] reaches, on random distinct qubits below
    /// `width`: a 1q block, a dense and a two-term 2q block, CX, RZ, and a
    /// monomial block for each of the 24 source permutations.
    fn every_kernel(rng: &mut StdRng, width: usize) -> Vec<FusedOp> {
        let pair = |rng: &mut StdRng| {
            let q0 = rng.random_range(0..width);
            (q0, (q0 + rng.random_range(1..width)) % width)
        };
        fn mat<const N: usize>(rng: &mut StdRng) -> [C64; N] {
            std::array::from_fn(|_| random_c64(rng))
        }
        let ((a, b), (c, d), (e, f)) = (pair(rng), pair(rng), pair(rng));
        let mut two_term = [[C64::ZERO; 4]; 4];
        for row in &mut two_term {
            let c0 = rng.random_range(0..4);
            row[c0] = random_c64(rng);
            row[(c0 + rng.random_range(1..4)) % 4] = random_c64(rng);
        }
        assert!(two_per_row(&two_term).is_some());
        let mut ops = vec![
            FusedOp::One([mat(rng), mat(rng)], a),
            FusedOp::Two([mat(rng), mat(rng), mat(rng), mat(rng)], b, a),
            FusedOp::Two(two_term, e, f),
            FusedOp::Cx(c, d),
            FusedOp::Rz(rng.random_range(-3.2..3.2), d),
        ];
        for code in 0..256u32 {
            let src = [code & 3, code >> 2 & 3, code >> 4 & 3, code >> 6].map(|s| s as u8);
            if (0..4).all(|k| src.contains(&k)) {
                let (q0, q1) = pair(rng);
                ops.push(FusedOp::Mono(mat(rng), src, q0, q1));
            }
        }
        ops
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// The AVX2 build of the sweeps leaves every amplitude bit the
        /// baseline build leaves. [`sweep`] is called as compiled into the
        /// test (baseline), [`sweep_fastest`] on an AVX2 host is
        /// [`sweep_avx2`]; without AVX2 there is nothing to compare. The
        /// fast-vs-`reference` suites pin what both builds compute.
        #[test]
        fn sv_avx2_build_is_bitwise_the_baseline_build(seed in 0..u64::MAX) {
            if crate::sweep_build() != "avx2" {
                println!("skipped: this CPU has no AVX2, so only the baseline build runs");
                return;
            }
            let mut rng = StdRng::seed_from_u64(seed);
            for width in 2..=10 {
                let start = random_state(&mut rng, width);
                for op in every_kernel(&mut rng, width) {
                    let mut baseline = start.clone();
                    let mut avx2 = start.clone();
                    sweep(&mut baseline, &op);
                    sweep_fastest(&mut avx2, &op);
                    proptest::prop_assert_eq!(bits(&avx2), bits(&baseline), "{:?} at width {}", op, width);
                }
            }
        }
    }

    #[test]
    fn rows_of_one_three_or_four_non_zeros_take_the_dense_sweep() {
        let mut three = kron(&gates::h(), &gates::h());
        for r in 0..4 {
            three[r][3 - r] = C64::ZERO;
        }
        let mut mixed = kron(&gates::h(), &gates::h());
        (mixed[0][1], mixed[0][2]) = (C64::ZERO, C64::ZERO);
        let dense = kron(&gates::u3(0.9, -0.4, 1.3), &gates::ry(0.7));
        for u in [gates::cx(), gates::rzz(0.9), three, mixed, dense] {
            assert!(two_per_row(&u).is_none());
            for (q0, q1) in PAIRS {
                let mut fast = scrambled();
                let mut seed = fast.clone();
                fast.apply_op(&FusedOp::Two(u, q0, q1));
                reference::sv_apply_2q(&mut seed, &u, q0, q1);
                assert_eq!(
                    bits(fast.amplitudes()),
                    bits(seed.amplitudes()),
                    "({q0}, {q1})"
                );
            }
        }
    }
}
