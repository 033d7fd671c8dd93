//! Gate fusion: collapsing adjacent gates into fewer amplitude sweeps.
//!
//! The pass consumes a linear op sequence (the lowering of a bound circuit)
//! and greedily merges, in a single left-to-right scan:
//!
//! - **1q runs** — consecutive single-qubit ops on the same wire multiply
//!   into one [`Mat2`] (pure-RZ runs stay symbolic and just add angles, so
//!   the diagonal fast path survives);
//! - **1q × 2q adjacency** — a single-qubit op next to a CX/two-qubit op on
//!   one of its wires folds into the 4×4 matrix (identity-embedded on the
//!   untouched wire), in both directions: trailing 1q ops fold into the
//!   preceding 2q op, and pending lone 1q ops are absorbed by the next 2q op
//!   that consumes their wire;
//! - **2q runs on the same pair** — consecutive two-qubit ops on the same
//!   unordered qubit pair multiply into one [`Mat4`] (this collapses the
//!   transpiler's `cx·rz·cx` ZZ-interaction blocks and 3-CX SWAP
//!   decompositions into a single sweep).
//!
//! A merge is legal exactly when no intervening op touches the wire being
//! folded: ops on disjoint wires commute, so folding past them preserves
//! the circuit's operator product. The pass tracks, per wire, the slot of
//! the last live op touching it; an op is a fusion candidate only if it is
//! still the *latest* op on every wire involved. Legality thus depends on
//! wires alone, never on matrices: the scan can also report which output
//! block each input op ended in (`fuse_traced`), and re-fusing one block's
//! ops with extra 1q gates on their own wires — what a trajectory's fired
//! Paulis are — changes that block's matrix and nothing else of the plan.
//!
//! The scan (`Scan`) is written once and serves both simulator paths: it
//! decides *where* an op lands, and a `Slot` rule decides what landing does.
//! `FusedOp` is the rule above; [`crate::noisy`]'s density compile is the
//! other, so a noisy program's sweeps fall exactly where this pass's blocks
//! do.
//!
//! Fusion multiplies gate matrices, which reorders floating-point
//! operations: fused evolution matches unfused evolution to ≤ 1e-12
//! max-norm (pinned by the kernel-equivalence suite), not bit-for-bit.
//! Sequences the pass leaves untouched execute bit-identically to
//! [`crate::reference`].

use crate::gates::{self, mat2_mul, Mat2, Mat4};
use crate::math::C64;
use std::borrow::Borrow;

/// One simulator instruction: the common currency between circuit lowering,
/// the fusion pass, and [`crate::statevector::StateVector::apply_ops`].
///
/// `Cx` and `Rz` stay symbolic (instead of eagerly becoming matrices) so
/// unfusable occurrences still take their cheap dedicated kernels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FusedOp {
    /// A single-qubit unitary on a qubit.
    One(Mat2, usize),
    /// A two-qubit unitary on `(q0, q1)`, acting on the basis `|q1 q0⟩`.
    Two(Mat4, usize, usize),
    /// CNOT with control `c`, target `t`.
    Cx(usize, usize),
    /// RZ(θ) on a qubit.
    Rz(f64, usize),
    /// A *monomial* (permutation-with-phases) two-qubit block on `(q0, q1)`:
    /// pair basis state `|k⟩` is produced from source state `src[k]` with a
    /// single phase, `out[k] = d[k] · in[src[k]]`. The fusion pass detects
    /// this structure in its output — transpiled SWAP chains and
    /// `cx·rz·cx` ZZ blocks collapse to it (diagonal blocks are the
    /// `src[k] == k` case) — and the statevector kernel then does 4 complex
    /// multiplies per quartet instead of a dense 16-term `Mat4` apply.
    Mono([C64; 4], [u8; 4], usize, usize),
}

impl FusedOp {
    /// Validates operands against the register size, failing closed.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range or coinciding qubits.
    pub fn validate(&self, n_qubits: usize) {
        match *self {
            FusedOp::One(_, q) | FusedOp::Rz(_, q) => {
                assert!(q < n_qubits, "qubit {q} out of range");
            }
            FusedOp::Two(_, a, b) | FusedOp::Cx(a, b) => {
                assert!(a != b, "two-qubit op needs distinct qubits");
                assert!(a < n_qubits && b < n_qubits, "qubit out of range");
            }
            FusedOp::Mono(_, src, a, b) => {
                assert!(a != b, "two-qubit op needs distinct qubits");
                assert!(a < n_qubits && b < n_qubits, "qubit out of range");
                let mut seen = [false; 4];
                for &s in &src {
                    assert!(s < 4, "monomial source index {s} out of range");
                    seen[s as usize] = true;
                }
                assert!(
                    seen.iter().all(|&v| v),
                    "monomial sources must permute the pair basis"
                );
            }
        }
    }

    /// The single-qubit matrix of a 1q variant.
    pub(crate) fn mat2(&self) -> Option<Mat2> {
        match *self {
            FusedOp::One(u, _) => Some(u),
            FusedOp::Rz(theta, _) => Some(gates::rz(theta)),
            _ => None,
        }
    }

    /// The operands of a 2q variant, in its own order.
    pub(crate) fn pair(&self) -> Option<[usize; 2]> {
        match *self {
            FusedOp::Two(_, a, b) | FusedOp::Cx(a, b) | FusedOp::Mono(_, _, a, b) => Some([a, b]),
            _ => None,
        }
    }

    /// The matrix of a 2q variant on the basis `|q1 q0⟩` of its pair, taken
    /// with `q0` as the first qubit.
    pub(crate) fn mat4_on(&self, q0: usize) -> Mat4 {
        let (u, first) = match *self {
            FusedOp::Two(u, a, _) => (u, a),
            FusedOp::Cx(c, _) => (gates::cx(), c),
            FusedOp::Mono(d, src, a, _) => (mono_to_mat4(&d, &src), a),
            _ => unreachable!("a 1q op has no 4×4 matrix"),
        };
        if first == q0 {
            u
        } else {
            mat4_swap_order(&u)
        }
    }
}

/// Expands a monomial block back into its dense `Mat4` (row `k` has its
/// single nonzero `d[k]` in column `src[k]`).
pub fn mono_to_mat4(d: &[C64; 4], src: &[u8; 4]) -> Mat4 {
    let mut out = [[C64::ZERO; 4]; 4];
    for k in 0..4 {
        out[k][src[k] as usize] = d[k];
    }
    out
}

/// Detects monomial structure: exactly one nonzero per row, the nonzero
/// columns forming a permutation. Zero-tests are exact (`== 0.0`), so only
/// *structural* zeros — entries every contributing product vanished for —
/// qualify; the classification is deterministic, never a rounding judgment.
fn monomial_structure(u: &Mat4) -> Option<([C64; 4], [u8; 4])> {
    let mut d = [C64::ZERO; 4];
    let mut src = [0u8; 4];
    let mut used = [false; 4];
    for r in 0..4 {
        let mut nonzero = None;
        for c in 0..4 {
            if u[r][c].re != 0.0 || u[r][c].im != 0.0 {
                if nonzero.is_some() {
                    return None;
                }
                nonzero = Some(c);
            }
        }
        let c = nonzero?;
        if used[c] {
            return None;
        }
        used[c] = true;
        d[r] = u[r][c];
        src[r] = c as u8;
    }
    Some((d, src))
}

/// 4×4 matrix product `a · b` (apply `b` first, then `a`).
fn mat4_mul(a: &Mat4, b: &Mat4) -> Mat4 {
    let mut out = [[C64::ZERO; 4]; 4];
    for (r, row) in out.iter_mut().enumerate() {
        for (c, v) in row.iter_mut().enumerate() {
            *v = a[r][0] * b[0][c] + a[r][1] * b[1][c] + a[r][2] * b[2][c] + a[r][3] * b[3][c];
        }
    }
    out
}

/// Re-expresses a 2q matrix given for qubit order `(a, b)` in the order
/// `(b, a)`: conjugation by the basis-bit swap (index bits 0 ↔ 1).
fn mat4_swap_order(m: &Mat4) -> Mat4 {
    const P: [usize; 4] = [0, 2, 1, 3];
    let mut out = [[C64::ZERO; 4]; 4];
    for r in 0..4 {
        for c in 0..4 {
            out[r][c] = m[P[r]][P[c]];
        }
    }
    out
}

/// Embeds a 1q matrix acting on the *low* basis bit (`q0`): `I ⊗ u`.
fn embed_low(u: &Mat2) -> Mat4 {
    let mut out = [[C64::ZERO; 4]; 4];
    for r in 0..4 {
        for c in 0..4 {
            if r >> 1 == c >> 1 {
                out[r][c] = u[r & 1][c & 1];
            }
        }
    }
    out
}

/// Embeds a 1q matrix acting on the *high* basis bit (`q1`): `u ⊗ I`.
fn embed_high(u: &Mat2) -> Mat4 {
    let mut out = [[C64::ZERO; 4]; 4];
    for r in 0..4 {
        for c in 0..4 {
            if r & 1 == c & 1 {
                out[r][c] = u[r >> 1][c >> 1];
            }
        }
    }
    out
}

/// Embeds `u` on wire `q` of the ordered pair `(q0, q1)`.
fn embed_on(u: &Mat2, q: usize, q0: usize, q1: usize) -> Mat4 {
    debug_assert!(q == q0 || q == q1);
    if q == q0 {
        embed_low(u)
    } else {
        embed_high(u)
    }
}

/// Fuses an op sequence for an `n_qubits` register (see the module docs for
/// the merge rules). The output applies the same operator product as the
/// input, in far fewer sweeps on transpiled circuits.
///
/// # Panics
///
/// Panics (fail-closed) if any op references an out-of-range qubit or a
/// two-qubit op with coinciding qubits.
pub fn fuse(n_qubits: usize, ops: impl IntoIterator<Item = FusedOp>) -> Vec<FusedOp> {
    fuse_traced(n_qubits, ops).0
}

/// [`fuse`], plus for every input op the index of the output block it ended
/// in. A block's *members* (the ops it owns, in input order) fused alone
/// reproduce it bit for bit: their wires lie inside the block's, and the
/// scan multiplied exactly those matrices in exactly that order.
pub(crate) fn fuse_traced(
    n_qubits: usize,
    ops: impl IntoIterator<Item = FusedOp>,
) -> (Vec<FusedOp>, Vec<u32>) {
    let _prof = qoncord_prof::span("sim::fuse::plan");
    let mut scan = Scan::<FusedOp>::new(n_qubits);
    let mut owners: Vec<u32> = ops.into_iter().map(|op| scan.push(op) as u32).collect();
    // Final classification: merged blocks that came out monomial (SWAP
    // chains, ZZ-interaction blocks, and their products with RZ runs) take
    // the cheap permutation-with-phases kernel instead of a dense sweep.
    let mut blocks = Vec::new();
    let mut block_of_slot = vec![0u32; scan.slots.len()];
    for (slot, index) in scan.slots.iter().zip(&mut block_of_slot) {
        if let Some(op) = *slot {
            *index = blocks.len() as u32;
            blocks.push(match op {
                FusedOp::Two(u, a, b) => match monomial_structure(&u) {
                    Some((d, src)) => FusedOp::Mono(d, src, a, b),
                    None => op,
                },
                _ => op,
            });
        }
    }
    // A 2q slot is never absorbed, so one hop reaches a live slot.
    for (tombstone, by) in scan.absorbed {
        block_of_slot[tombstone] = block_of_slot[by];
    }
    for owner in &mut owners {
        *owner = block_of_slot[*owner as usize];
    }
    (blocks, owners)
}

/// What landing in a [`Scan`] slot does to it. The scan decides *where* an op
/// lands, from wires alone; the slot type decides what a fold computes.
///
/// Ops and lone slots come by reference: a `FusedOp` is 280 bytes, and
/// moving them down each call made the density compile ~35 % slower.
pub(crate) trait Slot: Clone {
    /// What the scan feeds the rule: an op, plus whatever the rule keeps
    /// about it. The scan reads the wires of the borrowed [`FusedOp`] only.
    type Op: Borrow<FusedOp>;

    /// A slot for a 1q op on a wire no slot touches yet.
    fn open_1q(op: &Self::Op) -> Self;

    /// A slot for a 2q op no slot is the latest on both wires of. `lone[i]`
    /// is the lone slot pending on the op's `i`-th qubit: nothing after it
    /// touches that wire, so it commutes forward and the new slot takes it
    /// over (the scan leaves a tombstone in its place).
    fn open_2q(op: &Self::Op, lone: [Option<&Self>; 2]) -> Self;

    /// Whether the slot acts on one wire only.
    fn is_lone(&self) -> bool;

    /// Appends `op`, which acts inside the slot's wires and of which the
    /// slot is the latest on every wire: a 1q op into any slot, a 2q op
    /// into one on its pair.
    fn fold(&mut self, op: &Self::Op);
}

/// The wire-tracking scan: ops go in one at a time and collect in slots, each
/// a sweep under construction. A slot takes an op exactly when it is still
/// the latest slot on every wire the op touches, so the scan can stop
/// anywhere, be copied ([`Scan::fork`]) and carry on.
pub(crate) struct Scan<S> {
    /// Program-order index of `slots[0]`: a fork leaves behind the slots no
    /// later op can reach.
    base: usize,
    /// Slots in program order; a lone slot a 2q op took over leaves a `None`
    /// tombstone.
    slots: Vec<Option<S>>,
    /// Latest live slot touching each wire, by program-order index.
    last: Vec<Option<usize>>,
    /// Lowest program-order index of a slot an op was folded into, or that
    /// was taken over, since the scan was made.
    pub(crate) touched: usize,
    /// `(tombstone, slot that took it over)`, by program-order index, since
    /// the scan was made.
    absorbed: Vec<(usize, usize)>,
}

impl<S: Slot> Scan<S> {
    pub(crate) fn new(n_qubits: usize) -> Self {
        Scan {
            base: 0,
            slots: Vec::new(),
            last: vec![None; n_qubits],
            touched: usize::MAX,
            absorbed: Vec::new(),
        }
    }

    /// A copy that takes further ops without changing `self`. Only the
    /// latest slot on a wire ever changes again, so the copy starts at the
    /// earliest of those.
    pub(crate) fn fork(&self) -> Self {
        let base = self.last.iter().flatten().copied().min();
        let base = base.unwrap_or(self.end());
        Scan {
            base,
            slots: self.slots[base - self.base..].to_vec(),
            last: self.last.clone(),
            touched: usize::MAX,
            absorbed: Vec::new(),
        }
    }

    /// Program-order index the next new slot gets.
    pub(crate) fn end(&self) -> usize {
        self.base + self.slots.len()
    }

    /// The live slots with program-order indices in `range`, in order.
    pub(crate) fn live(&self, range: std::ops::Range<usize>) -> impl Iterator<Item = &S> {
        self.slots[range.start - self.base..range.end - self.base]
            .iter()
            .flatten()
    }

    /// Lands `op` in a slot and returns that slot's program-order index.
    ///
    /// # Panics
    ///
    /// Panics (fail-closed) on an out-of-range or coinciding operand.
    pub(crate) fn push(&mut self, op: S::Op) -> usize {
        let fused: &FusedOp = op.borrow();
        fused.validate(self.last.len());
        let end = self.end();
        let [a, b] = match *fused {
            FusedOp::One(_, q) | FusedOp::Rz(_, q) => {
                if let Some(j) = self.last[q] {
                    return self.fold(j, &op);
                }
                self.last[q] = Some(end);
                self.slots.push(Some(S::open_1q(&op)));
                return end;
            }
            FusedOp::Two(_, a, b) | FusedOp::Cx(a, b) | FusedOp::Mono(_, _, a, b) => [a, b],
        };
        // A slot latest on both wires touches both, so it is on this pair.
        if let (Some(j), true) = (self.last[a], self.last[a] == self.last[b]) {
            return self.fold(j, &op);
        }
        let lone = [a, b].map(|q| {
            self.last[q].filter(|&k| self.slots[k - self.base].as_ref().is_some_and(S::is_lone))
        });
        let slot = S::open_2q(
            &op,
            lone.map(|k| k.and_then(|k| self.slots[k - self.base].as_ref())),
        );
        for k in lone.into_iter().flatten() {
            self.touched = self.touched.min(k);
            self.absorbed.push((k, end));
            self.slots[k - self.base] = None;
        }
        self.last[a] = Some(end);
        self.last[b] = Some(end);
        self.slots.push(Some(slot));
        end
    }

    /// Folds `op` into the slot at program-order index `j`, the latest on
    /// every wire `op` touches, so the fold keeps program order.
    fn fold(&mut self, j: usize, op: &S::Op) -> usize {
        self.touched = self.touched.min(j);
        let slot = self.slots[j - self.base].as_mut();
        slot.expect("last[] points at a live slot").fold(op);
        j
    }
}

/// Fusion's rule: a slot is the product of its ops' matrices.
impl Slot for FusedOp {
    type Op = FusedOp;

    fn open_1q(op: &FusedOp) -> Self {
        *op
    }

    /// Each lone op becomes a right matrix factor of the 2q op.
    fn open_2q(op: &FusedOp, lone: [Option<&Self>; 2]) -> Self {
        let [a, b] = op.pair().expect("2q op");
        let mut fused: Option<Mat4> = None;
        for (x, pending) in [a, b].into_iter().zip(lone) {
            if let Some(u) = pending.and_then(|p| p.mat2()) {
                let m = fused.get_or_insert_with(|| op.mat4_on(a));
                *m = mat4_mul(m, &embed_on(&u, x, a, b));
            }
        }
        match fused {
            Some(m) => FusedOp::Two(m, a, b),
            None => *op,
        }
    }

    fn is_lone(&self) -> bool {
        self.mat2().is_some()
    }

    /// `op` becomes a left matrix factor; pure-RZ runs stay symbolic.
    fn fold(&mut self, op: &FusedOp) {
        let prev = &*self;
        *self = match (prev, op) {
            (&FusedOp::Rz(a, q), &FusedOp::Rz(b, _)) => FusedOp::Rz(a + b, q),
            (_, &(FusedOp::One(_, q) | FusedOp::Rz(_, q))) => {
                let u = op.mat2().expect("1q op");
                match prev.pair() {
                    None => FusedOp::One(mat2_mul(&u, &prev.mat2().expect("1q op")), q),
                    Some([a, b]) => {
                        FusedOp::Two(mat4_mul(&embed_on(&u, q, a, b), &prev.mat4_on(a)), a, b)
                    }
                }
            }
            _ => {
                let [x, y] = prev.pair().expect("a 2q op folds into a 2q slot");
                FusedOp::Two(mat4_mul(&op.mat4_on(x), &prev.mat4_on(x)), x, y)
            }
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statevector::StateVector;

    /// Applies ops one by one through the scalar reference kernels.
    fn apply_reference(n: usize, ops: &[FusedOp]) -> StateVector {
        let mut sv = StateVector::zero_state(n);
        for op in ops {
            crate::reference::sv_apply_op(&mut sv, op);
        }
        sv
    }

    fn apply_fused(n: usize, ops: Vec<FusedOp>) -> (StateVector, usize) {
        let fused = fuse(n, ops);
        let mut sv = StateVector::zero_state(n);
        sv.apply_ops(&fused);
        (sv, fused.len())
    }

    fn assert_close(a: &StateVector, b: &StateVector) {
        for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
            assert!(x.approx_eq(*y, 1e-12), "{x} vs {y}");
        }
    }

    #[test]
    fn single_wire_run_collapses_to_one_op() {
        let ops = vec![
            FusedOp::One(gates::h(), 0),
            FusedOp::Rz(0.3, 0),
            FusedOp::One(gates::sx(), 0),
            FusedOp::Rz(-1.1, 0),
        ];
        let reference = apply_reference(1, &ops);
        let (fused, n_ops) = apply_fused(1, ops);
        assert_eq!(n_ops, 1);
        assert_close(&fused, &reference);
    }

    #[test]
    fn pure_rz_runs_stay_symbolic() {
        let fused = fuse(2, vec![FusedOp::Rz(0.25, 1), FusedOp::Rz(0.5, 1)]);
        assert_eq!(fused, vec![FusedOp::Rz(0.75, 1)]);
    }

    #[test]
    fn zz_block_becomes_one_sweep() {
        // The transpiler's RZZ lowering: cx · rz(t) · cx, with the H layer
        // absorbed from both wires and the mixer folded in after.
        let ops = vec![
            FusedOp::One(gates::h(), 0),
            FusedOp::One(gates::h(), 1),
            FusedOp::Cx(0, 1),
            FusedOp::Rz(0.7, 1),
            FusedOp::Cx(0, 1),
            FusedOp::One(gates::sx(), 0),
        ];
        let reference = apply_reference(2, &ops);
        let (fused, n_ops) = apply_fused(2, ops);
        assert_eq!(n_ops, 1, "H layer, ZZ block, and mixer all fold together");
        assert_close(&fused, &reference);
    }

    #[test]
    fn swap_decomposition_collapses() {
        // Three alternating CX = SWAP; the same unordered pair merges across
        // argument order.
        let ops = vec![FusedOp::Cx(2, 0), FusedOp::Cx(0, 2), FusedOp::Cx(2, 0)];
        let mut seed = StateVector::zero_state(3);
        crate::reference::sv_apply_1q(&mut seed, &gates::h(), 0);
        crate::reference::sv_apply_1q(&mut seed, &gates::ry(0.4), 2);
        let mut reference = seed.clone();
        for op in &ops {
            if let FusedOp::Cx(c, t) = *op {
                crate::reference::sv_apply_cx(&mut reference, c, t);
            }
        }
        let fused = fuse(3, ops);
        assert_eq!(fused.len(), 1);
        assert!(
            matches!(fused[0], FusedOp::Mono(..)),
            "a SWAP is a pure basis permutation and must classify as Mono"
        );
        let mut fast = seed;
        fast.apply_ops(&fused);
        assert_close(&fast, &reference);
    }

    #[test]
    fn bare_zz_block_classifies_as_diagonal_mono() {
        // cx · rz · cx with no dense 1q absorption is diagonal: the
        // classification pass must emit a Mono with the identity source
        // permutation (src[k] == k).
        let ops = vec![FusedOp::Cx(0, 1), FusedOp::Rz(0.7, 1), FusedOp::Cx(0, 1)];
        let reference = apply_reference(2, &ops);
        let fused = fuse(2, ops);
        assert_eq!(fused.len(), 1);
        match fused[0] {
            FusedOp::Mono(_, src, _, _) => assert_eq!(src, [0, 1, 2, 3], "ZZ block is diagonal"),
            ref op => panic!("expected Mono, got {op:?}"),
        }
        let mut fast = StateVector::zero_state(2);
        fast.apply_ops(&fused);
        assert_close(&fast, &reference);
    }

    #[test]
    fn mono_matrix_round_trips_through_classification() {
        let d = [
            C64::new(0.6, 0.8),
            C64::new(0.0, 1.0),
            C64::new(-1.0, 0.0),
            C64::new(0.8, -0.6),
        ];
        let src = [2u8, 0, 3, 1];
        let recovered = monomial_structure(&mono_to_mat4(&d, &src))
            .expect("a monomial matrix must classify as monomial");
        assert_eq!(recovered.1, src);
        for (a, b) in recovered.0.iter().zip(&d) {
            assert_eq!(a, b, "phases survive the round trip exactly");
        }
    }

    #[test]
    fn dense_block_does_not_classify_as_mono() {
        // An H⊗I embedding has two nonzeros per row: never monomial.
        assert!(monomial_structure(&embed_on(&gates::h(), 0, 0, 1)).is_none());
    }

    #[test]
    #[should_panic(expected = "permute")]
    fn mono_with_duplicate_sources_fails_closed() {
        let d = [C64::ONE; 4];
        FusedOp::Mono(d, [0, 0, 2, 3], 0, 1).validate(2);
    }

    #[test]
    fn disjoint_wires_pass_through_untouched() {
        let ops = vec![
            FusedOp::One(gates::h(), 0),
            FusedOp::One(gates::h(), 1),
            FusedOp::Cx(2, 3),
        ];
        let fused = fuse(4, ops.clone());
        assert_eq!(fused, ops);
    }

    #[test]
    fn one_q_after_two_q_folds_back() {
        let ops = vec![
            FusedOp::Two(gates::rzz(0.9), 1, 0),
            FusedOp::One(gates::t(), 0),
            FusedOp::Rz(0.2, 1),
        ];
        let mut seed = StateVector::zero_state(2);
        crate::reference::sv_apply_1q(&mut seed, &gates::h(), 0);
        crate::reference::sv_apply_1q(&mut seed, &gates::h(), 1);
        let mut reference = seed.clone();
        for op in &ops {
            match *op {
                FusedOp::Two(u, a, b) => crate::reference::sv_apply_2q(&mut reference, &u, a, b),
                FusedOp::One(u, q) => crate::reference::sv_apply_1q(&mut reference, &u, q),
                FusedOp::Rz(th, q) => crate::reference::sv_apply_rz(&mut reference, th, q),
                _ => unreachable!(),
            }
        }
        let fused = fuse(2, ops);
        assert_eq!(fused.len(), 1);
        let mut fast = seed;
        fast.apply_ops(&fused);
        assert_close(&fast, &reference);
    }

    #[test]
    fn interleaved_other_wire_blocks_merge_on_shared_wire_only() {
        // The 1q ops on wire 0 merge (nothing between them touches wire 0);
        // the CX on disjoint wires stays separate.
        let ops = vec![
            FusedOp::One(gates::h(), 0),
            FusedOp::Cx(1, 2),
            FusedOp::One(gates::t(), 0),
        ];
        let reference = apply_reference(3, &ops);
        let (fused, n_ops) = apply_fused(3, ops);
        assert_eq!(n_ops, 2);
        assert_close(&fused, &reference);
    }

    #[test]
    fn pending_1q_absorbed_by_half_overlapping_cx_chain() {
        // Cx(0,1) then Cx(1,2): different pairs, so no 2q merge — but the
        // pending H(2) is absorbed by the second CX.
        let ops = vec![
            FusedOp::One(gates::h(), 2),
            FusedOp::Cx(0, 1),
            FusedOp::Cx(1, 2),
        ];
        let reference = apply_reference(3, &ops);
        let (fused, n_ops) = apply_fused(3, ops);
        assert_eq!(n_ops, 2);
        assert_close(&fused, &reference);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_qubit_fails_closed() {
        fuse(2, vec![FusedOp::Rz(0.1, 5)]);
    }

    #[test]
    #[should_panic(expected = "distinct qubits")]
    fn coinciding_two_qubit_operands_fail_closed() {
        fuse(3, vec![FusedOp::Cx(1, 1)]);
    }

    fn qubits(op: &FusedOp) -> Vec<usize> {
        match *op {
            FusedOp::One(_, q) | FusedOp::Rz(_, q) => vec![q],
            FusedOp::Two(_, a, b) | FusedOp::Cx(a, b) | FusedOp::Mono(_, _, a, b) => vec![a, b],
        }
    }

    /// `Debug` prints an `f64` so that it round-trips, `-0.0` included, so
    /// equal strings are equal bits.
    fn bits(ops: &[FusedOp]) -> String {
        format!("{ops:?}")
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The traced scan over random op lists with every variant in both
        /// qubit orders: `owners` has one entry per input op, every block
        /// owns at least one, a block's members — fused alone, in input
        /// order — reproduce it bitwise, and they act inside its wires. The
        /// density compile's rule places the ops in as many sweeps.
        #[test]
        fn members_fused_alone_reproduce_their_block(
            program in proptest::collection::vec((0u8..9, 0..5usize, 0..5usize, -3.2..3.2f64), 0..60),
        ) {
            for n in [2usize, 3, 5] {
                let ops: Vec<FusedOp> = program
                    .iter()
                    .map(|&(op, a, b, angle)| {
                        let (a, b) = (a % n, b % n);
                        let b = if a == b { (a + 1) % n } else { b };
                        match op {
                            0 => FusedOp::One(gates::h(), a),
                            1 => FusedOp::One(gates::u3(angle, 0.4, -1.1), a),
                            2 | 3 => FusedOp::Rz(angle, a),
                            4..=6 => FusedOp::Cx(a, b),
                            7 => FusedOp::Two(gates::crz(angle), a, b),
                            _ => FusedOp::Mono(
                                [C64::cis(angle), C64::I, C64::cis(-angle), C64::ONE],
                                [2, 0, 3, 1],
                                a,
                                b,
                            ),
                        }
                    })
                    .collect();
                let (blocks, owners) = fuse_traced(n, ops.iter().copied());
                proptest::prop_assert_eq!(bits(&fuse(n, ops.iter().copied())), bits(&blocks));
                proptest::prop_assert_eq!(owners.len(), ops.len());
                let density = crate::noisy::DensityProgram::compile(n, ops.iter().copied(), 0.004, 0.03);
                proptest::prop_assert_eq!(density.sweeps(), blocks.len());
                proptest::prop_assert!(owners.iter().all(|&b| (b as usize) < blocks.len()));
                for (b, block) in blocks.iter().enumerate() {
                    let members: Vec<FusedOp> = ops
                        .iter()
                        .zip(&owners)
                        .filter(|(_, &owner)| owner as usize == b)
                        .map(|(op, _)| *op)
                        .collect();
                    proptest::prop_assert!(!members.is_empty(), "block {b} owns no op");
                    proptest::prop_assert_eq!(bits(&fuse(n, members.iter().copied())), bits(&[*block]));
                    let wires = qubits(block);
                    proptest::prop_assert!(members.iter().all(|m| qubits(m).iter().all(|q| wires.contains(q))));
                }
            }
        }
    }
}
