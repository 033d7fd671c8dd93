//! The retained scalar statevector kernels.
//!
//! This module pins the seed implementations of the statevector gate
//! kernels exactly as they shipped before the fast paths landed: plain
//! loops, one amplitude sweep per op, no fusion.
//! They are the ground truth the differential kernel-equivalence suite
//! (`crates/sim/tests/kernel_equivalence.rs`) compares the fast paths
//! against, and the "before" axis of the `kernel_profile` benchmark. The
//! density matrix has no second copy to pin: its per-op methods
//! ([`crate::density`]) *are* the seed loops.
//!
//! There is one way in: call [`sv_apply_1q`] and friends on a state. No
//! [`StateVector`] method reaches them; the seed tier of a whole run is the
//! caller's to assemble from them, [`crate::density::evolve_unfused`] and
//! [`crate::trajectory::sample_unfused`] (whose gates run here). For unfused
//! op sequences the fast kernels are bit-identical to these (pinned by the
//! equivalence suite).

use crate::fuse::{self, FusedOp};
use crate::gates::{Mat2, Mat4};
use crate::math::C64;
use crate::statevector::StateVector;

/// Applies one simulator op through its seed kernel; a monomial block runs
/// as its dense matrix.
pub(crate) fn sv_apply_op(sv: &mut StateVector, op: &FusedOp) {
    match *op {
        FusedOp::One(u, q) => sv_apply_1q(sv, &u, q),
        FusedOp::Two(u, a, b) => sv_apply_2q(sv, &u, a, b),
        FusedOp::Cx(c, t) => sv_apply_cx(sv, c, t),
        FusedOp::Rz(theta, q) => sv_apply_rz(sv, theta, q),
        FusedOp::Mono(d, src, a, b) => sv_apply_2q(sv, &fuse::mono_to_mat4(&d, &src), a, b),
    }
}

// ---------------------------------------------------------------------------
// Statevector reference kernels (verbatim seed loop structure).
// ---------------------------------------------------------------------------

/// Seed scalar single-qubit apply: strided pair sweep, sequential.
///
/// # Panics
///
/// Panics if `q` is out of range.
pub fn sv_apply_1q(sv: &mut StateVector, u: &Mat2, q: usize) {
    assert!(q < sv.n_qubits(), "qubit {q} out of range");
    let amps = sv.amps_mut();
    let stride = 1 << q;
    let len = amps.len();
    let mut base = 0;
    while base < len {
        for offset in base..base + stride {
            let i0 = offset;
            let i1 = offset + stride;
            let a0 = amps[i0];
            let a1 = amps[i1];
            amps[i0] = u[0][0] * a0 + u[0][1] * a1;
            amps[i1] = u[1][0] * a0 + u[1][1] * a1;
        }
        base += stride << 1;
    }
}

/// Seed scalar two-qubit apply: full index scan, skipping non-anchor
/// indices (the matrix acts on the basis `|q1 q0⟩`).
///
/// # Panics
///
/// Panics if the qubits coincide or are out of range.
pub fn sv_apply_2q(sv: &mut StateVector, u: &Mat4, q0: usize, q1: usize) {
    assert!(q0 != q1, "two-qubit gate needs distinct qubits");
    assert!(
        q0 < sv.n_qubits() && q1 < sv.n_qubits(),
        "qubit out of range"
    );
    let amps = sv.amps_mut();
    let b0 = 1usize << q0;
    let b1 = 1usize << q1;
    let len = amps.len();
    for i in 0..len {
        // Visit each 4-amplitude block once, anchored at the i with both bits clear.
        if i & b0 != 0 || i & b1 != 0 {
            continue;
        }
        let i00 = i;
        let i01 = i | b0;
        let i10 = i | b1;
        let i11 = i | b0 | b1;
        let a = [amps[i00], amps[i01], amps[i10], amps[i11]];
        for (r, &idx) in [i00, i01, i10, i11].iter().enumerate() {
            amps[idx] = u[r][0] * a[0] + u[r][1] * a[1] + u[r][2] * a[2] + u[r][3] * a[3];
        }
    }
}

/// Seed scalar CNOT: full index scan with a branch per index.
///
/// # Panics
///
/// Panics if the qubits coincide or are out of range.
pub fn sv_apply_cx(sv: &mut StateVector, c: usize, t: usize) {
    assert!(c != t, "CNOT needs distinct qubits");
    assert!(c < sv.n_qubits() && t < sv.n_qubits(), "qubit out of range");
    let amps = sv.amps_mut();
    let cb = 1usize << c;
    let tb = 1usize << t;
    for i in 0..amps.len() {
        if i & cb != 0 && i & tb == 0 {
            amps.swap(i, i | tb);
        }
    }
}

/// Seed scalar RZ: one conditional phase multiply per amplitude.
///
/// # Panics
///
/// Panics if `q` is out of range.
pub fn sv_apply_rz(sv: &mut StateVector, theta: f64, q: usize) {
    assert!(q < sv.n_qubits(), "qubit {q} out of range");
    let amps = sv.amps_mut();
    let bit = 1usize << q;
    let lo = C64::cis(-theta / 2.0);
    let hi = C64::cis(theta / 2.0);
    for (i, a) in amps.iter_mut().enumerate() {
        *a *= if i & bit == 0 { lo } else { hi };
    }
}
