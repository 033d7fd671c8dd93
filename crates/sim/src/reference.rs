//! The retained scalar reference kernels and the reference-mode switch.
//!
//! This module pins the seed implementations of every gate/channel kernel
//! exactly as they shipped before the fast paths landed: plain sequential
//! loops, one amplitude sweep per op, no fusion, no threading. They are the
//! ground truth the differential kernel-equivalence suite
//! (`crates/sim/tests/kernel_equivalence.rs`) compares the fast paths
//! against, and the "before" axis of the `kernel_profile` benchmark.
//!
//! Two ways to use them:
//!
//! - **Directly**: call [`sv_apply_1q`] and friends on a state — explicit,
//!   no global state, what the equivalence proptests do.
//! - **Routed**: flip the process-global switch with [`force`] (or the RAII
//!   [`ScopedReference`]) and every [`StateVector`]/[`DensityMatrix`] method
//!   dispatches to the scalar kernels, `circuit::simulate_ideal` skips gate
//!   fusion and a noisy density run skips its fused program
//!   ([`crate::noisy`]) — this is how an end-to-end run is replayed "as the
//!   seed would have computed it".
//!
//! The switch is sound to flip between runs even with concurrent tests:
//! for unfused op sequences the fast kernels are bit-identical to these
//! reference kernels (pinned by the equivalence suite), so routing only
//! changes *speed* except where fusion deliberately reorders floating-point
//! ops behind an explicitly tolerance-checked boundary.

use crate::density::DensityMatrix;
use crate::gates::{Mat2, Mat4};
use crate::math::C64;
use crate::noise::NoiseChannel;
use crate::statevector::StateVector;
use std::sync::atomic::{AtomicBool, Ordering};

static FORCE_REFERENCE: AtomicBool = AtomicBool::new(false);

/// Routes every simulator kernel through the scalar reference
/// implementations (`true`) or the default fast paths (`false`).
pub fn force(on: bool) {
    FORCE_REFERENCE.store(on, Ordering::Relaxed);
}

/// Whether reference-mode routing is currently forced.
pub fn forced() -> bool {
    FORCE_REFERENCE.load(Ordering::Relaxed)
}

/// RAII guard that forces reference-mode routing for its lifetime and
/// restores the previous setting on drop.
///
/// ```
/// let fast = qoncord_sim::reference::forced();
/// {
///     let _seed = qoncord_sim::reference::ScopedReference::new();
///     assert!(qoncord_sim::reference::forced());
/// }
/// assert_eq!(qoncord_sim::reference::forced(), fast);
/// ```
#[derive(Debug)]
pub struct ScopedReference {
    prev: bool,
}

impl ScopedReference {
    /// Forces reference-mode routing until the guard drops.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        let prev = forced();
        force(true);
        ScopedReference { prev }
    }
}

impl Drop for ScopedReference {
    fn drop(&mut self) {
        force(self.prev);
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
    raw_sv_apply_1q(sv.amps_mut(), u, q);
}

pub(crate) fn raw_sv_apply_1q(amps: &mut [C64], u: &Mat2, q: usize) {
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
    raw_sv_apply_2q(sv.amps_mut(), u, q0, q1);
}

pub(crate) fn raw_sv_apply_2q(amps: &mut [C64], u: &Mat4, q0: usize, q1: usize) {
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
    raw_sv_apply_cx(sv.amps_mut(), c, t);
}

pub(crate) fn raw_sv_apply_cx(amps: &mut [C64], c: usize, t: usize) {
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
    raw_sv_apply_rz(sv.amps_mut(), theta, q);
}

pub(crate) fn raw_sv_apply_rz(amps: &mut [C64], theta: f64, q: usize) {
    let bit = 1usize << q;
    let lo = C64::cis(-theta / 2.0);
    let hi = C64::cis(theta / 2.0);
    for (i, a) in amps.iter_mut().enumerate() {
        *a *= if i & bit == 0 { lo } else { hi };
    }
}

// ---------------------------------------------------------------------------
// Density-matrix reference kernels (verbatim seed loop structure).
// ---------------------------------------------------------------------------

/// Seed scalar `ρ ↦ (U_q) ρ (U_q)†`.
///
/// # Panics
///
/// Panics if `q` is out of range.
pub fn dm_apply_1q(rho: &mut DensityMatrix, u: &Mat2, q: usize) {
    assert!(q < rho.n_qubits(), "qubit {q} out of range");
    let dim = 1usize << rho.n_qubits();
    raw_dm_apply_1q(rho.data_mut(), dim, u, q);
}

pub(crate) fn raw_dm_apply_1q(data: &mut [C64], dim: usize, u: &Mat2, q: usize) {
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
    for r in 0..dim {
        let row = &mut data[r * dim..(r + 1) * dim];
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

/// Seed scalar two-qubit `ρ ↦ UρU†` (basis `|q1 q0⟩`).
///
/// # Panics
///
/// Panics if the qubits coincide or are out of range.
pub fn dm_apply_2q(rho: &mut DensityMatrix, u: &Mat4, q0: usize, q1: usize) {
    assert!(q0 != q1, "two-qubit gate needs distinct qubits");
    assert!(
        q0 < rho.n_qubits() && q1 < rho.n_qubits(),
        "qubit out of range"
    );
    let dim = 1usize << rho.n_qubits();
    raw_dm_apply_2q(rho.data_mut(), dim, u, q0, q1);
}

pub(crate) fn raw_dm_apply_2q(data: &mut [C64], dim: usize, u: &Mat4, q0: usize, q1: usize) {
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
    for r in 0..dim {
        let row = &mut data[r * dim..(r + 1) * dim];
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

/// Seed scalar CNOT on `ρ`: the single-pass involution swap.
///
/// # Panics
///
/// Panics if the qubits coincide or are out of range.
pub fn dm_apply_cx(rho: &mut DensityMatrix, c: usize, t: usize) {
    assert!(c != t, "CNOT needs distinct qubits");
    assert!(
        c < rho.n_qubits() && t < rho.n_qubits(),
        "qubit out of range"
    );
    let dim = 1usize << rho.n_qubits();
    raw_dm_apply_cx(rho.data_mut(), dim, c, t);
}

pub(crate) fn raw_dm_apply_cx(data: &mut [C64], dim: usize, c: usize, t: usize) {
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
                data.swap(src, dst);
            }
        }
    }
}

/// Seed scalar RZ on `ρ`: conditional phase per entry.
///
/// # Panics
///
/// Panics if `q` is out of range.
pub fn dm_apply_rz(rho: &mut DensityMatrix, theta: f64, q: usize) {
    assert!(q < rho.n_qubits(), "qubit {q} out of range");
    let dim = 1usize << rho.n_qubits();
    raw_dm_apply_rz(rho.data_mut(), dim, theta, q);
}

pub(crate) fn raw_dm_apply_rz(data: &mut [C64], dim: usize, theta: f64, q: usize) {
    let bit = 1usize << q;
    // rz = diag(e^{-iθ/2}, e^{+iθ/2}); ρ[r,c] picks up phase(r)·conj(phase(c)),
    // which is e^{+iθ} when (r has bit, c clear), e^{-iθ} mirrored, 1 otherwise.
    let plus = C64::cis(theta);
    let minus = C64::cis(-theta);
    for r in 0..dim {
        let rbit = r & bit != 0;
        let row = &mut data[r * dim..(r + 1) * dim];
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

/// Seed Kraus-channel application: one full `ρ` clone per Kraus branch,
/// each branch evolved with the scalar reference kernels, summed in branch
/// order.
///
/// # Panics
///
/// Panics if the channel arity does not match `qubits.len()`.
pub fn dm_apply_channel(rho: &mut DensityMatrix, channel: &NoiseChannel, qubits: &[usize]) {
    assert_eq!(
        channel.n_qubits(),
        qubits.len(),
        "channel arity does not match qubit list"
    );
    let kraus = channel.kraus_operators();
    let mut acc = vec![C64::ZERO; rho.data().len()];
    for k in &kraus {
        let mut branch = rho.clone();
        match qubits.len() {
            1 => dm_apply_1q(&mut branch, &crate::density::matrix_to_mat2(k), qubits[0]),
            2 => dm_apply_2q(
                &mut branch,
                &crate::density::matrix_to_mat4(k),
                qubits[0],
                qubits[1],
            ),
            n => panic!("channels on {n} qubits are not supported"),
        }
        for (a, b) in acc.iter_mut().zip(branch.data()) {
            *a += *b;
        }
    }
    rho.data_mut().copy_from_slice(&acc);
}

/// Seed closed-form single-qubit depolarizing sweep.
///
/// # Panics
///
/// Panics if `q` is out of range or `p` is outside `[0, 1]`.
pub fn dm_apply_depolarizing_1q(rho: &mut DensityMatrix, p: f64, q: usize) {
    assert!(q < rho.n_qubits(), "qubit {q} out of range");
    assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
    if p == 0.0 {
        return;
    }
    let dim = 1usize << rho.n_qubits();
    raw_dm_depolarizing_1q(rho.data_mut(), dim, p, q);
}

pub(crate) fn raw_dm_depolarizing_1q(data: &mut [C64], dim: usize, p: f64, q: usize) {
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

/// Seed closed-form two-qubit depolarizing sweep.
///
/// # Panics
///
/// Panics if the qubits coincide, are out of range, or `p` is outside
/// `[0, 1]`.
pub fn dm_apply_depolarizing_2q(rho: &mut DensityMatrix, p: f64, q0: usize, q1: usize) {
    assert!(q0 != q1, "two-qubit channel needs distinct qubits");
    assert!(
        q0 < rho.n_qubits() && q1 < rho.n_qubits(),
        "qubit out of range"
    );
    assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
    if p == 0.0 {
        return;
    }
    let dim = 1usize << rho.n_qubits();
    raw_dm_depolarizing_2q(rho.data_mut(), dim, p, q0, q1);
}

pub(crate) fn raw_dm_depolarizing_2q(data: &mut [C64], dim: usize, p: f64, q0: usize, q1: usize) {
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
