//! The retained scalar statevector kernels and the reference-mode switch.
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
//! Two ways to use them:
//!
//! - **Directly**: call [`sv_apply_1q`] and friends on a state — explicit,
//!   no global state.
//! - **Routed**: flip the process-global switch with [`force`] (or the RAII
//!   [`ScopedReference`]) and every [`StateVector`] method dispatches to the
//!   scalar kernels, `circuit::simulate_ideal` skips gate fusion, a noisy
//!   density run skips its fused program ([`crate::noisy`]) and a trajectory
//!   run its trajectory program ([`crate::trajectory`]) — this is how an
//!   end-to-end run is replayed "as the seed would have computed it".
//!
//! The switch counts holds, so guards on different threads may overlap and
//! be released in any order: routing stays forced while any of them lives.
//! It is sound to flip between runs even with concurrent tests: for unfused
//! op sequences the fast kernels are bit-identical to these reference
//! kernels (pinned by the equivalence suite), so routing only changes
//! *speed* except where fusion deliberately reorders floating-point ops
//! behind an explicitly tolerance-checked boundary.

use crate::gates::{Mat2, Mat4};
use crate::math::C64;
use crate::statevector::StateVector;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of holds on reference routing. A count, not a flag: a guard that
/// restored the flag it found would switch routing off under a guard made
/// after it on another thread, and that one would then switch it on for good.
static FORCE_REFERENCE: AtomicUsize = AtomicUsize::new(0);

/// Takes (`true`) or releases (`false`) one hold on reference routing:
/// every simulator kernel runs the scalar reference implementations while
/// at least one hold is out, the default fast paths otherwise. Releasing
/// with no hold out does nothing.
pub fn force(on: bool) {
    if on {
        FORCE_REFERENCE.fetch_add(1, Ordering::Relaxed);
    } else {
        // `Err` is the count already at zero.
        let _ = FORCE_REFERENCE
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1));
    }
}

/// Whether reference-mode routing is currently forced.
pub fn forced() -> bool {
    FORCE_REFERENCE.load(Ordering::Relaxed) > 0
}

/// RAII guard that holds reference-mode routing on for its lifetime.
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
pub struct ScopedReference(());

impl ScopedReference {
    /// Forces reference-mode routing until the guard drops.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        force(true);
        ScopedReference(())
    }
}

impl Drop for ScopedReference {
    fn drop(&mut self) {
        force(false);
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    /// Two guards overlap on two threads and the first made is the first
    /// released. A guard that restores the flag it found turns routing off
    /// under the second guard, then leaves it on for the rest of the process.
    #[test]
    fn overlapping_guards_released_first_made_first_keep_routing_forced() {
        let (first_made, wait_first_made) = channel();
        let (second_made, wait_second_made) = channel();
        let (first_released, wait_first_released) = channel();
        std::thread::scope(|s| {
            s.spawn(move || {
                let first = ScopedReference::new();
                first_made.send(()).unwrap();
                wait_second_made.recv().unwrap();
                assert!(forced());
                drop(first);
                first_released.send(()).unwrap();
            });
            s.spawn(move || {
                wait_first_made.recv().unwrap();
                let second = ScopedReference::new();
                second_made.send(()).unwrap();
                wait_first_released.recv().unwrap();
                assert!(forced(), "released under a live guard");
                drop(second);
            });
        });
        assert!(!forced(), "stuck on after both guards dropped");
    }
}
