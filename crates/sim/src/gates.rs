//! Standard gate matrices.
//!
//! Single-qubit gates are `2 × 2` arrays ([`Mat2`]) and two-qubit gates are
//! `4 × 4` arrays ([`Mat4`]); both are plain stack values so the simulators
//! can apply them without allocation. Two-qubit matrices are expressed in the
//! basis ordering `|q1 q0⟩` where `q0` is the *first* qubit argument of the
//! applying function (little-endian, matching the rest of the crate).

use crate::math::C64;

/// A `2 × 2` complex matrix for single-qubit gates.
pub type Mat2 = [[C64; 2]; 2];
/// A `4 × 4` complex matrix for two-qubit gates.
pub type Mat4 = [[C64; 4]; 4];

const FRAC_1_SQRT_2: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// Hadamard gate.
pub fn h() -> Mat2 {
    let s = C64::real(FRAC_1_SQRT_2);
    [[s, s], [s, -s]]
}

/// Pauli-X gate.
pub fn x() -> Mat2 {
    [[C64::ZERO, C64::ONE], [C64::ONE, C64::ZERO]]
}

/// Pauli-Y gate.
pub fn y() -> Mat2 {
    [[C64::ZERO, -C64::I], [C64::I, C64::ZERO]]
}

/// Pauli-Z gate.
pub fn z() -> Mat2 {
    [[C64::ONE, C64::ZERO], [C64::ZERO, -C64::ONE]]
}

/// S (phase) gate: `diag(1, i)`.
pub fn s() -> Mat2 {
    [[C64::ONE, C64::ZERO], [C64::ZERO, C64::I]]
}

/// S-dagger gate: `diag(1, -i)`.
pub fn sdg() -> Mat2 {
    [[C64::ONE, C64::ZERO], [C64::ZERO, -C64::I]]
}

/// T gate: `diag(1, e^{iπ/4})`.
pub fn t() -> Mat2 {
    [
        [C64::ONE, C64::ZERO],
        [C64::ZERO, C64::cis(std::f64::consts::FRAC_PI_4)],
    ]
}

/// T-dagger gate.
pub fn tdg() -> Mat2 {
    [
        [C64::ONE, C64::ZERO],
        [C64::ZERO, C64::cis(-std::f64::consts::FRAC_PI_4)],
    ]
}

/// Square-root-of-X gate (the IBM basis `sx`).
pub fn sx() -> Mat2 {
    let a = C64::new(0.5, 0.5);
    let b = C64::new(0.5, -0.5);
    [[a, b], [b, a]]
}

/// Rotation about X: `exp(-iθX/2)`.
pub fn rx(theta: f64) -> Mat2 {
    let c = C64::real((theta / 2.0).cos());
    let s = C64::new(0.0, -(theta / 2.0).sin());
    [[c, s], [s, c]]
}

/// Rotation about Y: `exp(-iθY/2)`.
pub fn ry(theta: f64) -> Mat2 {
    let c = C64::real((theta / 2.0).cos());
    let s = (theta / 2.0).sin();
    [[c, C64::real(-s)], [C64::real(s), c]]
}

/// Rotation about Z: `exp(-iθZ/2)` (global-phase convention `diag(e^{-iθ/2}, e^{iθ/2})`).
pub fn rz(theta: f64) -> Mat2 {
    [
        [C64::cis(-theta / 2.0), C64::ZERO],
        [C64::ZERO, C64::cis(theta / 2.0)],
    ]
}

/// Phase gate: `diag(1, e^{iλ})`.
pub fn p(lambda: f64) -> Mat2 {
    [[C64::ONE, C64::ZERO], [C64::ZERO, C64::cis(lambda)]]
}

/// General single-qubit rotation `U3(θ, φ, λ)` in the OpenQASM convention.
pub fn u3(theta: f64, phi: f64, lambda: f64) -> Mat2 {
    let (ct, st) = ((theta / 2.0).cos(), (theta / 2.0).sin());
    [
        [C64::real(ct), -C64::cis(lambda).scale(st)],
        [C64::cis(phi).scale(st), C64::cis(phi + lambda).scale(ct)],
    ]
}

/// CNOT with the **first** qubit argument as control (little-endian basis
/// `|q1 q0⟩`, control = `q0`): flips `q1` when `q0 = 1`.
pub fn cx() -> Mat4 {
    let mut m = zeros4();
    // basis index = q1*2 + q0
    m[0][0] = C64::ONE; // |00> -> |00>
    m[3][1] = C64::ONE; // |01> -> |11>
    m[2][2] = C64::ONE; // |10> -> |10>
    m[1][3] = C64::ONE; // |11> -> |01>
    m
}

/// Controlled-Z gate (symmetric in its qubits).
pub fn cz() -> Mat4 {
    let mut m = identity4();
    m[3][3] = -C64::ONE;
    m
}

/// SWAP gate.
pub fn swap() -> Mat4 {
    let mut m = zeros4();
    m[0][0] = C64::ONE;
    m[2][1] = C64::ONE;
    m[1][2] = C64::ONE;
    m[3][3] = C64::ONE;
    m
}

/// Ising ZZ interaction: `exp(-iθ Z⊗Z / 2)` (diagonal).
pub fn rzz(theta: f64) -> Mat4 {
    let plus = C64::cis(-theta / 2.0);
    let minus = C64::cis(theta / 2.0);
    let mut m = zeros4();
    m[0][0] = plus; // |00>: ZZ = +1
    m[1][1] = minus; // |01>: ZZ = -1
    m[2][2] = minus; // |10>: ZZ = -1
    m[3][3] = plus; // |11>: ZZ = +1
    m
}

/// Controlled-RZ with first qubit argument as control.
pub fn crz(theta: f64) -> Mat4 {
    let mut m = identity4();
    // Control q0 = 1: indices 1 (q1=0,q0=1) and 3 (q1=1,q0=1) get rz on q1.
    m[1][1] = C64::cis(-theta / 2.0);
    m[3][3] = C64::cis(theta / 2.0);
    m
}

fn zeros4() -> Mat4 {
    [[C64::ZERO; 4]; 4]
}

fn identity4() -> Mat4 {
    let mut m = zeros4();
    for (i, row) in m.iter_mut().enumerate() {
        row[i] = C64::ONE;
    }
    m
}

/// Multiplies two [`Mat2`]s: `a · b`.
pub fn mat2_mul(a: &Mat2, b: &Mat2) -> Mat2 {
    let mut out = [[C64::ZERO; 2]; 2];
    for r in 0..2 {
        for c in 0..2 {
            out[r][c] = a[r][0] * b[0][c] + a[r][1] * b[1][c];
        }
    }
    out
}

/// Conjugate transpose of a [`Mat2`].
pub fn mat2_adjoint(m: &Mat2) -> Mat2 {
    [
        [m[0][0].conj(), m[1][0].conj()],
        [m[0][1].conj(), m[1][1].conj()],
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::Matrix;

    fn matrix<const N: usize>(m: &[[C64; N]; N]) -> Matrix {
        Matrix::from_rows(N, N, m.as_flattened())
    }

    fn assert_unitary<const N: usize>(m: &[[C64; N]; N]) {
        assert!(matrix(m).is_unitary(1e-12), "not unitary");
    }

    #[test]
    fn all_fixed_1q_gates_are_unitary() {
        for g in [h(), x(), y(), z(), s(), sdg(), t(), tdg(), sx()] {
            assert_unitary(&g);
        }
    }

    #[test]
    fn rotations_are_unitary_for_many_angles() {
        for k in 0..12 {
            let th = k as f64 * 0.55 - 3.0;
            assert_unitary(&rx(th));
            assert_unitary(&ry(th));
            assert_unitary(&rz(th));
            assert_unitary(&p(th));
            assert_unitary(&u3(th, th * 0.3, -th));
        }
    }

    #[test]
    fn all_2q_gates_are_unitary() {
        assert_unitary(&cx());
        assert_unitary(&cz());
        assert_unitary(&swap());
        assert_unitary(&rzz(0.7));
        assert_unitary(&crz(1.3));
    }

    #[test]
    fn hadamard_squares_to_identity() {
        let h2 = mat2_mul(&h(), &h());
        assert!(matrix(&h2).approx_eq(&Matrix::identity(2), 1e-12));
    }

    #[test]
    fn sx_squared_is_x() {
        let xx = mat2_mul(&sx(), &sx());
        assert!(matrix(&xx).approx_eq(&matrix(&x()), 1e-12));
    }

    #[test]
    fn s_is_t_squared() {
        let tt = mat2_mul(&t(), &t());
        assert!(matrix(&tt).approx_eq(&matrix(&s()), 1e-12));
    }

    #[test]
    fn rz_pi_equals_z_up_to_phase() {
        // rz(π) = diag(-i, i) = -i · Z
        let m = rz(std::f64::consts::PI);
        let ratio = m[0][0] / z()[0][0];
        let z11 = z()[1][1];
        assert!((m[1][1] / z11).approx_eq(ratio, 1e-12));
    }

    #[test]
    fn u3_reduces_to_ry_and_rz_like_forms() {
        // U3(θ, 0, 0) = RY(θ)
        let th = 0.83;
        assert!(matrix(&u3(th, 0.0, 0.0)).approx_eq(&matrix(&ry(th)), 1e-12));
    }

    #[test]
    fn cx_truth_table() {
        let m = cx();
        // |q1 q0> = |01> (index 1, control q0=1) -> |11> (index 3)
        assert_eq!(m[3][1], C64::ONE);
        // |10> (control 0) stays
        assert_eq!(m[2][2], C64::ONE);
    }

    #[test]
    fn rzz_diagonal_signs() {
        let m = rzz(1.0);
        assert!(m[0][0].approx_eq(m[3][3], 1e-14));
        assert!(m[1][1].approx_eq(m[2][2], 1e-14));
        assert!(!m[0][0].approx_eq(m[1][1], 1e-14));
    }

    #[test]
    fn adjoint_inverts_rotation() {
        let m = rx(0.9);
        let prod = mat2_mul(&m, &mat2_adjoint(&m));
        assert!(matrix(&prod).approx_eq(&Matrix::identity(2), 1e-12));
    }
}
