//! Dense complex matrices and the small amount of linear algebra the
//! simulators need: multiplication, Kronecker products, adjoints, unitarity
//! checks, and a Jacobi eigensolver for Hermitian matrices (used to obtain
//! exact ground-state energies for approximation ratios).

use crate::math::C64;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense, row-major complex matrix.
///
/// # Examples
///
/// ```
/// use qoncord_sim::linalg::Matrix;
///
/// let id = Matrix::identity(2);
/// let prod = &id * &id;
/// assert!(prod.approx_eq(&id, 1e-12));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<C64>,
}

impl Matrix {
    /// Creates a `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![C64::ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = C64::ONE;
        }
        m
    }

    /// Creates a matrix from a row-major slice of elements.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: &[C64]) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// Creates a matrix of real entries from a row-major slice.
    pub fn from_real(rows: usize, cols: usize, data: &[f64]) -> Self {
        let complex: Vec<C64> = data.iter().map(|&x| C64::real(x)).collect();
        Matrix::from_rows(rows, cols, &complex)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow of the underlying row-major element storage.
    pub fn as_slice(&self) -> &[C64] {
        &self.data
    }

    /// Conjugate transpose `A†`.
    pub fn adjoint(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)].conj();
            }
        }
        out
    }

    /// Kronecker (tensor) product `self ⊗ other`.
    pub fn kron(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows * other.rows, self.cols * other.cols);
        for ar in 0..self.rows {
            for ac in 0..self.cols {
                let a = self[(ar, ac)];
                for br in 0..other.rows {
                    for bc in 0..other.cols {
                        out[(ar * other.rows + br, ac * other.cols + bc)] = a * other[(br, bc)];
                    }
                }
            }
        }
        out
    }

    /// Multiplies every entry by a real scalar.
    pub fn scale(&self, s: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| z.scale(s)).collect(),
        }
    }

    /// Trace `Σ A[i][i]`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> C64 {
        assert_eq!(self.rows, self.cols, "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Element-wise approximate equality within `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| a.approx_eq(*b, tol))
    }

    /// Returns `true` if `A†A ≈ I` within `tol`.
    pub fn is_unitary(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        let prod = &self.adjoint() * self;
        prod.approx_eq(&Matrix::identity(self.rows), tol)
    }

    /// Returns `true` if `A ≈ A†` within `tol`.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        self.rows == self.cols && self.approx_eq(&self.adjoint(), tol)
    }

    /// Eigenvalues of a Hermitian matrix, ascending, via the cyclic Jacobi
    /// method on the equivalent `2n × 2n` real symmetric embedding.
    ///
    /// The complex Hermitian matrix `H = A + iB` embeds as the real symmetric
    /// `[[A, -B], [B, A]]` whose spectrum is that of `H` with every eigenvalue
    /// doubled; we therefore return every other eigenvalue of the embedding.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or not Hermitian within `1e-9`.
    fn eigenvalues_hermitian(&self) -> Vec<f64> {
        assert!(self.is_hermitian(1e-9), "matrix must be Hermitian");
        let n = self.rows;
        let m = 2 * n;
        // Real symmetric embedding.
        let mut s = vec![0.0_f64; m * m];
        for r in 0..n {
            for c in 0..n {
                let z = self[(r, c)];
                s[r * m + c] = z.re;
                s[r * m + (c + n)] = -z.im;
                s[(r + n) * m + c] = z.im;
                s[(r + n) * m + (c + n)] = z.re;
            }
        }
        let mut eigs = jacobi_symmetric_eigenvalues(&mut s, m);
        eigs.sort_by(|a, b| a.partial_cmp(b).expect("eigenvalues are finite"));
        // Pairs (λ, λ): keep one of each.
        eigs.into_iter().step_by(2).collect()
    }

    /// Smallest eigenvalue of a Hermitian matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or not Hermitian within `1e-9`.
    pub fn min_eigenvalue_hermitian(&self) -> f64 {
        self.eigenvalues_hermitian()[0]
    }
}

/// Cyclic Jacobi eigenvalue iteration for a real symmetric matrix stored
/// row-major in `s` (size `n × n`). Destroys `s`; returns unsorted
/// eigenvalues.
fn jacobi_symmetric_eigenvalues(s: &mut [f64], n: usize) -> Vec<f64> {
    const MAX_SWEEPS: usize = 100;
    for _ in 0..MAX_SWEEPS {
        let mut off = 0.0;
        for r in 0..n {
            for c in (r + 1)..n {
                off += s[r * n + c] * s[r * n + c];
            }
        }
        if off < 1e-22 {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = s[p * n + q];
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = s[p * n + p];
                let aqq = s[q * n + q];
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    1.0 / (theta - (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let sn = t * c;
                // Rotate rows/columns p and q.
                for k in 0..n {
                    let skp = s[k * n + p];
                    let skq = s[k * n + q];
                    s[k * n + p] = c * skp - sn * skq;
                    s[k * n + q] = sn * skp + c * skq;
                }
                for k in 0..n {
                    let spk = s[p * n + k];
                    let sqk = s[q * n + k];
                    s[p * n + k] = c * spk - sn * sqk;
                    s[q * n + k] = sn * spk + c * sqk;
                }
            }
        }
    }
    (0..n).map(|i| s[i * n + i]).collect()
}

impl Index<(usize, usize)> for Matrix {
    type Output = C64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &C64 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut C64 {
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a + *b)
                .collect(),
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a - *b)
                .collect(),
        }
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "inner dimensions must agree: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == C64::ZERO {
                    continue;
                }
                for c in 0..rhs.cols {
                    out[(r, c)] += a * rhs[(k, c)];
                }
            }
        }
        out
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                write!(
                    f,
                    "{}{}",
                    self[(r, c)],
                    if c + 1 < self.cols { " " } else { "" }
                )?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pauli_x() -> Matrix {
        Matrix::from_real(2, 2, &[0.0, 1.0, 1.0, 0.0])
    }

    fn pauli_z() -> Matrix {
        Matrix::from_real(2, 2, &[1.0, 0.0, 0.0, -1.0])
    }

    fn pauli_y() -> Matrix {
        Matrix::from_rows(2, 2, &[C64::ZERO, C64::new(0.0, -1.0), C64::I, C64::ZERO])
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let x = pauli_x();
        let id = Matrix::identity(2);
        assert!((&x * &id).approx_eq(&x, 1e-14));
        assert!((&id * &x).approx_eq(&x, 1e-14));
    }

    #[test]
    fn xz_product_is_minus_iy() {
        let prod = &pauli_x() * &pauli_z();
        let expect = pauli_y().scale(1.0); // XZ = -iY
        let minus_i_y = Matrix::from_rows(
            2,
            2,
            &[
                C64::ZERO,
                C64::new(-1.0, 0.0) * expect[(0, 1)] * C64::I * C64::I, // placeholder, computed below
                C64::ZERO,
                C64::ZERO,
            ],
        );
        let _ = minus_i_y;
        // XZ = [[0,-1],[1,0]]
        let expected = Matrix::from_real(2, 2, &[0.0, -1.0, 1.0, 0.0]);
        assert!(prod.approx_eq(&expected, 1e-14));
    }

    #[test]
    fn paulis_are_unitary_and_hermitian() {
        for m in [pauli_x(), pauli_y(), pauli_z()] {
            assert!(m.is_unitary(1e-12));
            assert!(m.is_hermitian(1e-12));
        }
    }

    #[test]
    fn kron_dimensions_and_structure() {
        let k = pauli_z().kron(&Matrix::identity(2));
        assert_eq!(k.rows(), 4);
        assert_eq!(k[(0, 0)], C64::ONE);
        assert_eq!(k[(3, 3)], C64::new(-1.0, 0.0));
    }

    #[test]
    fn eigenvalues_of_pauli_z_are_plus_minus_one() {
        let eigs = pauli_z().eigenvalues_hermitian();
        assert!((eigs[0] + 1.0).abs() < 1e-9);
        assert!((eigs[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn eigenvalues_of_pauli_y_are_plus_minus_one() {
        let eigs = pauli_y().eigenvalues_hermitian();
        assert!((eigs[0] + 1.0).abs() < 1e-9);
        assert!((eigs[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn eigenvalues_of_composite_hermitian() {
        // H = Z ⊗ Z has eigenvalues ±1 each doubly degenerate.
        let h = pauli_z().kron(&pauli_z());
        let eigs = h.eigenvalues_hermitian();
        assert_eq!(eigs.len(), 4);
        assert!((eigs[0] + 1.0).abs() < 1e-8);
        assert!((eigs[3] - 1.0).abs() < 1e-8);
    }

    #[test]
    fn min_eigenvalue_of_shifted_matrix() {
        // H = diag(3, -2, 7, 0)
        let h = Matrix::from_real(
            4,
            4,
            &[
                3.0, 0.0, 0.0, 0.0, //
                0.0, -2.0, 0.0, 0.0, //
                0.0, 0.0, 7.0, 0.0, //
                0.0, 0.0, 0.0, 0.0,
            ],
        );
        assert!((h.min_eigenvalue_hermitian() + 2.0).abs() < 1e-9);
    }

    #[test]
    fn trace_sums_diagonal() {
        let m = Matrix::from_real(2, 2, &[1.0, 9.0, 9.0, 2.0]);
        assert_eq!(m.trace(), C64::real(3.0));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn mismatched_mul_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = &a * &b;
    }
}
