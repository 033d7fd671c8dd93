//! Pauli-string observables: construction, qubit-wise-commuting grouping,
//! measurement-basis rotations, and exact matrices for ground-truth
//! diagonalization.
//!
//! An energy is read only from measured distributions: one per QWC group,
//! after its [`PauliSum::group_rotation`], through
//! [`PauliString::expectation_from_dist`]. There is no state-side readout.

use qoncord_circuit::circuit::Circuit;
use qoncord_sim::dist::ProbDist;
use qoncord_sim::linalg::Matrix;
use qoncord_sim::math::C64;
use std::fmt;

/// A single-qubit Pauli operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pauli {
    /// Identity.
    I,
    /// Pauli-X.
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
}

impl Pauli {
    fn matrix(self) -> Matrix {
        match self {
            Pauli::I => Matrix::identity(2),
            Pauli::X => Matrix::from_real(2, 2, &[0.0, 1.0, 1.0, 0.0]),
            Pauli::Y => {
                Matrix::from_rows(2, 2, &[C64::ZERO, C64::new(0.0, -1.0), C64::I, C64::ZERO])
            }
            Pauli::Z => Matrix::from_real(2, 2, &[1.0, 0.0, 0.0, -1.0]),
        }
    }
}

impl fmt::Display for Pauli {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Pauli::I => "I",
            Pauli::X => "X",
            Pauli::Y => "Y",
            Pauli::Z => "Z",
        })
    }
}

/// A tensor product of single-qubit Paulis over `n` qubits
/// (index 0 = qubit 0).
///
/// # Examples
///
/// ```
/// use qoncord_vqa::pauli::PauliString;
///
/// let zz = PauliString::parse("ZZII").unwrap();
/// assert_eq!(zz.n_qubits(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PauliString {
    ops: Vec<Pauli>,
}

/// Error returned by [`PauliString::parse`] on invalid characters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePauliError {
    /// The offending character.
    pub ch: char,
}

impl fmt::Display for ParsePauliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid pauli character '{}'", self.ch)
    }
}

impl std::error::Error for ParsePauliError {}

impl PauliString {
    /// Builds a string from per-qubit operators.
    pub fn new(ops: Vec<Pauli>) -> Self {
        PauliString { ops }
    }

    /// The identity string on `n` qubits.
    pub fn identity(n: usize) -> Self {
        PauliString {
            ops: vec![Pauli::I; n],
        }
    }

    /// Parses `"IXYZ"`-style text; **leftmost character is qubit 0**.
    ///
    /// # Errors
    ///
    /// Returns [`ParsePauliError`] on characters outside `I/X/Y/Z`.
    pub fn parse(s: &str) -> Result<Self, ParsePauliError> {
        let ops = s
            .chars()
            .map(|c| match c {
                'I' | 'i' => Ok(Pauli::I),
                'X' | 'x' => Ok(Pauli::X),
                'Y' | 'y' => Ok(Pauli::Y),
                'Z' | 'z' => Ok(Pauli::Z),
                ch => Err(ParsePauliError { ch }),
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(PauliString { ops })
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.ops.len()
    }

    /// Operator on qubit `q`.
    pub fn op(&self, q: usize) -> Pauli {
        self.ops[q]
    }

    /// Qubits with non-identity operators.
    pub fn support(&self) -> Vec<usize> {
        self.ops
            .iter()
            .enumerate()
            .filter(|(_, p)| **p != Pauli::I)
            .map(|(q, _)| q)
            .collect()
    }

    /// Returns `true` if all operators are identity.
    pub fn is_identity(&self) -> bool {
        self.ops.iter().all(|p| *p == Pauli::I)
    }

    /// Bit mask of qubits with non-identity operators.
    fn support_mask(&self) -> usize {
        self.ops
            .iter()
            .enumerate()
            .filter(|(_, p)| **p != Pauli::I)
            .fold(0, |mask, (q, _)| mask | 1 << q)
    }

    /// Returns `true` if `self` and `other` commute qubit-wise: at every
    /// position the operators are equal or at least one is identity.
    fn qubit_wise_commutes(&self, other: &PauliString) -> bool {
        assert_eq!(self.n_qubits(), other.n_qubits());
        self.ops
            .iter()
            .zip(&other.ops)
            .all(|(a, b)| *a == Pauli::I || *b == Pauli::I || a == b)
    }

    /// The basis-change circuit mapping this string's eigenbasis to the
    /// computational basis: `H` for X, `S† H`-equivalent `RX(π/2)` for Y.
    fn measurement_rotation(&self) -> Circuit {
        let mut qc = Circuit::new(self.n_qubits(), 0);
        for (q, p) in self.ops.iter().enumerate() {
            match p {
                Pauli::X => {
                    qc.h(q);
                }
                Pauli::Y => {
                    // Sdg then H maps the Y eigenbasis to the Z eigenbasis.
                    qc.sdg(q);
                    qc.h(q);
                }
                Pauli::I | Pauli::Z => {}
            }
        }
        qc
    }

    /// Expectation of this string from a distribution measured *after* the
    /// rotation from `measurement_rotation`.
    pub fn expectation_from_dist(&self, dist: &ProbDist) -> f64 {
        assert_eq!(dist.n_qubits(), self.n_qubits());
        let _prof = qoncord_prof::span("vqa::pauli::expectation_dist");
        // Hoist the support mask out of the per-basis-state closure; the
        // parity popcount then needs no per-call mask rebuild.
        let mask = self.support_mask();
        dist.expectation_fn(|z| {
            if (z & mask).count_ones() & 1 == 0 {
                1.0
            } else {
                -1.0
            }
        })
    }

    /// The dense `2^n × 2^n` matrix of the string (for exact ground truth;
    /// keep `n` small).
    pub fn matrix(&self) -> Matrix {
        let mut m = Matrix::identity(1);
        // Kron with qubit (n-1) outermost so bit q of the row index is qubit q.
        for p in self.ops.iter().rev() {
            m = m.kron(&p.matrix());
        }
        m
    }
}

impl fmt::Display for PauliString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for p in &self.ops {
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

/// A real-weighted sum of Pauli strings (a Hermitian observable).
///
/// # Examples
///
/// ```
/// use qoncord_vqa::pauli::PauliSum;
///
/// let h = PauliSum::from_terms(&[(0.5, "ZI"), (-0.5, "IZ")]).unwrap();
/// assert_eq!(h.n_qubits(), 2);
/// let ground = h.exact_ground_energy();
/// assert!((ground + 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PauliSum {
    n_qubits: usize,
    terms: Vec<(f64, PauliString)>,
}

impl PauliSum {
    /// Builds a sum from `(coefficient, string)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if strings have inconsistent sizes or the list is empty.
    pub fn new(terms: Vec<(f64, PauliString)>) -> Self {
        assert!(!terms.is_empty(), "observable needs at least one term");
        let n = terms[0].1.n_qubits();
        assert!(
            terms.iter().all(|(_, p)| p.n_qubits() == n),
            "all strings must share the register size"
        );
        PauliSum { n_qubits: n, terms }
    }

    /// Convenience constructor from text labels.
    ///
    /// # Errors
    ///
    /// Returns [`ParsePauliError`] on bad labels.
    pub fn from_terms(terms: &[(f64, &str)]) -> Result<Self, ParsePauliError> {
        let parsed = terms
            .iter()
            .map(|(c, s)| Ok((*c, PauliString::parse(s)?)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(PauliSum::new(parsed))
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The `(coefficient, string)` terms.
    pub fn terms(&self) -> &[(f64, PauliString)] {
        &self.terms
    }

    /// Greedy partition into qubit-wise commuting groups; each group can be
    /// measured with a single basis rotation.
    pub fn qubit_wise_commuting_groups(&self) -> Vec<Vec<usize>> {
        let _prof = qoncord_prof::span("vqa::pauli::qwc_groups");
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (i, (_, p)) in self.terms.iter().enumerate() {
            if p.is_identity() {
                // The identity needs no measurement; attach to the first
                // group lazily (handled in expectation accounting).
                continue;
            }
            let mut placed = false;
            for group in &mut groups {
                if group
                    .iter()
                    .all(|&j| self.terms[j].1.qubit_wise_commutes(p))
                {
                    group.push(i);
                    placed = true;
                    break;
                }
            }
            if !placed {
                groups.push(vec![i]);
            }
        }
        groups
    }

    /// The shared measurement rotation of a QWC group: per qubit, the basis
    /// of whichever member acts non-trivially there.
    ///
    /// # Panics
    ///
    /// Panics if the group members do not actually qubit-wise commute.
    pub fn group_rotation(&self, group: &[usize]) -> Circuit {
        let mut basis = vec![Pauli::I; self.n_qubits];
        for &i in group {
            for (q, p) in (0..self.n_qubits).map(|q| (q, self.terms[i].1.op(q))) {
                if p == Pauli::I {
                    continue;
                }
                assert!(
                    basis[q] == Pauli::I || basis[q] == p,
                    "group is not qubit-wise commuting at qubit {q}"
                );
                basis[q] = p;
            }
        }
        PauliString::new(basis).measurement_rotation()
    }

    /// Sum of coefficients of identity terms (the constant energy offset).
    pub fn identity_offset(&self) -> f64 {
        self.terms
            .iter()
            .filter(|(_, p)| p.is_identity())
            .map(|(c, _)| c)
            .sum()
    }

    /// The dense Hermitian matrix (for exact diagonalization).
    pub fn matrix(&self) -> Matrix {
        let dim = 1usize << self.n_qubits;
        let mut m = Matrix::zeros(dim, dim);
        for (c, p) in &self.terms {
            m = &m + &p.matrix().scale(*c);
        }
        m
    }

    /// Exact minimum eigenvalue via dense diagonalization.
    pub fn exact_ground_energy(&self) -> f64 {
        self.matrix().min_eigenvalue_hermitian()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        let p = PauliString::parse("IXYZ").unwrap();
        assert_eq!(p.to_string(), "IXYZ");
        assert_eq!(p.op(0), Pauli::I);
        assert_eq!(p.op(3), Pauli::Z);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(PauliString::parse("IXQ").is_err());
    }

    #[test]
    fn support_and_identity() {
        let p = PauliString::parse("IZIZ").unwrap();
        assert_eq!(p.support(), vec![1, 3]);
        assert!(!p.is_identity());
        assert!(PauliString::identity(3).is_identity());
    }

    #[test]
    fn qwc_rules() {
        let a = PauliString::parse("XIZ").unwrap();
        let b = PauliString::parse("XZI").unwrap();
        let c = PauliString::parse("ZII").unwrap();
        assert!(a.qubit_wise_commutes(&b));
        assert!(!a.qubit_wise_commutes(&c));
    }

    #[test]
    fn x_measurement_via_rotation() {
        // <+|X|+> = 1: prepare |+>, rotate X->Z, expect eigenvalue +1.
        let x = PauliString::parse("X").unwrap();
        let mut prep = Circuit::new(1, 0);
        prep.h(0);
        prep.extend(&x.measurement_rotation());
        let sv = prep.simulate_ideal(&[]);
        let d = ProbDist::new(sv.probabilities());
        assert!((x.expectation_from_dist(&d) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn y_measurement_via_rotation() {
        // |i> = S H |0> is the +1 eigenstate of Y.
        let y = PauliString::parse("Y").unwrap();
        let mut prep = Circuit::new(1, 0);
        prep.h(0);
        prep.s(0);
        prep.extend(&y.measurement_rotation());
        let sv = prep.simulate_ideal(&[]);
        let d = ProbDist::new(sv.probabilities());
        assert!((y.expectation_from_dist(&d) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn matrix_of_zz_is_diagonal() {
        let m = PauliString::parse("ZZ").unwrap().matrix();
        for z in 0..4usize {
            let expect = if (z.count_ones() % 2) == 0 { 1.0 } else { -1.0 };
            assert!((m[(z, z)].re - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn matrix_qubit_ordering_is_little_endian() {
        // "ZI" acts Z on qubit 0: eigenvalue -1 exactly when bit 0 is set.
        let m = PauliString::parse("ZI").unwrap().matrix();
        assert_eq!(m[(0, 0)].re, 1.0);
        assert_eq!(m[(1, 1)].re, -1.0);
        assert_eq!(m[(2, 2)].re, 1.0);
        assert_eq!(m[(3, 3)].re, -1.0);
    }

    #[test]
    fn sum_ground_energy_of_ising_pair() {
        // H = Z0 Z1 - 0.5 Z0: ground = -1.5 at |01> or... enumerate.
        let h = PauliSum::from_terms(&[(1.0, "ZZ"), (-0.5, "ZI")]).unwrap();
        let g = h.exact_ground_energy();
        assert!((g + 1.5).abs() < 1e-8, "ground {g}");
    }

    #[test]
    fn grouping_covers_all_non_identity_terms() {
        let h = PauliSum::from_terms(&[(1.0, "ZZII"), (0.5, "IZZI"), (0.3, "XXII"), (0.2, "IIII")])
            .unwrap();
        let groups = h.qubit_wise_commuting_groups();
        let covered: usize = groups.iter().map(|g| g.len()).sum();
        assert_eq!(covered, 3, "identity term excluded");
        // ZZII and IZZI share qubit 1 with equal ops -> same group; XXII separate.
        assert_eq!(groups.len(), 2);
    }

    #[test]
    fn identity_offset_accumulates() {
        let h = PauliSum::from_terms(&[(0.25, "II"), (0.5, "II"), (1.0, "ZZ")]).unwrap();
        assert!((h.identity_offset() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn support_mask_covers_every_non_identity_qubit() {
        // X on qubit 0, Y on qubit 1, Z on qubit 2 (string index = qubit).
        assert_eq!(PauliString::parse("XYZI").unwrap().support_mask(), 0b0111);
        assert_eq!(PauliString::parse("IYIX").unwrap().support_mask(), 0b1010);
        assert_eq!(PauliString::identity(4).support_mask(), 0);
    }
}
