//! Pauli-string observables: construction, qubit-wise-commuting grouping,
//! measurement-basis rotations, and exact matrices for ground-truth
//! diagonalization.

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

/// Bit-mask form of a Pauli string for masked amplitude sweeps.
///
/// Encodes the action `P|i⟩ = i^{y} · (−1)^{popcount(i & z)} · |i ⊕ x⟩`:
/// `x` collects the X|Y positions (which basis bits flip), `z` the Z|Y
/// positions (which bits contribute a sign), and `y` the number of Y factors
/// (a global phase `i^y`). Expectations then reduce to one pass over the
/// amplitudes per string — `O(2^n)` instead of the `O(4^n)` dense-matrix
/// route — and strings sharing `x = 0` share a single `|ψ|²` sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PauliMasks {
    /// Bits where the string acts X or Y: the amplitude-index flip mask.
    pub x: usize,
    /// Bits where the string acts Z or Y: the sign-parity mask.
    pub z: usize,
    /// Number of Y factors mod 4: the global phase is `i^y_mod4`.
    pub y_mod4: u8,
}

/// Real part of `i^y · s` without materialising the phase factor.
fn re_i_pow(y_mod4: u8, s: C64) -> f64 {
    match y_mod4 & 3 {
        0 => s.re,
        1 => -s.im,
        2 => -s.re,
        _ => s.im,
    }
}

/// Width, in amplitudes, of the blocks the batched expectation sweeps walk:
/// the cache blocking, and — because each block's partial sum is formed on
/// its own and the partials are folded in block order — part of the
/// floating-point summation order. Changing it changes result bits.
const SWEEP_CHUNK: usize = 1 << 12;

/// `0..items` as consecutive [`SWEEP_CHUNK`]-wide ranges (the last may be
/// shorter).
fn chunks(items: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    (0..items)
        .step_by(SWEEP_CHUNK)
        .map(move |lo| lo..(lo + SWEEP_CHUNK).min(items))
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
/// assert_eq!(zz.eigenvalue(0b0001), -1.0); // qubit 0 flipped
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

    /// The bit-mask form of this string (see [`PauliMasks`]).
    pub fn masks(&self) -> PauliMasks {
        let mut x = 0usize;
        let mut z = 0usize;
        let mut y = 0u32;
        for (q, p) in self.ops.iter().enumerate() {
            match p {
                Pauli::I => {}
                Pauli::X => x |= 1 << q,
                Pauli::Y => {
                    x |= 1 << q;
                    z |= 1 << q;
                    y += 1;
                }
                Pauli::Z => z |= 1 << q,
            }
        }
        PauliMasks {
            x,
            z,
            y_mod4: (y % 4) as u8,
        }
    }

    /// Bit mask of qubits with non-identity operators.
    fn support_mask(&self) -> usize {
        let m = self.masks();
        m.x | m.z
    }

    /// Eigenvalue (±1) of the *diagonalized* string on basis state `z`: the
    /// parity of set bits within the support. Valid after the measurement
    /// rotation from `measurement_rotation` has been applied.
    pub fn eigenvalue(&self, z: usize) -> f64 {
        if (z & self.support_mask()).count_ones() & 1 == 0 {
            1.0
        } else {
            -1.0
        }
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

    /// Exact expectation `⟨ψ|H|ψ⟩` for a pure state.
    ///
    /// All terms are evaluated in batched masked sweeps over the amplitudes
    /// (`O(T · 2^n)` total, with every diagonal term sharing one `|ψ|²`
    /// sweep) instead of the `O(4^n)` dense-matrix route, which is retained
    /// as [`PauliSum::expectation_sv_reference`]. The sequential scalar path
    /// is [`PauliSum::expectation_sv_unbatched`]; the two differ only in
    /// floating-point summation order (≤ 1e-12 in practice).
    ///
    /// # Panics
    ///
    /// Panics if the state register size differs from the observable's.
    pub fn expectation_statevector(&self, sv: &qoncord_sim::statevector::StateVector) -> f64 {
        assert_eq!(
            self.n_qubits,
            sv.n_qubits(),
            "observable acts on {} qubits but state register has {}",
            self.n_qubits,
            sv.n_qubits()
        );
        let _prof = qoncord_prof::span("vqa::pauli::expectation_sv");
        let all: Vec<usize> = (0..self.terms.len()).collect();
        self.expectation_sv_terms(&all, sv)
    }

    /// Expectation of the listed terms only, evaluated in one batched sweep.
    ///
    /// `group` holds indices into [`PauliSum::terms`] — typically one
    /// qubit-wise-commuting group from
    /// [`PauliSum::qubit_wise_commuting_groups`], though any index subset is
    /// accepted. The result is the sum `Σ c_i ⟨ψ|P_i|ψ⟩` over the subset;
    /// identity terms contribute their coefficient times `‖ψ‖²`.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range term index or a register-size mismatch.
    pub fn expectation_sv_group(
        &self,
        group: &[usize],
        sv: &qoncord_sim::statevector::StateVector,
    ) -> f64 {
        assert_eq!(
            self.n_qubits,
            sv.n_qubits(),
            "observable acts on {} qubits but state register has {}",
            self.n_qubits,
            sv.n_qubits()
        );
        for &i in group {
            assert!(i < self.terms.len(), "term index {i} out of range");
        }
        let _prof = qoncord_prof::span("vqa::pauli::expectation_sv");
        self.expectation_sv_terms(group, sv)
    }

    /// Sequential per-term masked sweeps: the scalar reference axis for the
    /// batched fast path. Same `O(T · 2^n)` mask algebra, but one full pass
    /// per term with a plain left-to-right accumulator and no cross-term
    /// batching — this is what the equivalence tests compare the fast path
    /// against.
    ///
    /// # Panics
    ///
    /// Panics if the state register size differs from the observable's.
    pub fn expectation_sv_unbatched(&self, sv: &qoncord_sim::statevector::StateVector) -> f64 {
        assert_eq!(
            self.n_qubits,
            sv.n_qubits(),
            "observable acts on {} qubits but state register has {}",
            self.n_qubits,
            sv.n_qubits()
        );
        let amps = sv.amplitudes();
        let mut total = 0.0;
        for (c, p) in &self.terms {
            let m = p.masks();
            if m.x == 0 {
                let mut acc = 0.0;
                for (i, a) in amps.iter().enumerate() {
                    if (i & m.z).count_ones() & 1 == 0 {
                        acc += a.norm_sq();
                    } else {
                        acc -= a.norm_sq();
                    }
                }
                total += c * acc;
            } else {
                let mut acc = C64::ZERO;
                for (i, a) in amps.iter().enumerate() {
                    let signed = if (i & m.z).count_ones() & 1 == 0 {
                        *a
                    } else {
                        a.scale(-1.0)
                    };
                    acc += amps[i ^ m.x].conj() * signed;
                }
                total += c * re_i_pow(m.y_mod4, acc);
            }
        }
        total
    }

    /// The seed `O(4^n)` dense-matrix expectation, kept as ground truth for
    /// the differential equivalence tests (feasible only at small `n`).
    pub fn expectation_sv_reference(&self, sv: &qoncord_sim::statevector::StateVector) -> f64 {
        let hv = self.matrix().mul_vec(sv.amplitudes());
        sv.amplitudes()
            .iter()
            .zip(&hv)
            .map(|(a, b)| (a.conj() * *b).re)
            .sum()
    }

    /// Batched masked sweeps over the listed terms, cache-blocked.
    ///
    /// Both sweeps walk the amplitudes in fixed [`SWEEP_CHUNK`]-wide chunks:
    /// inside each chunk every term runs its own tight inner loop while the
    /// chunk's amplitudes are hot in cache — a branch-free dependency chain
    /// per term (the sign flip is a bitwise XOR of the f64 sign bit, exactly
    /// `·(−1)`) instead of a per-amplitude scan over the term list. Diagonal
    /// terms (`x == 0`, including identity) accumulate signed `|ψ_i|²`
    /// series; off-diagonal terms accumulate
    /// `conj(ψ[i⊕x]) · (−1)^{parity(i&z)} · ψ[i]`. Each chunk's partial is
    /// formed on its own and the partials are folded in chunk order; that
    /// order is part of the result's bits (pinned at 13 and 14 qubits in
    /// `crates/vqa/tests/pauli_equivalence.rs`).
    fn expectation_sv_terms(
        &self,
        group: &[usize],
        sv: &qoncord_sim::statevector::StateVector,
    ) -> f64 {
        let amps = sv.amplitudes();
        let mut diag: Vec<(f64, usize)> = Vec::new();
        let mut offdiag: Vec<(f64, PauliMasks)> = Vec::new();
        for &i in group {
            let (c, p) = &self.terms[i];
            let m = p.masks();
            if m.x == 0 {
                diag.push((*c, m.z));
            } else {
                offdiag.push((*c, m));
            }
        }
        let sign_bit = |i: usize, z: usize| (((i & z).count_ones() as u64) & 1) << 63;
        let mut total = 0.0;
        if !diag.is_empty() {
            let mut sum = 0.0f64;
            for r in chunks(amps.len()) {
                let mut acc = 0.0f64;
                for &(c, z) in &diag {
                    let mut t = 0.0f64;
                    for i in r.clone() {
                        let nsq = amps[i].norm_sq();
                        t += f64::from_bits(nsq.to_bits() ^ sign_bit(i, z));
                    }
                    acc += c * t;
                }
                sum += acc;
            }
            total += sum;
        }
        if !offdiag.is_empty() {
            let mut sums = vec![C64::ZERO; offdiag.len()];
            for r in chunks(amps.len()) {
                for (sum, &(_, m)) in sums.iter_mut().zip(&offdiag) {
                    let mut t = C64::ZERO;
                    for i in r.clone() {
                        let psi = amps[i];
                        let s = sign_bit(i, m.z);
                        let signed = C64 {
                            re: f64::from_bits(psi.re.to_bits() ^ s),
                            im: f64::from_bits(psi.im.to_bits() ^ s),
                        };
                        t += amps[i ^ m.x].conj() * signed;
                    }
                    *sum += t;
                }
            }
            for (&(c, m), s) in offdiag.iter().zip(sums) {
                total += c * re_i_pow(m.y_mod4, s);
            }
        }
        total
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
    fn eigenvalue_is_support_parity() {
        let zz = PauliString::parse("ZZ").unwrap();
        assert_eq!(zz.eigenvalue(0b00), 1.0);
        assert_eq!(zz.eigenvalue(0b01), -1.0);
        assert_eq!(zz.eigenvalue(0b10), -1.0);
        assert_eq!(zz.eigenvalue(0b11), 1.0);
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
    fn expectation_statevector_matches_dist_for_diagonal() {
        let h = PauliSum::from_terms(&[(1.0, "ZZ")]).unwrap();
        let mut qc = Circuit::new(2, 0);
        qc.h(0).cx(0, 1);
        let sv = qc.simulate_ideal(&[]);
        let by_matrix = h.expectation_statevector(&sv);
        let d = ProbDist::new(sv.probabilities());
        let by_dist = h.terms()[0].1.expectation_from_dist(&d);
        assert!((by_matrix - by_dist).abs() < 1e-12);
        assert!((by_matrix - 1.0).abs() < 1e-12, "Bell state has <ZZ> = 1");
    }

    #[test]
    fn identity_offset_accumulates() {
        let h = PauliSum::from_terms(&[(0.25, "II"), (0.5, "II"), (1.0, "ZZ")]).unwrap();
        assert!((h.identity_offset() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn masks_encode_flip_sign_and_phase() {
        let m = PauliString::parse("XYZI").unwrap().masks();
        // X on qubit 0, Y on qubit 1, Z on qubit 2 (string index = qubit).
        assert_eq!(m.x, 0b011, "X|Y positions flip the index");
        assert_eq!(m.z, 0b110, "Z|Y positions carry the sign");
        assert_eq!(m.y_mod4, 1);
        assert_eq!(PauliString::parse("XYZI").unwrap().support_mask(), 0b111);
        assert_eq!(PauliString::identity(4).masks().x, 0);
        assert_eq!(PauliString::identity(4).masks().z, 0);
    }

    #[test]
    fn identity_only_sum_expectation_is_the_coefficient() {
        // Edge case: no measurable term at all — must return c·‖ψ‖² = c,
        // on both the batched and the unbatched path.
        let h = PauliSum::from_terms(&[(0.75, "III")]).unwrap();
        let mut qc = Circuit::new(3, 0);
        qc.h(0).cx(0, 1).s(2);
        let sv = qc.simulate_ideal(&[]);
        assert!((h.expectation_statevector(&sv) - 0.75).abs() < 1e-12);
        assert!((h.expectation_sv_unbatched(&sv) - 0.75).abs() < 1e-12);
        assert!((h.expectation_sv_reference(&sv) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn batched_expectation_matches_dense_reference_with_y_terms() {
        let h = PauliSum::from_terms(&[
            (0.8, "XYZ"),
            (-0.3, "YYI"),
            (0.5, "ZIZ"),
            (0.2, "III"),
            (1.1, "IXI"),
        ])
        .unwrap();
        let mut qc = Circuit::new(3, 0);
        qc.h(0)
            .cx(0, 1)
            .ry(2, std::f64::consts::PI / 5.0)
            .s(0)
            .cx(1, 2);
        let sv = qc.simulate_ideal(&[]);
        let dense = h.expectation_sv_reference(&sv);
        assert!((h.expectation_statevector(&sv) - dense).abs() < 1e-12);
        assert!((h.expectation_sv_unbatched(&sv) - dense).abs() < 1e-12);
    }

    #[test]
    fn group_sweep_matches_per_term_sum() {
        let h = PauliSum::from_terms(&[(1.0, "ZZI"), (0.5, "IZZ"), (0.3, "XXI")]).unwrap();
        let mut qc = Circuit::new(3, 0);
        qc.h(0).cx(0, 1).cx(1, 2).s(1);
        let sv = qc.simulate_ideal(&[]);
        let groups = h.qubit_wise_commuting_groups();
        let by_groups: f64 = groups
            .iter()
            .map(|g| h.expectation_sv_group(g, &sv))
            .sum::<f64>()
            + h.identity_offset();
        let whole = h.expectation_statevector(&sv);
        assert!((by_groups - whole).abs() < 1e-12, "{by_groups} vs {whole}");
    }

    #[test]
    #[should_panic(expected = "state register")]
    fn expectation_rejects_register_mismatch() {
        let h = PauliSum::from_terms(&[(1.0, "ZZ")]).unwrap();
        let qc = Circuit::new(3, 0);
        let sv = qc.simulate_ideal(&[]);
        h.expectation_statevector(&sv);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn group_sweep_rejects_bad_term_index() {
        let h = PauliSum::from_terms(&[(1.0, "ZZ")]).unwrap();
        let sv = Circuit::new(2, 0).simulate_ideal(&[]);
        h.expectation_sv_group(&[3], &sv);
    }
}
