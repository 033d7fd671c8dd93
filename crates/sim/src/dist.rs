//! Measurement-outcome distributions and the statistics Qoncord's
//! convergence checker consumes: Shannon entropy, Hellinger fidelity, and
//! readout-error application.

use crate::noise::ReadoutError;

/// A probability distribution over the `2^n` computational basis states of an
/// `n`-qubit register (little-endian indexing).
///
/// # Examples
///
/// ```
/// use qoncord_sim::dist::ProbDist;
///
/// let uniform = ProbDist::uniform(2);
/// assert!((uniform.shannon_entropy() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProbDist {
    n_qubits: usize,
    probs: Vec<f64>,
}

impl ProbDist {
    /// Creates a distribution from raw probabilities, renormalizing small
    /// numerical drift.
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two, any entry is negative
    /// beyond `-1e-9`, or the total mass deviates from 1 by more than `1e-6`.
    pub fn new(probs: Vec<f64>) -> Self {
        assert!(probs.len().is_power_of_two(), "length must be 2^n");
        let n_qubits = probs.len().trailing_zeros() as usize;
        let mut probs = probs;
        for p in &mut probs {
            assert!(*p > -1e-9, "negative probability {p}");
            if *p < 0.0 {
                *p = 0.0;
            }
        }
        let total: f64 = probs.iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-6,
            "probabilities sum to {total}, expected 1"
        );
        for p in &mut probs {
            *p /= total;
        }
        ProbDist { n_qubits, probs }
    }

    /// The uniform distribution on `n_qubits` qubits.
    pub fn uniform(n_qubits: usize) -> Self {
        let len = 1usize << n_qubits;
        ProbDist {
            n_qubits,
            probs: vec![1.0 / len as f64; len],
        }
    }

    /// A point mass on basis state `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 2^n_qubits`.
    pub fn point_mass(n_qubits: usize, index: usize) -> Self {
        let len = 1usize << n_qubits;
        assert!(index < len, "index out of range");
        let mut probs = vec![0.0; len];
        probs[index] = 1.0;
        ProbDist { n_qubits, probs }
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Borrow of the probability vector.
    pub fn probabilities(&self) -> &[f64] {
        &self.probs
    }

    /// Shannon entropy in bits: `−Σ p log₂ p`.
    pub fn shannon_entropy(&self) -> f64 {
        -self
            .probs
            .iter()
            .filter(|&&p| p > 0.0)
            .map(|&p| p * p.log2())
            .sum::<f64>()
    }

    /// Hellinger fidelity with `other`: `(Σ √(pᵢ qᵢ))²`, the square of the
    /// Bhattacharyya coefficient. Equals 1 iff the distributions coincide.
    ///
    /// # Panics
    ///
    /// Panics if the register sizes differ.
    pub fn hellinger_fidelity(&self, other: &ProbDist) -> f64 {
        assert_eq!(self.n_qubits, other.n_qubits, "register sizes differ");
        let bc: f64 = self
            .probs
            .iter()
            .zip(&other.probs)
            .map(|(p, q)| (p * q).sqrt())
            .sum();
        bc * bc
    }

    /// Total-variation distance `½ Σ |pᵢ − qᵢ|`.
    ///
    /// # Panics
    ///
    /// Panics if the register sizes differ.
    pub fn total_variation(&self, other: &ProbDist) -> f64 {
        assert_eq!(self.n_qubits, other.n_qubits, "register sizes differ");
        0.5 * self
            .probs
            .iter()
            .zip(&other.probs)
            .map(|(p, q)| (p - q).abs())
            .sum::<f64>()
    }

    /// Expectation of a diagonal observable (per-basis-state values).
    ///
    /// # Panics
    ///
    /// Panics if `diag.len() != 2^n`.
    pub fn expectation_diagonal(&self, diag: &[f64]) -> f64 {
        assert_eq!(diag.len(), self.probs.len());
        self.probs.iter().zip(diag).map(|(p, d)| p * d).sum()
    }

    /// Expectation of a diagonal observable given by a closure over the
    /// basis-state index.
    pub fn expectation_fn(&self, f: impl Fn(usize) -> f64) -> f64 {
        self.probs.iter().enumerate().map(|(i, p)| p * f(i)).sum()
    }

    /// Applies per-qubit readout confusion matrices and returns the corrupted
    /// distribution. `errors[q]` applies to qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `errors.len() != n_qubits`.
    fn with_readout_error(&self, errors: &[ReadoutError]) -> ProbDist {
        assert_eq!(errors.len(), self.n_qubits, "one ReadoutError per qubit");
        let mut probs = self.probs.clone();
        for (q, err) in errors.iter().enumerate() {
            if err.p_flip_0to1 == 0.0 && err.p_flip_1to0 == 0.0 {
                continue;
            }
            let bit = 1usize << q;
            for i in 0..probs.len() {
                if i & bit != 0 {
                    continue;
                }
                let p0 = probs[i];
                let p1 = probs[i | bit];
                probs[i] = p0 * (1.0 - err.p_flip_0to1) + p1 * err.p_flip_1to0;
                probs[i | bit] = p0 * err.p_flip_0to1 + p1 * (1.0 - err.p_flip_1to0);
            }
        }
        ProbDist {
            n_qubits: self.n_qubits,
            probs,
        }
    }

    /// Applies a single uniform readout error to every qubit.
    pub fn with_uniform_readout_error(&self, error: ReadoutError) -> ProbDist {
        self.with_readout_error(&vec![error; self.n_qubits])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_entropy_is_n_bits() {
        for n in 1..6 {
            assert!((ProbDist::uniform(n).shannon_entropy() - n as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn point_mass_entropy_is_zero() {
        assert_eq!(ProbDist::point_mass(3, 5).shannon_entropy(), 0.0);
    }

    #[test]
    fn hellinger_fidelity_self_is_one() {
        let d = ProbDist::new(vec![0.1, 0.2, 0.3, 0.4]);
        assert!((d.hellinger_fidelity(&d) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hellinger_fidelity_disjoint_is_zero() {
        let a = ProbDist::point_mass(1, 0);
        let b = ProbDist::point_mass(1, 1);
        assert_eq!(a.hellinger_fidelity(&b), 0.0);
    }

    #[test]
    fn total_variation_bounds() {
        let a = ProbDist::point_mass(2, 0);
        let b = ProbDist::uniform(2);
        let tv = a.total_variation(&b);
        assert!(tv > 0.0 && tv <= 1.0);
        assert!((tv - 0.75).abs() < 1e-12);
    }

    #[test]
    fn readout_error_mixes_bit_pairs() {
        let d = ProbDist::point_mass(1, 0).with_uniform_readout_error(ReadoutError::symmetric(0.1));
        assert!((d.probabilities()[0] - 0.9).abs() < 1e-12);
        assert!((d.probabilities()[1] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn readout_error_preserves_mass() {
        let d = ProbDist::new(vec![0.4, 0.1, 0.25, 0.25]);
        let noisy =
            d.with_readout_error(&[ReadoutError::new(0.02, 0.08), ReadoutError::symmetric(0.05)]);
        let total: f64 = noisy.probabilities().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn readout_error_increases_entropy_of_point_mass() {
        let clean = ProbDist::point_mass(3, 0);
        let noisy = clean.with_uniform_readout_error(ReadoutError::symmetric(0.05));
        assert!(noisy.shannon_entropy() > clean.shannon_entropy());
    }

    #[test]
    fn expectation_fn_matches_diagonal() {
        let d = ProbDist::new(vec![0.5, 0.0, 0.0, 0.5]);
        // parity observable
        let by_fn = d.expectation_fn(|i| if (i.count_ones() % 2) == 0 { 1.0 } else { -1.0 });
        let by_diag = d.expectation_diagonal(&[1.0, -1.0, -1.0, 1.0]);
        assert!((by_fn - by_diag).abs() < 1e-14);
        assert!((by_fn - 1.0).abs() < 1e-14);
    }

    #[test]
    #[should_panic(expected = "sum to")]
    fn unnormalized_input_panics() {
        let _ = ProbDist::new(vec![0.5, 0.2]);
    }
}
