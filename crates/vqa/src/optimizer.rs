//! The classical optimizer of the VQA training loops.
//!
//! The paper uses Qiskit's SPSA (Simultaneous Perturbation Stochastic
//! Approximation); [`Spsa`] reproduces that algorithm with the standard Spall
//! gain schedule and Qiskit's default hyperparameters.

use rand::rngs::StdRng;
use rand::Rng;

// Spall's gain schedule at Qiskit's defaults: step size
// `a / (k + 1 + A)^α`, perturbation `c / (k + 1)^γ`.
const A: f64 = 0.2;
const C: f64 = 0.15;
const BIG_A: f64 = 10.0;
const ALPHA: f64 = 0.602;
const GAMMA: f64 = 0.101;

/// Simultaneous Perturbation Stochastic Approximation (Spall 1992), the
/// paper's optimizer. Two objective evaluations per iteration regardless of
/// dimension.
///
/// Step-wise control is what lets Qoncord pause a run, migrate it to another
/// device, and resume — the whole point of the framework.
///
/// # Examples
///
/// ```
/// use qoncord_vqa::optimizer::Spsa;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut spsa = Spsa::default();
/// let mut params = vec![3.0, -2.0];
/// let mut rng = StdRng::seed_from_u64(5);
/// let mut quadratic = |p: &[f64]| p.iter().map(|x| x * x).sum::<f64>();
/// for _ in 0..200 {
///     spsa.step(&mut params, &mut quadratic, &mut rng);
/// }
/// assert!(quadratic(&params) < 0.2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Spsa {
    k: u64,
    /// Reused by every step: the perturbation signs, then the perturbed
    /// point, `params.len()` of each.
    scratch: Vec<f64>,
}

impl Spsa {
    /// Performs one iteration, mutating `params` in place. The closure
    /// evaluates the (noisy) objective.
    pub fn step(
        &mut self,
        params: &mut [f64],
        objective: &mut dyn FnMut(&[f64]) -> f64,
        rng: &mut StdRng,
    ) {
        let _prof = qoncord_prof::span("vqa::spsa_step");
        let k = self.k as f64;
        let ak = A / (k + 1.0 + BIG_A).powf(ALPHA);
        let ck = C / (k + 1.0).powf(GAMMA);
        // Rademacher perturbation.
        let n = params.len();
        self.scratch.clear();
        self.scratch
            .extend((0..n).map(|_| if rng.random::<bool>() { 1.0 } else { -1.0 }));
        self.scratch.resize(2 * n, 0.0);
        let (delta, point) = self.scratch.split_at_mut(n);
        for ((x, p), d) in point.iter_mut().zip(&*params).zip(&*delta) {
            *x = p + ck * d;
        }
        let y_plus = objective(point);
        for ((x, p), d) in point.iter_mut().zip(&*params).zip(&*delta) {
            *x = p - ck * d;
        }
        let y_minus = objective(point);
        let g_scale = (y_plus - y_minus) / (2.0 * ck);
        for (p, d) in params.iter_mut().zip(&*delta) {
            *p -= ak * g_scale / d;
        }
        self.k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn sphere(p: &[f64]) -> f64 {
        p.iter().map(|x| x * x).sum()
    }

    #[test]
    fn spsa_minimizes_sphere() {
        let mut spsa = Spsa::default();
        let mut params = vec![2.0, -1.5, 0.8];
        let mut rng = StdRng::seed_from_u64(2);
        let mut f = |p: &[f64]| sphere(p);
        for _ in 0..300 {
            spsa.step(&mut params, &mut f, &mut rng);
        }
        assert!(sphere(&params) < 0.1, "residual {}", sphere(&params));
    }

    #[test]
    fn spsa_uses_two_evals_per_step() {
        let mut spsa = Spsa::default();
        let mut params = vec![1.0];
        let mut rng = StdRng::seed_from_u64(0);
        let mut count = 0u32;
        let mut f = |p: &[f64]| {
            count += 1;
            sphere(p)
        };
        spsa.step(&mut params, &mut f, &mut rng);
        assert_eq!(count, 2);
    }

    #[test]
    fn steps_apply_the_paper_gains_bitwise() {
        let tilted = |p: &[f64]| sphere(p) + p[0];
        let mut spsa = Spsa::default();
        let mut params = vec![0.7, -1.3, 2.1, 0.05];
        let mut rng = StdRng::seed_from_u64(11);
        let mut draw = rng.clone();
        // Qiskit's gains: a = 0.2, A = 10, α = 0.602, c = 0.15, γ = 0.101.
        let gains = [
            (0.2 / 11.0f64.powf(0.602), 0.15),
            (0.2 / 12.0f64.powf(0.602), 0.15 / 2.0f64.powf(0.101)),
        ];
        for (ak, ck) in gains {
            let start = params.clone();
            let mut probes = Vec::new();
            let mut f = |p: &[f64]| {
                probes.push(p.to_vec());
                tilted(p)
            };
            spsa.step(&mut params, &mut f, &mut rng);

            let delta: Vec<f64> = (0..start.len())
                .map(|_| if draw.random::<bool>() { 1.0 } else { -1.0 })
                .collect();
            let plus: Vec<f64> = start.iter().zip(&delta).map(|(p, d)| p + ck * d).collect();
            let minus: Vec<f64> = start.iter().zip(&delta).map(|(p, d)| p - ck * d).collect();
            let g = (tilted(&plus) - tilted(&minus)) / (2.0 * ck);
            assert_eq!(probes, vec![plus, minus]);
            let expected: Vec<u64> = start
                .iter()
                .zip(&delta)
                .map(|(p, d)| (p - ak * g / d).to_bits())
                .collect();
            let got: Vec<u64> = params.iter().map(|p| p.to_bits()).collect();
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn spsa_tolerates_noisy_objectives() {
        let mut spsa = Spsa::default();
        let mut params = vec![1.8, -1.2];
        let mut rng = StdRng::seed_from_u64(3);
        let mut noise_rng = StdRng::seed_from_u64(99);
        let mut f = |p: &[f64]| sphere(p) + 0.05 * (noise_rng.random::<f64>() - 0.5);
        for _ in 0..400 {
            spsa.step(&mut params, &mut f, &mut rng);
        }
        assert!(sphere(&params) < 0.3, "residual {}", sphere(&params));
    }
}
