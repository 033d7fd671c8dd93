//! Classical optimizers for VQA training loops.
//!
//! The paper uses Qiskit's SPSA (Simultaneous Perturbation Stochastic
//! Approximation); [`Spsa`] reproduces that algorithm with the standard Spall
//! gain schedule and Qiskit's default hyperparameters.

use rand::rngs::StdRng;
use rand::Rng;

/// One optimizer iteration's outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutcome {
    /// The optimizer's estimate of the objective at the current iterate.
    pub objective: f64,
    /// Objective evaluations consumed by this step.
    pub evaluations: u32,
}

/// An iterative minimizer driven one step at a time.
///
/// Step-wise control is what lets Qoncord pause a run, migrate it to another
/// device, and resume — the whole point of the framework.
pub trait Optimizer {
    /// Performs one iteration, mutating `params` in place. The closure
    /// evaluates the (noisy) objective.
    fn step(
        &mut self,
        params: &mut [f64],
        objective: &mut dyn FnMut(&[f64]) -> f64,
        rng: &mut StdRng,
    ) -> StepOutcome;

    /// Resets internal schedules (iteration counters, moments).
    fn reset(&mut self);
}

/// Configuration of [`Spsa`] (defaults follow Qiskit's implementation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpsaConfig {
    /// Initial step-size numerator `a`.
    pub a: f64,
    /// Initial perturbation magnitude `c`.
    pub c: f64,
    /// Step-size stability constant `A`.
    pub big_a: f64,
    /// Step-size decay exponent `α`.
    pub alpha: f64,
    /// Perturbation decay exponent `γ`.
    pub gamma: f64,
}

impl Default for SpsaConfig {
    fn default() -> Self {
        SpsaConfig {
            a: 0.2,
            c: 0.15,
            big_a: 10.0,
            alpha: 0.602,
            gamma: 0.101,
        }
    }
}

/// Simultaneous Perturbation Stochastic Approximation (Spall 1992), the
/// paper's optimizer. Two objective evaluations per iteration regardless of
/// dimension.
///
/// # Examples
///
/// ```
/// use qoncord_vqa::optimizer::{Optimizer, Spsa};
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
#[derive(Debug, Clone)]
pub struct Spsa {
    config: SpsaConfig,
    k: u64,
}

impl Spsa {
    /// Creates SPSA with explicit configuration.
    pub fn new(config: SpsaConfig) -> Self {
        Spsa { config, k: 0 }
    }

    /// Current iteration count.
    pub fn iteration(&self) -> u64 {
        self.k
    }
}

impl Default for Spsa {
    fn default() -> Self {
        Spsa::new(SpsaConfig::default())
    }
}

impl Optimizer for Spsa {
    fn step(
        &mut self,
        params: &mut [f64],
        objective: &mut dyn FnMut(&[f64]) -> f64,
        rng: &mut StdRng,
    ) -> StepOutcome {
        let _prof = qoncord_prof::span("vqa::spsa_step");
        let k = self.k as f64;
        let cfg = &self.config;
        let ak = cfg.a / (k + 1.0 + cfg.big_a).powf(cfg.alpha);
        let ck = cfg.c / (k + 1.0).powf(cfg.gamma);
        // Rademacher perturbation.
        let delta: Vec<f64> = (0..params.len())
            .map(|_| if rng.random::<bool>() { 1.0 } else { -1.0 })
            .collect();
        let plus: Vec<f64> = params.iter().zip(&delta).map(|(p, d)| p + ck * d).collect();
        let minus: Vec<f64> = params.iter().zip(&delta).map(|(p, d)| p - ck * d).collect();
        let y_plus = objective(&plus);
        let y_minus = objective(&minus);
        let g_scale = (y_plus - y_minus) / (2.0 * ck);
        for (p, d) in params.iter_mut().zip(&delta) {
            *p -= ak * g_scale / d;
        }
        self.k += 1;
        StepOutcome {
            objective: 0.5 * (y_plus + y_minus),
            evaluations: 2,
        }
    }

    fn reset(&mut self) {
        self.k = 0;
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
        let out = spsa.step(&mut params, &mut f, &mut rng);
        assert_eq!(out.evaluations, 2);
        assert_eq!(count, 2);
        assert_eq!(spsa.iteration(), 1);
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

    #[test]
    fn reset_restarts_schedule() {
        let mut spsa = Spsa::default();
        let mut params = vec![1.0];
        let mut rng = StdRng::seed_from_u64(0);
        let mut f = |p: &[f64]| sphere(p);
        spsa.step(&mut params, &mut f, &mut rng);
        spsa.reset();
        assert_eq!(spsa.iteration(), 0);
    }
}
