//! Workload generation per the paper's Sec. V-F: a pseudo workload of 1000
//! quantum jobs mixing independent tasks with runtime (VQA) sessions at a
//! configurable ratio, with execution times varying 3× between minimum and
//! maximum, and variable think-time delays inside sessions.

use crate::job::{JobKind, JobSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Minimum per-circuit execution time, seconds; the maximum is 3× this
/// (the paper's empirical variation).
const MIN_SECONDS_PER_CIRCUIT: f64 = 0.05;

/// Parameters of the pseudo-workload generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Number of jobs (the paper uses 1000).
    pub n_jobs: usize,
    /// Fraction of jobs that are VQA runtime sessions (the paper sweeps
    /// 0.1–0.9).
    pub vqa_ratio: f64,
    /// Mean inter-arrival time, seconds.
    pub mean_interarrival: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            n_jobs: 1000,
            vqa_ratio: 0.5,
            mean_interarrival: 1.0,
            seed: 0xC10D,
        }
    }
}

/// Generates the job list, ordered by arrival time.
///
/// # Examples
///
/// ```
/// use qoncord_cloud::workload::{generate_workload, WorkloadConfig};
///
/// let jobs = generate_workload(&WorkloadConfig {
///     n_jobs: 50,
///     vqa_ratio: 0.4,
///     ..WorkloadConfig::default()
/// });
/// assert_eq!(jobs.len(), 50);
/// assert!(jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
/// assert!(jobs.iter().any(|j| j.is_vqa) && jobs.iter().any(|j| !j.is_vqa));
/// ```
///
/// # Panics
///
/// Panics if `vqa_ratio` is outside `[0, 1]` or `n_jobs == 0`.
pub fn generate_workload(config: &WorkloadConfig) -> Vec<JobSpec> {
    assert!(
        (0.0..=1.0).contains(&config.vqa_ratio),
        "vqa_ratio in [0,1]"
    );
    assert!(config.n_jobs > 0, "need at least one job");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut jobs = Vec::with_capacity(config.n_jobs);
    let mut clock = 0.0_f64;
    for id in 0..config.n_jobs {
        // Exponential inter-arrival times.
        let u: f64 = rng.random::<f64>().max(1e-12);
        clock += -config.mean_interarrival * u.ln();
        let is_vqa = rng.random::<f64>() < config.vqa_ratio;
        // Sec. V-F: execution times vary 3× between min and max.
        let seconds_per_circuit = MIN_SECONDS_PER_CIRCUIT * (1.0 + 2.0 * rng.random::<f64>());
        let kind = if is_vqa {
            JobKind::RuntimeSession {
                n_batches: rng.random_range(5..=15),
                circuits_per_batch: rng.random_range(5..=20),
                inter_batch_delay: 1.0 + 4.0 * rng.random::<f64>(),
            }
        } else {
            JobKind::Independent {
                n_circuits: rng.random_range(1..=10),
            }
        };
        jobs.push(JobSpec {
            id,
            arrival: clock,
            kind,
            seconds_per_circuit,
            is_vqa,
        });
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic() {
        let cfg = WorkloadConfig::default();
        assert_eq!(generate_workload(&cfg), generate_workload(&cfg));
    }

    #[test]
    fn arrival_times_are_sorted() {
        let jobs = generate_workload(&WorkloadConfig::default());
        assert!(jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
    }

    #[test]
    fn vqa_ratio_is_respected() {
        for ratio in [0.1, 0.5, 0.9] {
            let cfg = WorkloadConfig {
                vqa_ratio: ratio,
                n_jobs: 2000,
                ..WorkloadConfig::default()
            };
            let jobs = generate_workload(&cfg);
            let observed = jobs.iter().filter(|j| j.is_vqa).count() as f64 / jobs.len() as f64;
            assert!(
                (observed - ratio).abs() < 0.05,
                "ratio {ratio}: observed {observed}"
            );
        }
    }

    #[test]
    fn execution_times_vary_up_to_three_x() {
        let jobs = generate_workload(&WorkloadConfig {
            n_jobs: 3000,
            ..WorkloadConfig::default()
        });
        let min = jobs
            .iter()
            .map(|j| j.seconds_per_circuit)
            .fold(f64::INFINITY, f64::min);
        let max = jobs
            .iter()
            .map(|j| j.seconds_per_circuit)
            .fold(0.0_f64, f64::max);
        assert!(max / min > 2.5, "spread {}", max / min);
        assert!(max / min <= 3.0 + 1e-9);
    }

    #[test]
    fn vqa_jobs_are_sessions() {
        let jobs = generate_workload(&WorkloadConfig {
            vqa_ratio: 1.0,
            n_jobs: 50,
            ..WorkloadConfig::default()
        });
        assert!(jobs
            .iter()
            .all(|j| matches!(j.kind, JobKind::RuntimeSession { .. })));
    }

    #[test]
    #[should_panic(expected = "vqa_ratio")]
    fn bad_ratio_rejected() {
        generate_workload(&WorkloadConfig {
            vqa_ratio: 1.5,
            ..WorkloadConfig::default()
        });
    }
}
