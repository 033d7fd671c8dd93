//! What one repetition produced, reduced to plain data, and the
//! correctness checks run over it. The checker sees only this summary, so
//! the self-test can corrupt a copy and watch it fail.

use crate::stats;
use qoncord_orchestrator::{OrchestratorReport, TenantJob};

/// How a job ended, as far as the benchmark cares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Completed,
    Denied,
    /// Anything else (filter-rejected, or corrupted by the self-test): a
    /// failed operation.
    Other,
}

/// One job's record.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSummary {
    pub outcome: Outcome,
    pub wait: Option<f64>,
    pub turnaround: Option<f64>,
    /// Completion time bits, for the digest.
    pub completion: Option<f64>,
    /// Whether it kept its promise: completed within the deadline it was
    /// admitted under, or completed at all when it was submitted without.
    pub kept: bool,
    pub executions: u64,
    pub device_seconds: f64,
    /// `(best energy, ground energy, approximation ratio)` when completed.
    pub quality: Option<(f64, f64, f64)>,
}

/// One repetition's outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct RepSummary {
    pub jobs: Vec<JobSummary>,
    pub device_busy: Vec<f64>,
    pub makespan: f64,
    pub cost_total: f64,
    pub admission_verdicts: u64,
    pub lease_grants: u64,
    pub digest: u64,
}

impl RepSummary {
    /// Reduces an engine report; `jobs` are the specs it ran.
    pub fn of(report: &OrchestratorReport, jobs: &[TenantJob]) -> Self {
        let summaries: Vec<JobSummary> = report
            .jobs
            .iter()
            .zip(jobs)
            .map(|(record, spec)| {
                let t = &record.telemetry;
                let outcome = if record.status.is_completed() {
                    Outcome::Completed
                } else if record.status.is_denied() {
                    Outcome::Denied
                } else {
                    Outcome::Other
                };
                let kept = outcome == Outcome::Completed
                    && (spec.deadline.is_none() || t.sla_met() == Some(true));
                JobSummary {
                    outcome,
                    wait: t.wait_time(),
                    turnaround: t.turnaround(),
                    completion: t.completion,
                    kept,
                    executions: t.executions,
                    device_seconds: t.busy_seconds(),
                    quality: record.status.report().map(|r| {
                        (
                            r.best_expectation(),
                            r.ground_energy,
                            r.best_approximation_ratio(),
                        )
                    }),
                }
            })
            .collect();
        let mut summary = RepSummary {
            jobs: summaries,
            device_busy: report
                .fleet
                .devices
                .iter()
                .map(|d| d.busy_seconds)
                .collect(),
            makespan: report.makespan(),
            cost_total: report.total_cost(),
            admission_verdicts: report.trace.events.admission_verdicts,
            lease_grants: report.trace.events.lease_grants,
            digest: 0,
        };
        summary.digest = summary.compute_digest();
        summary
    }

    /// FNV-1a over every job's outcome, completion bits, executions and
    /// best-energy bits, then every device's busy-second bits.
    pub fn compute_digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |word: u64| {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for job in &self.jobs {
            eat(job.outcome as u64);
            eat(job.completion.map_or(u64::MAX, f64::to_bits));
            eat(job.executions);
            eat(job.quality.map_or(u64::MAX, |(best, _, _)| best.to_bits()));
        }
        for busy in &self.device_busy {
            eat(busy.to_bits());
        }
        h
    }

    pub fn count(&self, outcome: Outcome) -> usize {
        self.jobs.iter().filter(|j| j.outcome == outcome).count()
    }

    pub fn executions(&self) -> u64 {
        self.jobs.iter().map(|j| j.executions).sum()
    }

    /// Mean wait of the jobs that started.
    pub fn wait_mean(&self) -> f64 {
        let waits: Vec<f64> = self.jobs.iter().filter_map(|j| j.wait).collect();
        waits.iter().sum::<f64>() / waits.len().max(1) as f64
    }

    /// Ascending turnarounds of the completed jobs.
    pub fn turnarounds(&self) -> Vec<f64> {
        stats::sorted(self.jobs.iter().filter_map(|j| j.turnaround).collect())
    }

    /// Jobs that kept their promise over jobs submitted.
    pub fn sla_attainment(&self) -> f64 {
        self.jobs.iter().filter(|j| j.kept).count() as f64 / self.jobs.len() as f64
    }

    /// Mean best approximation ratio over completed jobs.
    pub fn approx_ratio_mean(&self) -> f64 {
        let ratios: Vec<f64> = self
            .jobs
            .iter()
            .filter_map(|j| j.quality.map(|q| q.2))
            .collect();
        ratios.iter().sum::<f64>() / ratios.len().max(1) as f64
    }
}

/// The tail statistic of a sorted turnaround sample: the highest of
/// p75/p90/p99 with at least ten samples beyond it, or the maximum (p100)
/// when the sample is too small for any of them.
pub fn turnaround_tail(sorted: &[f64]) -> (u32, f64) {
    match stats::tail_percentile(sorted.len()) {
        Some(p) => (p, stats::percentile(sorted, f64::from(p))),
        None => (100, stats::percentile(sorted, 100.0)),
    }
}

/// Checks every repetition of one invocation; returns one line per
/// violation (empty = correct).
pub fn violations(reps: &[RepSummary]) -> Vec<String> {
    let mut out = Vec::new();
    for (i, rep) in reps.iter().enumerate() {
        let other = rep.count(Outcome::Other);
        if other > 0 {
            out.push(format!(
                "rep {i}: {other} of {} jobs ended neither completed nor denied",
                rep.jobs.len()
            ));
        }
        let busy: f64 = rep.device_busy.iter().sum();
        let leased: f64 = rep.jobs.iter().map(|j| j.device_seconds).sum();
        if (busy - leased).abs() > 1e-9 * busy.max(leased) {
            out.push(format!(
                "rep {i}: device busy seconds {busy} != job device seconds {leased}"
            ));
        }
        for (id, job) in rep.jobs.iter().enumerate() {
            if let Some((best, ground, ratio)) = job.quality {
                if !(ratio > 0.0 && ratio <= 1.0) {
                    out.push(format!("rep {i}: job {id} approximation ratio {ratio}"));
                }
                if best < ground - 1e-6 {
                    out.push(format!(
                        "rep {i}: job {id} best energy {best} below ground {ground}"
                    ));
                }
            } else if job.outcome == Outcome::Completed {
                out.push(format!(
                    "rep {i}: completed job {id} has no training report"
                ));
            }
        }
        if rep.digest != rep.compute_digest() {
            out.push(format!("rep {i}: stored digest does not match its records"));
        }
        if rep.digest != reps[0].digest {
            out.push(format!(
                "rep {i}: sim_digest {:016x} differs from rep 0's {:016x}",
                rep.digest, reps[0].digest
            ));
        }
    }
    out
}

/// Jobs counted as failed: every job of a repetition that broke a check,
/// otherwise the jobs that ended neither completed nor denied.
fn failed_jobs(reps: &[RepSummary]) -> usize {
    reps.iter()
        .map(|rep| {
            if violations(std::slice::from_ref(rep)).is_empty() && rep.digest == reps[0].digest {
                0
            } else {
                rep.jobs.len()
            }
        })
        .sum()
}

/// The result line's `(correct, attempted, failed)` for `reps`, given every
/// violation found (the checker's and the caller's own).
pub fn verdict(reps: &[RepSummary], violations: &[String]) -> (bool, usize, usize) {
    let attempted = reps.iter().map(|r| r.jobs.len()).sum();
    if violations.is_empty() {
        (true, attempted, 0)
    } else {
        // A violation outside the per-repetition checks still fails a job.
        (false, attempted, failed_jobs(reps).max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(outcome: Outcome) -> JobSummary {
        let done = outcome == Outcome::Completed;
        JobSummary {
            outcome,
            wait: done.then_some(1.0),
            turnaround: done.then_some(3.0),
            completion: done.then_some(3.0),
            kept: done,
            executions: if done { 9 } else { 0 },
            device_seconds: if done { 2.0 } else { 0.0 },
            quality: done.then_some((-0.8, -1.0, 0.8)),
        }
    }

    fn rep() -> RepSummary {
        let mut rep = RepSummary {
            jobs: vec![
                job(Outcome::Completed),
                job(Outcome::Denied),
                job(Outcome::Completed),
            ],
            device_busy: vec![1.5, 2.5],
            makespan: 3.0,
            cost_total: 4.0,
            admission_verdicts: 3,
            lease_grants: 6,
            digest: 0,
        };
        rep.digest = rep.compute_digest();
        rep
    }

    #[test]
    fn clean_reps_pass() {
        assert!(violations(&[rep(), rep()]).is_empty());
        assert_eq!(failed_jobs(&[rep(), rep()]), 0);
        assert!((rep().sla_attainment() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn each_corruption_is_caught() {
        let mut unfinished = rep();
        unfinished.jobs[0].outcome = Outcome::Other;
        unfinished.digest = unfinished.compute_digest();
        assert!(!violations(&[unfinished]).is_empty());

        let mut leaky = rep();
        leaky.device_busy[0] += 1.0;
        leaky.digest = leaky.compute_digest();
        assert!(!violations(&[leaky]).is_empty());

        let mut drifted = rep();
        drifted.jobs[2].executions += 1;
        drifted.digest = drifted.compute_digest();
        let reps = [rep(), drifted];
        assert!(!violations(&reps).is_empty());
        assert_eq!(failed_jobs(&reps), 3, "only the deviating rep fails");
    }

    #[test]
    fn tail_falls_back_to_the_maximum_on_small_samples() {
        let small: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(turnaround_tail(&small), (100, 8.0));
        let big: Vec<f64> = (1..=48).map(f64::from).collect();
        assert_eq!(turnaround_tail(&big), (75, 36.0));
    }
}
