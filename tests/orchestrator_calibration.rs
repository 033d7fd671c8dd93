//! Closed-loop admission calibration on a systematically biased trace.
//!
//! The trace mixes two estimate-error populations the engine produces
//! naturally:
//!
//! - **Pessimistic** (realized ≪ projected): multi-restart jobs with
//!   `TopK(1)` triage and a fat fine-tuning budget. The a-priori estimate
//!   prices *every* restart's full fine-tune; triage then prunes all but
//!   one, so the job finishes far earlier than projected. Their deadlines
//!   are set between realized and projected completion, so a static-margin
//!   controller **falsely rejects every one of them**.
//! - **Optimistic** (realized > projected): small interactive jobs arriving
//!   into wave contention. The load view sees only the one queued batch per
//!   active shard — an admitted job's *future* batches are invisible — so
//!   the projection undershoots and their 2×-service interactive deadlines
//!   are missed. A static margin admits them anyway; every miss drags SLA
//!   attainment down.
//!
//! The calibrated controller must converge on both: learn a negative margin
//! for the pessimistic key (recovering the falsely rejected jobs) and a
//! positive margin for the optimistic key (refusing the unkeepable
//! deadlines), ending with SLA attainment at least the static baseline's
//! and strictly fewer false rejections — measured against an admit-all
//! oracle run of the same trace.

use qoncord_core::executor::{EvaluatorFactory, QaoaFactory};
use qoncord_core::scheduler::QoncordConfig;
use qoncord_core::SelectionPolicy;
use qoncord_orchestrator::calibration::ServiceClass;
use qoncord_orchestrator::{
    two_lf_one_hf_fleet, AdmissionConfig, AdmissionMode, CalibrationConfig, Orchestrator,
    OrchestratorConfig, OrchestratorReport, TenantJob,
};
use qoncord_vqa::graph::Graph;
use qoncord_vqa::maxcut::MaxCut;

const WAVES: usize = 8;

fn factory() -> Box<dyn EvaluatorFactory> {
    Box::new(QaoaFactory {
        problem: MaxCut::new(Graph::paper_graph_7()),
        layers: 1,
    })
}

/// A pessimistically estimated job: 5 restarts priced at a 30-iteration
/// fine-tune each, of which triage will keep exactly one.
fn pruner_config(seed: u64) -> QoncordConfig {
    QoncordConfig {
        exploration_max_iterations: 6,
        finetune_max_iterations: 30,
        selection: SelectionPolicy::TopK(1),
        seed,
        ..QoncordConfig::default()
    }
}

/// A small interactive job whose contention-driven queueing the projection
/// cannot see.
fn optimist_config(seed: u64) -> QoncordConfig {
    QoncordConfig {
        exploration_max_iterations: 4,
        finetune_max_iterations: 6,
        seed,
        ..QoncordConfig::default()
    }
}

/// The full trace, three jobs per wave:
///
/// - an interactive **optimist** arriving first, whose projection sees an
///   empty fleet and cannot know that a high-priority heavy job will
///   arrive an instant later and outrank every one of its remaining
///   batches — realized completion runs *late* against the projection;
/// - a pruner-shaped, high-priority **probe** with a deadline too generous
///   to ever be denied, whose completions keep the pessimistic
///   (tier, Absolute) key learning even while victims are being rejected;
/// - a deadline-carrying pruner (**victim** of pessimistic estimates,
///   deadline from `victim_deadlines`, `None` = best effort).
fn trace(wave_gap: f64, victim_deadlines: &[Option<f64>]) -> Vec<TenantJob> {
    let mut jobs = Vec::new();
    for wave in 0..WAVES {
        let t = wave as f64 * wave_gap;
        let base = (wave * 3) as u64;
        jobs.push(
            TenantJob::new(wave * 3, "optimist", t, factory())
                .with_restarts(1)
                .with_config(optimist_config(300 + base))
                .with_deadline_class(qoncord_orchestrator::DeadlineClass::Interactive),
        );
        jobs.push(
            TenantJob::new(wave * 3 + 1, "probe", t + 0.001, factory())
                .with_restarts(5)
                .with_priority(3)
                .with_config(pruner_config(100 + base))
                .with_deadline(t + 1000.0),
        );
        let victim = TenantJob::new(wave * 3 + 2, "victim", t + 0.002, factory())
            .with_restarts(5)
            .with_config(pruner_config(200 + base));
        jobs.push(match victim_deadlines[wave] {
            Some(deadline) => victim.with_deadline(deadline),
            None => victim,
        });
    }
    jobs
}

fn run(
    mode_config: AdmissionConfig,
    wave_gap: f64,
    deadlines: &[Option<f64>],
) -> OrchestratorReport {
    // One LF + one HF device: every wave genuinely contends for the
    // exploration rung, whatever admission denies.
    let mut fleet = two_lf_one_hf_fleet();
    fleet.remove(1);
    let orchestrator = Orchestrator::new(
        OrchestratorConfig {
            admission: mode_config,
            calibration: CalibrationConfig { min_samples: 2 },
            ..OrchestratorConfig::default()
        },
        fleet,
    );
    orchestrator.run(&trace(wave_gap, deadlines))
}

/// Denied jobs that the admit-all oracle shows would have met their
/// deadline — the rejections that were wrong.
fn false_rejections(report: &OrchestratorReport, oracle_met: &[bool]) -> usize {
    report
        .jobs
        .iter()
        .filter(|j| j.status.is_denied() && oracle_met[j.id])
        .count()
}

#[test]
fn calibrated_admission_converges_on_biased_estimates() {
    let wave_gap = 60.0;
    let no_deadlines: Vec<Option<f64>> = vec![None; WAVES];

    // ── Oracle: admit everything, observe realized completions. ──
    let oracle = run(AdmissionConfig::default(), wave_gap, &no_deadlines);
    assert_eq!(oracle.completed(), oracle.jobs.len(), "oracle runs all");

    // Victim deadlines: halfway between realized and projected completion —
    // comfortably keepable, yet projected (with any margin ≥ 0) as missed.
    let mut victim_deadlines = vec![None; WAVES];
    let mut oracle_met = vec![false; oracle.jobs.len()];
    for wave in 0..WAVES {
        let victim = &oracle.jobs[wave * 3 + 2];
        let realized = victim.telemetry.completion.expect("oracle completed");
        let projected = victim
            .telemetry
            .admission_estimate
            .expect("estimate recorded")
            .completion;
        assert!(
            realized < projected,
            "wave {wave}: pruner estimates must be pessimistic ({realized} vs {projected})"
        );
        victim_deadlines[wave] = Some((realized + projected) / 2.0);
        oracle_met[victim.id] = true;
    }
    for job in &oracle.jobs {
        if let Some(met) = job.telemetry.sla_met() {
            oracle_met[job.id] = met;
        }
    }
    eprintln!("oracle met: {oracle_met:?}");
    for job in &oracle.jobs {
        eprintln!(
            "  job {:>2} {:<9} realized {:>9.2} projected {:>9.2} err {:>9.2} sla {:?}",
            job.id,
            job.tenant,
            job.telemetry.completion.unwrap_or(f64::NAN),
            job.telemetry
                .admission_estimate
                .map_or(f64::NAN, |e| e.completion),
            job.telemetry.estimate_error.unwrap_or(f64::NAN),
            job.telemetry.sla_met(),
        );
    }

    // ── Static baseline: Reject with the zero default margin. ──
    let static_run = run(
        AdmissionConfig::with_mode(AdmissionMode::Reject),
        wave_gap,
        &victim_deadlines,
    );
    let static_attainment = static_run.sla_attainment().expect("optimists run");
    let static_false = false_rejections(&static_run, &oracle_met);
    eprintln!(
        "static: attainment {static_attainment:.3}, denied {}, false rejections {static_false}",
        static_run.denied()
    );
    assert!(
        static_attainment < 1.0,
        "the static margin must start with SLA misses (got {static_attainment})"
    );
    assert_eq!(
        static_false, WAVES,
        "the static margin falsely rejects every keepable pruner deadline"
    );

    // ── Calibrated: learned per-tier/per-class margins. ──
    let calibrated = run(AdmissionConfig::calibrated(), wave_gap, &victim_deadlines);
    let calibrated_attainment = calibrated.sla_attainment().expect("jobs run");
    let calibrated_false = false_rejections(&calibrated, &oracle_met);
    eprintln!(
        "calibrated: attainment {calibrated_attainment:.3}, denied {}, false rejections {calibrated_false}",
        calibrated.denied()
    );
    for s in &calibrated.calibration {
        eprintln!(
            "  t {:>9.2} tier {} {:?} err {:?} margin {:>9.2} samples {}",
            s.time, s.key.tier, s.key.class, s.error, s.margin, s.samples
        );
    }
    assert!(
        calibrated_attainment >= static_attainment,
        "calibration must not lose SLA attainment: {calibrated_attainment} vs {static_attainment}"
    );
    assert!(
        calibrated_false < static_false,
        "calibration must strictly cut false rejections: {calibrated_false} vs {static_false}"
    );

    // Per-tier margin history is visible in telemetry and converged the
    // right way on both populations: negative for the pessimistic pruner
    // key, positive for the optimistic interactive key.
    assert!(calibrated.calibration.iter().any(|s| s.key.tier == 0));
    let last_margin = |class: ServiceClass| {
        calibrated
            .calibration
            .iter()
            .rev()
            .find(|s| s.key.class == class)
            .map(|s| s.margin)
            .expect("class appears in the history")
    };
    assert!(
        last_margin(ServiceClass::Absolute) < 0.0,
        "pessimistic estimates earn a negative margin"
    );
    assert!(
        last_margin(ServiceClass::Interactive) > 0.0,
        "optimistic estimates earn a positive margin"
    );
}
