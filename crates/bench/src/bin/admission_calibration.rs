//! Admission-calibration sweep: replay the paper's Sec. V-F workload trace
//! through three admission controllers on the same arrivals — an admit-all
//! oracle, the static-margin Reject controller, and the calibrated
//! controller (learned per-tier/per-class margins over decay-aware
//! feasibility projections). Reports SLA attainment, denials, false
//! rejections (denials the oracle shows would have met their deadline),
//! and mean |estimate error|, and writes the calibrated run's
//! error-vs-time learning curve to CSV — the closed-loop story behind
//! `AdmissionMode::Calibrated`.

use qoncord_bench::{fmt, print_table, write_csv, ExperimentArgs};
use qoncord_cloud::workload::{generate_workload, WorkloadConfig};
use qoncord_core::executor::QaoaFactory;
use qoncord_core::scheduler::QoncordConfig;
use qoncord_orchestrator::{
    replay_workload, two_lf_one_hf_fleet, AdmissionConfig, AdmissionMode, CalibrationConfig,
    Orchestrator, OrchestratorConfig, OrchestratorReport, ReplayConfig, TenantJob,
};
use qoncord_vqa::graph::Graph;
use qoncord_vqa::maxcut::MaxCut;

/// Folded into the trace seed so the default `--seed` produces a balanced
/// interactive/session mix at the quick scale.
const TRACE_SALT: u64 = 0xCA1B;

fn engine_config(label: &str) -> OrchestratorConfig {
    let admission = match label {
        "AdmitAll" => AdmissionConfig::default(),
        "StaticReject" => AdmissionConfig::with_mode(AdmissionMode::Reject),
        "Calibrated" => AdmissionConfig::calibrated(),
        other => unreachable!("unknown engine {other}"),
    };
    OrchestratorConfig {
        admission,
        calibration: CalibrationConfig { min_samples: 3 },
        ..OrchestratorConfig::default()
    }
}

/// Denied jobs whose oracle (admit-all) completion met the deadline they
/// were denied for.
fn false_rejections(report: &OrchestratorReport, oracle: &OrchestratorReport) -> usize {
    report
        .jobs
        .iter()
        .filter(|j| {
            j.status.is_denied()
                && oracle.jobs[j.id]
                    .telemetry
                    .sla_met()
                    // Deadline-free oracle probes: met if they completed.
                    .unwrap_or(oracle.jobs[j.id].status.is_completed())
        })
        .count()
}

fn main() {
    let args = ExperimentArgs::parse();
    let n_jobs = args.scale(12, 48);
    let specs = generate_workload(&WorkloadConfig {
        n_jobs,
        vqa_ratio: 0.6,
        mean_interarrival: 0.4,
        seed: args.seed ^ TRACE_SALT,
    });
    let replay = ReplayConfig {
        tenants: 4,
        training: QoncordConfig {
            exploration_max_iterations: args.scale(8, 20),
            finetune_max_iterations: args.scale(10, 30),
            seed: args.seed,
            ..QoncordConfig::default()
        },
        session_restarts: args.restarts(2, 4),
        interactive_priority: 2,
        // Every 4th job replays deadline-free: an unbiased estimate-error
        // probe the rejecting controllers cannot silence.
        deadline_free_stride: Some(4),
    };
    let jobs = || -> Vec<TenantJob> {
        replay_workload(&specs, &replay, |_| {
            Box::new(QaoaFactory {
                problem: MaxCut::new(Graph::paper_graph_7()),
                layers: 1,
            })
        })
    };

    let oracle = Orchestrator::new(engine_config("AdmitAll"), two_lf_one_hf_fleet()).run(&jobs());
    let mut rows = Vec::new();
    let mut summary_csv = Vec::new();
    let mut calibrated_report = None;
    for engine in ["AdmitAll", "StaticReject", "Calibrated"] {
        let report = Orchestrator::new(engine_config(engine), two_lf_one_hf_fleet()).run(&jobs());
        let sla = report.sla_attainment().unwrap_or(1.0);
        let false_rej = false_rejections(&report, &oracle);
        let mean_err = report.mean_abs_estimate_error().unwrap_or(0.0);
        let row = vec![
            engine.to_string(),
            fmt(sla, 3),
            report.denied().to_string(),
            false_rej.to_string(),
            fmt(mean_err, 3),
            report.calibration.len().to_string(),
        ];
        rows.push(row.clone());
        summary_csv.push(row);
        if engine == "Calibrated" {
            calibrated_report = Some(report);
        }
    }
    println!(
        "Admission calibration on a replayed {n_jobs}-job trace ({} interactive / {} sessions, {} deadline-free probes)\n",
        specs.iter().filter(|s| !s.is_vqa).count(),
        specs.iter().filter(|s| s.is_vqa).count(),
        specs.iter().filter(|s| s.id % 4 == 0).count(),
    );
    print_table(
        &[
            "Engine",
            "SLA attainment",
            "denied",
            "false rejections",
            "mean |err| (s)",
            "outcomes fed",
        ],
        &rows,
    );
    println!("\n(Calibrated should hold attainment at or above StaticReject with no more false rejections)");
    write_csv(
        "admission_calibration.csv",
        &[
            "engine",
            "sla_attainment",
            "denied",
            "false_rejections",
            "mean_abs_error",
            "outcomes_fed",
        ],
        &summary_csv,
    );

    // The calibrated run's learning curve: estimate error and margin in
    // force per ingested outcome, over virtual time.
    let calibrated = calibrated_report.expect("calibrated engine ran");
    let curve: Vec<Vec<String>> = calibrated
        .calibration
        .iter()
        .map(|s| {
            vec![
                fmt(s.time, 4),
                s.key.tier.to_string(),
                format!("{:?}", s.key.class),
                s.error.map_or(String::new(), |e| fmt(e, 4)),
                fmt(s.margin, 4),
                s.samples.to_string(),
            ]
        })
        .collect();
    write_csv(
        "admission_calibration_curve.csv",
        &["time", "tier", "class", "error", "margin", "samples"],
        &curve,
    );
}
