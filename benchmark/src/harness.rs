//! The run protocol. An untraced invocation sets up three times (generate
//! inputs, construct, one warm-up repetition), then repeats
//! `Orchestrator::run` on the same inputs with every instrument off. A
//! traced invocation observes the same inputs three ways — benchmark spans,
//! the program's own profiler, layer probes — and checks that observing
//! does not perturb the simulated outcome.
//!
//! Host-time metrics are taken from the *fastest* measured repetition. The
//! program is deterministic and single-threaded, so everything else on the
//! host can only add time; on the shared 2-core sandbox a whole invocation
//! can sit inside a slow phase (+30 % for a minute), and the fastest of the
//! repetitions spreads about half as wide between invocations as their
//! median. Quartiles of all repetitions go to the `#` lines. `setup_s` is
//! the median of the three set-ups.

use crate::check::{self, Outcome, RepSummary};
use crate::metrics::Metrics;
use crate::spans::{self, Recorder, Span, TimedFactory};
use crate::workloads::{self, Workload};
use crate::{probes, stats};
use qoncord_orchestrator::trace::reconstruct_report;
use qoncord_orchestrator::{
    chrome_export, JsonlSink, MemorySink, Orchestrator, OrchestratorConfig, OrchestratorReport,
    TraceHandle,
};
use qoncord_prof::{ProfileReport, Profiler};
use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;

/// Set-ups per untraced invocation; `setup_s` is their median.
const SETUPS: usize = 3;
/// Measured repetitions at least, however short `--seconds` is.
const MIN_REPS: usize = 5;
/// Untraced repetitions a traced invocation times as its own baseline.
const BASELINE_REPS: usize = 3;

/// What one invocation produced.
pub struct Run {
    pub metrics: Metrics,
    /// Summaries of the repetitions the checks cover.
    pub reps: Vec<RepSummary>,
    /// Violations beyond [`check::violations`] (traced invocation only).
    pub violations: Vec<String>,
    /// `#` comment lines: quartiles, digest, counts.
    pub notes: Vec<String>,
}

fn plain(workload: &str, seed: u64) -> Workload {
    workloads::build(workload, seed, &|_, factory| factory).expect("workload name was validated")
}

fn orchestrator(workload: &Workload, config: OrchestratorConfig) -> Orchestrator {
    Orchestrator::new(config, workload.fleet.clone())
}

fn timed_run(orchestrator: &Orchestrator, workload: &Workload) -> (f64, OrchestratorReport) {
    let started = Instant::now();
    let report = orchestrator.run(&workload.jobs);
    (started.elapsed().as_secs_f64(), report)
}

/// The fastest of the measured repetitions.
fn fastest(walls: &[f64]) -> f64 {
    walls.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Two untimed repetitions of `workload`, for the checker's self-test.
pub fn two_reps(workload: &str, seed: u64) -> Vec<RepSummary> {
    let w = plain(workload, seed);
    let o = orchestrator(&w, w.config.clone());
    (0..2)
        .map(|_| RepSummary::of(&o.run(&w.jobs), &w.jobs))
        .collect()
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn sim_notes(rep: &RepSummary, notes: &mut Vec<String>) {
    let turnarounds = rep.turnarounds();
    let (tail_p, _) = check::turnaround_tail(&turnarounds);
    notes.push(format!("sim_digest {:016x}", rep.digest));
    notes.push(format!(
        "jobs {} completed {} denied {} executions {} | sim_turnaround_tail_s is p{tail_p} of N={}",
        rep.jobs.len(),
        rep.count(Outcome::Completed),
        rep.count(Outcome::Denied),
        rep.executions(),
        turnarounds.len()
    ));
}

/// Runs the untraced protocol and collects every end-to-end metric.
pub fn untraced(workload: &str, seed: u64, seconds: f64) -> Run {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut built: Option<(Workload, Orchestrator)> = None;
    for _ in 0..SETUPS {
        // Free the previous copy first, so the peak holds one set of inputs.
        drop(built.take());
        let started = Instant::now();
        let w = plain(workload, seed);
        let o = orchestrator(&w, w.config.clone());
        drop(o.run(&w.jobs));
        setups.push(started.elapsed().as_secs_f64());
        built = Some((w, o));
    }
    let (w, o) = built.expect("at least one set-up ran");
    // Read before the records of the measured repetitions pile up: how many
    // of those fit into the window is the host's doing, not the program's.
    let mut violations = Vec::new();
    let rss = peak_rss_mib().unwrap_or_else(|| {
        violations.push("VmHWM is not readable from /proc/self/status".to_owned());
        0.0
    });

    let mut walls = Vec::new();
    let mut reps = Vec::new();
    let measuring = Instant::now();
    // A repetition starts only if it can end inside the window, so that an
    // invocation's length does not depend on where the last one falls.
    while reps.len() < MIN_REPS || measuring.elapsed().as_secs_f64() + fastest(&walls) < seconds {
        let (wall, report) = timed_run(&o, &w);
        walls.push(wall);
        reps.push(RepSummary::of(&report, &w.jobs));
    }

    let rep = &reps[0];
    let wall = fastest(&walls);
    let turnarounds = rep.turnarounds();
    let mut m = Metrics::default();
    m.put("setup_s", stats::median(&setups));
    m.put("wall_s", wall);
    m.put("evals_per_s", rep.executions() as f64 / wall);
    m.put("admissions_per_s", rep.admission_verdicts as f64 / wall);
    m.put("dispatches_per_s", rep.lease_grants as f64 / wall);
    m.put("peak_rss_mib", rss);
    m.put("sim_makespan_s", rep.makespan);
    m.put("sim_wait_mean_s", rep.wait_mean());
    m.put(
        "sim_turnaround_p50_s",
        stats::percentile(&turnarounds, 50.0),
    );
    m.put(
        "sim_turnaround_tail_s",
        check::turnaround_tail(&turnarounds).1,
    );
    m.put("sim_sla_attainment", rep.sla_attainment());
    m.put("sim_cost_total", rep.cost_total);
    m.put("approx_ratio_mean", rep.approx_ratio_mean());

    let (q1, q2, q3) = stats::quartiles(&walls);
    let mut notes = vec![
        format!(
            "reps {} wall_s q1 {q1:.4} median {q2:.4} q3 {q3:.4}",
            walls.len()
        ),
        format!("walls {walls:.4?} setups {setups:.4?}"),
    ];
    sim_notes(rep, &mut notes);
    Run {
        metrics: m,
        reps,
        violations,
        notes,
    }
}

/// Self seconds of the profile entries whose label starts with a prefix.
fn self_seconds(perf: &ProfileReport, prefixes: &[&str]) -> f64 {
    perf.entries
        .iter()
        .filter(|e| prefixes.iter().any(|p| e.label().starts_with(p)))
        .map(|e| e.self_ns() as f64 * 1e-9)
        .sum::<f64>()
        // An empty sum is -0.0; print a layer that never ran as plain 0.
        + 0.0
}

/// Runs the traced protocol and collects every per-layer metric.
pub fn traced(workload: &str, seed: u64) -> Run {
    let mut run = Run {
        metrics: Metrics::default(),
        reps: Vec::new(),
        violations: Vec::new(),
        notes: Vec::new(),
    };

    // Baseline: the same inputs untraced, with the set-up split out.
    let started = Instant::now();
    let w = plain(workload, seed);
    run.metrics
        .put("setup.generate_s", started.elapsed().as_secs_f64());
    let started = Instant::now();
    let o = orchestrator(&w, w.config.clone());
    run.metrics
        .put("setup.construct_s", started.elapsed().as_secs_f64());
    let (warmup, mut report) = timed_run(&o, &w);
    run.metrics.put("setup.warmup_rep_s", warmup);
    let mut walls = Vec::new();
    for _ in 0..BASELINE_REPS {
        let (wall, next) = timed_run(&o, &w);
        walls.push(wall);
        run.reps.push(RepSummary::of(&next, &w.jobs));
        report = next;
    }
    let untraced_wall = fastest(&walls);

    spans_pass(workload, seed, untraced_wall, &mut run);
    profiler_pass(&o, &w, untraced_wall, &mut run);
    recorder_pass(&w, untraced_wall, &mut run);
    shard_pass(&w, untraced_wall, &mut run);
    report_counts(&report, &mut run.metrics);
    // (b) Layer probes on inputs taken from the workload.
    probes::run_all(&w, &report, &mut run.metrics);

    let (q1, q2, q3) = stats::quartiles(&walls);
    run.notes.push(format!(
        "untraced baseline reps {} wall_s q1 {q1:.4} median {q2:.4} q3 {q3:.4}",
        walls.len()
    ));
    sim_notes(&run.reps[0], &mut run.notes);
    run
}

/// (a) One repetition with every factory wrapped: the `run.*` metrics and
/// the Chrome-trace file.
fn spans_pass(workload: &str, seed: u64, untraced_wall: f64, run: &mut Run) {
    let recorder = Recorder::new();
    let wrapped = workloads::build(workload, seed, &|job, inner| {
        Box::new(TimedFactory {
            inner,
            job,
            recorder: recorder.clone(),
        })
    })
    .expect("workload name was validated");
    let o = orchestrator(&wrapped, wrapped.config.clone());
    recorder.start();
    let report = o.run(&wrapped.jobs);
    let spans = recorder.finish();
    run.reps.push(RepSummary::of(&report, &wrapped.jobs));
    span_metrics(&spans, untraced_wall, &mut run.metrics);
    if let Err(e) = spans::validate(&spans) {
        run.violations
            .push(format!("benchmark spans are malformed: {e}"));
        return;
    }
    let json = spans::chrome_json(workload, &spans);
    if let Err(e) = qoncord_orchestrator::validate_chrome_trace(&json) {
        run.violations
            .push(format!("span export is not a valid Chrome trace: {e}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let dir = PathBuf::from(target).join("benchmark");
    let path = dir.join(format!("{workload}.trace.json"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => run
            .notes
            .push(format!("spans {} -> {}", spans.len(), path.display())),
        Err(e) => run
            .violations
            .push(format!("cannot write {}: {e}", path.display())),
    }
}

/// (c) One repetition under the program's own profiler, folded by
/// span-label prefix into layer self times.
fn profiler_pass(o: &Orchestrator, w: &Workload, untraced_wall: f64, run: &mut Run) {
    let profiler = Profiler::new();
    let (wall, report) = {
        let _installed = profiler.install();
        timed_run(o, w)
    };
    run.reps.push(RepSummary::of(&report, &w.jobs));
    let perf = &report.perf;
    let m = &mut run.metrics;
    // The empty prefix matches every label: all self time over the wall.
    m.put("prof.coverage_ratio", self_seconds(perf, &[""]) / wall);
    m.put("prof.overhead_ratio", wall / untraced_wall);
    m.put("prof.spans", perf.total_spans() as f64);
    m.put("prof.dropped_spans", perf.dropped_spans as f64);
    for (name, prefixes) in [
        ("orchestrator.self_s", &["engine::"][..]),
        (
            "cloud.self_s",
            &["fairshare::push", "fairshare::pop", "fairshare::rebuild"],
        ),
        ("cloud.projection_self_s", &["fairshare::projection"]),
        ("circuit.self_s", &["circuit::"]),
        ("vqa.self_s", &["vqa::"]),
        ("sim.sv_self_s", &["sim::sv::", "sim::fuse::"]),
        ("sim.dm_self_s", &["sim::dm::apply_"]),
        (
            "sim.dm_channel_self_s",
            &["sim::dm::channel", "sim::dm::depolarizing"],
        ),
    ] {
        m.put(name, self_seconds(perf, prefixes));
    }
    let mut by_self: Vec<_> = perf.entries.iter().collect();
    by_self.sort_by_key(|e| std::cmp::Reverse(e.self_ns()));
    for entry in by_self.iter().take(6) {
        run.notes.push(format!(
            "prof self {:.4}s x{} {}",
            entry.self_ns() as f64 * 1e-9,
            entry.count,
            entry.folded_path()
        ));
    }
}

/// The flight recorder: one repetition into a `MemorySink` (replayed and
/// exported), one into a `JsonlSink`.
fn recorder_pass(w: &Workload, untraced_wall: f64, run: &mut Run) {
    let sink = Rc::new(RefCell::new(MemorySink::new()));
    let config = OrchestratorConfig {
        trace: TraceHandle::to(sink.clone()),
        ..w.config.clone()
    };
    let (wall, report) = timed_run(&orchestrator(w, config), w);
    run.reps.push(RepSummary::of(&report, &w.jobs));
    let sink = sink.borrow();
    let records = sink.records();
    let m = &mut run.metrics;
    m.put("trace.memory_sink_overhead_ratio", wall / untraced_wall);
    m.put("trace.events_per_s", records.len() as f64 / wall);
    let started = Instant::now();
    let rebuilt = reconstruct_report(records);
    m.put("trace.reconstruct_s", started.elapsed().as_secs_f64());
    let diff = rebuilt.diff(&report);
    if !diff.is_empty() {
        run.violations.push(format!(
            "reconstruct_report differs from the engine report: {}",
            diff.join("; ")
        ));
    }
    let started = Instant::now();
    drop(chrome_export(records));
    m.put("trace.chrome_export_s", started.elapsed().as_secs_f64());

    let jsonl = Rc::new(RefCell::new(JsonlSink::new()));
    let config = OrchestratorConfig {
        trace: TraceHandle::to(jsonl.clone()),
        ..w.config.clone()
    };
    let (wall, report) = timed_run(&orchestrator(w, config), w);
    run.reps.push(RepSummary::of(&report, &w.jobs));
    m.put("trace.jsonl_overhead_ratio", wall / untraced_wall);
    m.put("trace.jsonl_bytes", jsonl.borrow().as_str().len() as f64);
}

/// The shard axis, on the one workload whose batches are heavy enough to
/// hoist; no number at all without a second CPU.
fn shard_pass(w: &Workload, untraced_wall: f64, run: &mut Run) {
    let host_cpus = crate::host_cpus();
    let speedup = if w.name != "traj_fleet" {
        0.0
    } else if host_cpus < 2 {
        run.notes.push(
            "orchestrator.shard_speedup \"unmeasurable\" (host_cpus < 2), printed as 0".to_owned(),
        );
        0.0
    } else {
        let shards = host_cpus.min(4);
        let config = OrchestratorConfig {
            shards,
            ..w.config.clone()
        };
        let (wall, report) = timed_run(&orchestrator(w, config), w);
        run.reps.push(RepSummary::of(&report, &w.jobs));
        run.notes
            .push(format!("orchestrator.shard_speedup at shards = {shards}"));
        untraced_wall / wall
    };
    run.metrics.put("orchestrator.shard_speedup", speedup);
}

/// Counts and ratios an untraced report already carries.
fn report_counts(report: &OrchestratorReport, m: &mut Metrics) {
    let events = &report.trace.events;
    let busy: f64 = report.fleet.devices.iter().map(|d| d.busy_seconds).sum();
    let downgraded = report
        .jobs
        .iter()
        .filter(|j| j.telemetry.downgraded)
        .count();
    let engine_self = m.get("run.engine_self_s").expect("the spans pass ran");
    for (name, value) in [
        ("orchestrator.events", events.total() as f64),
        ("orchestrator.lease_grants", events.lease_grants as f64),
        ("orchestrator.evictions", events.evictions as f64),
        (
            "orchestrator.admission_verdicts",
            events.admission_verdicts as f64,
        ),
        ("orchestrator.denied", report.denied() as f64),
        ("orchestrator.downgraded", downgraded as f64),
        (
            "orchestrator.calibration_updates",
            events.calibration_updates as f64,
        ),
        (
            "orchestrator.host_us_per_event",
            engine_self * 1e6 / events.total() as f64,
        ),
        (
            "orchestrator.wasted_ratio",
            report.total_wasted_seconds() / busy,
        ),
        (
            "orchestrator.mean_utilization",
            report.fleet.mean_utilization(),
        ),
    ] {
        m.put(name, value);
    }
}

/// The `run.*` metrics from the benchmark spans (`spans[0]` is the root).
fn span_metrics(spans: &[Span], untraced_wall: f64, m: &mut Metrics) {
    let seconds = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .sum()
    };
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count() as f64;
    let traced_wall = spans[0].dur_ns() as f64 * 1e-9;
    let evaluate = stats::sorted(
        spans
            .iter()
            .filter(|s| s.name == "evaluate")
            .map(|s| s.dur_ns() as f64)
            .collect(),
    );
    m.put("run.traced_wall_s", traced_wall);
    m.put("run.trace_overhead_ratio", traced_wall / untraced_wall);
    m.put("run.make_s", seconds("make"));
    m.put("run.make_calls", count("make"));
    m.put("run.evaluate_s", seconds("evaluate"));
    m.put("run.evaluate_calls", evaluate.len() as f64);
    m.put("run.evaluate_p50_us", stats::quantile(&evaluate, 0.5) / 1e3);
    m.put("run.evaluate_p99_us", probes::tail_us(&evaluate));
    m.put(
        "run.engine_self_s",
        traced_wall - seconds("make") - seconds("evaluate"),
    );
    m.put("run.evaluate_share", seconds("evaluate") / traced_wall);
}
