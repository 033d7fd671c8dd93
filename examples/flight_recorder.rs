//! Domain example: the flight recorder — run a contended multi-tenant trace
//! with preemption on while a [`MemorySink`] captures every engine
//! decision, then consume the capture three ways: rebuild the report's
//! telemetry from the events alone (and diff it against the engine's own
//! report), export a Perfetto/Chrome timeline to
//! `target/flight_recorder_trace.json`, and print the latency histograms
//! the engine aggregates on every run.
//!
//! Open the exported file at <https://ui.perfetto.dev> to see one track per
//! fleet device (lease slices, evicted occupancy, queue depth) and one per
//! job (submission-to-completion spans with admission/eviction markers).
//!
//! Run with: `cargo run --release --example flight_recorder`

use qoncord::core::executor::QaoaFactory;
use qoncord::core::scheduler::QoncordConfig;
use qoncord::orchestrator::trace::{self, MemorySink, TraceHandle, CHROME_FLEET_PID};
use qoncord::orchestrator::{
    two_lf_one_hf_fleet, DeadlineClass, Orchestrator, OrchestratorConfig, PreemptionConfig,
    TenantJob,
};
use qoncord::vqa::{graph::Graph, maxcut::MaxCut};
use std::cell::RefCell;
use std::rc::Rc;

fn jobs() -> Vec<TenantJob> {
    (0..5)
        .map(|i| {
            let factory = QaoaFactory {
                problem: MaxCut::new(Graph::paper_graph_7()),
                layers: 1,
            };
            let config = QoncordConfig {
                exploration_max_iterations: 8,
                finetune_max_iterations: 10,
                seed: 7 + i as u64,
                ..QoncordConfig::default()
            };
            if i == 4 {
                TenantJob::new(i, "urgent", 1.0, Box::new(factory))
                    .with_restarts(2)
                    .with_priority(3)
                    .with_deadline_class(DeadlineClass::Interactive)
                    .with_config(config)
            } else {
                TenantJob::new(i, format!("batch-{i}"), 0.0, Box::new(factory))
                    .with_restarts(3)
                    .with_config(config)
            }
        })
        .collect()
}

fn main() {
    let sink = Rc::new(RefCell::new(MemorySink::new()));
    let report = Orchestrator::new(
        OrchestratorConfig {
            preemption: PreemptionConfig::enabled(),
            trace: TraceHandle::to(sink.clone()),
            ..OrchestratorConfig::default()
        },
        two_lf_one_hf_fleet(),
    )
    .run(&jobs());
    let records = sink.borrow().records().to_vec();

    println!(
        "captured {} events across {:.2}s of virtual time ({} jobs, {} evictions)\n",
        records.len(),
        report.makespan(),
        report.completed(),
        report.total_evictions()
    );

    // Consumer 1: the event stream is lossless — replaying it rebuilds the
    // engine's telemetry exactly.
    let rebuilt = trace::reconstruct_report(&records);
    let diff = rebuilt.diff(&report);
    assert!(
        diff.is_empty(),
        "reconstruction must match the engine report:\n{}",
        diff.join("\n")
    );
    println!("reconstruction: rebuilt report matches the engine bit-for-bit");

    // Consumer 2: Perfetto/Chrome timeline export.
    let chrome = trace::chrome_export(&records);
    let summary = trace::validate_chrome_trace(&chrome).expect("export must validate");
    let device_tracks: Vec<_> = summary
        .tracks_of(CHROME_FLEET_PID)
        .into_iter()
        .filter(|t| t.name.is_some())
        .collect();
    assert_eq!(device_tracks.len(), report.fleet.devices.len());
    assert!(device_tracks.iter().all(|t| t.duration_events > 0));
    let path = std::path::Path::new("target").join("flight_recorder_trace.json");
    std::fs::create_dir_all("target").expect("create target dir");
    std::fs::write(&path, &chrome).expect("write trace file");
    println!(
        "perfetto: wrote {} ({} events, {} device tracks) — open at ui.perfetto.dev",
        path.display(),
        summary.total_events,
        device_tracks.len()
    );

    // Consumer 3: the aggregates the engine keeps on every run, sink or no
    // sink.
    let t = &report.trace;
    println!("\nlatency histograms (virtual seconds):");
    for (name, h) in [("wait", &t.wait), ("turnaround", &t.turnaround)] {
        println!(
            "  {:<10} n={:<3} mean={:>8.3} p50={:>8.3} p90={:>8.3} max={:>8.3}",
            name,
            h.count(),
            h.mean(),
            h.quantile(0.5).unwrap_or(0.0),
            h.quantile(0.9).unwrap_or(0.0),
            h.max().unwrap_or(0.0),
        );
    }
    println!(
        "\nper-device occupancy over the {:.2}s makespan:",
        report.makespan()
    );
    for device in &report.fleet.devices {
        let idle = report.makespan() - device.busy_seconds - device.wasted_seconds;
        println!(
            "  {:<16} busy={:>8.3}s wasted={:>7.3}s idle={:>8.3}s",
            device.name,
            device.busy_seconds,
            device.wasted_seconds,
            idle.max(0.0),
        );
    }
}
