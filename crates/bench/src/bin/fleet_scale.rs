//! Fleet-scale trajectory for the indexed scheduler core: sweeps tenant
//! count (10² → 10⁵) and fleet size (10 → 10³), measuring admission
//! decisions/sec and dispatches/sec through the indexed
//! [`FairShareQueue`], plus a head-to-head dispatch-throughput comparison
//! against the retained seed implementation
//! ([`ReferenceFairShareQueue`]'s linear scan) at a fixed queue depth.
//!
//! Emits `BENCH_fleet_scale.json` in the working directory (the repo root
//! under `cargo run`) alongside the usual CSV + table; CI smoke-runs the
//! quick scale and fails if the JSON is missing its required keys.
//!
//! Run with `--paper` for the full sweep (the committed JSON's scale).

use qoncord_bench::{fmt, print_table, write_csv, ExperimentArgs};
use qoncord_cloud::device::hypothetical_fleet;
use qoncord_cloud::fairshare::{FairShareQueue, QueueOpStats, QueuedRequest};
use qoncord_cloud::policy::{estimate_feasibility_decayed, Placement, QueueModel, UsageDecayModel};
use qoncord_cloud::reference::ReferenceFairShareQueue;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::Instant;

/// One sweep point's measurements.
struct Point {
    tenants: usize,
    devices: usize,
    queued_requests: usize,
    admissions_per_sec: f64,
    dispatches_per_sec: f64,
    makespan: f64,
    /// The queue's own operation counters over the probes and the drain —
    /// proof the run stayed on the indexed fast path (`index_rebuilds`
    /// tracks decay epochs, not pops; `drain_rekeys` is one build of the
    /// drain-order index, not one per probe).
    queue_ops: QueueOpStats,
}

fn request(id: usize, tenants: usize, rng: &mut StdRng) -> QueuedRequest {
    QueuedRequest {
        id,
        user: format!("t{}", id % tenants),
        requested_seconds: 0.5 + rng.random::<f64>() * 9.5,
        submitted_at: (id / 4) as f64,
    }
}

/// Loads `n` device-tagged requests over `tenants` tenants with randomized
/// balances, round-robin across `devices`.
fn load_queue(n: usize, tenants: usize, devices: usize, seed: u64) -> FairShareQueue {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut q = FairShareQueue::new();
    for t in 0..tenants {
        q.record_usage(&format!("t{t}"), rng.random::<f64>() * 1000.0)
            .expect("finite balance");
    }
    for id in 0..n {
        let r = request(id, tenants, &mut rng);
        q.push_for_device(r, id % devices).expect("unique ids");
    }
    q
}

/// Drains a queue via round-robin `pop_for_device`, charging usage per pop
/// and decaying every `n/16` pops — the dispatcher's hot loop in
/// miniature. Returns (elapsed seconds, makespan).
fn drain_indexed(q: &mut FairShareQueue, n: usize, devices: usize) -> (f64, f64) {
    let decay_every = (n / 16).max(1);
    let mut per_device = vec![0.0f64; devices];
    let mut pops = 0usize;
    let started = Instant::now();
    let mut d = 0;
    while !q.is_empty() {
        if let Some(r) = q.pop_for_device(d) {
            q.record_usage(&r.user, r.requested_seconds)
                .expect("finite seconds");
            per_device[d] += r.requested_seconds;
            pops += 1;
            if pops.is_multiple_of(decay_every) {
                q.decay_usage(0.9).expect("valid factor");
            }
        }
        d = (d + 1) % devices;
    }
    let elapsed = started.elapsed().as_secs_f64();
    (elapsed, per_device.iter().cloned().fold(0.0, f64::max))
}

/// The seed dispatcher's equivalent: round-robin `pop_where` linear scans
/// over the reference queue, with the device tags the seed orchestrator
/// kept on the side. Same usage charging and decay cadence.
fn drain_reference(
    q: &mut ReferenceFairShareQueue,
    tags: &HashMap<usize, usize>,
    n: usize,
    devices: usize,
) -> f64 {
    let decay_every = (n / 16).max(1);
    let mut pops = 0usize;
    let started = Instant::now();
    let mut d = 0;
    while !q.is_empty() {
        if let Some(r) = q.pop_where(|r| tags.get(&r.id) == Some(&d)) {
            q.record_usage(&r.user, r.requested_seconds)
                .expect("finite seconds");
            pops += 1;
            if pops.is_multiple_of(decay_every) {
                q.decay_usage(0.9).expect("valid factor");
            }
        }
        d = (d + 1) % devices;
    }
    started.elapsed().as_secs_f64()
}

/// Times `probes` decay-aware admission decisions against a loaded queue.
fn time_admissions(q: &FairShareQueue, tenants: usize, devices: usize, probes: usize) -> f64 {
    let fleet = hypothetical_fleet(devices, 0.3, 0.9);
    let secs = vec![1.0; devices];
    let decay = UsageDecayModel::every(50.0, 0.9);
    let started = Instant::now();
    for k in 0..probes {
        let placements = [Placement {
            device: k % devices,
            circuits: 10,
            quality_weight: 1.0,
        }];
        let probe = QueuedRequest {
            id: usize::MAX,
            user: format!("t{}", (k * 7) % tenants),
            requested_seconds: 8.0,
            submitted_at: 1000.0,
        };
        let est = estimate_feasibility_decayed(
            &placements,
            &fleet,
            &secs,
            0.0,
            QueueModel {
                queue: q,
                probe: &probe,
                probe_credit: (k % 3) as f64 * 10.0,
                decay,
            },
        );
        assert!(est.completion.is_finite());
    }
    started.elapsed().as_secs_f64()
}

fn sweep_point(tenants: usize, devices: usize, seed: u64) -> Point {
    // Two queued requests per tenant keeps queue depth proportional to
    // tenant count without dwarfing the device axis.
    let n = tenants * 2;
    let mut q = load_queue(n, tenants, devices, seed);
    // Admission cost scales with queue depth, so probe counts shrink as
    // the queue grows to keep each point's wall time bounded.
    let probes = (2_000_000 / n).max(20);
    let admission_secs = time_admissions(&q, tenants, devices, probes);
    let (dispatch_secs, makespan) = drain_indexed(&mut q, n, devices);
    Point {
        tenants,
        devices,
        queued_requests: n,
        admissions_per_sec: probes as f64 / admission_secs,
        dispatches_per_sec: n as f64 / dispatch_secs,
        makespan,
        queue_ops: q.stats(),
    }
}

/// Indexed-vs-reference dispatch throughput at a fixed queue depth.
fn reference_comparison(n: usize, devices: usize, seed: u64) -> (usize, usize, f64, f64) {
    let tenants = (n / 4).max(1);
    let mut indexed = load_queue(n, tenants, devices, seed);
    let (indexed_secs, _) = drain_indexed(&mut indexed, n, devices);

    let mut rng = StdRng::seed_from_u64(seed);
    let mut reference = ReferenceFairShareQueue::new();
    let mut tags = HashMap::new();
    for t in 0..tenants {
        reference
            .record_usage(&format!("t{t}"), rng.random::<f64>() * 1000.0)
            .expect("finite balance");
    }
    for id in 0..n {
        let r = request(id, tenants, &mut rng);
        tags.insert(id, id % devices);
        reference.push(r);
    }
    let reference_secs = drain_reference(&mut reference, &tags, n, devices);
    (
        n,
        devices,
        n as f64 / indexed_secs,
        n as f64 / reference_secs,
    )
}

fn main() {
    let args = ExperimentArgs::parse();
    let tenant_axis: &[usize] = if args.paper {
        &[100, 1_000, 10_000, 100_000]
    } else {
        &[100, 1_000]
    };
    let device_axis: &[usize] = if args.paper {
        &[10, 100, 1_000]
    } else {
        &[10, 100]
    };

    let mut points = Vec::new();
    for &tenants in tenant_axis {
        for &devices in device_axis {
            points.push(sweep_point(tenants, devices, args.seed));
        }
    }

    let cmp_n = args.scale(2_000, 10_000);
    let cmp_devices = args.scale(10, 100);
    let (cmp_requests, cmp_devs, indexed_rate, reference_rate) =
        reference_comparison(cmp_n, cmp_devices, args.seed);
    let speedup = indexed_rate / reference_rate;

    let headers = [
        "tenants",
        "devices",
        "queued",
        "admissions/s",
        "dispatches/s",
        "makespan",
        "rebuilds",
    ];
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.tenants.to_string(),
                p.devices.to_string(),
                p.queued_requests.to_string(),
                fmt(p.admissions_per_sec, 0),
                fmt(p.dispatches_per_sec, 0),
                fmt(p.makespan, 1),
                p.queue_ops.index_rebuilds.to_string(),
            ]
        })
        .collect();
    print_table(&headers, &rows);
    println!(
        "\nreference comparison @ {cmp_requests} requests / {cmp_devs} devices: \
         indexed {indexed_rate:.0}/s vs reference {reference_rate:.0}/s \
         ({speedup:.1}x)"
    );
    write_csv("fleet_scale.csv", &headers, &rows);

    let mut json = String::from("{\n");
    json.push_str("  \"experiment\": \"fleet_scale\",\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if args.paper { "paper" } else { "quick" }
    ));
    json.push_str(&format!("  \"seed\": {},\n", args.seed));
    json.push_str("  \"sweep\": [\n");
    for (i, p) in points.iter().enumerate() {
        let ops = &p.queue_ops;
        json.push_str(&format!(
            "    {{\"tenants\": {}, \"devices\": {}, \"queued_requests\": {}, \
             \"admissions_per_sec\": {:.1}, \"dispatches_per_sec\": {:.1}, \
             \"makespan\": {:.2}, \
             \"queue_ops\": {{\"pushes\": {}, \"pops\": {}, \"cancels\": {}, \
             \"index_rebuilds\": {}, \"backlog_refreshes\": {}, \
             \"drain_rekeys\": {}, \"projection_walked\": {}}}}}{}\n",
            p.tenants,
            p.devices,
            p.queued_requests,
            p.admissions_per_sec,
            p.dispatches_per_sec,
            p.makespan,
            ops.pushes,
            ops.pops,
            ops.cancels,
            ops.index_rebuilds,
            ops.backlog_refreshes,
            ops.drain_rekeys,
            ops.projection_walked,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"reference_comparison\": {{\"queued_requests\": {cmp_requests}, \
         \"devices\": {cmp_devs}, \"indexed_dispatches_per_sec\": {indexed_rate:.1}, \
         \"reference_dispatches_per_sec\": {reference_rate:.1}, \
         \"dispatch_speedup\": {speedup:.2}}}\n"
    ));
    json.push_str("}\n");
    qoncord_bench::require_keys(
        &json,
        &[
            "experiment",
            "mode",
            "seed",
            "sweep",
            "tenants",
            "devices",
            "queued_requests",
            "admissions_per_sec",
            "dispatches_per_sec",
            "makespan",
            "queue_ops",
            "pushes",
            "pops",
            "cancels",
            "index_rebuilds",
            "backlog_refreshes",
            "drain_rekeys",
            "projection_walked",
            "reference_comparison",
            "dispatch_speedup",
        ],
    )
    .expect("BENCH_fleet_scale.json schema");
    std::fs::write("BENCH_fleet_scale.json", json).expect("write BENCH_fleet_scale.json");
    println!("wrote BENCH_fleet_scale.json");
}
