//! The metric registry: every name the benchmark may print, with its unit
//! and direction. `BENCHMARK.json` lists the same names (a unit test
//! compares the two), and an invocation must emit exactly one registry
//! section — no more, no fewer.

use std::collections::BTreeMap;

/// An end-to-end metric: `(name, unit, better, bound)`.
pub type EndToEnd = (&'static str, &'static str, &'static str, f64);
/// A per-layer metric: `(name, unit, better)`.
pub type PerLayer = (&'static str, &'static str, &'static str);

/// Host-clock metrics come from the fastest measured repetition (`setup_s`:
/// the median set-up); `sim_*` and `approx_ratio_mean` are simulated-clock
/// results, bit-repeatable for a seed. Bounds are shares of the parent's
/// median. They are sized from the spreads seen over ten different seeds
/// (each at least three times the widest): the host's slow phases for the
/// time-derived ones, the seed-to-seed variation of the inputs for the
/// simulated ones — a same-seed comparison of `sim_*` is exact.
pub const END_TO_END: &[EndToEnd] = &[
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("evals_per_s", "1/s", "higher", 0.25),
    ("admissions_per_s", "1/s", "higher", 0.25),
    ("dispatches_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.10),
    ("sim_makespan_s", "sim_s", "lower", 0.08),
    ("sim_wait_mean_s", "sim_s", "lower", 0.20),
    ("sim_turnaround_p50_s", "sim_s", "lower", 0.25),
    ("sim_turnaround_tail_s", "sim_s", "lower", 0.10),
    ("sim_sla_attainment", "ratio", "higher", 0.20),
    ("sim_cost_total", "price.s", "lower", 0.05),
    ("approx_ratio_mean", "ratio", "higher", 0.15),
];

pub const PER_LAYER: &[PerLayer] = &[
    // (a) benchmark spans around the orchestrator -> vqa boundary
    ("run.traced_wall_s", "s", "lower"),
    ("run.trace_overhead_ratio", "ratio", "lower"),
    ("run.make_s", "s", "lower"),
    ("run.make_calls", "count", "lower"),
    ("run.evaluate_s", "s", "lower"),
    ("run.evaluate_calls", "count", "lower"),
    ("run.evaluate_p50_us", "us", "lower"),
    ("run.evaluate_p99_us", "us", "lower"),
    ("run.engine_self_s", "s", "lower"),
    ("run.evaluate_share", "ratio", "higher"),
    ("setup.generate_s", "s", "lower"),
    ("setup.construct_s", "s", "lower"),
    ("setup.warmup_rep_s", "s", "lower"),
    // (c) fold of the program's own profiler by span-label prefix
    ("prof.coverage_ratio", "ratio", "higher"),
    ("prof.overhead_ratio", "ratio", "lower"),
    ("prof.spans", "count", "lower"),
    ("prof.dropped_spans", "count", "lower"),
    ("orchestrator.self_s", "s", "lower"),
    ("cloud.self_s", "s", "lower"),
    ("cloud.projection_self_s", "s", "lower"),
    ("circuit.self_s", "s", "lower"),
    ("vqa.self_s", "s", "lower"),
    ("sim.sv_self_s", "s", "lower"),
    ("sim.dm_self_s", "s", "lower"),
    ("sim.dm_channel_self_s", "s", "lower"),
    // (b) layer probes
    ("sim.sv_apply_ns_per_amp", "ns", "lower"),
    ("sim.sv_apply_12q_ns_per_amp", "ns", "lower"),
    ("sim.dm_apply_ns_per_elem", "ns", "lower"),
    ("sim.dm_depolarize_ns_per_elem", "ns", "lower"),
    ("sim.traj_noise_ns_per_site", "ns", "lower"),
    ("sim.fuse_us", "us", "lower"),
    ("sim.fused_ops_per_gate", "ratio", "lower"),
    ("sim.ops", "count", "lower"),
    ("sim.state_bytes", "B", "lower"),
    ("circuit.transpile_us", "us", "lower"),
    ("circuit.bind_ops_us", "us", "lower"),
    ("circuit.gates_1q", "count", "lower"),
    ("circuit.gates_2q", "count", "lower"),
    ("circuit.depth", "count", "lower"),
    ("circuit.swaps_inserted", "count", "lower"),
    ("device.run_lf_p50_us", "us", "lower"),
    ("device.run_lf_p99_us", "us", "lower"),
    ("device.run_hf_p50_us", "us", "lower"),
    ("device.run_ideal_p50_us", "us", "lower"),
    ("device.noisy_over_ideal_ratio", "ratio", "lower"),
    ("vqa.evaluator_build_us", "us", "lower"),
    ("vqa.qaoa_evaluate_p50_us", "us", "lower"),
    ("vqa.qaoa_evaluate_p99_us", "us", "lower"),
    ("vqa.vqe_evaluate_p50_us", "us", "lower"),
    ("vqa.evaluate_minus_run_us", "us", "lower"),
    ("vqa.train_step_us", "us", "lower"),
    ("vqa.evals_per_step", "count", "lower"),
    ("vqa.pauli_expectation_us", "us", "lower"),
    ("core.phase_step_us", "us", "lower"),
    ("core.checkpoint_roundtrip_ns", "ns", "lower"),
    ("core.select_restarts_us", "us", "lower"),
    ("core.solo_schedule_s", "s", "lower"),
    ("core.solo_executions", "count", "lower"),
    ("cloud.push_ns", "ns", "lower"),
    ("cloud.pop_ns", "ns", "lower"),
    ("cloud.cancel_ns", "ns", "lower"),
    ("cloud.requeue_ns", "ns", "lower"),
    ("cloud.decay_rebuild_us", "us", "lower"),
    ("cloud.projection_p50_us", "us", "lower"),
    ("cloud.projection_p99_us", "us", "lower"),
    ("cloud.place_job_us", "us", "lower"),
    ("cloud.pushes", "count", "lower"),
    ("cloud.pops", "count", "lower"),
    ("cloud.cancels", "count", "lower"),
    ("cloud.index_rebuilds", "count", "lower"),
    ("cloud.backlog_refreshes", "count", "lower"),
    ("orchestrator.events", "count", "lower"),
    ("orchestrator.lease_grants", "count", "lower"),
    ("orchestrator.evictions", "count", "lower"),
    ("orchestrator.admission_verdicts", "count", "higher"),
    ("orchestrator.denied", "count", "lower"),
    ("orchestrator.downgraded", "count", "lower"),
    ("orchestrator.calibration_updates", "count", "lower"),
    ("orchestrator.host_us_per_event", "us", "lower"),
    ("orchestrator.wasted_ratio", "ratio", "lower"),
    ("orchestrator.mean_utilization", "ratio", "higher"),
    ("orchestrator.assess_us", "us", "lower"),
    ("orchestrator.shard_speedup", "ratio", "higher"),
    ("trace.memory_sink_overhead_ratio", "ratio", "lower"),
    ("trace.jsonl_overhead_ratio", "ratio", "lower"),
    ("trace.jsonl_bytes", "B", "lower"),
    ("trace.reconstruct_s", "s", "lower"),
    ("trace.chrome_export_s", "s", "lower"),
    ("trace.events_per_s", "1/s", "higher"),
];

/// Metrics collected by one invocation, keyed by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `name`; a layer the workload never enters reports 0.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from the registry or recorded twice — both
    /// are bugs in the benchmark itself.
    pub fn put(&mut self, name: &str, value: f64) {
        let known = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .find(|n| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the registry"));
        assert!(
            self.0.insert(known, value).is_none(),
            "metric {name} recorded twice"
        );
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// `(name, value, unit)` for every name of `section`, in registry order.
    ///
    /// # Panics
    ///
    /// Panics if a name of the section was never recorded.
    pub fn section(
        &self,
        names: impl Iterator<Item = (&'static str, &'static str)>,
    ) -> Vec<(&'static str, f64, &'static str)> {
        names
            .map(|(name, unit)| {
                let value = self
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was never recorded"));
                (name, value, unit)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoncord_orchestrator::trace::json::{parse, Value};

    fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
        value
            .as_object()
            .and_then(|fields| fields.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
    }

    fn text<'a>(value: &'a Value, key: &str) -> &'a str {
        field(value, key).as_str().expect("string field")
    }

    /// `BENCHMARK.json` is hand-written; this pins it to the registry.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("valid JSON");
        let listed: Vec<EndToEndOwned> = field(&doc, "end_to_end")
            .as_array()
            .expect("array")
            .iter()
            .map(|m| {
                (
                    text(m, "name").to_owned(),
                    text(m, "unit").to_owned(),
                    text(m, "better").to_owned(),
                    field(m, "bound").as_f64().expect("number"),
                )
            })
            .collect();
        let registry: Vec<EndToEndOwned> = END_TO_END
            .iter()
            .map(|m| (m.0.to_owned(), m.1.to_owned(), m.2.to_owned(), m.3))
            .collect();
        assert_eq!(listed, registry);
        let listed: Vec<(String, String, String)> = field(&doc, "per_layer")
            .as_array()
            .expect("array")
            .iter()
            .map(|m| {
                (
                    text(m, "name").to_owned(),
                    text(m, "unit").to_owned(),
                    text(m, "better").to_owned(),
                )
            })
            .collect();
        let registry: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.0.to_owned(), m.1.to_owned(), m.2.to_owned()))
            .collect();
        assert_eq!(listed, registry);
        let workloads: Vec<&str> = field(&doc, "workloads")
            .as_array()
            .expect("array")
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }

    type EndToEndOwned = (String, String, String, f64);

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(names.iter().all(|n| n.len() <= 64));
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate metric name");
        assert!(END_TO_END.iter().all(|m| m.3 <= 0.25));
    }
}
