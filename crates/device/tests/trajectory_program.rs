//! The trajectory program against the seed's trajectory loop, in two tiers:
//!
//! * **bitwise** — `sample_unfused` and an op-at-a-time replay of the
//!   program's pre-drawn patterns (one trajectory at a time, identity sites
//!   skipped; no dedupe, fusion or prefix sharing) agree on every bit of
//!   every probability, and `backend.run` is the program's run read out;
//! * **≤ 1e-12** — the program's run (fused, deduped, prefix-shared)
//!   against those, and `backend.run` against the seed loop read out.
//!
//! Circuits: the transpiled 9-qubit QAOA on both devices of the reference
//! fleet, and a 10-qubit op list with every `FusedOp` variant as a noise
//! site.

mod common;

use common::as_run_reports;
use qoncord_circuit::transpile::{transpile, TranspiledCircuit};
use qoncord_device::calibration::Calibration;
use qoncord_device::catalog;
use qoncord_device::noise_model::{NoiseModel, SimulatedBackend};
use qoncord_sim::dist::ProbDist;
use qoncord_sim::fuse::FusedOp;
use qoncord_sim::gates;
use qoncord_sim::math::C64;
use qoncord_sim::noise::NoiseChannel;
use qoncord_sim::statevector::StateVector;
use qoncord_sim::trajectory::{
    apply_matrix, sample_unfused, Pattern, TrajectoryAccumulator, TrajectoryProgram,
    TrajectoryStats,
};
use qoncord_vqa::graph::Graph;
use qoncord_vqa::qaoa;

fn qaoa_9(cal: &Calibration) -> (TranspiledCircuit, Vec<f64>) {
    let circuit = qaoa::build_circuit(&Graph::paper_graph_9(), 1);
    let t = transpile(&circuit, cal.coupling());
    let params = (0..t.circuit.n_params())
        .map(|i| 0.35 + 0.1 * i as f64)
        .collect();
    (t, params)
}

/// Ten qubits, every op variant in both qubit orders, three layers deep.
fn mixed_10() -> Vec<FusedOp> {
    const N: usize = 10;
    let mut ops = Vec::new();
    for layer in 0..3 {
        let angle = 0.3 + 0.7 * layer as f64;
        for q in 0..N {
            ops.push(FusedOp::One(gates::u3(angle + q as f64, 0.4, -1.1), q));
            ops.push(FusedOp::Rz(angle - 0.2 * q as f64, q));
        }
        for q in 0..N - 1 {
            let (a, b) = if (q + layer) % 2 == 0 {
                (q, q + 1)
            } else {
                (q + 1, q)
            };
            ops.push(match q % 3 {
                0 => FusedOp::Cx(a, b),
                1 => FusedOp::Two(gates::crz(angle), a, b),
                _ => FusedOp::Mono(
                    [C64::cis(angle), C64::I, C64::cis(-angle), C64::ONE],
                    [2, 0, 3, 1],
                    a,
                    b,
                ),
            });
        }
    }
    ops
}

/// The drawn patterns replayed as the seed loop would have run them: every
/// op unfused, a fired site's channel matrix right after its op, nothing at
/// the sites that drew the identity.
fn replay(n: usize, ops: &[FusedOp], rates: (f64, f64), patterns: &[Pattern]) -> ProbDist {
    let branches = |NoiseChannel::MixedUnitary { ops }| ops;
    let ch_1q = branches(NoiseChannel::depolarizing_1q(rates.0));
    let ch_2q = branches(NoiseChannel::depolarizing_2q(rates.1));
    let mut acc = TrajectoryAccumulator::new(n);
    for pattern in patterns {
        let mut sv = StateVector::zero_state(n);
        let mut fired = pattern.iter().peekable();
        for (i, op) in ops.iter().enumerate() {
            sv.apply_op(op);
            if let Some(&(_, branch)) = fired.next_if(|e| e.0 as usize == i) {
                assert_ne!(branch, 0, "the identity branch is not a fired site");
                match *op {
                    FusedOp::One(_, q) | FusedOp::Rz(_, q) => {
                        apply_matrix(&mut sv, &ch_1q[branch as usize].1, &[q]);
                    }
                    FusedOp::Two(_, a, b) | FusedOp::Cx(a, b) | FusedOp::Mono(_, _, a, b) => {
                        apply_matrix(&mut sv, &ch_2q[branch as usize].1, &[a, b]);
                    }
                }
            }
        }
        assert!(fired.next().is_none(), "pattern names an op out of range");
        acc.add(&sv);
    }
    acc.into_dist()
}

fn assert_bits_eq(a: &ProbDist, b: &ProbDist, what: &str) {
    assert_eq!(a.probabilities().len(), b.probabilities().len(), "{what}");
    for (i, (x, y)) in a.probabilities().iter().zip(b.probabilities()).enumerate() {
        assert!(x.to_bits() == y.to_bits(), "{what}: p[{i}] {x:e} vs {y:e}");
    }
}

fn assert_close(a: &ProbDist, b: &ProbDist, what: &str) {
    let d = a
        .probabilities()
        .iter()
        .zip(b.probabilities())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max);
    assert!(d <= 1e-12, "{what}: fast vs seed differ by {d:e}");
}

/// Both tiers on one op list; returns the default run's distribution.
fn assert_two_tiers(
    n: usize,
    ops: &[FusedOp],
    rates: (f64, f64),
    seed: u64,
    n_trajectories: u32,
    what: &str,
) -> ProbDist {
    let what = format!("{what}, rates {rates:?}, seed {seed}, {n_trajectories} trajectories");
    let mut program = TrajectoryProgram::compile(n, ops.iter().copied(), rates.0, rates.1);
    let seed_loop = sample_unfused(n, ops, rates.0, rates.1, seed, n_trajectories);
    let patterns = program.draw(seed, n_trajectories);
    assert_eq!(patterns.len(), n_trajectories as usize, "{what}");
    assert_bits_eq(
        &replay(n, ops, rates, &patterns),
        &seed_loop,
        &format!("{what}: pattern replay vs seed loop"),
    );
    let fast = program.run(seed, n_trajectories);
    assert_close(&fast, &seed_loop, &what);
    let stats = program.stats();
    assert_eq!(stats.trajectories, n_trajectories as u64, "{what}");
    assert!(
        (1..=stats.trajectories).contains(&stats.distinct_patterns),
        "{what}"
    );
    let fired: u64 = patterns.iter().map(|p| p.len() as u64).sum();
    assert_eq!(stats.fired_sites, fired, "{what}");
    fast
}

#[test]
fn qaoa_9_runs_pin_to_the_seed_loop_on_both_devices() {
    for cal in [catalog::ibmq_toronto(), catalog::ibmq_kolkata()] {
        let name = cal.name().to_owned();
        let (t, params) = qaoa_9(&cal);
        let n = t.circuit.n_qubits();
        assert_eq!(n, 9);
        let ops = t.circuit.bind_ops(&params);
        let calibrated = NoiseModel::from_calibration(&cal);
        for factor in [1.0, 8.0] {
            let noise = calibrated.scaled(factor, 1.0);
            let backend = SimulatedBackend::from_calibration(cal.clone()).with_noise(noise);
            let rates = (noise.dep_1q, noise.dep_2q);
            for seed in [0, 7, u64::MAX - 20] {
                let what = format!("{name} x{factor}");
                let fast = assert_two_tiers(n, &ops, rates, seed, 48, &what);
                let seed_loop = sample_unfused(n, &ops, rates.0, rates.1, seed, 48);
                let run = backend.run(&t, &params, seed);
                assert_close(
                    &run,
                    &as_run_reports(&backend, &t, seed_loop),
                    &format!("{what}: run vs seed loop"),
                );
                assert_bits_eq(
                    &run,
                    &as_run_reports(&backend, &t, fast),
                    &format!("{what}: run vs program"),
                );
            }
        }
    }
}

#[test]
fn every_op_variant_is_a_noise_site() {
    let ops = mixed_10();
    for rates in [(0.004, 0.03), (0.05, 0.2)] {
        for seed in [3, u64::MAX - 1] {
            assert_two_tiers(10, &ops, rates, seed, 48, "mixed 10q");
        }
    }
}

/// A zero rate inserts no channel and draws no uniform, a rate of 1 fires
/// three sites in four, and `seed + t` wraps.
#[test]
fn edge_rates_trajectory_counts_and_seeds() {
    let (t, params) = qaoa_9(&catalog::ibmq_toronto());
    let ops = t.circuit.bind_ops(&params);
    for rates in [
        (0.0, 0.03),
        (0.004, 0.0),
        (0.0, 0.0),
        (1.0, 1.0),
        (0.0, 1.0),
    ] {
        assert_two_tiers(9, &ops, rates, 11, 48, "edge rates");
    }
    for n_trajectories in [1, 2, 48, 257] {
        assert_two_tiers(
            9,
            &ops,
            (0.004, 0.03),
            5,
            n_trajectories,
            "trajectory counts",
        );
    }
    for back in [0, 1, 47] {
        assert_two_tiers(9, &ops, (0.004, 0.03), u64::MAX - back, 48, "wrapping seed");
    }
    // No noise: one pattern, the ideal run.
    let mut ideal = TrajectoryProgram::compile(9, ops.iter().copied(), 0.0, 0.0);
    ideal.run(0, 48);
    assert_eq!(ideal.stats().distinct_patterns, 1);
    assert_eq!(ideal.stats().fired_sites, 0);
    // No ops: every trajectory is |0…0⟩.
    let empty = assert_two_tiers(3, &[], (0.1, 0.1), 9, 48, "empty op list");
    assert_eq!(empty.probabilities()[0], 1.0);
}

/// One `run(7, 48)` of the 9-qubit job circuit, counted: both fleet devices
/// route it to a 28-block plan, fused once; a pattern's fired sites re-fuse
/// only the blocks they land in (two sites sharing a block are one patch),
/// and whole blocks are swept where the per-stretch fusion of PR 16 chunked
/// them at fork sites — its `ops_applied` for the same runs was 943
/// (`ibmq_toronto`) and 702 (`ibmq_kolkata`). Each block sweeps only the
/// qubits it and the blocks before it touch: 31 % and 33 % of the
/// `ops_applied × 2⁹` amplitudes a full-register sweep walks.
#[test]
fn qaoa_9_run_patches_99_and_64_of_28_blocks() {
    let counts = [
        (catalog::ibmq_toronto(), (44, 103, 99, 928, 148_240, 943)),
        (catalog::ibmq_kolkata(), (37, 64, 64, 689, 117_892, 702)),
    ];
    for (
        cal,
        (distinct_patterns, fired_sites, patched_blocks, ops_applied, amplitudes_swept, before),
    ) in counts
    {
        let (t, params) = qaoa_9(&cal);
        let noise = NoiseModel::from_calibration(&cal);
        let ops = t.circuit.bind_ops(&params);
        let mut program = TrajectoryProgram::compile(9, ops, noise.dep_1q, noise.dep_2q);
        program.run(7, 48);
        assert_eq!(
            program.stats(),
            TrajectoryStats {
                trajectories: 48,
                distinct_patterns,
                fired_sites,
                ops_applied,
                amplitudes_swept,
                blocks: 28,
                patched_blocks,
            },
            "{}",
            cal.name()
        );
        assert!(ops_applied <= before, "{}", cal.name());
        assert!(amplitudes_swept < ops_applied << 8, "{}", cal.name());
    }
}
