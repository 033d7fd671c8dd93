//! Differential kernel-equivalence suite: the fast simulator kernels
//! (blocked sweeps, gate fusion) against the scalar seed kernels preserved
//! in `qoncord_sim::reference`.
//!
//! Contract under test (see `docs/ARCHITECTURE.md`):
//!
//! * **Unfused fast vs reference: bit-identical.** The fast statevector
//!   kernels keep the per-amplitude arithmetic expression-identical to the
//!   seed loops, so with the op sequence unchanged every output amplitude
//!   matches to the last bit (`f64::to_bits` equality).
//! * **Per-op density kernels vs independent oracles: ≤ 1e-12.** The density
//!   matrix has one per-op implementation (the seed loops), so it is checked
//!   against other code: pure states evolved by the reference statevector
//!   kernels and lifted to `|ψ⟩⟨ψ|`, and the Kraus form of each closed-form
//!   depolarizing sweep.
//! * **Fused vs reference: ≤ 1e-12 max-norm.** Fusion reorders floating-point
//!   operations (matrix products are pre-multiplied), so equality is only up
//!   to rounding. Noisy density programs (`qoncord_sim::noisy`) are in this
//!   tier too, against the op-at-a-time evolution on the full ρ; their
//!   light-cone read-out (`outcome_probabilities`) is pinned *bitwise* to
//!   the diagonal of the full run it is a subset of, a forked program's
//!   outcomes *bitwise* to those of its circuits compiled alone, and a
//!   re-bound program *bitwise* to a fresh compile at its new ops. So are
//!   trajectory programs (`qoncord_sim::trajectory`), against the seed's
//!   trajectory loop on every outcome probability. (The fusion plan they
//!   patch — `fuse_traced`, crate-private — is proptested beside it in
//!   `src/fuse.rs`; the two-term and monomial sweeps in `src/statevector.rs`.)
//! * **Fail-closed:** out-of-range or coinciding qubit indices panic in every
//!   build profile, not just debug.

use proptest::prelude::*;
use qoncord_sim::density::DensityMatrix;
use qoncord_sim::dist::ProbDist;
use qoncord_sim::fuse::{self, FusedOp};
use qoncord_sim::gates;
use qoncord_sim::math::C64;
use qoncord_sim::noise::NoiseChannel;
use qoncord_sim::noisy::{evolve_unfused, DensityProgram, ForkedProgram};
use qoncord_sim::reference;
use qoncord_sim::statevector::StateVector;
use qoncord_sim::trajectory::{sample_unfused, TrajectoryProgram};

/// Random gate program encoded as opcodes, decoded by [`to_fused`].
fn program(n: usize, len: usize) -> impl Strategy<Value = Vec<(u8, usize, usize, f64)>> {
    proptest::collection::vec((0u8..6, 0..n, 0..n, -3.2..3.2f64), 1..len)
}

/// Decodes an opcode program into `FusedOp`s (requires `n ≥ 2`; qubit
/// operands wrap modulo `n`).
fn to_fused(n: usize, ops: &[(u8, usize, usize, f64)]) -> Vec<FusedOp> {
    ops.iter()
        .map(|&(op, a, b, angle)| {
            let (a, b) = (a % n, b % n);
            let b = if a == b { (a + 1) % n } else { b };
            match op {
                0 => FusedOp::One(gates::h(), a),
                1 => FusedOp::One(gates::rx(angle), a),
                2 => FusedOp::Rz(angle, a),
                3 => FusedOp::Cx(a, b),
                // Alternate a symmetric and an order-sensitive matrix.
                4 if a < b => FusedOp::Two(gates::rzz(angle), a, b),
                4 => FusedOp::Two(gates::crz(angle), a, b),
                _ => FusedOp::One(gates::ry(angle), a),
            }
        })
        .collect()
}

/// Decodes an opcode program for the noisy suite: every `FusedOp` variant in
/// either qubit order, CX-heavy like a transpiled circuit. On one qubit the
/// two-qubit opcodes fall back to a rotation.
fn to_noisy(n: usize, ops: &[(u8, usize, usize, f64)]) -> Vec<FusedOp> {
    ops.iter()
        .map(|&(op, a, b, angle)| {
            let (a, b) = (a % n, b % n);
            let b = if a == b { (a + 1) % n } else { b };
            match op {
                0 => FusedOp::One(gates::h(), a),
                1 => FusedOp::One(gates::u3(angle, 0.4, -1.1), a),
                2 | 3 => FusedOp::Rz(angle, a),
                _ if n == 1 => FusedOp::One(gates::ry(angle), a),
                4..=6 => FusedOp::Cx(a, b),
                7 => FusedOp::Two(gates::crz(angle), a, b),
                _ => FusedOp::Mono(
                    [C64::cis(angle), C64::I, C64::cis(-angle), C64::ONE],
                    [2, 0, 3, 1],
                    a,
                    b,
                ),
            }
        })
        .collect()
}

/// Opcode programs for [`to_noisy`].
fn noisy_program() -> impl Strategy<Value = Vec<(u8, usize, usize, f64)>> {
    proptest::collection::vec((0u8..9, 0..5usize, 0..5usize, -3.2..3.2f64), 1..40)
}

/// A depolarizing rate: exactly 0 or the fully depolarizing 1 in a third of
/// the cases each.
fn rate() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), 0.0..0.2f64, Just(1.0)]
}

/// A mixed, correlated start state, so that no block acts on a product of
/// basis states.
fn scrambled(n: usize) -> DensityMatrix {
    let mut rho = DensityMatrix::zero_state(n);
    for q in 0..n {
        rho.apply_1q(&gates::u3(0.7 + q as f64, 0.3, -0.5), q);
        rho.apply_depolarizing_1q(0.05, q);
    }
    for q in 1..n {
        rho.apply_cx_fast(q - 1, q);
    }
    rho
}

/// An opcode program at two parameter points: the ops `rebinds` marks are
/// parametric and take its angle at the second point; the rest stay fixed.
struct TwoPoints {
    at_1: Vec<FusedOp>,
    at_2: Vec<FusedOp>,
    parametric: Vec<bool>,
    /// The parametric ops at each point, in order.
    params_1: Vec<FusedOp>,
    params_2: Vec<FusedOp>,
}

impl TwoPoints {
    /// The ops at the first point with their marks, as a rebindable compile
    /// takes them.
    fn marked(&self) -> Vec<(FusedOp, bool)> {
        self.at_1
            .iter()
            .copied()
            .zip(self.parametric.iter().copied())
            .collect()
    }
}

/// [`TwoPoints`] of `ops` decoded by [`to_noisy`]; op `i` reads
/// `rebinds[(offset + i) % len]`.
fn two_points(
    n: usize,
    ops: &[(u8, usize, usize, f64)],
    rebinds: &[(f64, u8)],
    offset: usize,
) -> TwoPoints {
    let mut two = TwoPoints {
        at_1: to_noisy(n, ops),
        at_2: Vec::new(),
        parametric: Vec::new(),
        params_1: Vec::new(),
        params_2: Vec::new(),
    };
    for (i, (&(code, a, b, _), &op_1)) in ops.iter().zip(&two.at_1).enumerate() {
        let (angle, mark) = rebinds[(offset + i) % rebinds.len()];
        let parametric = mark == 1;
        let op_2 = if parametric {
            to_noisy(n, &[(code, a, b, angle)])[0]
        } else {
            op_1
        };
        if parametric {
            two.params_1.push(op_1);
            two.params_2.push(op_2);
        }
        two.at_2.push(op_2);
        two.parametric.push(parametric);
    }
    two
}

fn entry_bits(rho: &DensityMatrix) -> Vec<(u64, u64)> {
    dm_entries(rho)
        .iter()
        .map(|z| (z.re.to_bits(), z.im.to_bits()))
        .collect()
}

fn prob_bits(dist: &ProbDist) -> Vec<u64> {
    dist.probabilities().iter().map(|p| p.to_bits()).collect()
}

fn dm_entries(rho: &DensityMatrix) -> Vec<C64> {
    let dim = 1 << rho.n_qubits();
    (0..dim * dim)
        .map(|i| rho.entry(i / dim, i % dim))
        .collect()
}

fn run_sv(n: usize, ops: &[FusedOp]) -> StateVector {
    let mut sv = StateVector::zero_state(n);
    sv.apply_ops(ops);
    sv
}

fn run_dm(n: usize, ops: &[FusedOp]) -> DensityMatrix {
    let mut rho = DensityMatrix::zero_state(n);
    for op in ops {
        rho.apply_op(op);
    }
    rho
}

/// The state the scalar seed kernels (`qoncord_sim::reference`) evolve from
/// `|0…0⟩`, one op at a time; a monomial block runs as its dense matrix.
fn run_reference(n: usize, ops: &[FusedOp]) -> StateVector {
    let mut sv = StateVector::zero_state(n);
    for op in ops {
        match op {
            FusedOp::One(u, q) => reference::sv_apply_1q(&mut sv, u, *q),
            FusedOp::Two(u, a, b) => reference::sv_apply_2q(&mut sv, u, *a, *b),
            FusedOp::Cx(c, t) => reference::sv_apply_cx(&mut sv, *c, *t),
            FusedOp::Rz(theta, q) => reference::sv_apply_rz(&mut sv, *theta, *q),
            FusedOp::Mono(d, src, a, b) => {
                reference::sv_apply_2q(&mut sv, &fuse::mono_to_mat4(d, src), *a, *b)
            }
        }
    }
    sv
}

/// `|ψ⟩⟨ψ|` of [`run_reference`]'s state — an oracle for the density
/// kernels that shares no code with them.
fn lifted_reference(n: usize, ops: &[FusedOp]) -> DensityMatrix {
    DensityMatrix::from_statevector(&run_reference(n, ops))
}

fn assert_bits_eq(a: &[C64], b: &[C64], what: &str) {
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
            "{what}: entry {i} differs: {x} vs {y}"
        );
    }
}

fn max_norm_diff(a: &[C64], b: &[C64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (*x + y.scale(-1.0)).norm_sq().sqrt())
        .fold(0.0, f64::max)
}

/// Largest difference between two outcome distributions.
fn max_prob_diff(a: &ProbDist, b: &ProbDist) -> f64 {
    a.probabilities()
        .iter()
        .zip(b.probabilities())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Fast statevector kernels replay the exact seed arithmetic:
    /// bit-identical when the op sequence is unchanged.
    #[test]
    fn sv_fast_matches_reference_bitwise(ops in program(5, 24)) {
        let ops = to_fused(5, &ops);
        let fast = run_sv(5, &ops);
        let reference = run_reference(5, &ops);
        assert_bits_eq(fast.amplitudes(), reference.amplitudes(), "sv fast vs reference");
    }

    /// Fused programs agree with the reference up to rounding (fusion
    /// pre-multiplies matrices, which reorders floating-point ops).
    #[test]
    fn sv_fused_matches_reference_in_max_norm(ops in program(6, 32)) {
        let ops = to_fused(6, &ops);
        let fused = run_sv(6, &fuse::fuse(6, ops.iter().copied()));
        let reference = run_reference(6, &ops);
        let d = max_norm_diff(fused.amplitudes(), reference.amplitudes());
        prop_assert!(d <= 1e-12, "max-norm diff {d}");
    }

    /// The per-op density kernels evolve a pure state to the lift of what
    /// the reference statevector kernels compute, at 2, 3 and 4 qubits.
    #[test]
    fn dm_ops_match_lifted_reference_statevector(ops in program(4, 16)) {
        for n in [2usize, 3, 4] {
            let ops = to_fused(n, &ops);
            let d = max_norm_diff(
                &dm_entries(&run_dm(n, &ops)),
                &dm_entries(&lifted_reference(n, &ops)),
            );
            prop_assert!(d <= 1e-12, "{n} qubits: max-norm diff {d}");
        }
    }

    /// Each closed-form depolarizing sweep equals the Kraus sum of its
    /// channel, on mixed states and in both qubit orders.
    #[test]
    fn dm_depolarizing_sweeps_match_kraus_form(
        ops in program(3, 10),
        p in prop_oneof![0.0..0.3f64, Just(1.0)],
        q0 in 0..3usize,
        step in 1..3usize,
    ) {
        let q1 = (q0 + step) % 3;
        let mut start = run_dm(3, &to_fused(3, &ops));
        start.apply_depolarizing_1q(0.1, q1);

        let mut sweep = start.clone();
        sweep.apply_depolarizing_1q(p, q0);
        let mut kraus = start.clone();
        kraus.apply_channel(&NoiseChannel::depolarizing_1q(p), &[q0]);
        let d = max_norm_diff(&dm_entries(&sweep), &dm_entries(&kraus));
        prop_assert!(d <= 1e-12, "1q sweep on {q0}, p = {p}: max-norm diff {d}");

        sweep.apply_depolarizing_2q(p, q0, q1);
        kraus.apply_channel(&NoiseChannel::depolarizing_2q(p), &[q0, q1]);
        let d = max_norm_diff(&dm_entries(&sweep), &dm_entries(&kraus));
        prop_assert!(d <= 1e-12, "2q sweep on ({q0},{q1}), p = {p}: max-norm diff {d}");
    }

    /// A noisy density program matches the op-at-a-time evolution on every
    /// entry of ρ and preserves the trace, at 1, 2, 3 and 5 qubits.
    #[test]
    fn dm_noisy_program_matches_unfused_evolution(
        ops in noisy_program(),
        dep_1q in rate(),
        dep_2q in rate(),
    ) {
        for n in [1usize, 2, 3, 5] {
            let ops = to_noisy(n, &ops);
            let mut fused = scrambled(n);
            DensityProgram::compile(n, ops.iter().copied(), dep_1q, dep_2q).run(&mut fused);
            let mut unfused = scrambled(n);
            evolve_unfused(&mut unfused, &ops, dep_1q, dep_2q);
            let d = max_norm_diff(&dm_entries(&fused), &dm_entries(&unfused));
            prop_assert!(d <= 1e-12, "{n} qubits, rates ({dep_1q}, {dep_2q}): max-norm diff {d}");
            let drift = (fused.trace() - 1.0).abs();
            prop_assert!(drift <= 1e-12, "{n} qubits: trace drifted by {drift}");
        }
    }

    /// The light-cone read-out equals, bit for bit, the diagonal a full run
    /// from `|0…0⟩` leaves (the same per-tile arithmetic on fewer tiles),
    /// and is within the fused tier of the op-at-a-time evolution.
    #[test]
    fn dm_windowed_outcome_is_bitwise_the_full_runs_diagonal(
        ops in noisy_program(),
        dep_1q in rate(),
        dep_2q in rate(),
    ) {
        for n in [1usize, 2, 3, 5] {
            let ops = to_noisy(n, &ops);
            let program = DensityProgram::compile(n, ops.iter().copied(), dep_1q, dep_2q);
            let windowed = program.outcome_probabilities();
            let mut full = DensityMatrix::zero_state(n);
            program.run(&mut full);
            let full = full.probabilities();
            for (i, (w, f)) in windowed.probabilities().iter().zip(full.probabilities()).enumerate() {
                prop_assert!(
                    w.to_bits() == f.to_bits(),
                    "{n} qubits, rates ({dep_1q}, {dep_2q}), outcome {i}: windowed {w:e} vs full {f:e}"
                );
            }
            let stats = program.stats();
            prop_assert!(stats.tiles_visited <= stats.tiles_full);
            let mut unfused = DensityMatrix::zero_state(n);
            evolve_unfused(&mut unfused, &ops, dep_1q, dep_2q);
            let d = max_prob_diff(&windowed, &unfused.probabilities());
            prop_assert!(d <= 1e-12, "{n} qubits, rates ({dep_1q}, {dep_2q}): diff {d} from unfused");
        }
    }

    /// A forked program returns per circuit, bit for bit, the outcome of the
    /// circuit compiled alone: random trunk, one to four random tails (empty
    /// ones included; one-op trunks leave lone runs for a tail to absorb),
    /// at 1, 2, 3 and 5 qubits.
    #[test]
    fn dm_forked_outcomes_are_bitwise_the_programs_compiled_alone(
        trunk in noisy_program(),
        tails in proptest::collection::vec(
            proptest::collection::vec((0u8..9, 0..5usize, 0..5usize, -3.2..3.2f64), 0..12),
            1..5,
        ),
        dep_1q in rate(),
        dep_2q in rate(),
    ) {
        for n in [1usize, 2, 3, 5] {
            let trunk = to_noisy(n, &trunk);
            let tails: Vec<Vec<FusedOp>> = tails.iter().map(|tail| to_noisy(n, tail)).collect();
            let forked = ForkedProgram::compile(n, trunk.iter().copied(), tails.clone(), dep_1q, dep_2q);
            let outcomes = forked.outcome_probabilities();
            prop_assert_eq!(outcomes.len(), tails.len());
            let stats = forked.stats();
            for (b, (tail, outcome)) in tails.iter().zip(&outcomes).enumerate() {
                let whole = trunk.iter().chain(tail).copied();
                let alone = DensityProgram::compile(n, whole, dep_1q, dep_2q);
                prop_assert_eq!(stats.trunk_sweeps + stats.branch_sweeps[b], alone.sweeps());
                let alone = alone.outcome_probabilities();
                for (i, (f, a)) in outcome.probabilities().iter().zip(alone.probabilities()).enumerate() {
                    prop_assert!(
                        f.to_bits() == a.to_bits(),
                        "{n} qubits, rates ({dep_1q}, {dep_2q}), branch {b}, outcome {i}: forked {f:e} vs alone {a:e}"
                    );
                }
            }
        }
    }

    /// A program compiled at θ₁ and re-bound to θ₂ is, bit for bit, the
    /// program compiled at θ₂: every entry of a full run and every windowed
    /// outcome, and again after a second rebind back to θ₁; and a forked
    /// program re-bound likewise returns a fresh fork's outcomes. Half the
    /// ops, of every variant, are parametric; a fixed op keeps its θ₁.
    #[test]
    fn dm_rebound_program_is_bitwise_a_fresh_compile(
        trunk in noisy_program(),
        tails in proptest::collection::vec(
            proptest::collection::vec((0u8..9, 0..5usize, 0..5usize, -3.2..3.2f64), 0..12),
            1..5,
        ),
        rebinds in proptest::collection::vec((-3.2..3.2f64, 0u8..2), 64..65),
        dep_1q in rate(),
        dep_2q in rate(),
    ) {
        for n in [1usize, 2, 3, 5] {
            let ops = two_points(n, &trunk, &rebinds, 0);
            let mut rebound = DensityProgram::compile_parametric(n, ops.marked(), dep_1q, dep_2q);
            for (to, ops_at) in [(&ops.params_2, &ops.at_2), (&ops.params_1, &ops.at_1)] {
                rebound.rebind(to);
                let fresh = DensityProgram::compile(n, ops_at.iter().copied(), dep_1q, dep_2q);
                let (mut a, mut b) = (scrambled(n), scrambled(n));
                rebound.run(&mut a);
                fresh.run(&mut b);
                prop_assert!(entry_bits(&a) == entry_bits(&b), "{n} qubits: full runs differ");
                let (a, b) = (rebound.outcome_probabilities(), fresh.outcome_probabilities());
                prop_assert!(prob_bits(&a) == prob_bits(&b), "{n} qubits: outcomes differ");
                prop_assert_eq!(rebound.stats().tiles_visited, fresh.stats().tiles_visited);
            }

            let tails: Vec<TwoPoints> = tails
                .iter()
                .scan(trunk.len(), |offset, tail| {
                    let ops = two_points(n, tail, &rebinds, *offset);
                    *offset += tail.len();
                    Some(ops)
                })
                .collect();
            let mut forked = ForkedProgram::compile_parametric(
                n,
                ops.marked(),
                tails.iter().map(TwoPoints::marked),
                dep_1q,
                dep_2q,
            );
            let params: Vec<FusedOp> = std::iter::once(&ops)
                .chain(&tails)
                .flat_map(|t| t.params_2.iter().copied())
                .collect();
            forked.rebind(&params);
            let fresh = ForkedProgram::compile(
                n,
                ops.at_2.iter().copied(),
                tails.iter().map(|t| t.at_2.clone()),
                dep_1q,
                dep_2q,
            );
            let (a, b) = (forked.outcome_probabilities(), fresh.outcome_probabilities());
            prop_assert_eq!(a.len(), b.len());
            for (branch, (a, b)) in a.iter().zip(&b).enumerate() {
                prop_assert!(prob_bits(a) == prob_bits(b), "{n} qubits, branch {branch}: outcomes differ");
            }
        }
    }

    /// A trajectory program (pre-drawn patterns, fused, deduped, prefix-
    /// shared) matches the seed's trajectory loop on every probability and
    /// accounts for every trajectory. High rates make deep tries, zero
    /// rates draw no uniform.
    #[test]
    fn sv_trajectory_program_matches_seed_loop(
        ops in noisy_program(),
        dep_1q in rate(),
        dep_2q in rate(),
        seed in 0..u64::MAX,
        n_trajectories in 1u32..40,
    ) {
        for n in [1usize, 2, 5] {
            let ops = to_noisy(n, &ops);
            let seed_loop = sample_unfused(n, &ops, dep_1q, dep_2q, seed, n_trajectories);
            let mut program = TrajectoryProgram::compile(n, ops.iter().copied(), dep_1q, dep_2q);
            let d = max_prob_diff(&program.run(seed, n_trajectories), &seed_loop);
            prop_assert!(d <= 1e-12, "{n} qubits, rates ({dep_1q}, {dep_2q}): diff {d}");
            let stats = program.stats();
            prop_assert_eq!(stats.trajectories, n_trajectories as u64);
            prop_assert!((1..=stats.trajectories).contains(&stats.distinct_patterns));
            let drawn = program.draw(seed, n_trajectories);
            prop_assert_eq!(stats.fired_sites, drawn.iter().map(|p| p.len() as u64).sum::<u64>());
        }
    }

    /// A trajectory run's counters follow its plan: one fusion of the
    /// noise-free op list (`blocks`), at most one re-fused block per fired
    /// site, and with no noise exactly the plan's sweeps and nothing patched.
    /// Block `j` sweeps `2^width[j]` amplitudes, `width[j]` the qubits blocks
    /// `0..=j` touch, never more than the full register's `2^n`.
    #[test]
    fn sv_trajectory_counters_follow_the_plan(
        ops in noisy_program(),
        dep_1q in rate(),
        dep_2q in rate(),
        seed in 0..u64::MAX,
    ) {
        for n in [2usize, 5] {
            let ops = to_noisy(n, &ops);
            let plan = fuse::fuse(n, ops.iter().copied());
            let blocks = plan.len() as u64;
            let mut touched = vec![false; n];
            let swept_by_plan: u64 = plan
                .iter()
                .map(|block| {
                    let (a, b) = match *block {
                        FusedOp::One(_, q) | FusedOp::Rz(_, q) => (q, q),
                        FusedOp::Two(_, a, b) | FusedOp::Cx(a, b) | FusedOp::Mono(_, _, a, b) => (a, b),
                    };
                    (touched[a], touched[b]) = (true, true);
                    1 << touched.iter().filter(|&&t| t).count()
                })
                .sum();
            let mut program = TrajectoryProgram::compile(n, ops.iter().copied(), dep_1q, dep_2q);
            program.run(seed, 12);
            let stats = program.stats();
            prop_assert_eq!(stats.blocks, blocks);
            prop_assert!(stats.patched_blocks <= stats.fired_sites);
            prop_assert!(stats.ops_applied >= blocks);
            prop_assert!(stats.amplitudes_swept <= stats.ops_applied << n);
            let mut ideal = TrajectoryProgram::compile(n, ops.iter().copied(), 0.0, 0.0);
            ideal.run(seed, 12);
            prop_assert_eq!((ideal.stats().ops_applied, ideal.stats().patched_blocks), (blocks, 0));
            prop_assert_eq!(ideal.stats().amplitudes_swept, swept_by_plan);
            prop_assert!(swept_by_plan <= blocks << n);
        }
    }

    /// Fusion preserves semantics on larger registers too (12 qubits, the
    /// ceiling the issue pins for the differential suite).
    #[test]
    fn sv_fused_matches_reference_at_12_qubits(ops in program(12, 20)) {
        let ops = to_fused(12, &ops);
        let fused = run_sv(12, &fuse::fuse(12, ops.iter().copied()));
        let unfused = run_sv(12, &ops);
        let d = max_norm_diff(fused.amplitudes(), unfused.amplitudes());
        prop_assert!(d <= 1e-12, "max-norm diff {d}");
    }
}

/// `apply_2q` with descending qubit arguments (`q0 > q1`) must agree with
/// the reference kernel bit-for-bit — this order used to exercise a latent
/// anchor-enumeration edge case in the blocked fast path.
#[test]
fn sv_apply_2q_descending_qubit_order_matches_reference() {
    let prep = [
        FusedOp::One(gates::h(), 0),
        FusedOp::One(gates::ry(0.7), 2),
        FusedOp::Cx(0, 3),
        FusedOp::One(gates::rx(-1.1), 3),
    ];
    for (q0, q1) in [(3usize, 1usize), (2, 0), (3, 0), (1, 0)] {
        let mut fast = run_sv(4, &prep);
        fast.apply_2q(&gates::rzz(0.9), q0, q1);
        fast.apply_2q(&gates::cx(), q0, q1);
        let mut ops = prep.to_vec();
        ops.push(FusedOp::Two(gates::rzz(0.9), q0, q1));
        ops.push(FusedOp::Two(gates::cx(), q0, q1));
        assert_bits_eq(
            fast.amplitudes(),
            run_reference(4, &ops).amplitudes(),
            &format!("apply_2q({q0},{q1})"),
        );
        // And the matrix form of CX with swapped args equals the dedicated
        // permutation kernel.
        let mut via_kernel = fast.clone();
        via_kernel.apply_cx_fast(q0, q1);
        let mut via_matrix = fast;
        via_matrix.apply_2q(&gates::cx(), q0, q1);
        let d = max_norm_diff(via_kernel.amplitudes(), via_matrix.amplitudes());
        assert!(d <= 1e-12, "cx kernel vs matrix ({q0},{q1}): {d}");
    }
}

/// `DensityMatrix::apply_2q` in either argument order agrees with the
/// reference statevector kernel's reading of `(q0, q1)` — checked with
/// matrices that are not symmetric under swapping their qubits.
#[test]
fn dm_apply_2q_descending_qubit_order_matches_reference() {
    for n in [2usize, 3, 4] {
        let prep: Vec<FusedOp> = (0..n)
            .map(|q| FusedOp::One(gates::u3(0.7 + q as f64, 0.3, -0.5), q))
            .chain((1..n).map(|q| FusedOp::Cx(q - 1, q)))
            .collect();
        for q0 in 0..n {
            for q1 in (0..n).filter(|&q1| q1 != q0) {
                let mut ops = prep.clone();
                ops.push(FusedOp::Two(gates::crz(1.3), q0, q1));
                ops.push(FusedOp::Two(gates::cx(), q0, q1));
                let d = max_norm_diff(
                    &dm_entries(&run_dm(n, &ops)),
                    &dm_entries(&lifted_reference(n, &ops)),
                );
                assert!(d <= 1e-12, "{n} qubits, apply_2q({q0},{q1}): {d}");
            }
        }
    }
}

// Fail-closed index validation: release builds must panic too (these tests
// run under whatever profile CI picks, including --release).

#[test]
#[should_panic(expected = "out of range")]
fn sv_apply_1q_rejects_out_of_range_qubit() {
    let mut sv = StateVector::zero_state(3);
    sv.apply_1q(&gates::h(), 3);
}

#[test]
#[should_panic(expected = "out of range")]
fn sv_apply_2q_rejects_out_of_range_qubit() {
    let mut sv = StateVector::zero_state(3);
    sv.apply_2q(&gates::cx(), 1, 5);
}

#[test]
#[should_panic(expected = "distinct")]
fn sv_apply_2q_rejects_coinciding_qubits() {
    let mut sv = StateVector::zero_state(3);
    sv.apply_2q(&gates::rzz(0.1), 2, 2);
}

#[test]
#[should_panic(expected = "out of range")]
fn dm_apply_rz_rejects_out_of_range_qubit() {
    let mut rho = DensityMatrix::zero_state(2);
    rho.apply_rz_fast(0.3, 2);
}

#[test]
#[should_panic(expected = "out of range")]
fn fused_op_validate_rejects_out_of_range_qubit() {
    FusedOp::Cx(0, 4).validate(3);
}
