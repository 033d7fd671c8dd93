//! Monte-Carlo quantum-trajectory simulation.
//!
//! Instead of evolving a `4^n`-entry density matrix, a trajectory run evolves
//! a statevector and *samples* one Kraus branch at every noise insertion.
//! Averaging over trajectories yields an unbiased estimate of the exact
//! density-matrix result; for mixed-unitary channels (depolarizing noise, the
//! only gate noise the Qoncord paper's hypothetical 14-qubit devices use) the
//! branch probabilities are state-independent and sampling is exact and
//! cheap.
//!
//! The circuit-level driver lives here too, in two tiers like
//! [`crate::noisy`]. [`sample_unfused`] is the seed loop — every trajectory
//! replays every op and calls [`apply_stochastic`] after it — and what a
//! [`crate::reference::forced`] run executes. Jobs run a
//! [`TrajectoryProgram`]: a depolarizing site consumes one uniform whatever
//! the state is, so it first draws every trajectory's *pattern* — the
//! `(op index, branch)` pairs that drew a non-identity Pauli — in the
//! seed's RNG order. Then it never multiplies by an identity (a fired
//! site's Pauli joins the op list as one or two [`FusedOp::One`] and
//! [`crate::fuse::fuse`] runs over the result), evolves equal patterns once,
//! and walks the sorted patterns depth-first as a trie, so patterns that
//! agree on their first `d` fired sites share the evolution up to the site
//! where they part (one live state per trie level).
//!
//! Replaying the patterns op-at-a-time is bit-identical to
//! [`sample_unfused`]; fusion reorders floating-point products, so the
//! program matches it to ≤ 1e-12 on every probability.

use crate::dist::ProbDist;
use crate::fuse::{fuse, FusedOp};
use crate::gates::{self, Mat2, Mat4};
use crate::linalg::Matrix;
use crate::math::C64;
use crate::noise::NoiseChannel;
use crate::statevector::StateVector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Samples one branch of `channel` and applies it to `sv` on `qubits`.
///
/// For [`NoiseChannel::MixedUnitary`] the branch is drawn from the fixed
/// ensemble probabilities (an identity branch costs no sweep). For
/// [`NoiseChannel::Kraus`] the branch
/// probabilities are the state-dependent norms `‖Kᵢ|ψ⟩‖²` and the surviving
/// branch is renormalized — the standard quantum-jump unraveling.
///
/// # Panics
///
/// Panics if the channel arity does not match `qubits.len()`.
pub fn apply_stochastic(
    sv: &mut StateVector,
    channel: &NoiseChannel,
    qubits: &[usize],
    rng: &mut impl Rng,
) {
    assert_eq!(
        channel.n_qubits(),
        qubits.len(),
        "channel arity does not match qubit list"
    );
    match channel {
        NoiseChannel::MixedUnitary { ops } => {
            let branch = draw_branch(ops.iter().map(|(p, _)| *p), rng.random());
            let chosen = &ops[branch].1;
            // "No error" is by far the likeliest draw, and an identity sweep
            // changes no probability bit: skip it.
            if !is_identity(chosen) {
                apply_matrix(sv, chosen, qubits);
            }
        }
        NoiseChannel::Kraus { ops } => {
            // Compute branch weights ‖Kᵢ|ψ⟩‖² lazily: clone per candidate.
            let mut branches: Vec<(f64, StateVector)> = Vec::with_capacity(ops.len());
            for k in ops {
                let mut cand = sv.clone();
                apply_matrix(&mut cand, k, qubits);
                let w = cand.norm_sq();
                branches.push((w, cand));
            }
            let total: f64 = branches.iter().map(|(w, _)| w).sum();
            let r: f64 = rng.random::<f64>() * total;
            let mut acc = 0.0;
            let last = branches.len() - 1;
            for (i, (w, cand)) in branches.into_iter().enumerate() {
                acc += w;
                if r < acc || i == last {
                    let mut state = cand;
                    state.normalize();
                    *sv = state;
                    return;
                }
            }
        }
    }
}

/// Resolves a uniform `r` to a branch by cumulative scan; the last branch
/// absorbs whatever rounding leaves the probabilities short of 1.
fn draw_branch(probabilities: impl Iterator<Item = f64>, r: f64) -> usize {
    let mut acc = 0.0;
    let mut last = 0;
    for (branch, p) in probabilities.enumerate() {
        acc += p;
        if r < acc {
            return branch;
        }
        last = branch;
    }
    last
}

/// Exact entry compare against the identity (4 or 16 values for a channel).
fn is_identity(m: &Matrix) -> bool {
    let cols = m.cols();
    let mut entries = m.as_slice().iter().enumerate();
    entries.all(|(i, z)| (z.re, z.im) == ((i / cols == i % cols) as u8 as f64, 0.0))
}

/// Applies a 2×2 or 4×4 [`Matrix`] to the statevector on the given qubits.
///
/// # Panics
///
/// Panics for arities other than one or two qubits.
pub fn apply_matrix(sv: &mut StateVector, m: &Matrix, qubits: &[usize]) {
    match qubits.len() {
        1 => {
            let u: Mat2 = {
                let s = m.as_slice();
                [[s[0], s[1]], [s[2], s[3]]]
            };
            sv.apply_1q(&u, qubits[0]);
        }
        2 => {
            let s = m.as_slice();
            let mut u: Mat4 = [[C64::ZERO; 4]; 4];
            for r in 0..4 {
                for c in 0..4 {
                    u[r][c] = s[r * 4 + c];
                }
            }
            sv.apply_2q(&u, qubits[0], qubits[1]);
        }
        n => panic!("matrices on {n} qubits are not supported"),
    }
}

/// Accumulates per-basis-state probabilities across trajectories.
///
/// # Examples
///
/// ```
/// use qoncord_sim::trajectory::TrajectoryAccumulator;
/// use qoncord_sim::statevector::StateVector;
///
/// let mut acc = TrajectoryAccumulator::new(1);
/// acc.add(&StateVector::zero_state(1));
/// acc.add(&StateVector::basis_state(1, 1));
/// let dist = acc.into_dist();
/// assert!((dist.probabilities()[0] - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct TrajectoryAccumulator {
    n_qubits: usize,
    sums: Vec<f64>,
    count: u64,
}

impl TrajectoryAccumulator {
    /// Creates an empty accumulator for `n_qubits` qubits.
    pub fn new(n_qubits: usize) -> Self {
        TrajectoryAccumulator {
            n_qubits,
            sums: vec![0.0; 1 << n_qubits],
            count: 0,
        }
    }

    /// Adds one trajectory's outcome probabilities.
    ///
    /// # Panics
    ///
    /// Panics if the register size differs.
    pub fn add(&mut self, sv: &StateVector) {
        self.add_weighted(sv, 1);
    }

    /// Adds the outcome `count` equal trajectories share (`1.0 * x` is
    /// exact, so a count of one is [`Self::add`] to the bit).
    fn add_weighted(&mut self, sv: &StateVector, count: u64) {
        assert_eq!(sv.n_qubits(), self.n_qubits);
        for (s, a) in self.sums.iter_mut().zip(sv.amplitudes()) {
            *s += count as f64 * a.norm_sq();
        }
        self.count += count;
    }

    /// Number of trajectories accumulated so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Finalizes into an averaged probability distribution.
    ///
    /// # Panics
    ///
    /// Panics if no trajectories were added.
    pub fn into_dist(self) -> crate::dist::ProbDist {
        assert!(self.count > 0, "no trajectories accumulated");
        let n = self.count as f64;
        crate::dist::ProbDist::new(self.sums.into_iter().map(|s| s / n).collect())
    }
}

/// The seed's circuit-level loop, the oracle [`TrajectoryProgram`] is pinned
/// against: trajectory `t` seeds its own RNG with `seed + t` (wrapping),
/// applies every op unfused and samples the op's depolarizing channel after
/// it. A zero rate inserts no channel and draws no uniform.
///
/// # Panics
///
/// Panics if `n_trajectories` is zero, an operand qubit is out of range or a
/// rate is outside `[0, 1]`.
pub fn sample_unfused(
    n_qubits: usize,
    ops: &[FusedOp],
    dep_1q: f64,
    dep_2q: f64,
    seed: u64,
    n_trajectories: u32,
) -> ProbDist {
    assert!(n_trajectories > 0, "need at least one trajectory");
    let ch_1q = NoiseChannel::depolarizing_1q(dep_1q);
    let ch_2q = NoiseChannel::depolarizing_2q(dep_2q);
    let mut acc = TrajectoryAccumulator::new(n_qubits);
    for t in 0..n_trajectories {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(t as u64));
        let mut sv = StateVector::zero_state(n_qubits);
        for op in ops {
            sv.apply_op(op);
            match *op {
                FusedOp::One(_, q) | FusedOp::Rz(_, q) => {
                    if dep_1q > 0.0 {
                        apply_stochastic(&mut sv, &ch_1q, &[q], &mut rng);
                    }
                }
                FusedOp::Two(_, a, b) | FusedOp::Cx(a, b) | FusedOp::Mono(_, _, a, b) => {
                    if dep_2q > 0.0 {
                        apply_stochastic(&mut sv, &ch_2q, &[a, b], &mut rng);
                    }
                }
            }
        }
        acc.add(&sv);
    }
    acc.into_dist()
}

/// One trajectory's noise: the `(op index, branch)` of every site that drew
/// a non-identity Pauli, in op order. `branch` indexes the site's channel
/// ([`NoiseChannel::depolarizing_1q`] / [`NoiseChannel::depolarizing_2q`]).
pub type Pattern = Vec<(u32, u8)>;

/// What the last [`TrajectoryProgram::run`] did, exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrajectoryStats {
    /// Trajectories averaged: `Σ multiplicity` over the distinct patterns.
    pub trajectories: u64,
    /// Distinct patterns among them — the final states actually evolved.
    pub distinct_patterns: u64,
    /// Non-identity Paulis drawn, over all trajectories.
    pub fired_sites: u64,
    /// Amplitude sweeps executed; the seed loop's count is `ops ×
    /// trajectories` gate sweeps plus one per fired site.
    pub ops_applied: u64,
}

/// A circuit with a depolarizing channel after every op, compiled for
/// trajectory sampling (see the module docs).
///
/// ```
/// use qoncord_sim::{fuse::FusedOp, gates, trajectory::TrajectoryProgram};
///
/// let ops = [FusedOp::One(gates::h(), 0), FusedOp::Cx(0, 1)];
/// let mut program = TrajectoryProgram::compile(2, ops, 0.01, 0.05);
/// let dist = program.run(7, 48);
/// assert!(dist.probabilities()[0] > 0.4);
/// assert!(program.stats().distinct_patterns < 48);
/// ```
#[derive(Debug, Clone)]
pub struct TrajectoryProgram {
    n_qubits: usize,
    ops: Vec<FusedOp>,
    /// Branch probabilities of the two channels in [`apply_stochastic`]'s
    /// scan order; empty for a zero rate (no site, no uniform).
    table_1q: Vec<f64>,
    table_2q: Vec<f64>,
    stats: TrajectoryStats,
}

impl TrajectoryProgram {
    /// Validates `ops` and tabulates the two channels' branch probabilities.
    ///
    /// # Panics
    ///
    /// Panics if an operand qubit is out of range or a rate is outside
    /// `[0, 1]`.
    pub fn compile(
        n_qubits: usize,
        ops: impl IntoIterator<Item = FusedOp>,
        dep_1q: f64,
        dep_2q: f64,
    ) -> Self {
        let ops: Vec<FusedOp> = ops.into_iter().collect();
        ops.iter().for_each(|op| op.validate(n_qubits));
        let table = |channel, rate| match channel {
            NoiseChannel::MixedUnitary { ops } if rate > 0.0 => {
                ops.into_iter().map(|(p, _)| p).collect()
            }
            _ => Vec::new(),
        };
        TrajectoryProgram {
            n_qubits,
            ops,
            table_1q: table(NoiseChannel::depolarizing_1q(dep_1q), dep_1q),
            table_2q: table(NoiseChannel::depolarizing_2q(dep_2q), dep_2q),
            stats: TrajectoryStats::default(),
        }
    }

    /// Counts from the most recent [`Self::run`] (zeros before the first).
    pub fn stats(&self) -> TrajectoryStats {
        self.stats
    }

    /// The patterns of trajectories `0..n_trajectories`, in that order, each
    /// consuming its `StdRng::seed_from_u64(seed + t)` exactly as
    /// [`sample_unfused`] does: one uniform per site with a non-zero rate,
    /// sites in op order, resolved by [`apply_stochastic`]'s scan.
    pub fn draw(&self, seed: u64, n_trajectories: u32) -> Vec<Pattern> {
        let _prof = qoncord_prof::span("sim::sv::traj_draw");
        let draw_one = |t: u32| {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(t as u64));
            let mut fired = Pattern::new();
            for (i, op) in self.ops.iter().enumerate() {
                let table = match op {
                    FusedOp::One(..) | FusedOp::Rz(..) => &self.table_1q,
                    _ => &self.table_2q,
                };
                if !table.is_empty() {
                    let branch = draw_branch(table.iter().copied(), rng.random());
                    if branch != 0 {
                        fired.push((i as u32, branch as u8));
                    }
                }
            }
            fired
        };
        (0..n_trajectories).map(draw_one).collect()
    }

    /// Averages `n_trajectories` trajectories seeded `seed + t`; within
    /// 1e-12 of [`sample_unfused`] on every probability.
    ///
    /// # Panics
    ///
    /// Panics if `n_trajectories` is zero.
    pub fn run(&mut self, seed: u64, n_trajectories: u32) -> ProbDist {
        let mut patterns = self.draw(seed, n_trajectories);
        let plan = qoncord_prof::span("sim::sv::traj_plan");
        patterns.sort_unstable();
        drop(plan);
        self.stats = TrajectoryStats {
            fired_sites: patterns.iter().map(|p| p.len() as u64).sum(),
            ..TrajectoryStats::default()
        };
        let mut acc = TrajectoryAccumulator::new(self.n_qubits);
        let start = StateVector::zero_state(self.n_qubits);
        self.subtree(&mut acc, &patterns, 0, start, Vec::new(), 0);
        self.stats.trajectories = acc.count();
        acc.into_dist()
    }

    /// Walks the sorted patterns of `group`, which agree on their first
    /// `depth` entries. `sv` has been evolved along those up to (excluding)
    /// op `from`, but for `pending`, the Pauli of the last shared entry.
    fn subtree(
        &mut self,
        acc: &mut TrajectoryAccumulator,
        group: &[Pattern],
        depth: usize,
        mut sv: StateVector,
        mut pending: Vec<FusedOp>,
        mut from: usize,
    ) {
        // Patterns with nothing left to share take `sv` to the end of the
        // circuit as one fused list: a group of equal patterns, or those
        // that end here (they sort first but go last: the forks need `sv`).
        let (same, mut rest) = match group {
            [first, .., last] if first != last => {
                group.split_at(group.partition_point(|p| p.len() == depth))
            }
            _ => (group, &[][..]),
        };
        while let [first, ..] = rest {
            let entry = first[depth];
            let (children, others) = rest.split_at(rest.partition_point(|p| p[depth] == entry));
            let site = entry.0 as usize;
            pending.extend(&self.ops[from..=site]);
            self.evolve(&mut sv, std::mem::take(&mut pending));
            from = site + 1;
            let paulis = self.paulis(entry).collect();
            self.subtree(acc, children, depth + 1, sv.clone(), paulis, from);
            rest = others;
        }
        if let Some(pattern) = same.first() {
            let mut fired = pattern[depth..].iter().peekable();
            for i in from..self.ops.len() {
                pending.push(self.ops[i]);
                if let Some(&entry) = fired.next_if(|e| e.0 as usize == i) {
                    pending.extend(self.paulis(entry));
                }
            }
            self.evolve(&mut sv, pending);
            self.stats.distinct_patterns += 1;
            acc.add_weighted(&sv, same.len() as u64);
        }
    }

    /// Fuses `ops` and applies them to `sv`.
    fn evolve(&mut self, sv: &mut StateVector, ops: Vec<FusedOp>) {
        let fused = {
            let _prof = qoncord_prof::span("sim::sv::traj_plan");
            fuse(self.n_qubits, ops)
        };
        self.stats.ops_applied += fused.len() as u64;
        sv.apply_ops(&fused);
    }

    /// The Pauli a fired site applies after its op. Branch `4a + c` of the
    /// two-qubit channel is `P_a ⊗ P_c` on the basis `|q1 q0⟩`: `P_c` acts
    /// on the op's first qubit, `P_a` on its second.
    fn paulis(&self, (site, branch): (u32, u8)) -> impl Iterator<Item = FusedOp> {
        let [low, high] = match self.ops[site as usize] {
            FusedOp::One(_, q) | FusedOp::Rz(_, q) => [(branch, q), (0, q)],
            FusedOp::Two(_, a, b) | FusedOp::Cx(a, b) | FusedOp::Mono(_, _, a, b) => {
                [(branch & 3, a), (branch >> 2, b)]
            }
        };
        let pauli = |p: u8| [gates::x(), gates::y(), gates::z()][p as usize - 1];
        let fired = [low, high].into_iter().filter(|&(p, _)| p > 0);
        fired.map(move |(p, q)| FusedOp::One(pauli(p), q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::ProbDist;
    use crate::gates;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Trajectory average over a depolarizing channel must converge to the
    /// exact density-matrix result.
    #[test]
    fn trajectories_converge_to_density_matrix() {
        use crate::density::DensityMatrix;
        let p = 0.2;
        // Exact reference.
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_1q(&gates::h(), 0);
        rho.apply_2q(&gates::cx(), 0, 1);
        rho.apply_channel(&NoiseChannel::depolarizing_1q(p), &[0]);
        let exact = rho.probabilities();

        let mut rng = StdRng::seed_from_u64(11);
        let mut acc = TrajectoryAccumulator::new(2);
        let ch = NoiseChannel::depolarizing_1q(p);
        for _ in 0..4000 {
            let mut sv = StateVector::zero_state(2);
            sv.apply_1q(&gates::h(), 0);
            sv.apply_2q(&gates::cx(), 0, 1);
            apply_stochastic(&mut sv, &ch, &[0], &mut rng);
            acc.add(&sv);
        }
        let approx = acc.into_dist();
        assert!(
            exact.total_variation(&approx) < 0.03,
            "tv distance too large: {}",
            exact.total_variation(&approx)
        );
    }

    #[test]
    fn kraus_sampling_preserves_normalization() {
        let ch = NoiseChannel::amplitude_damping(0.4);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let mut sv = StateVector::zero_state(1);
            sv.apply_1q(&gates::h(), 0);
            apply_stochastic(&mut sv, &ch, &[0], &mut rng);
            assert!((sv.norm_sq() - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn amplitude_damping_trajectories_match_exact_decay() {
        let gamma = 0.35;
        let ch = NoiseChannel::amplitude_damping(gamma);
        let mut rng = StdRng::seed_from_u64(17);
        let mut acc = TrajectoryAccumulator::new(1);
        for _ in 0..6000 {
            let mut sv = StateVector::basis_state(1, 1);
            apply_stochastic(&mut sv, &ch, &[0], &mut rng);
            acc.add(&sv);
        }
        let dist = acc.into_dist();
        // P(1) should be 1 - gamma.
        assert!((dist.probabilities()[1] - (1.0 - gamma)).abs() < 0.02);
    }

    #[test]
    fn accumulator_counts() {
        let mut acc = TrajectoryAccumulator::new(1);
        assert_eq!(acc.count(), 0);
        acc.add(&StateVector::zero_state(1));
        assert_eq!(acc.count(), 1);
    }

    #[test]
    fn identity_channel_is_noop() {
        let ch = NoiseChannel::identity(1);
        let mut rng = StdRng::seed_from_u64(5);
        let mut sv = StateVector::zero_state(1);
        sv.apply_1q(&gates::h(), 0);
        let before = ProbDist::new(sv.probabilities());
        apply_stochastic(&mut sv, &ch, &[0], &mut rng);
        let after = ProbDist::new(sv.probabilities());
        assert!(before.total_variation(&after) < 1e-12);
    }
}
