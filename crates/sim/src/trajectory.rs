//! Monte-Carlo quantum-trajectory simulation.
//!
//! Instead of evolving a `4^n`-entry density matrix, a trajectory run evolves
//! a statevector and *samples* one channel branch at every noise insertion.
//! Averaging over trajectories yields an unbiased estimate of the exact
//! density-matrix result; for mixed-unitary channels (depolarizing noise, the
//! only gate noise the Qoncord paper's hypothetical 14-qubit devices use) the
//! branch probabilities are state-independent and sampling is exact and
//! cheap.
//!
//! The circuit-level driver lives here too, in two tiers like
//! [`crate::noisy`]. [`sample_unfused`] is the seed loop — every trajectory
//! replays every op on the seed kernels ([`crate::reference`]) and calls
//! [`apply_stochastic`] after it — which tests and the `kernel_profile`
//! benchmark call directly. Jobs run a
//! [`TrajectoryProgram`]: a depolarizing site consumes one uniform whatever
//! the state is, so it first draws every trajectory's *pattern* — the
//! `(op index, branch)` pairs that drew a non-identity Pauli — in the
//! seed's RNG order. Then it fuses the noise-free op list **once**
//! (`fuse::fuse_traced`) and never multiplies by an identity: a
//! fired site's Pauli (one or two [`FusedOp::One`]) lands in the block that
//! owns its op, and only that block is re-fused, from its own members.
//! Patterns become lists of such patched blocks; equal ones are evolved
//! once, and the sorted lists are walked depth-first as a trie over blocks,
//! so patterns that agree on their first `d` patched blocks share the
//! evolution up to the block where they part (one live state per trie
//! level).
//!
//! Each block sweeps only the amplitudes that can be non-zero. Fusion folds
//! a qubit's first gates into the first 2q block on its wire, so late
//! blocks are often the first to touch a qubit (on the transpiled 9-qubit
//! QAOA, blocks 20, 21 and 25 of 28). The plan relabels the qubits in the
//! order its blocks first touch them; block `j` then runs on the first
//! `2^width[j]` amplitudes, `width[j]` being the number of qubits blocks
//! `0..=j` touch, and every amplitude above is an untouched exact zero. A
//! patched block is relabelled the same way after its re-fusion, the sums
//! are accumulated on the relabelled basis and put back in order once per
//! run. Each visited quartet computes what it would on the full register,
//! and a skipped one would only have written ±0, which `norm_sq` squares
//! away: the run is bit for bit the full-register replay of its plan.
//!
//! Replaying the patterns op-at-a-time is bit-identical to
//! [`sample_unfused`]; fusion reorders floating-point products, so the
//! program matches it to ≤ 1e-12 on every probability.

use crate::dist::ProbDist;
use crate::fuse::{fuse, fuse_traced, FusedOp};
use crate::gates::{self, Mat2, Mat4};
use crate::linalg::Matrix;
use crate::math::C64;
use crate::noise::NoiseChannel;
use crate::reference;
use crate::statevector::StateVector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Samples one branch of `channel` and applies it to `sv` on `qubits`. The
/// branch is drawn from the fixed ensemble probabilities with one uniform;
/// an identity branch costs no sweep.
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
    let NoiseChannel::MixedUnitary { ops } = channel;
    let branch = draw_branch(ops.iter().map(|(p, _)| *p), rng.random());
    let chosen = &ops[branch].1;
    // "No error" is by far the likeliest draw, and an identity sweep changes
    // no probability bit: skip it.
    if !is_identity(chosen) {
        apply_matrix(sv, chosen, qubits);
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

    /// Moves the sums of states whose qubit `q` was relabelled `label[q]`
    /// back to the original basis order (each sum keeps its bits).
    fn unlabel(&mut self, label: &[usize]) {
        // Original index `i` is relabelled index `at[i]`, built bit by bit
        // from `i` without its lowest set bit.
        let mut at = vec![0usize; self.sums.len()];
        for i in 1..at.len() {
            at[i] = at[i & (i - 1)] | 1 << label[i.trailing_zeros() as usize];
        }
        self.sums = at.iter().map(|&j| self.sums[j]).collect();
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
/// applies every op unfused through its seed kernel and samples the op's
/// depolarizing channel after it. A zero rate inserts no channel and draws
/// no uniform.
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
            reference::sv_apply_op(&mut sv, op);
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

/// A pattern in block coordinates: `(block, its fired sites in op order)`,
/// blocks of the run's fusion plan ascending.
type BlockPattern = Vec<(u32, Pattern)>;

/// What the last [`TrajectoryProgram::run`] did, exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrajectoryStats {
    /// Trajectories averaged: `Σ multiplicity` over the distinct patterns.
    pub trajectories: u64,
    /// Distinct patterns among them — the final states actually evolved.
    pub distinct_patterns: u64,
    /// Non-identity Paulis drawn, over all trajectories.
    pub fired_sites: u64,
    /// Ops swept: blocks and patched blocks, each one sweep. The seed
    /// loop's count is `ops × trajectories` gate sweeps plus one per fired
    /// site.
    pub ops_applied: u64,
    /// Amplitudes those sweeps walked: `Σ 2^width` over them, where a
    /// block's width is the number of qubits it and the blocks before it
    /// touch (at most `ops_applied × 2^n`).
    pub amplitudes_swept: u64,
    /// Blocks in the run's fusion plan of the noise-free op list.
    pub blocks: u64,
    /// Blocks re-fused with fired Paulis in them, over all trie nodes.
    pub patched_blocks: u64,
}

/// A run's fusion plan of the noise-free op list, its qubits relabelled in
/// the order the blocks first touch them: after block `j`, qubits
/// `0..width[j]` are the only ones any block has touched, so every other
/// qubit is still |0⟩ and every amplitude at or above `2^width[j]` an exact
/// zero. Block `j` sweeps the first `2^width[j]` amplitudes only.
struct Plan {
    /// [`fuse_traced`]'s blocks, relabelled.
    blocks: Vec<FusedOp>,
    /// The block each op of the list ended in.
    owners: Vec<u32>,
    /// Block `b`'s member ops, ascending, are
    /// `members[starts[b]..starts[b + 1]]` (the inverse of `owners`).
    starts: Vec<usize>,
    members: Vec<u32>,
    /// Qubit `q`'s label; untouched qubits take the top labels, in order.
    label: Vec<usize>,
    /// Per block, the qubits it and the blocks before it touch.
    width: Vec<usize>,
}

impl Plan {
    fn new(n_qubits: usize, ops: impl IntoIterator<Item = FusedOp>) -> Self {
        let (blocks, owners) = fuse_traced(n_qubits, ops);
        // A stable sort keeps each block's members in op order.
        let mut members: Vec<u32> = (0..owners.len() as u32).collect();
        members.sort_by_key(|&i| owners[i as usize]);
        let starts = (0..=blocks.len())
            .map(|b| members.partition_point(|&i| (owners[i as usize] as usize) < b))
            .collect();
        let mut label = vec![None; n_qubits];
        let mut touched = 0;
        let mut first_touch = |q: usize, touched: &mut usize| {
            *label[q].get_or_insert_with(|| {
                *touched += 1;
                *touched - 1
            })
        };
        let mut width = Vec::with_capacity(blocks.len());
        let blocks = blocks
            .iter()
            .map(|block| {
                let block = relabel(block, |q| first_touch(q, &mut touched));
                width.push(touched);
                block
            })
            .collect();
        let label = (0..n_qubits)
            .map(|q| first_touch(q, &mut touched))
            .collect();
        Plan {
            blocks,
            owners,
            starts,
            members,
            label,
            width,
        }
    }
}

/// `op` with every qubit `q` replaced by `label(q)`; matrices and operand
/// order stay, so each quartet computes what it did on the old labels.
fn relabel(op: &FusedOp, mut label: impl FnMut(usize) -> usize) -> FusedOp {
    match *op {
        FusedOp::One(u, q) => FusedOp::One(u, label(q)),
        FusedOp::Rz(theta, q) => FusedOp::Rz(theta, label(q)),
        FusedOp::Two(u, a, b) => FusedOp::Two(u, label(a), label(b)),
        FusedOp::Cx(c, t) => FusedOp::Cx(label(c), label(t)),
        FusedOp::Mono(d, src, a, b) => FusedOp::Mono(d, src, label(a), label(b)),
    }
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
        let drawn = self.draw(seed, n_trajectories);
        self.average(&drawn)
    }

    /// The average over the trajectories with the fired sites `drawn`.
    fn average(&mut self, drawn: &[Pattern]) -> ProbDist {
        let span = qoncord_prof::span("sim::sv::traj_plan");
        let plan = Plan::new(self.n_qubits, self.ops.iter().copied());
        let owners = &plan.owners;
        // Each pattern in block coordinates: its fired sites grouped by the
        // block that owns their op, blocks ascending (the order of execution).
        let to_blocks = |pattern: &Pattern| -> BlockPattern {
            let mut sites: Vec<_> = pattern.iter().map(|&e| (owners[e.0 as usize], e)).collect();
            sites.sort_unstable();
            let patch = |of: &[(u32, (u32, u8))]| (of[0].0, of.iter().map(|s| s.1).collect());
            sites.chunk_by(|a, b| a.0 == b.0).map(patch).collect()
        };
        let mut patterns: Vec<BlockPattern> = drawn.iter().map(to_blocks).collect();
        patterns.sort_unstable();
        drop(span);
        self.stats = TrajectoryStats {
            fired_sites: drawn.iter().map(|p| p.len() as u64).sum(),
            blocks: plan.blocks.len() as u64,
            ..TrajectoryStats::default()
        };
        let mut acc = TrajectoryAccumulator::new(self.n_qubits);
        let start = StateVector::zero_state(self.n_qubits);
        self.subtree(&mut acc, &plan, &patterns, 0, start, 0);
        self.stats.trajectories = acc.count();
        acc.unlabel(&plan.label);
        acc.into_dist()
    }

    /// Walks the sorted patterns of `group`, which agree on their first
    /// `depth` patches; `sv` has been evolved along those through the blocks
    /// before `from`.
    fn subtree(
        &mut self,
        acc: &mut TrajectoryAccumulator,
        plan: &Plan,
        group: &[BlockPattern],
        depth: usize,
        mut sv: StateVector,
        mut from: usize,
    ) {
        // Patterns with nothing left to share take `sv` to the end of the
        // circuit: a group of equal patterns, or those that end here (they
        // sort first but go last: the forks need `sv`).
        let (same, mut rest) = match group {
            [first, .., last] if first != last => {
                group.split_at(group.partition_point(|p| p.len() == depth))
            }
            _ => (group, &[][..]),
        };
        while let [first, ..] = rest {
            let patch = &first[depth];
            let (children, others) = rest.split_at(rest.partition_point(|p| p[depth] == *patch));
            let block = patch.0 as usize;
            self.sweep(&mut sv, plan, from..block);
            from = block;
            let mut child = sv.clone();
            self.sweep_patched(&mut child, plan, patch);
            self.subtree(acc, plan, children, depth + 1, child, block + 1);
            rest = others;
        }
        if let Some(pattern) = same.first() {
            for patch in &pattern[depth..] {
                self.sweep(&mut sv, plan, from..patch.0 as usize);
                self.sweep_patched(&mut sv, plan, patch);
                from = patch.0 as usize + 1;
            }
            self.sweep(&mut sv, plan, from..plan.blocks.len());
            self.stats.distinct_patterns += 1;
            acc.add_weighted(&sv, same.len() as u64);
        }
    }

    /// Applies the plan's blocks `range`, each on its own width.
    fn sweep(&mut self, sv: &mut StateVector, plan: &Plan, range: std::ops::Range<usize>) {
        for (block, &width) in plan.blocks[range.clone()].iter().zip(&plan.width[range]) {
            self.apply(sv, block, width);
        }
    }

    /// Sweeps `op` over the first `2^width` amplitudes, and counts it.
    fn apply(&mut self, sv: &mut StateVector, op: &FusedOp, width: usize) {
        self.stats.ops_applied += 1;
        self.stats.amplitudes_swept += 1 << width;
        sv.apply_op_within(op, width);
    }

    /// Applies block `patch.0` with the fired Paulis of `patch.1` in it: the
    /// block's members re-fused with each Pauli after its op, then relabelled
    /// as the plan's blocks are. Merge legality in [`fuse_traced`] depends on
    /// wires only and a Pauli acts on its own op's wires, so the
    /// circuit-with-Paulis has the ideal plan's blocks and only this one's
    /// matrix differs: it sweeps the block's width.
    fn sweep_patched(&mut self, sv: &mut StateVector, plan: &Plan, patch: &(u32, Pattern)) {
        let block = patch.0 as usize;
        let fused = {
            let _prof = qoncord_prof::span("sim::sv::traj_plan");
            let mut fired = patch.1.iter().peekable();
            let mut members = Vec::new();
            for &i in &plan.members[plan.starts[block]..plan.starts[block + 1]] {
                let i = i as usize;
                members.push(self.ops[i]);
                if let Some(&entry) = fired.next_if(|e| e.0 as usize == i) {
                    members.extend(self.paulis(entry));
                }
            }
            fuse(self.n_qubits, members)
        };
        self.stats.patched_blocks += 1;
        for op in &fused {
            self.apply(sv, &relabel(op, |q| plan.label[q]), plan.width[block]);
        }
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

    /// `average` on hand-written patterns against the same patterns replayed
    /// op-at-a-time (every op unfused, a fired site's Paulis right after it);
    /// returns the run's counters.
    fn assert_average_matches_replay(
        n: usize,
        ops: &[FusedOp],
        patterns: &[Pattern],
    ) -> TrajectoryStats {
        let mut program = TrajectoryProgram::compile(n, ops.iter().copied(), 0.01, 0.05);
        let mut acc = TrajectoryAccumulator::new(n);
        for pattern in patterns {
            let mut sv = StateVector::zero_state(n);
            let mut fired = pattern.iter().peekable();
            for (i, op) in ops.iter().enumerate() {
                sv.apply_op(op);
                if let Some(&entry) = fired.next_if(|e| e.0 as usize == i) {
                    program.paulis(entry).for_each(|pauli| sv.apply_op(&pauli));
                }
            }
            assert!(fired.next().is_none(), "pattern names an op out of range");
            acc.add(&sv);
        }
        let replayed = acc.into_dist();
        let fast = program.average(patterns);
        for (x, y) in fast.probabilities().iter().zip(replayed.probabilities()) {
            assert!((x - y).abs() <= 1e-12, "{x} vs {y}");
        }
        assert_eq!(program.stats().trajectories, patterns.len() as u64);
        program.stats()
    }

    /// Four qubits, four blocks: a ZZ block with its H layer absorbed (0), a
    /// CX that absorbs the list's first op, a lone RZ (1), a lone CX (2) and
    /// a dense block ending the list (3).
    fn four_blocks() -> Vec<FusedOp> {
        vec![
            FusedOp::Rz(0.4, 3),
            FusedOp::One(gates::h(), 0),
            FusedOp::One(gates::h(), 1),
            FusedOp::Cx(0, 1),
            FusedOp::Rz(0.7, 1),
            FusedOp::Cx(0, 1),
            FusedOp::Cx(2, 3),
            FusedOp::Cx(1, 2),
            FusedOp::Two(gates::crz(0.9), 0, 1),
            FusedOp::One(gates::u3(0.3, 0.2, -0.5), 0),
        ]
    }

    #[test]
    fn four_blocks_plan_is_what_the_cases_below_assume() {
        let (blocks, owners) = fuse_traced(4, four_blocks());
        assert_eq!(owners, [1, 0, 0, 0, 0, 0, 1, 2, 3, 3]);
        assert!(
            matches!(blocks[1], FusedOp::Mono(..)),
            "CX · RZ is monomial"
        );
        assert!(matches!(blocks[2], FusedOp::Cx(..)), "lone CX");
    }

    #[test]
    fn two_fired_sites_in_one_block_are_one_patch() {
        let stats = assert_average_matches_replay(4, &four_blocks(), &[vec![(3, 7), (5, 9)]]);
        assert_eq!((stats.fired_sites, stats.patched_blocks), (2, 1));
        assert_eq!(stats.ops_applied, stats.blocks);
    }

    #[test]
    fn a_fired_lone_rz_and_a_fired_lone_cx_change_variant() {
        // Alone on its wire the RZ stays `Rz`; with a fired X it is a `One`.
        let ops = [FusedOp::Rz(0.4, 1), FusedOp::One(gates::h(), 0)];
        assert_average_matches_replay(2, &ops, &[vec![(0, 1)], vec![]]);
        // Block 2 is a bare `Cx`; with Y on its control and Z on its target
        // (branch 4·3 + 2) it is a `Two`.
        let stats = assert_average_matches_replay(4, &four_blocks(), &[vec![(7, 14)], vec![]]);
        assert_eq!((stats.distinct_patterns, stats.patched_blocks), (2, 1));
    }

    #[test]
    fn a_fired_1q_op_a_later_2q_op_absorbed_patches_that_block() {
        // Op 0 executes inside block 1, after ops 1–5 (block 0): op order and
        // block order disagree. The first and third pattern share block 0's
        // patch; block 1 is patched once on top of it and once without it.
        let patterns = [vec![(0, 3), (1, 2)], vec![(0, 3)], vec![(1, 2)]];
        let stats = assert_average_matches_replay(4, &four_blocks(), &patterns);
        assert_eq!((stats.distinct_patterns, stats.patched_blocks), (3, 3));
    }

    #[test]
    fn a_fired_site_on_the_last_op() {
        let stats = assert_average_matches_replay(4, &four_blocks(), &[vec![(9, 2)], vec![(9, 2)]]);
        assert_eq!((stats.distinct_patterns, stats.patched_blocks), (1, 1));
    }

    #[test]
    fn patterns_equal_up_to_the_last_block_share_everything_before_it() {
        let patterns = [
            vec![(4, 1), (8, 5)],
            vec![(4, 1), (9, 3)],
            vec![(4, 1), (8, 5), (9, 3)],
            vec![(4, 1)],
        ];
        let stats = assert_average_matches_replay(4, &four_blocks(), &patterns);
        assert_eq!((stats.distinct_patterns, stats.patched_blocks), (4, 4));
        // Blocks 0–2 once (block 0 patched), then block 3 four ways.
        assert_eq!(stats.ops_applied, 3 + 4);
    }

    /// What [`TrajectoryProgram::average`] computes, with no relabelling,
    /// no sweep widths and no trie: every distinct pattern runs the plan of
    /// [`fuse_traced`] from `|0…0⟩` on the full register — a block with
    /// fired sites re-fused from its members and their Paulis, any other as
    /// planned — and its outcome is added, with its multiplicity, in the
    /// order the trie adds them (ascending, but after every pattern it is a
    /// proper prefix of).
    fn replay_plan(program: &TrajectoryProgram, drawn: &[Pattern]) -> ProbDist {
        let n = program.n_qubits;
        let (blocks, owners) = fuse_traced(n, program.ops.iter().copied());
        let in_block = |pattern: &Pattern, b: usize| -> Pattern {
            let of_b = pattern
                .iter()
                .filter(|e| owners[e.0 as usize] as usize == b);
            of_b.copied().collect()
        };
        let order = |pattern: &Pattern| {
            let patches = (0..blocks.len()).map(|b| (b, in_block(pattern, b)));
            let patches = patches.filter(|(_, fired)| !fired.is_empty());
            let end = (1u8, (usize::MAX, Pattern::new()));
            patches
                .map(|patch| (0u8, patch))
                .chain([end])
                .collect::<Vec<_>>()
        };
        let mut sorted: Vec<_> = drawn.iter().map(|p| (order(p), p)).collect();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        let mut acc = TrajectoryAccumulator::new(n);
        for same in sorted.chunk_by(|a, b| a.0 == b.0) {
            let pattern = same[0].1;
            let mut sv = StateVector::zero_state(n);
            for (b, block) in blocks.iter().enumerate() {
                let fired = in_block(pattern, b);
                if fired.is_empty() {
                    sv.apply_op(block);
                    continue;
                }
                let mut members = Vec::new();
                for (i, op) in program.ops.iter().enumerate() {
                    if owners[i] as usize == b {
                        members.push(*op);
                        let at_i = fired.iter().filter(|e| e.0 as usize == i);
                        at_i.for_each(|&e| members.extend(program.paulis(e)));
                    }
                }
                sv.apply_ops(&fuse(n, members));
            }
            acc.add_weighted(&sv, same.len() as u64);
        }
        acc.into_dist()
    }

    /// A depolarizing rate: exactly 0, low, or fully depolarizing.
    fn rate() -> impl proptest::strategy::Strategy<Value = f64> {
        use proptest::strategy::Just;
        proptest::prop_oneof![Just(0.0), 0.0..0.3f64, Just(1.0)]
    }

    fn prob_bits(dist: &ProbDist) -> Vec<u64> {
        dist.probabilities().iter().map(|p| p.to_bits()).collect()
    }

    /// Five qubits, 4 never touched. Blocks: CX(1, 2); CX(2, 3) with the
    /// list's first op, an H on 3, absorbed; CX(0, 1) with an RZ on 0
    /// absorbed. Qubits are first touched in the order 1, 2, 3, 0.
    fn late_first_touches() -> Vec<FusedOp> {
        vec![
            FusedOp::One(gates::h(), 3),
            FusedOp::Cx(1, 2),
            FusedOp::Rz(0.8, 0),
            FusedOp::Cx(2, 3),
            FusedOp::Cx(0, 1),
            FusedOp::One(gates::u3(0.3, 0.2, -0.5), 2),
        ]
    }

    #[test]
    fn traj_plan_labels_qubits_in_first_touch_order() {
        let plan = Plan::new(5, late_first_touches());
        assert_eq!(plan.owners, [1, 0, 2, 1, 2, 1]);
        assert_eq!(plan.starts, [0, 1, 4, 6]);
        assert_eq!(plan.members, [1, 0, 3, 5, 2, 4]);
        assert_eq!(plan.label, [3, 0, 1, 2, 4]);
        assert_eq!(plan.width, [2, 3, 4]);
        let wires: Vec<_> = plan.blocks.iter().map(FusedOp::pair).collect();
        assert_eq!(wires, [Some([0, 1]), Some([1, 2]), Some([3, 0])]);
    }

    #[test]
    fn traj_late_first_touches_are_bitwise_a_full_register_replay() {
        let ops = late_first_touches();
        for (dep_1q, dep_2q) in [(0.0, 0.0), (0.05, 0.2), (1.0, 1.0)] {
            let mut program = TrajectoryProgram::compile(5, ops.iter().copied(), dep_1q, dep_2q);
            let drawn = program.draw(3, 40);
            let fast = program.average(&drawn);
            assert_eq!(prob_bits(&fast), prob_bits(&replay_plan(&program, &drawn)));
            let stats = program.stats();
            assert!(stats.amplitudes_swept <= stats.ops_applied << 4);
        }
        // With no noise: blocks of widths 2, 3 and 4, one run.
        let mut ideal = TrajectoryProgram::compile(5, ops, 0.0, 0.0);
        ideal.run(0, 8);
        assert_eq!(ideal.stats().amplitudes_swept, 4 + 8 + 16);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// [`TrajectoryProgram::average`] is, bit for bit on every
        /// probability, [`replay_plan`]: relabelling, sweep widths and trie
        /// sharing change no bit. The op lists mix every variant in both
        /// qubit orders and leave qubit `hole` out (so labels above it are
        /// not their qubits), and the rates run up to 1.
        #[test]
        fn traj_average_is_bitwise_a_full_register_replay_of_its_plan(
            program in proptest::collection::vec((0u8..9, 0..5usize, 0..5usize, -3.2..3.2f64), 0..40),
            hole in 0..6usize,
            dep_1q in rate(),
            dep_2q in rate(),
            seed in 0..u64::MAX,
            n_trajectories in 1u32..40,
        ) {
            for n in [3usize, 4, 6] {
                let hole = hole % n;
                let wire = |q: usize| q + (q >= hole) as usize;
                let ops: Vec<FusedOp> = program
                    .iter()
                    .map(|&(op, a, b, angle)| {
                        let (a, b) = (a % (n - 1), b % (n - 1));
                        let b = if a == b { (a + 1) % (n - 1) } else { b };
                        let (a, b) = (wire(a), wire(b));
                        match op {
                            0 => FusedOp::One(gates::h(), a),
                            1 => FusedOp::One(gates::u3(angle, 0.4, -1.1), a),
                            2 | 3 => FusedOp::Rz(angle, a),
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
                    .collect();
                let mut traj = TrajectoryProgram::compile(n, ops.iter().copied(), dep_1q, dep_2q);
                let drawn = traj.draw(seed, n_trajectories);
                let fast = traj.average(&drawn);
                proptest::prop_assert_eq!(prob_bits(&fast), prob_bits(&replay_plan(&traj, &drawn)));
                let stats = traj.stats();
                proptest::prop_assert!(stats.amplitudes_swept <= stats.ops_applied << (n - 1));
            }
        }
    }
}
