//! Forked programs. A VQE evaluation runs one ansatz under several
//! measurement rotations: circuits that share a long gate prefix and differ
//! in a short tail. [`ForkedProgram::compile`] scans the prefix once, forks
//! the scan per circuit and feeds each fork its tail. The slots below the
//! first one any tail changed — folded an op into, or absorbed as a lone run
//! — close once and are folded into light-cone order once; the rest close
//! per circuit, and each circuit continues the fold with its own steps. The
//! fold is prefix-consistent, so that is exactly the order of the circuit's
//! own [`DensityProgram`]. A circuit's step may move ahead of trunk steps,
//! so the *trunk*, which runs once, is the longest prefix of the folded
//! trunk that every circuit's order still starts with; everything after it
//! runs per circuit in its *branch*, on a copy of the trunk's ρ, including a
//! trunk step a circuit's step moved ahead of. Exchanging two sweeps on
//! disjoint wires is exact on paper but rounds differently, so no circuit's
//! order is bent to share more.
//!
//! Each circuit thus runs exactly the steps of its own [`DensityProgram`],
//! in the same order. Only the trunk's windows differ: the backward cone of
//! a trunk step is taken over the trunk *and every branch*, a superset of
//! the cone each circuit alone would give it. The tiles that adds lie
//! inside the step's support and outside the circuit's own window, and by
//! the argument in `cone.rs` no later window of that circuit reads an entry
//! of such a tile; the tiles of the own window see the same arithmetic on
//! the same inputs. Every outcome probability therefore equals, bit for
//! bit, the one the circuit's own program returns. On the five H₂/UCCSD
//! measurement circuits the trunk holds 40 of each circuit's 43 sweeps
//! ([`ForkedProgram::stats`]).

use super::compile::{steps, Closed, Marked, Shape, Slot};
use super::cone::{qubits_of, readout_windows, LightCone, Placed};
use super::DensityProgram;
use crate::density::DensityMatrix;
use crate::dist::ProbDist;
use crate::fuse::{FusedOp, Scan};

/// Several noisy circuits that start with the same ops — a VQE evaluation's
/// measurement-group circuits — compiled so the shared part is scanned,
/// closed and evolved once (see `noisy/fork.rs`).
///
/// # Examples
///
/// ```
/// use qoncord_sim::fuse::FusedOp;
/// use qoncord_sim::gates;
/// use qoncord_sim::noisy::{DensityProgram, ForkedProgram};
///
/// let trunk = [FusedOp::One(gates::h(), 0), FusedOp::Cx(0, 1), FusedOp::Cx(1, 2)];
/// let tails = [vec![], vec![FusedOp::One(gates::h(), 2)]];
/// let forked = ForkedProgram::compile(3, trunk, tails.clone(), 0.01, 0.05);
/// // The last block is still open on wire 2, so each branch closes its own.
/// assert_eq!(forked.stats().trunk_sweeps, 1);
/// assert_eq!(forked.stats().branch_sweeps, [1, 1]);
///
/// let whole = trunk.into_iter().chain(tails[1].iter().copied());
/// let alone = DensityProgram::compile(3, whole, 0.01, 0.05).outcome_probabilities();
/// assert_eq!(forked.outcome_probabilities()[1], alone);
/// ```
#[derive(Debug, Clone)]
pub struct ForkedProgram {
    /// The sweeps every circuit shares; its windows keep what any branch
    /// still reads.
    pub(super) trunk: DensityProgram,
    /// Per circuit, the sweeps that follow the trunk.
    branches: Vec<DensityProgram>,
}

/// How much of the circuits' work a [`ForkedProgram`] shares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForkStats {
    /// Sweeps run once for all circuits.
    pub trunk_sweeps: usize,
    /// Per circuit, the sweeps run after the trunk.
    pub branch_sweeps: Vec<usize>,
    /// Tiles one read-out of all circuits visits.
    pub tiles_visited: u64,
    /// Tiles the circuits' own [`DensityProgram`]s would visit in total.
    pub tiles_unforked: u64,
    /// Sweeps [`ForkedProgram::rebind`] recomputes a local op of, counting
    /// a trunk step a branch runs once per such branch.
    pub steps_rebound: usize,
}

impl ForkedProgram {
    /// Compiles the circuits `trunk ++ tail`, one per entry of `tails`,
    /// with the rates of [`DensityProgram::compile`]. No tails leave the
    /// trunk as the whole of one program.
    ///
    /// # Panics
    ///
    /// As for [`DensityProgram::compile`].
    pub fn compile<T: IntoIterator<Item = FusedOp>>(
        n_qubits: usize,
        trunk: impl IntoIterator<Item = FusedOp>,
        tails: impl IntoIterator<Item = T>,
        dep_1q: f64,
        dep_2q: f64,
    ) -> Self {
        let fixed = |op| (op, false);
        let tails = tails.into_iter().map(|tail| tail.into_iter().map(fixed));
        Self::compile_parametric(
            n_qubits,
            trunk.into_iter().map(fixed),
            tails,
            dep_1q,
            dep_2q,
        )
    }

    /// [`ForkedProgram::compile`] of `(op, parametric)` pairs: the
    /// parametric ops — the trunk's in order, then each tail's — are what
    /// [`ForkedProgram::rebind`] later replaces.
    ///
    /// # Panics
    ///
    /// As for [`DensityProgram::compile`].
    pub fn compile_parametric<T: IntoIterator<Item = (FusedOp, bool)>>(
        n_qubits: usize,
        trunk: impl IntoIterator<Item = (FusedOp, bool)>,
        tails: impl IntoIterator<Item = T>,
        dep_1q: f64,
        dep_2q: f64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&dep_1q) && (0.0..=1.0).contains(&dep_2q),
            "probability must be in [0,1]"
        );
        let _prof = qoncord_prof::span("sim::dm::plan");
        let mut shapes = Vec::new();
        let mut mark = |(op, parametric): (FusedOp, bool)| {
            let param = parametric.then(|| {
                shapes.push(Shape::of(&op));
                shapes.len() - 1
            });
            Marked { op, param }
        };
        let mut scan = Scan::<Slot>::new(n_qubits);
        for op in trunk {
            scan.push(mark(op));
        }
        let forks: Vec<Scan<Slot>> = tails
            .into_iter()
            .map(|tail| {
                let mut fork = scan.fork();
                for op in tail {
                    fork.push(mark(op));
                }
                fork
            })
            .collect();
        // The slots below the first one any tail changed close once; the
        // rest close per circuit.
        let fork_at = forks
            .iter()
            .map(|fork| fork.touched)
            .fold(scan.end(), usize::min);
        let keeps = (1.0 - dep_1q, 1.0 - dep_2q);
        let mut trunk_order = LightCone::default();
        let mut trunk = Vec::new();
        for (i, closed) in steps(&scan, 0..fork_at, keeps).enumerate() {
            trunk.insert(trunk_order.fold(i, closed.step.qubits()), closed);
        }
        let trunk_len = trunk.len();
        // A step can pass only the trailing run of steps that each brought
        // a qubit, so each circuit continues the fold on that run alone:
        // `folded` holds its order from `reach` on, and its own steps.
        let reach = trunk_order.placed.iter().rposition(|p| p.fresh == 0);
        let reach = reach.map_or(0, |i| i + 1);
        let folded: Vec<(Vec<Placed>, Vec<Closed>)> = forks
            .iter()
            .map(|fork| {
                let own: Vec<Closed> = steps(fork, fork_at..fork.end(), keeps).collect();
                let mut order = LightCone {
                    placed: trunk_order.placed[reach..].to_vec(),
                    support: trunk_order.support,
                };
                for (i, closed) in own.iter().enumerate() {
                    order.fold(trunk_len + i, closed.step.qubits());
                }
                (order.placed, own)
            })
            .collect();
        // The trunk is what every circuit's order still starts with; a
        // trunk step that a tail step moved ahead of runs per branch.
        let shared = folded
            .iter()
            .filter_map(|(placed, _)| placed.iter().position(|p| p.step >= trunk_len))
            .fold(trunk_len - reach, usize::min)
            + reach;
        let displaced = trunk.split_off(shared);
        let support = trunk.iter().fold(0, |mask, c| mask | c.step.qubits());
        let keep_1q = keeps.0;
        let branches: Vec<DensityProgram> = folded
            .into_iter()
            .map(|(placed, own)| {
                // Trunk steps keep their order, a circuit's own ones may not.
                let mut displaced = displaced.iter();
                let mut own: Vec<Option<Closed>> = own.into_iter().map(Some).collect();
                let steps: Vec<Closed> = placed[shared - reach..]
                    .iter()
                    .map(|p| match p.step.checked_sub(trunk_len) {
                        None => displaced.next().expect("placed once").clone(),
                        Some(i) => own[i].take().expect("placed once"),
                    })
                    .collect();
                DensityProgram::assemble(n_qubits, steps, support, 0, keep_1q)
            })
            .collect();
        let cone = branches
            .iter()
            .fold(0, |mask, branch| mask | qubits_of(&branch.steps));
        let trunk = DensityProgram {
            shapes,
            ..DensityProgram::assemble(n_qubits, trunk, 0, cone, keep_1q)
        };
        ForkedProgram { trunk, branches }
    }

    /// [`DensityProgram::rebind`] for every circuit at once: the trunk's
    /// parametric ops, then each tail's, in the order the compile saw them.
    ///
    /// # Panics
    ///
    /// As for [`DensityProgram::rebind`].
    pub fn rebind(&mut self, ops: &[FusedOp]) {
        let _prof = qoncord_prof::span("sim::dm::rebind");
        self.trunk.check_shapes(ops);
        self.trunk.rebind_sources(ops);
        for branch in &mut self.branches {
            branch.rebind_sources(ops);
        }
    }

    /// Per circuit, the outcome distribution its own
    /// [`DensityProgram::outcome_probabilities`] returns, bit for bit: the
    /// trunk is evolved once from `|0…0⟩` and each branch continues a copy
    /// (the last branch continues the trunk's ρ itself).
    pub fn outcome_probabilities(&self) -> Vec<ProbDist> {
        let mut trunk = DensityMatrix::zero_state(self.trunk.n_qubits);
        self.trunk.sweep_windows(&mut trunk);
        let Some((last, rest)) = self.branches.split_last() else {
            return Vec::new();
        };
        let mut outcomes: Vec<ProbDist> = rest
            .iter()
            .map(|branch| {
                let mut rho = trunk.clone();
                branch.sweep_windows(&mut rho);
                rho.probabilities()
            })
            .collect();
        last.sweep_windows(&mut trunk);
        outcomes.push(trunk.probabilities());
        outcomes
    }

    /// Sweep and tile counts against the circuits compiled one by one;
    /// exact, from the steps alone.
    pub fn stats(&self) -> ForkStats {
        let unforked = |branch: &DensityProgram| {
            let steps = [&self.trunk.steps[..], &branch.steps[..]].concat();
            readout_windows(&steps, 0, 0)
                .iter()
                .map(|w| w.tiles())
                .sum::<u64>()
        };
        ForkStats {
            trunk_sweeps: self.trunk.sweeps(),
            branch_sweeps: self.branches.iter().map(|b| b.sweeps()).collect(),
            tiles_visited: self.trunk.tiles_visited()
                + self.branches.iter().map(|b| b.tiles_visited()).sum::<u64>(),
            tiles_unforked: self.branches.iter().map(unforked).sum(),
            steps_rebound: self.trunk.steps_rebound()
                + self
                    .branches
                    .iter()
                    .map(|b| b.steps_rebound())
                    .sum::<usize>(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;
    use crate::noisy::sweep::Step;
    use crate::noisy::tests::{bits, mixed_program};

    /// Each branch of the fork against its circuit compiled alone.
    fn assert_fork_matches_own_programs(n: usize, trunk: &[FusedOp], tails: &[Vec<FusedOp>]) {
        let forked = ForkedProgram::compile(n, trunk.iter().copied(), tails.to_vec(), 0.004, 0.03);
        let outcomes = forked.outcome_probabilities();
        assert_eq!(outcomes.len(), tails.len());
        let mut tiles_unforked = 0;
        for ((tail, outcome), &own_sweeps) in tails
            .iter()
            .zip(&outcomes)
            .zip(&forked.stats().branch_sweeps)
        {
            let whole = trunk.iter().chain(tail).copied();
            let alone = DensityProgram::compile(n, whole, 0.004, 0.03);
            assert_eq!(bits(outcome), bits(&alone.outcome_probabilities()));
            assert_eq!(forked.stats().trunk_sweeps + own_sweeps, alone.sweeps());
            tiles_unforked += alone.stats().tiles_visited;
        }
        assert_eq!(forked.stats().tiles_unforked, tiles_unforked);
    }

    #[test]
    fn trunk_ends_at_the_first_slot_a_tail_changes() {
        // `mixed_program` closes into wire 3's lone run, then the blocks on
        // (1,0), (2,1) and (2,0); the latter two are still open on wires 1
        // and 0, 2 when the tails start.
        let trunk = mixed_program();
        let sweeps = |tails: &[Vec<FusedOp>]| {
            assert_fork_matches_own_programs(4, &trunk, tails);
            ForkedProgram::compile(4, trunk.iter().copied(), tails.to_vec(), 0.004, 0.03)
                .stats()
                .trunk_sweeps
        };
        let into_last_block = vec![FusedOp::One(gates::h(), 0), FusedOp::Cx(0, 2)];
        let into_middle_block = vec![FusedOp::Rz(0.3, 1)];
        let into_lone_run = vec![FusedOp::One(gates::sx(), 3)];
        // Absorbs the lone run into a new block and leaves a tombstone.
        let across = vec![FusedOp::Cx(3, 2), FusedOp::Rz(-0.2, 3)];
        assert_eq!(sweeps(&[]), 4);
        assert_eq!(sweeps(&[vec![], vec![]]), 4);
        assert_eq!(sweeps(&[vec![], into_last_block.clone()]), 3);
        assert_eq!(sweeps(&[into_last_block.clone(), into_middle_block]), 2);
        assert_eq!(sweeps(&[into_last_block.clone(), into_lone_run]), 0);
        assert_eq!(sweeps(&[across, vec![], into_last_block]), 0);
    }

    #[test]
    fn a_hoisted_tail_step_shrinks_the_trunk_and_keeps_every_outcome() {
        // The trunk closes into (0,1), (1,2), (2,3), each bringing a qubit.
        // The first tail opens a new (0,1) block (the latest slots on 0 and
        // 1 differ) that moves ahead of (2,3); the empty tail keeps the slot
        // order. Their shared prefix is the first two trunk steps only.
        let trunk = [
            FusedOp::One(gates::h(), 0),
            FusedOp::Cx(0, 1),
            FusedOp::One(gates::ry(0.7), 2),
            FusedOp::Cx(1, 2),
            FusedOp::One(gates::rx(1.1), 3),
            FusedOp::Cx(2, 3),
        ];
        let tails = [vec![FusedOp::Cx(0, 1), FusedOp::Rz(0.3, 0)], vec![]];
        let forked = ForkedProgram::compile(4, trunk, tails.clone(), 0.004, 0.03);
        assert_eq!(forked.stats().trunk_sweeps, 2);
        assert_eq!(forked.stats().branch_sweeps, [2, 1]);
        let hoisted: Vec<usize> = forked.branches[0].steps.iter().map(Step::qubits).collect();
        assert_eq!(hoisted, [0b11, 0b1100]);
        assert_fork_matches_own_programs(4, &trunk, &tails);
    }
}
