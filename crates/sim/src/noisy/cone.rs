//! Light-cone windows. Every pass of a sweep is tile-local: it reads and
//! writes one tile, and maps a tile of zeros to zeros. A job starts in
//! `|0…0⟩` and reads only ρ's diagonal, so
//! [`super::DensityProgram::outcome_probabilities`] skips the tiles that
//! cannot matter. With `P_t` the qubits of step `t`, two masks follow from
//! the step list alone:
//!
//! - **forward support** `S_t = ⋃_{s≤t} P_s`. A qubit no step has touched
//!   yet is still exactly `|0⟩⟨0|`, so every entry whose row or column has
//!   a bit outside `S_t` is an exact zero before step `t` and after it:
//!   the sweep visits row anchors `r ⊆ S_t ∖ P_t` only.
//! - **backward cone** `M_t = ⋃_{s≥t} P_s`. An entry at `(row, col)` feeds
//!   the tile at the same anchors and nothing else, so `row ⊕ col` changes
//!   only on the bits of the steps still to come; an entry that reaches the
//!   diagonal has `row ⊕ col ⊆ M_{t+1}` after step `t`. Per row anchor `r`
//!   the sweep visits column anchors `r ⊕ d` for `d ⊆ (S_t ∩ M_t) ∖ P_t`.
//!
//! Entries outside a window are left stale, and no later window reads one
//! that the full sweep would have changed: a later entry inside its window
//! has `row ⊕ col` inside every earlier cone, so it was either inside each
//! earlier window or outside that step's support, where it is still the
//! zero it started as. [`super::DensityProgram::run`] is the same kernel
//! with both masks full — arbitrary ρ in, whole ρ out. The per-tile
//! arithmetic is the same code in the same order either way, so the
//! outcome distribution of a windowed run equals, bit for bit, the
//! diagonal of a full run from `|0…0⟩`.
//!
//! The windows depend on the order of the steps: in slot order, a step that
//! brings a new qubit widens the rows of every step after it. Sweeps on
//! disjoint qubits commute up to rounding, so the compiler folds the closed
//! steps, in slot order, into a *light-cone order*: a step that brings no
//! new qubit into the forward support moves ahead of the trailing steps
//! that share no qubit with it and each brought one. Steps that share a
//! qubit never swap, so which qubits a step brings does not depend on the
//! order, and each step's place depends only on the steps before it: the
//! order is prefix-consistent. The rule reads the forward support only, never the
//! backward cone, which a fork changes. The 16 blocks of the transpiled
//! 7-qubit QAOA visit 1477 of their 16 384 tiles, against 6181 in slot
//! order — the fewest any order that keeps each qubit's steps in place
//! gives (`docs/ARCHITECTURE.md` has the per-block table).

use super::sweep::Step;

/// The tiles one sweep visits: row anchors are the subsets of `rows`, and
/// a row anchor `r`'s column anchors are `r ^ d` for the subsets `d` of
/// `deltas`. Neither mask holds a bit of the sweep's own qubits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Window {
    pub(super) rows: usize,
    pub(super) deltas: usize,
}

impl Window {
    /// Every tile of a `dim × dim` ρ for a sweep on the qubits in `own`.
    pub(super) fn full(dim: usize, own: usize) -> Self {
        let rest = (dim - 1) & !own;
        Window {
            rows: rest,
            deltas: rest,
        }
    }

    /// Whether every anchor is below `dim` with the bits of `own` clear.
    pub(super) fn fits(self, dim: usize, own: usize) -> bool {
        dim.is_power_of_two()
            && (self.rows | self.deltas | own) < dim
            && (self.rows | self.deltas) & own == 0
    }

    pub(super) fn tiles(self) -> u64 {
        1 << (self.rows.count_ones() + self.deltas.count_ones())
    }
}

/// The window of each step for a run that starts in `|0…0⟩` and is read on
/// the diagonal: forward support for the rows, intersected with the
/// backward cone for the row-to-column deltas. `before` holds the qubits of
/// the steps that ran ahead of `steps` and `after` those of the steps still
/// to come (both `0` for a whole program).
pub(super) fn readout_windows(steps: &[Step], before: usize, after: usize) -> Vec<Window> {
    let mut windows = vec![Window { rows: 0, deltas: 0 }; steps.len()];
    let mut support = before;
    for (window, step) in windows.iter_mut().zip(steps) {
        support |= step.qubits();
        window.rows = support & !step.qubits();
    }
    let mut cone = after;
    for (window, step) in windows.iter_mut().zip(steps).rev() {
        cone |= step.qubits();
        window.deltas = window.rows & cone;
    }
    windows
}

/// A step's place in the light-cone order: which step, its qubits, and the
/// qubits it is the first to touch.
#[derive(Debug, Clone, Copy)]
pub(super) struct Placed {
    pub(super) step: usize,
    pub(super) qubits: usize,
    pub(super) fresh: usize,
}

/// The light-cone order of the steps folded in so far (module docs), and
/// the qubits they touch.
#[derive(Debug, Default)]
pub(super) struct LightCone {
    pub(super) placed: Vec<Placed>,
    pub(super) support: usize,
}

impl LightCone {
    /// Folds in `step`, on `qubits`, after every step folded in so far, by
    /// the module docs' rule, and returns where it landed.
    pub(super) fn fold(&mut self, step: usize, qubits: usize) -> usize {
        let fresh = qubits & !self.support;
        self.support |= qubits;
        let mut at = self.placed.len();
        if fresh == 0 {
            while at > 0
                && self.placed[at - 1].fresh != 0
                && self.placed[at - 1].qubits & qubits == 0
            {
                at -= 1;
            }
        }
        self.placed.insert(
            at,
            Placed {
                step,
                qubits,
                fresh,
            },
        );
        at
    }
}

/// Bitmask of the qubits any of `steps` acts on.
pub(super) fn qubits_of(steps: &[Step]) -> usize {
    steps.iter().fold(0, |mask, step| mask | step.qubits())
}

/// The subsets of `mask` in ascending order.
#[inline(always)]
pub(super) fn subsets(mask: usize) -> impl Iterator<Item = usize> {
    let mut next = Some(0usize);
    std::iter::from_fn(move || {
        let s = next?;
        let after = s.wrapping_sub(mask) & mask;
        next = (after != 0).then_some(after);
        Some(s)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuse::FusedOp;
    use crate::gates;
    use crate::noisy::tests::{
        assert_matches_unfused, assert_outcome_is_the_full_runs_diagonal, mixed_program,
    };
    use crate::noisy::{DensityProgram, DensityStats};

    fn window(rows: usize, deltas: usize) -> Window {
        Window { rows, deltas }
    }

    #[test]
    fn windows_grow_with_the_support_and_shrink_with_the_cone() {
        // A chain: qubit 3 is first touched in the last block, so no window
        // before it has rows (or deltas) on bit 3; qubit 0 is last touched
        // in the first block, so it is a row bit but never a delta bit.
        let chain = [FusedOp::Cx(0, 1), FusedOp::Cx(1, 2), FusedOp::Cx(2, 3)];
        let program = DensityProgram::compile(4, chain, 0.01, 0.02);
        assert_eq!(
            program.windows,
            [window(0, 0), window(0b0001, 0), window(0b0011, 0)]
        );
        assert_eq!(
            program.stats(),
            DensityStats {
                sweeps: 3,
                tiles_full: 3 * 16,
                tiles_visited: 1 + 2 + 4,
                steps_rebound: 0,
            }
        );

        // Qubits touched on both sides of a block they are not in are its
        // deltas: 2 around block (0,1), 1 around block (2,3). Qubit 0 is
        // done after the second block and qubit 3 unborn before the third.
        let weave = [
            FusedOp::Cx(1, 2),
            FusedOp::Cx(0, 1),
            FusedOp::Cx(2, 3),
            FusedOp::Cx(1, 2),
        ];
        let program = DensityProgram::compile(4, weave, 0.01, 0.02);
        assert_eq!(
            program.windows,
            [
                window(0, 0),
                window(0b0100, 0b0100),
                window(0b0011, 0b0010),
                window(0b1001, 0),
            ]
        );
        assert_outcome_is_the_full_runs_diagonal(&program);
    }

    #[test]
    fn windowed_outcome_is_the_full_runs_diagonal_on_every_local_op_kind() {
        for (dep_1q, dep_2q) in [(0.0, 0.0), (0.004, 0.03), (1.0, 0.03), (0.004, 1.0)] {
            let program = DensityProgram::compile(4, mixed_program(), dep_1q, dep_2q);
            assert!(program.stats().tiles_visited < program.stats().tiles_full);
            assert_outcome_is_the_full_runs_diagonal(&program);
        }
    }

    #[test]
    fn lone_wire_sweeps_are_windowed_before_and_after_pair_blocks() {
        let pair = [
            FusedOp::One(gates::h(), 0),
            FusedOp::Cx(0, 1),
            FusedOp::Rz(0.4, 1),
        ];
        let lone = [FusedOp::One(gates::ry(0.9), 2), FusedOp::Rz(-0.3, 2)];

        let wire_first: Vec<FusedOp> = lone.iter().chain(&pair).copied().collect();
        let program = DensityProgram::compile(3, wire_first, 0.01, 0.02);
        assert_eq!(program.windows, [window(0, 0), window(0b100, 0)]);
        assert_outcome_is_the_full_runs_diagonal(&program);

        let wire_last: Vec<FusedOp> = pair.iter().chain(&lone).copied().collect();
        let program = DensityProgram::compile(3, wire_last, 0.01, 0.02);
        assert_eq!(program.windows, [window(0, 0), window(0b011, 0)]);
        assert_outcome_is_the_full_runs_diagonal(&program);
    }

    #[test]
    fn a_widening_step_sinks_below_a_step_inside_the_support() {
        // Slots (0,1), (1,2), (3,4), (0,1): the third brings qubits 3 and 4,
        // the fourth brings nothing and shares no qubit with the third, so it
        // runs first. In slot order the windows would be (0, 0), (0b1, 0b1),
        // (0b111, 0b11), (0b11100, 0): 1 + 4 + 32 + 8 tiles.
        let chain = [
            FusedOp::One(gates::h(), 0),
            FusedOp::Cx(0, 1),
            FusedOp::Cx(1, 2),
            FusedOp::One(gates::ry(0.8), 3),
            FusedOp::Cx(3, 4),
            FusedOp::Cx(0, 1),
            FusedOp::Rz(0.3, 1),
        ];
        let program = DensityProgram::compile(5, chain, 0.01, 0.02);
        let qubits: Vec<usize> = program.steps.iter().map(Step::qubits).collect();
        assert_eq!(qubits, [0b11, 0b110, 0b11, 0b11000]);
        assert_eq!(
            program.windows,
            [
                window(0, 0),
                window(0b1, 0b1),
                window(0b100, 0),
                window(0b111, 0),
            ]
        );
        assert_eq!(program.stats().tiles_visited, 1 + 4 + 2 + 8);
        assert_outcome_is_the_full_runs_diagonal(&program);
        assert_matches_unfused(5, &chain, 0.01, 0.02);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn steps_that_share_a_qubit_never_swap_places(
            pairs in proptest::collection::vec((0..6usize, 0..6usize), 0..24),
        ) {
            let mut order = LightCone::default();
            let masks: Vec<usize> = pairs.iter().map(|&(a, b)| 1 << a | 1 << b).collect();
            for (i, &mask) in masks.iter().enumerate() {
                order.fold(i, mask);
            }
            let mut at = vec![usize::MAX; masks.len()];
            for (position, p) in order.placed.iter().enumerate() {
                proptest::prop_assert_eq!(p.qubits, masks[p.step]);
                at[p.step] = position;
            }
            for i in 0..masks.len() {
                for j in i + 1..masks.len() {
                    if masks[i] & masks[j] != 0 {
                        proptest::prop_assert!(at[i] < at[j], "steps {i} and {j} swapped");
                    }
                }
            }
        }
    }
}
