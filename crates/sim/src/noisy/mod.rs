//! Noise-aware fused density programs: gate fusion for the path where every
//! gate is followed by a depolarizing channel.
//!
//! A noisy execution interleaves a channel after each gate, which pins the
//! op order for generic Kraus noise. *Depolarizing* noise is special: the
//! channel `D_K(ρ) = Kρ + (1−K)·(I/d ⊗ Tr ρ)` (survival `K = 1−p`) only
//! distinguishes "the identity component on its wires" from "everything
//! else", and conjugation by a unitary on those wires preserves both. Two
//! exact identities follow, and [`DensityProgram::compile`] is a `Slot` rule
//! on [`crate::fuse`]'s wire-tracking scan built on them (the scan places
//! every op where fusion would; the rule says what a merge computes):
//!
//! - **Covariance.** `D_K(UρU†) = U·D_K(ρ)·U†` for a unitary `U` on the
//!   channel's wire, and `D_K ∘ D_K' = D_{KK'}`. A single-qubit run
//!   `D·U_k ⋯ D·U_1` on one wire therefore collapses to one
//!   [`Mat2`](crate::gates::Mat2) and one channel with survival `K^k`.
//! - **Pair commutation.** The two-qubit channel on `(a, b)` commutes with
//!   every unitary on `a`, `b` or the pair, and with the single-qubit
//!   channels on `a` and `b` (those fix `I/4 ⊗ Tr_{ab} ρ`). All two-qubit
//!   channels of a *pair block* — a maximal stretch of ops confined to one
//!   pair — therefore merge into one trailing channel with survival `K₂^m`.
//!
//! Neither identity holds for non-unital or axis-dependent noise (amplitude
//! or phase damping do not commute with the gates around them), so the
//! program takes the two depolarizing rates rather than arbitrary channels.
//! Single-qubit channels do *not* commute with a two-qubit gate on their
//! wire, so inside a pair block the local op order is kept.
//!
//! A lone single-qubit run is folded into the pair block that next consumes
//! its wire, and trailing runs fold back into the block before them, so a
//! transpiled circuit becomes roughly one sweep per routed two-qubit
//! interaction: the 7-qubit QAOA circuit's 107 gates + 107 channels run as
//! 16 sweeps.
//!
//! # Determinism
//!
//! Compilation multiplies gate matrices and reorders sweeps on disjoint
//! qubits, so a program matches the unfused evolution
//! ([`crate::density::evolve_unfused`]) to ≤ 1e-12 max-norm, not
//! bit-for-bit — the same tier as [`crate::fuse`]. A run is a fixed
//! sequence of sweeps on the calling thread, so the same program on the
//! same ρ gives the same bits every time, windowed or full.

mod compile; // the `Slot` rule on the scan, closing blocks, what a rebind replays
mod cone; // light-cone windows and the step order they read
mod fork; // programs that share a gate prefix
mod sweep; // the kernels, their AVX2 build and the unchecked ρ accessor

pub use fork::{ForkStats, ForkedProgram};

use crate::density::DensityMatrix;
use crate::dist::ProbDist;
use crate::fuse::FusedOp;
use compile::{seated, Closed, Place, Run, Shape, Source};
use cone::{readout_windows, Window};
use sweep::{Local, Step};

/// A compiled noisy circuit: a short list of sweeps over ρ equivalent to
/// applying every op followed by its depolarizing channel.
///
/// Every `One`/`Two`/`Mono` matrix must be unitary — the identities the
/// compiler relies on hold for unitaries only.
///
/// # Examples
///
/// ```
/// use qoncord_sim::density::{evolve_unfused, DensityMatrix};
/// use qoncord_sim::fuse::FusedOp;
/// use qoncord_sim::gates;
/// use qoncord_sim::noisy::DensityProgram;
///
/// let ops = [
///     FusedOp::One(gates::h(), 0),
///     FusedOp::Cx(0, 1),
///     FusedOp::Rz(0.4, 1),
///     FusedOp::Cx(0, 1),
/// ];
/// let program = DensityProgram::compile(2, ops, 0.01, 0.05);
/// assert_eq!(program.sweeps(), 1); // 4 gates + 4 channels in one sweep
///
/// let mut fused = DensityMatrix::zero_state(2);
/// program.run(&mut fused);
/// let mut unfused = DensityMatrix::zero_state(2);
/// evolve_unfused(&mut unfused, &ops, 0.01, 0.05);
/// assert!(fused.entry(3, 0).approx_eq(unfused.entry(3, 0), 1e-12));
/// ```
#[derive(Debug, Clone)]
pub struct DensityProgram {
    n_qubits: usize,
    steps: Vec<Step>,
    /// Per step, the tiles [`DensityProgram::outcome_probabilities`] visits.
    windows: Vec<Window>,
    /// Survival factor of one single-qubit channel, for re-closing runs.
    keep_1q: f64,
    /// Per local op or lone run that holds a parametric op, in step order:
    /// where it sits and where a rebind finds its numbers.
    sources: Vec<(Place, Source)>,
    /// Per parametric op, in the order a rebind passes them, what the
    /// compile saw of it. Empty in a fork's branches: the trunk checks.
    shapes: Vec<Shape>,
}

/// How much of ρ a program's read-out run touches, counted from its
/// windows (`noisy/cone.rs`); the density analogue of
/// [`crate::trajectory::TrajectoryStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DensityStats {
    /// Sweeps per run.
    pub sweeps: usize,
    /// Tiles [`DensityProgram::run`] visits: every tile of every sweep
    /// (`4 × 4` for a pair block, `2 × 2` for a lone wire).
    pub tiles_full: u64,
    /// Tiles [`DensityProgram::outcome_probabilities`] visits.
    pub tiles_visited: u64,
    /// Sweeps [`DensityProgram::rebind`] recomputes a local op of.
    pub steps_rebound: usize,
}

impl DensityProgram {
    /// Compiles `ops`, each followed by a depolarizing channel on its
    /// operands with probability `dep_1q` (one-qubit ops) or `dep_2q`
    /// (two-qubit ops), for an `n_qubits` register.
    ///
    /// A slot absorbs an op exactly when it is still the latest slot on
    /// every wire the op touches; see the module docs for why the channels
    /// may then be regrouped.
    ///
    /// # Panics
    ///
    /// Panics (fail-closed) if an op references an out-of-range qubit or
    /// coinciding qubits, or a rate is outside `[0, 1]`.
    pub fn compile(
        n_qubits: usize,
        ops: impl IntoIterator<Item = FusedOp>,
        dep_1q: f64,
        dep_2q: f64,
    ) -> Self {
        let ops = ops.into_iter().map(|op| (op, false));
        Self::compile_parametric(n_qubits, ops, dep_1q, dep_2q)
    }

    /// [`DensityProgram::compile`] of `(op, parametric)` pairs: the
    /// parametric ops, in order, are what [`DensityProgram::rebind`] later
    /// replaces.
    ///
    /// # Panics
    ///
    /// As for [`DensityProgram::compile`].
    pub fn compile_parametric(
        n_qubits: usize,
        ops: impl IntoIterator<Item = (FusedOp, bool)>,
        dep_1q: f64,
        dep_2q: f64,
    ) -> Self {
        let no_tails: [[(FusedOp, bool); 0]; 0] = [];
        ForkedProgram::compile_parametric(n_qubits, ops, no_tails, dep_1q, dep_2q).trunk
    }

    /// Replaces the parametric ops with `ops`, in the order the compile saw
    /// them, and recomputes the local ops and lone runs that hold one
    /// through the compile's own arithmetic (`noisy/compile.rs`). The
    /// program is then, bit for bit, the one the same ops would compile to.
    ///
    /// # Panics
    ///
    /// Panics if `ops` does not hold one op per parametric op, or an op's
    /// variant or qubits differ from those of the op it replaces.
    pub fn rebind(&mut self, ops: &[FusedOp]) {
        let _prof = qoncord_prof::span("sim::dm::rebind");
        self.check_shapes(ops);
        self.rebind_sources(ops);
    }

    /// Fails closed unless `ops` replace the parametric ops one for one,
    /// each with its variant and qubits.
    fn check_shapes(&self, ops: &[FusedOp]) {
        assert_eq!(
            ops.len(),
            self.shapes.len(),
            "rebind takes one op per parametric op"
        );
        for (op, shape) in ops.iter().zip(&self.shapes) {
            let found = Shape::of(op);
            assert!(
                found == *shape,
                "rebound op {found:?} differs in kind or qubits from the compiled {shape:?}"
            );
        }
    }

    /// Recomputes every local op and lone run that holds a parametric op,
    /// through the compile's own `Run` and seating arithmetic.
    fn rebind_sources(&mut self, params: &[FusedOp]) {
        for (place, source) in &self.sources {
            let step = &mut self.steps[place.step];
            match (source, step, place.local) {
                (Source::Run { q, members }, step, local) => {
                    let run = Run::replay(*q, members, params).finish(self.keep_1q);
                    *step.run_mut(local) = run;
                }
                (&Source::Dense { k, q0, seat }, Step::Pair { ops, .. }, Some(i)) => {
                    ops[i] = Local::Dense(seated(&params[k].mat4_on(q0), &seat));
                }
                _ => unreachable!("a dense local sits in a pair block"),
            }
        }
    }

    /// A program running `closed` in order, read out after steps on the
    /// qubits `before` and ahead of steps on the qubits `after`.
    fn assemble(
        n_qubits: usize,
        closed: Vec<Closed>,
        before: usize,
        after: usize,
        keep_1q: f64,
    ) -> Self {
        let mut steps = Vec::with_capacity(closed.len());
        let mut sources = Vec::new();
        for (step, c) in closed.into_iter().enumerate() {
            let placed = c.sources.into_iter().map(|(local, source)| {
                let place = Place { step, local };
                (place, source)
            });
            sources.extend(placed);
            steps.push(c.step);
        }
        DensityProgram {
            n_qubits,
            windows: readout_windows(&steps, before, after),
            steps,
            keep_1q,
            sources,
            shapes: Vec::new(),
        }
    }

    /// Number of sweeps a run performs.
    pub fn sweeps(&self) -> usize {
        self.steps.len()
    }

    /// Tile counts of a read-out run against a full one; exact, from the
    /// windows alone.
    pub fn stats(&self) -> DensityStats {
        let dim = 1usize << self.n_qubits;
        DensityStats {
            sweeps: self.steps.len(),
            tiles_full: self
                .steps
                .iter()
                .map(|step| Window::full(dim, step.qubits()).tiles())
                .sum(),
            tiles_visited: self.tiles_visited(),
            steps_rebound: self.steps_rebound(),
        }
    }

    fn steps_rebound(&self) -> usize {
        let mut steps: Vec<usize> = self.sources.iter().map(|(place, _)| place.step).collect();
        steps.dedup();
        steps.len()
    }

    /// Evolves `rho` through the program: any ρ in, every entry of the
    /// evolved ρ out. Each sweep visits all of its tiles; this is what the
    /// test suites pin against [`crate::density::evolve_unfused`].
    ///
    /// # Panics
    ///
    /// Panics if `rho` is not over the register size the program was
    /// compiled for.
    pub fn run(&self, rho: &mut DensityMatrix) {
        assert_eq!(
            rho.n_qubits(),
            self.n_qubits,
            "program compiled for a different register size"
        );
        let dim = 1usize << self.n_qubits;
        for step in &self.steps {
            step.sweep(rho.data_mut(), dim, Window::full(dim, step.qubits()));
        }
    }

    /// The outcome distribution of the program run from `|0…0⟩` — the
    /// diagonal [`DensityProgram::run`] would leave, bit for bit — visiting
    /// only the tiles inside each step's light-cone window
    /// (`noisy/cone.rs`).
    ///
    /// The start state is owned here because the windows are exact only
    /// from `|0…0⟩`, and ρ never leaves because entries outside the last
    /// window are stale: there is deliberately no `&mut DensityMatrix`
    /// form of this method.
    pub fn outcome_probabilities(&self) -> ProbDist {
        let mut rho = DensityMatrix::zero_state(self.n_qubits);
        self.sweep_windows(&mut rho);
        rho.probabilities()
    }

    /// Takes `rho` through every step's read-out window.
    fn sweep_windows(&self, rho: &mut DensityMatrix) {
        let dim = 1usize << self.n_qubits;
        for (step, window) in self.steps.iter().zip(&self.windows) {
            step.sweep(rho.data_mut(), dim, *window);
        }
    }

    fn tiles_visited(&self) -> u64 {
        self.windows.iter().map(|w| w.tiles()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::density::evolve_unfused;
    use crate::gates;
    use crate::math::C64;

    fn max_diff(a: &DensityMatrix, b: &DensityMatrix) -> f64 {
        let dim = 1usize << a.n_qubits();
        (0..dim * dim)
            .map(|i| (a.entry(i / dim, i % dim) - b.entry(i / dim, i % dim)).abs())
            .fold(0.0, f64::max)
    }

    /// Program vs unfused evolution from a non-trivial product state.
    pub(super) fn assert_matches_unfused(n: usize, ops: &[FusedOp], dep_1q: f64, dep_2q: f64) {
        let mut start = DensityMatrix::zero_state(n);
        for q in 0..n {
            start.apply_1q(&gates::ry(0.3 + q as f64), q);
        }
        let mut fused = start.clone();
        DensityProgram::compile(n, ops.iter().copied(), dep_1q, dep_2q).run(&mut fused);
        let mut unfused = start;
        evolve_unfused(&mut unfused, ops, dep_1q, dep_2q);
        let d = max_diff(&fused, &unfused);
        assert!(
            d <= 1e-12,
            "max-norm diff {d} at rates ({dep_1q}, {dep_2q})"
        );
        assert!((fused.trace() - 1.0).abs() <= 1e-12);
    }

    /// Every local-op kind, both qubit orders, and a wire (3) that only
    /// ever sees one-qubit gates.
    pub(super) fn mixed_program() -> Vec<FusedOp> {
        let mono = FusedOp::Mono(
            [C64::cis(0.3), C64::I, C64::cis(-1.1), C64::ONE],
            [2, 0, 3, 1],
            2,
            0,
        );
        vec![
            FusedOp::One(gates::h(), 0),
            FusedOp::Rz(0.4, 1),
            FusedOp::Rz(-0.9, 1),
            FusedOp::One(gates::sx(), 3),
            FusedOp::Cx(1, 0),
            FusedOp::Rz(0.7, 0),
            FusedOp::One(gates::rx(1.3), 1),
            FusedOp::Cx(0, 1),
            FusedOp::Two(gates::rzz(0.8), 2, 1),
            FusedOp::One(gates::ry(-0.6), 2),
            FusedOp::Cx(1, 2),
            FusedOp::Two(gates::cx(), 1, 2),
            FusedOp::One(gates::rx(0.5), 1),
            FusedOp::Cx(2, 1),
            mono,
            FusedOp::Rz(2.1, 3),
            FusedOp::One(gates::t(), 0),
        ]
    }

    #[test]
    fn zz_block_with_its_one_qubit_layers_is_one_sweep() {
        let ops = [
            FusedOp::One(gates::h(), 0),
            FusedOp::One(gates::h(), 1),
            FusedOp::Cx(0, 1),
            FusedOp::Rz(0.7, 1),
            FusedOp::Cx(0, 1),
            FusedOp::One(gates::sx(), 0),
            FusedOp::Rz(0.2, 0),
        ];
        assert_eq!(DensityProgram::compile(2, ops, 0.01, 0.02).sweeps(), 1);
        assert_matches_unfused(2, &ops, 0.01, 0.02);
    }

    #[test]
    fn blocks_split_where_the_pair_changes_and_lone_wires_stay_lone() {
        // Pair (1,0), pair (2,1), pair (2,0), and wire 3's merged run.
        let program = DensityProgram::compile(4, mixed_program(), 0.01, 0.02);
        assert_eq!(program.sweeps(), 4);
    }

    #[test]
    fn mixed_program_matches_unfused_at_calibrated_and_extreme_rates() {
        for dep_1q in [0.0, 0.004, 1.0] {
            for dep_2q in [0.0, 0.03, 1.0] {
                assert_matches_unfused(4, &mixed_program(), dep_1q, dep_2q);
            }
        }
    }

    #[test]
    fn fully_depolarizing_pair_channel_leaves_the_pair_maximally_mixed() {
        let ops = [FusedOp::One(gates::h(), 0), FusedOp::Cx(0, 1)];
        let mut rho = DensityMatrix::zero_state(2);
        DensityProgram::compile(2, ops, 0.0, 1.0).run(&mut rho);
        assert!(max_diff(&rho, &DensityMatrix::maximally_mixed(2)) <= 1e-15);
    }

    #[test]
    fn single_qubit_register_runs_as_one_wire_sweep() {
        let ops = [
            FusedOp::One(gates::h(), 0),
            FusedOp::Rz(0.3, 0),
            FusedOp::One(gates::sx(), 0),
        ];
        assert_eq!(DensityProgram::compile(1, ops, 0.1, 0.0).sweeps(), 1);
        assert_matches_unfused(1, &ops, 0.1, 0.0);
    }

    /// The windowed read-out against the diagonal of a full run from
    /// `|0…0⟩`, bit for bit.
    pub(super) fn assert_outcome_is_the_full_runs_diagonal(program: &DensityProgram) {
        let mut rho = DensityMatrix::zero_state(program.n_qubits);
        program.run(&mut rho);
        assert_eq!(
            bits(&program.outcome_probabilities()),
            bits(&rho.probabilities())
        );
    }

    pub(super) fn bits(d: &ProbDist) -> Vec<u64> {
        d.probabilities().iter().map(|p| p.to_bits()).collect()
    }

    #[test]
    fn empty_program_leaves_all_mass_on_the_zero_outcome() {
        let program = DensityProgram::compile(3, [], 0.01, 0.02);
        assert_eq!(program.stats().sweeps, 0);
        let outcome = program.outcome_probabilities();
        assert_eq!(outcome.probabilities()[0], 1.0);
        assert!(outcome.probabilities()[1..].iter().all(|&p| p == 0.0));
    }

    /// `mixed_program` with its RZ and rotation ops parametric.
    fn parametric_mixed_program() -> Vec<(FusedOp, bool)> {
        let parametric = |op: &FusedOp| match op {
            FusedOp::Rz(..) | FusedOp::Two(..) | FusedOp::Mono(..) => true,
            FusedOp::One(u, _) => *u != gates::h() && *u != gates::sx() && *u != gates::t(),
            _ => false,
        };
        mixed_program()
            .into_iter()
            .map(|op| (op, parametric(&op)))
            .collect()
    }

    #[test]
    fn rebinding_recomputes_only_the_steps_holding_a_parametric_op() {
        let marked = parametric_mixed_program();
        let mut program = DensityProgram::compile_parametric(4, marked.clone(), 0.004, 0.03);
        // Wire 3's lone run is fixed but for its RZ; every block holds one.
        assert_eq!(program.stats().steps_rebound, 4);
        let same: Vec<FusedOp> = marked.iter().filter(|m| m.1).map(|m| m.0).collect();
        let before = program.outcome_probabilities();
        program.rebind(&same);
        assert_eq!(bits(&program.outcome_probabilities()), bits(&before));
        let fixed = marked
            .iter()
            .map(|&(op, _)| (op, op == FusedOp::Rz(2.1, 3)));
        let program = DensityProgram::compile_parametric(4, fixed, 0.004, 0.03);
        assert_eq!(program.stats().steps_rebound, 1);
    }

    #[test]
    #[should_panic(expected = "differs in kind or qubits")]
    fn rebinding_an_op_of_another_kind_fails_closed() {
        let ops = [(FusedOp::Rz(0.3, 0), true), (FusedOp::Cx(0, 1), false)];
        let mut program = DensityProgram::compile_parametric(2, ops, 0.01, 0.02);
        program.rebind(&[FusedOp::One(gates::rz(0.3), 0)]);
    }

    #[test]
    #[should_panic(expected = "differs in kind or qubits")]
    fn rebinding_an_op_on_other_qubits_fails_closed() {
        let ops = [
            (FusedOp::Cx(0, 1), false),
            (FusedOp::Two(gates::rzz(0.4), 0, 1), true),
        ];
        let mut forked = ForkedProgram::compile_parametric(2, ops, [vec![]], 0.01, 0.02);
        forked.rebind(&[FusedOp::Two(gates::rzz(0.4), 1, 0)]);
    }

    #[test]
    #[should_panic(expected = "one op per parametric op")]
    fn rebinding_too_few_ops_fails_closed() {
        let ops = [(FusedOp::Rz(0.3, 0), true), (FusedOp::Rz(0.1, 1), true)];
        DensityProgram::compile_parametric(2, ops, 0.01, 0.02).rebind(&[FusedOp::Rz(0.2, 0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_qubit_fails_closed() {
        DensityProgram::compile(2, [FusedOp::Rz(0.1, 2)], 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "probability must be in [0,1]")]
    fn rate_outside_unit_interval_fails_closed() {
        DensityProgram::compile(2, [FusedOp::Cx(0, 1)], 0.0, 1.5);
    }

    #[test]
    #[should_panic(expected = "different register size")]
    fn register_size_mismatch_fails_closed() {
        let mut rho = DensityMatrix::zero_state(3);
        DensityProgram::compile(2, [FusedOp::Cx(0, 1)], 0.0, 0.0).run(&mut rho);
    }
}
