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
//!   `D·U_k ⋯ D·U_1` on one wire therefore collapses to one [`Mat2`] and
//!   one channel with survival `K^k`.
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
//! # Strip kernel
//!
//! A pair block on `(q0, q1)` acts on ρ's `4 × 4` *tiles* — the entries
//! whose row and column indices agree outside the pair — one tile at a
//! time. Its sweep visits the tiles of its *window* (next section) one
//! *strip* at a time (the four rows of one row anchor, i.e. a row of tiles;
//! at most 8 KiB at 7 qubits, so it stays in L1) and takes each strip
//! through the whole block in place before moving on:
//!
//! - `Cx` moves no data. It permutes the pair's four basis states, so the
//!   compiler just tracks which tile offset holds which state, points the
//!   ops that follow at those offsets, and emits the block's *net*
//!   permutation as trailing swaps (`cx·rz·cx` nets to none, a routed SWAP
//!   to one);
//! - an RZ run multiplies the two coherences of each `2 × 2` sub-block by
//!   `K·e^{∓iθ}` and mixes its diagonal in closed form;
//! - any other run acts on a sub-block's Pauli coefficients `(x, y, z)` as
//!   the real `3 × 3` Pauli-transfer matrix `K·R(U)` — 18 real multiplies
//!   against 64 for `UρU†`, with the depolarizing factor folded in;
//! - `Two`/`Mono` conjugate each tile densely;
//! - the trailing two-qubit channel is the closed form
//!   `K·tile + (1−K)·Tr(tile)·I/4`.
//!
//! Every pass is a read-modify-write of sub-blocks in place: on the hosts
//! this was measured on, gathering a tile into a stack array and scattering
//! it back costs as much as three such passes, more than a typical block
//! holds once its CX gates are gone.
//!
//! No step divides by a survival factor, so fully depolarizing rates
//! (`p = 1`, `K = 0`) are ordinary inputs.
//!
//! # Light-cone windows
//!
//! Every pass above is tile-local: it reads and writes one tile, and maps a
//! tile of zeros to zeros. A job starts in `|0…0⟩` and reads only ρ's
//! diagonal, so [`DensityProgram::outcome_probabilities`] skips the tiles
//! that cannot matter. With `P_t` the qubits of step `t`, two masks follow
//! from the step list alone:
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
//! zero it started as. [`DensityProgram::run`] is the same kernel with both
//! masks full — arbitrary ρ in, whole ρ out. The per-tile arithmetic is the
//! same code in the same order either way, so the outcome distribution of
//! a windowed run equals, bit for bit, the diagonal of a full run from
//! `|0…0⟩`.
//!
//! The windows depend on the order of the steps, and slot order lets one
//! step widen the rows of every step after it: in the 7-qubit QAOA, block 6
//! (counting from 0) is the first to touch qubit 5, and every block after
//! it up to block 14 paid for that qubit. Sweeps on disjoint qubits commute
//! up to rounding (see "Determinism"), so the compiler folds the closed
//! steps, in slot order, into a *light-cone order*: a step that brings no
//! new qubit into the forward support moves ahead of the trailing steps
//! that share no qubit with it and each brought one. Steps that share a
//! qubit never swap, so which qubits a step brings does not depend on the
//! order, and each step's place depends only on the steps before it: the
//! order is prefix-consistent. The rule reads the forward support only,
//! never the backward cone, which a fork changes (next section). On the
//! transpiled 7-qubit QAOA the fold gives the order 0, 1, 2, 4, 5, 7, 3,
//! 8–13, 6, 14, 15, and the 16 blocks visit 1477 of their 16 384 tiles,
//! against 6181 in slot order — the fewest any order that keeps the steps
//! on each qubit in place gives ([`DensityProgram::stats`];
//! `docs/ARCHITECTURE.md` has the per-block table).
//!
//! # Forked programs
//!
//! A VQE evaluation runs one ansatz under several measurement rotations:
//! circuits that share a long gate prefix and differ in a short tail.
//! [`ForkedProgram::compile`] scans the prefix once, forks the scan per
//! circuit and feeds each fork its tail. The slots below the first one
//! any tail changed — folded an op into, or absorbed as a lone run — close
//! once and are folded into light-cone order once; the rest close per
//! circuit, and each circuit continues the fold with its own steps. The
//! fold is prefix-consistent, so that is exactly the order of the
//! circuit's own [`DensityProgram`]. A circuit's step may move ahead of
//! trunk steps, so the *trunk*, which runs once, is the longest prefix of
//! the folded trunk that every circuit's order still starts with;
//! everything after it runs per circuit in its *branch*, on a copy of the
//! trunk's ρ, including a trunk step a circuit's step moved ahead of.
//! Exchanging two sweeps on disjoint wires is exact on paper but rounds
//! differently, so no circuit's order is bent to share more.
//!
//! Each circuit thus runs exactly the steps of its own [`DensityProgram`],
//! in the same order. Only the trunk's windows differ: the backward cone of
//! a trunk step is taken over the trunk *and every branch*, a superset of
//! the cone each circuit alone would give it. The tiles that adds lie
//! inside the step's support and outside the circuit's own window, and by
//! the argument above no later window of that circuit reads an entry of
//! such a tile; the tiles of the own window see the same arithmetic on the
//! same inputs. Every outcome probability therefore equals, bit for bit,
//! the one the circuit's own program returns. On the five H₂/UCCSD
//! measurement circuits the trunk holds 40 of each circuit's 43 sweeps
//! ([`ForkedProgram::stats`]).
//!
//! # Rebinding
//!
//! What a compile builds depends on the ops' variants and qubits only,
//! never on their angles: which slot each op lands in, the runs and the
//! order their ops fold in, a block's CX seating and swaps, the light-cone
//! order, the windows and a fork's trunk. The numbers are the one part
//! that does not: a run's `WireOp`, computed from its ops' matrices, and
//! a dense local's seated matrix. A variational job evaluates one circuit
//! at many parameter points, so [`DensityProgram::compile_parametric`]
//! takes each op with a flag saying whether a later
//! [`DensityProgram::rebind`] replaces it. For every lone run and local op
//! that holds a flagged op, the program records where its numbers come
//! from: the run's ops in fold order (a fixed one by value, a flagged one
//! by its index among the flagged ops), or the dense op's index and the
//! seating the block's CX renaming gave it. A rebind recomputes those and
//! nothing else, through the compile's own `Run::new`, `push`, `finish`
//! and seating on the same ops in the same order, so the program is then
//! bit for bit the one a fresh compile of the new ops gives. A rebound op
//! keeps the variant and the qubits, in order, of the op it replaces: the
//! slots and seats rest on them, so a rebind that changes either panics.
//! The transpiled 7-qubit QAOA holds its 18 parametric gates of 107 in 11
//! of its 16 sweeps ([`DensityStats::steps_rebound`]); the H₂/UCCSD
//! evaluation's forked program re-binds 16 sweeps for its 12
//! ([`ForkStats::steps_rebound`], a step each branch runs counted per
//! branch).
//!
//! # Determinism
//!
//! Compilation multiplies gate matrices and reorders sweeps on disjoint
//! qubits, so a program matches the unfused evolution ([`evolve_unfused`])
//! to ≤ 1e-12 max-norm, not bit-for-bit — the same tier as
//! [`crate::fuse`]. A run is a fixed sequence of sweeps on the calling
//! thread, so the same program on the same ρ gives the same bits every
//! time, windowed or full.
//!
//! The sweeps reach ρ through `RawRho`, the workspace's only unchecked
//! memory access (`unsafe` is forbidden in every other crate and denied in
//! the rest of this one, but for the guarded call into the statevector's
//! AVX2 build in `statevector.rs`).
//! Bounds-checked forms cost `noisy_fleet` 16–20 % of its `wall_s`;
//! `docs/ARCHITECTURE.md`, "Why the simulator is single-threaded", has the
//! table. The module's other `unsafe` is the call into the AVX2 build of
//! the sweeps, made only on a CPU detected to have AVX2.
//!
//! # Two builds, one source
//!
//! As the statevector's are, the sweeps are built twice: `step_sweep` (the
//! `match` over `Step` with every kernel under it inlined) is compiled
//! once for the crate's target and once more inside `step_sweep_avx2`, a
//! `#[target_feature(enable = "avx2")]` function; every run, windowed or
//! full, goes through `Step::sweep`, which picks the second on a CPU with
//! AVX2 ([`crate::sweep_build`] says which). FMA stays off, so both do the
//! same IEEE adds and multiplies in the same order and the bits are equal
//! (`dm_avx2_build_is_bitwise_the_baseline_build`). A kernel under the
//! `match` that is not inlined (`#[inline(always)]`; `array::from_fn` is
//! not) runs its baseline build from the AVX2 one.

#![allow(unsafe_code)]

use crate::density::DensityMatrix;
use crate::dist::ProbDist;
use crate::fuse::{self, FusedOp, Scan, Slot as _};
use crate::gates::{self, mat2_adjoint, mat2_mul, Mat2, Mat4};
use crate::math::C64;
use std::borrow::Borrow;

/// The unfused noisy evolution the program is pinned against — the seed's
/// density path, which tests and the `kernel_profile` benchmark call
/// directly: each op is one gate sweep followed by one depolarizing sweep
/// at its arity's rate.
///
/// # Panics
///
/// Panics if an operand qubit is out of range or a rate is outside `[0, 1]`.
pub fn evolve_unfused(rho: &mut DensityMatrix, ops: &[FusedOp], dep_1q: f64, dep_2q: f64) {
    for op in ops {
        rho.apply_op(op);
        match *op {
            FusedOp::One(_, q) | FusedOp::Rz(_, q) => rho.apply_depolarizing_1q(dep_1q, q),
            FusedOp::Two(_, a, b) | FusedOp::Cx(a, b) | FusedOp::Mono(_, _, a, b) => {
                rho.apply_depolarizing_2q(dep_2q, a, b)
            }
        }
    }
}

/// A compiled noisy circuit: a short list of sweeps over ρ equivalent to
/// applying every op followed by its depolarizing channel.
///
/// Every `One`/`Two`/`Mono` matrix must be unitary — the identities the
/// compiler relies on hold for unitaries only.
///
/// # Examples
///
/// ```
/// use qoncord_sim::density::DensityMatrix;
/// use qoncord_sim::fuse::FusedOp;
/// use qoncord_sim::gates;
/// use qoncord_sim::noisy::{evolve_unfused, DensityProgram};
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
/// windows (see the module docs); the density analogue of
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

/// The tiles one sweep visits: row anchors are the subsets of `rows`, and
/// a row anchor `r`'s column anchors are `r ^ d` for the subsets `d` of
/// `deltas`. Neither mask holds a bit of the sweep's own qubits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Window {
    rows: usize,
    deltas: usize,
}

impl Window {
    /// Every tile of a `dim × dim` ρ for a sweep on the qubits in `own`.
    fn full(dim: usize, own: usize) -> Self {
        let rest = (dim - 1) & !own;
        Window {
            rows: rest,
            deltas: rest,
        }
    }

    /// Whether every anchor is below `dim` with the bits of `own` clear.
    fn fits(self, dim: usize, own: usize) -> bool {
        dim.is_power_of_two()
            && (self.rows | self.deltas | own) < dim
            && (self.rows | self.deltas) & own == 0
    }

    fn tiles(self) -> u64 {
        1 << (self.rows.count_ones() + self.deltas.count_ones())
    }
}

/// The window of each step for a run that starts in `|0…0⟩` and is read on
/// the diagonal: forward support for the rows, intersected with the
/// backward cone for the row-to-column deltas. `before` holds the qubits of
/// the steps that ran ahead of `steps` and `after` those of the steps still
/// to come (both `0` for a whole program).
fn readout_windows(steps: &[Step], before: usize, after: usize) -> Vec<Window> {
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
struct Placed {
    step: usize,
    qubits: usize,
    fresh: usize,
}

/// The light-cone order of the steps folded in so far (module docs), and
/// the qubits they touch.
#[derive(Debug, Default)]
struct LightCone {
    placed: Vec<Placed>,
    support: usize,
}

impl LightCone {
    /// Folds in `step`, on `qubits`, after every step folded in so far, and
    /// returns where it landed. A step that brings no new qubit moves ahead
    /// of the trailing steps that share no qubit with it and each brought
    /// one. Which qubits a step brings does not depend on the order, since
    /// steps that share a qubit keep theirs.
    fn fold(&mut self, step: usize, qubits: usize) -> usize {
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
fn qubits_of(steps: &[Step]) -> usize {
    steps.iter().fold(0, |mask, step| mask | step.qubits())
}

/// The subsets of `mask` in ascending order.
#[inline(always)]
fn subsets(mask: usize) -> impl Iterator<Item = usize> {
    let mut next = Some(0usize);
    std::iter::from_fn(move || {
        let s = next?;
        let after = s.wrapping_sub(mask) & mask;
        next = (after != 0).then_some(after);
        Some(s)
    })
}

/// One sweep over ρ.
#[derive(Debug, Clone)]
enum Step {
    /// A merged run on a wire no two-qubit op ever touches.
    Wire { q: usize, run: WireOp },
    /// A pair block: local ops in order, then the merged two-qubit channel
    /// with survival `keep`, then the block's net CX permutation as swaps
    /// of local basis states.
    Pair {
        q0: usize,
        q1: usize,
        ops: Vec<Local>,
        keep: f64,
        swaps: Vec<[usize; 2]>,
    },
}

impl Step {
    /// Bitmask of the qubits the step acts on.
    fn qubits(&self) -> usize {
        match *self {
            Step::Wire { q, .. } => 1 << q,
            Step::Pair { q0, q1, .. } => 1 << q0 | 1 << q1,
        }
    }

    /// The merged run of a lone-wire step (`local` is `None`) or of its
    /// pair block's local op `local`.
    fn run_mut(&mut self, local: Option<usize>) -> &mut WireOp {
        match (self, local) {
            (Step::Wire { run, .. }, None) => run,
            (Step::Pair { ops, .. }, Some(i)) => match &mut ops[i] {
                Local::Wire { run, .. } => run,
                Local::Dense(_) => unreachable!("a run's source names a run"),
            },
            _ => unreachable!("a lone wire's run has no local index"),
        }
    }

    /// Takes the tiles of `window` through the step, on [`step_sweep_avx2`]
    /// if this CPU has AVX2 and on [`step_sweep`] otherwise.
    fn sweep(&self, data: &mut [C64], dim: usize, window: Window) {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if crate::avx2() {
            // SAFETY: `step_sweep_avx2` enables AVX2 only, which this CPU
            // was detected to support.
            unsafe { step_sweep_avx2(self, data, dim, window) };
            return;
        }
        step_sweep(self, data, dim, window);
    }
}

/// [`step_sweep`] compiled for AVX2. Every kernel under it is
/// `#[inline(always)]`, so the whole dispatch is built again here with
/// 256-bit registers (a kernel left out of line would run its baseline
/// build from here); without FMA the adds and multiplies are the same IEEE
/// operations in the same order, so the bits are [`step_sweep`]'s.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn step_sweep_avx2(step: &Step, data: &mut [C64], dim: usize, window: Window) {
    step_sweep(step, data, dim, window);
}

/// Routes `step` to its kernel over the tiles of `window`.
#[inline(always)]
fn step_sweep(step: &Step, data: &mut [C64], dim: usize, window: Window) {
    match step {
        Step::Wire { q, run } => sweep_wire(data, dim, *q, run, window),
        Step::Pair {
            q0,
            q1,
            ops,
            keep,
            swaps,
        } => sweep_pair(data, dim, [*q0, *q1], ops, *keep, swaps, window),
    }
}

/// An op inside a pair block. Local basis states are named by their index
/// offset within a tile (`0`, `1 << q0`, `1 << q1` or both), and a CX only
/// renames them, so ops address the offsets the states currently sit at.
#[derive(Debug, Clone, Copy)]
enum Local {
    /// A merged run on one wire of the pair: `pairs[v]` are the offsets
    /// holding that wire's `|0⟩` and `|1⟩` while the other wire is `|v⟩`.
    Wire { pairs: [[usize; 2]; 2], run: WireOp },
    /// A dense two-qubit unitary with its basis permuted to the order the
    /// states sit in (`0`, `1 << q0`, `1 << q1`, both).
    Dense(Mat4),
}

/// What a merged run plus its merged channel does to a `2 × 2` sub-block
/// `[[a, b], [c, d]]` of its wire.
#[derive(Debug, Clone, Copy)]
enum WireOp {
    /// RZ run: `b ← upper·b`, `c ← lower·c` (phases carrying the survival
    /// factor), diagonal `← keep·diag + half_loss·(a + d)`.
    Phase {
        upper: C64,
        lower: C64,
        keep: f64,
        half_loss: f64,
    },
    /// General run: the sub-block's Pauli coefficients transform as
    /// `(x, y, z) ← m·(x, y, z)` with `m = (K/2)·R(U)`; the identity
    /// coefficient is untouched.
    Ptm([[f64; 3]; 3]),
}

/// A run while it can still absorb gates: the merged gate, a 1q
/// [`FusedOp`] merged by fusion's own fold (so pure-RZ runs stay symbolic
/// and keep the cheap phase kernel), and how many channels followed its
/// factors.
#[derive(Debug, Clone, Copy)]
struct Run {
    gate: FusedOp,
    channels: i32,
}

impl Run {
    fn new(gate: &FusedOp) -> Self {
        Run {
            gate: *gate,
            channels: 1,
        }
    }

    /// Appends `gate` (a left matrix factor) and its channel.
    fn push(&mut self, gate: &FusedOp) {
        self.gate.fold(gate);
        self.channels += 1;
    }

    fn finish(self, keep_1q: f64) -> WireOp {
        let keep = keep_1q.powi(self.channels);
        match self.gate {
            FusedOp::Rz(theta, _) => WireOp::Phase {
                upper: C64::cis(-theta).scale(keep),
                lower: C64::cis(theta).scale(keep),
                keep,
                half_loss: 0.5 * (1.0 - keep),
            },
            gate => WireOp::Ptm(pauli_transfer(&gate.mat2().expect("1q run"), 0.5 * keep)),
        }
    }

    /// The run of `members` on wire `q`, folded as the compile folded them,
    /// with parametric op `k` taken from `params[k]`.
    fn replay(q: usize, members: &[Member], params: &[FusedOp]) -> Self {
        let mut ops = members.iter().map(|m| m.op(q, params));
        let mut run = Run::new(&ops.next().expect("a run has a member"));
        for op in ops {
            run.push(&op);
        }
        run
    }
}

/// An op as the density rule takes it from the scan: for a parametric op,
/// also its index among the parametric ops the compile saw.
struct Marked {
    op: FusedOp,
    param: Option<usize>,
}

impl Borrow<FusedOp> for Marked {
    fn borrow(&self) -> &FusedOp {
        &self.op
    }
}

/// One op of a run, as a rebind replays it.
#[derive(Debug, Clone, Copy)]
enum Member {
    /// A fixed RZ, by its angle.
    Rz(f64),
    /// A fixed single-qubit unitary.
    One(Mat2),
    /// Parametric op `k`, which every rebind supplies afresh.
    Param(usize),
}

impl Member {
    fn of(op: &Marked) -> Self {
        match (op.param, &op.op) {
            (Some(k), _) => Member::Param(k),
            (None, &FusedOp::Rz(theta, _)) => Member::Rz(theta),
            (None, &FusedOp::One(u, _)) => Member::One(u),
            _ => unreachable!("a run holds 1q ops"),
        }
    }

    fn op(self, q: usize, params: &[FusedOp]) -> FusedOp {
        match self {
            Member::Rz(theta) => FusedOp::Rz(theta, q),
            Member::One(u) => FusedOp::One(u, q),
            Member::Param(k) => params[k],
        }
    }
}

/// A run under compile: its arithmetic, and the ops it holds in fold order.
#[derive(Clone)]
struct Tracked {
    run: Run,
    members: Vec<Member>,
}

impl Tracked {
    fn new(op: &Marked) -> Self {
        Tracked {
            run: Run::new(&op.op),
            members: vec![Member::of(op)],
        }
    }

    fn push(&mut self, op: &Marked) {
        self.run.push(&op.op);
        self.members.push(Member::of(op));
    }

    /// What a rebind needs to redo the run on wire `q`; `None` when no
    /// member is parametric.
    fn source(&self, q: usize) -> Option<Source> {
        let parametric = self.members.iter().any(|m| matches!(m, Member::Param(_)));
        parametric.then(|| Source::Run {
            q,
            members: self.members.clone(),
        })
    }
}

/// Where a rebind finds the numbers of one lone run or local op that holds
/// a parametric op.
#[derive(Debug, Clone)]
enum Source {
    /// A merged run on wire `q`: its members in fold order.
    Run { q: usize, members: Vec<Member> },
    /// A dense two-qubit local: parametric op `k` on the block whose first
    /// qubit is `q0`, seated where the block's CX renaming put its states.
    Dense {
        k: usize,
        q0: usize,
        seat: [usize; 4],
    },
}

/// What a rebind may not change about a parametric op: the variant and the
/// operands, in order. The compile's slots, seats and windows rest on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    One(usize),
    Rz(usize),
    Two(usize, usize),
    Cx(usize, usize),
    Mono(usize, usize),
}

impl Shape {
    fn of(op: &FusedOp) -> Self {
        match *op {
            FusedOp::One(_, q) => Shape::One(q),
            FusedOp::Rz(_, q) => Shape::Rz(q),
            FusedOp::Two(_, a, b) => Shape::Two(a, b),
            FusedOp::Cx(a, b) => Shape::Cx(a, b),
            FusedOp::Mono(_, _, a, b) => Shape::Mono(a, b),
        }
    }
}

/// Where a rebound run or local op sits: a step, and the index of the local
/// op in a pair block (`None` for a lone run's step).
#[derive(Debug, Clone, Copy)]
struct Place {
    step: usize,
    local: Option<usize>,
}

/// A step closed by the compile, with the sources of its parametric local
/// ops by [`Place::local`].
#[derive(Debug, Clone)]
struct Closed {
    step: Step,
    sources: Vec<(Option<usize>, Source)>,
}

/// `scale · R(U)`, where `R_ij = ½·Tr(σ_i·U·σ_j·U†)` is the rotation `U`
/// induces on the Pauli vector (real because `U·σ_j·U†` is Hermitian).
fn pauli_transfer(u: &Mat2, scale: f64) -> [[f64; 3]; 3] {
    let ud = mat2_adjoint(u);
    let half = 0.5 * scale;
    let mut m = [[0.0; 3]; 3];
    for (j, sigma) in [gates::x(), gates::y(), gates::z()].iter().enumerate() {
        let v = mat2_mul(&mat2_mul(u, sigma), &ud);
        m[0][j] = half * (v[0][1].re + v[1][0].re);
        m[1][j] = half * (v[1][0].im - v[0][1].im);
        m[2][j] = half * (v[0][0].re - v[1][1].re);
    }
    m
}

impl WireOp {
    /// Maps the sub-block `[a, b, c, d]` (row-major).
    #[inline(always)]
    fn apply(&self, [a, b, c, d]: [C64; 4]) -> [C64; 4] {
        match *self {
            WireOp::Phase {
                upper,
                lower,
                keep,
                half_loss,
            } => {
                let mixed = (a + d).scale(half_loss);
                [
                    a.scale(keep) + mixed,
                    b * upper,
                    c * lower,
                    d.scale(keep) + mixed,
                ]
            }
            WireOp::Ptm(m) => {
                // ρ_sub = ½(s·I + x·X + y·Y + z·Z) with complex coefficients;
                // the ½ lives in `m` and in `half_s`.
                let half_s = (a + d).scale(0.5);
                let x = b + c;
                let w = b - c;
                let y = C64::new(-w.im, w.re);
                let z = a - d;
                let x2 = x.scale(m[0][0]) + y.scale(m[0][1]) + z.scale(m[0][2]);
                let y2 = x.scale(m[1][0]) + y.scale(m[1][1]) + z.scale(m[1][2]);
                let z2 = x.scale(m[2][0]) + y.scale(m[2][1]) + z.scale(m[2][2]);
                let iy = C64::new(-y2.im, y2.re);
                [half_s + z2, x2 - iy, x2 + iy, half_s - z2]
            }
        }
    }
}

/// A sweep under construction: the density rule on [`fuse`]'s scan.
// A run's gate is a `FusedOp`, sized for a 4×4 matrix; boxing it would buy
// an allocation per lone run to shrink slots a compile holds a dozen of.
#[allow(clippy::large_enum_variant)]
#[derive(Clone)]
enum Slot {
    Wire {
        q: usize,
        run: Tracked,
    },
    Pair {
        q0: usize,
        q1: usize,
        ops: Vec<Draft>,
        /// Per local wire, the index in `ops` of the run that can still
        /// absorb gates: nothing after it touches its wire.
        open: [Option<usize>; 2],
        channels_2q: i32,
    },
}

/// A pair block's local op while its runs can still grow; a dense op keeps
/// its parametric index.
#[derive(Clone)]
enum Draft {
    Cx { control: usize },
    Run(usize, Tracked),
    Dense(Mat4, Option<usize>),
}

/// Each op brings its channel along: a 1q op joins a run, a 2q op a pair
/// block, and a block takes over the lone runs pending on its wires as its
/// first ops there.
impl fuse::Slot for Slot {
    type Op = Marked;

    fn open_1q(op: &Marked) -> Self {
        let (FusedOp::One(_, q) | FusedOp::Rz(_, q)) = op.op else {
            unreachable!("open_1q receives 1q ops")
        };
        Slot::Wire {
            q,
            run: Tracked::new(op),
        }
    }

    fn open_2q(op: &Marked, lone: [Option<&Self>; 2]) -> Self {
        let [a, b] = op.op.pair().expect("2q op");
        let mut ops = Vec::new();
        for (w, slot) in lone.into_iter().enumerate() {
            if let Some(Slot::Wire { run, .. }) = slot {
                ops.push(Draft::Run(w, run.clone()));
            }
        }
        ops.push(draft_2q(op, a));
        Slot::Pair {
            q0: a,
            q1: b,
            ops,
            open: [None; 2],
            channels_2q: 1,
        }
    }

    fn is_lone(&self) -> bool {
        matches!(self, Slot::Wire { .. })
    }

    fn fold(&mut self, op: &Marked) {
        match (self, &op.op) {
            (Slot::Wire { run, .. }, _) => run.push(op),
            (Slot::Pair { q0, ops, open, .. }, &(FusedOp::One(_, q) | FusedOp::Rz(_, q))) => {
                let w = usize::from(q != *q0);
                match open[w] {
                    // Ops after the open run act on the other wire only, so
                    // the gate commutes back to it.
                    Some(i) => match &mut ops[i] {
                        Draft::Run(_, run) => run.push(op),
                        _ => unreachable!("open[] points at a run"),
                    },
                    None => {
                        open[w] = Some(ops.len());
                        ops.push(Draft::Run(w, Tracked::new(op)));
                    }
                }
            }
            (
                Slot::Pair {
                    q0,
                    ops,
                    open,
                    channels_2q,
                    ..
                },
                _,
            ) => {
                ops.push(draft_2q(op, *q0));
                *open = [None; 2];
                *channels_2q += 1;
            }
        }
    }
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
    /// them, and recomputes the local ops and lone runs that hold one (see
    /// the module docs, "Rebinding"). The program is then, bit for bit, the
    /// one the same ops would compile to.
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
    /// test suites pin against [`evolve_unfused`].
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
    /// only the tiles inside each step's light-cone window (see the module
    /// docs).
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

/// Several noisy circuits that start with the same ops — a VQE evaluation's
/// measurement-group circuits — compiled so the shared part is scanned,
/// closed and evolved once (see the module docs, "Forked programs").
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
    trunk: DensityProgram,
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

/// Closes the slots of `scan` with program-order indices in `range` at
/// survival factors `(keep_1q, keep_2q)` per channel.
fn steps(
    scan: &Scan<Slot>,
    range: std::ops::Range<usize>,
    (keep_1q, keep_2q): (f64, f64),
) -> impl Iterator<Item = Closed> + '_ {
    scan.live(range).map(move |slot| match slot {
        Slot::Wire { q, run } => Closed {
            step: Step::Wire {
                q: *q,
                run: run.run.finish(keep_1q),
            },
            sources: run
                .source(*q)
                .map(|source| (None, source))
                .into_iter()
                .collect(),
        },
        Slot::Pair {
            q0,
            q1,
            ops,
            channels_2q,
            ..
        } => finish_pair(*q0, *q1, ops, keep_1q, keep_2q.powi(*channels_2q)),
    })
}

/// Closes a pair block: resolves every CX into a renaming of the pair's
/// basis states, points the remaining ops at the tile offsets the states
/// then sit at, and emits the swaps that put each state back at its own
/// offset.
fn finish_pair(q0: usize, q1: usize, drafts: &[Draft], keep_1q: f64, keep: f64) -> Closed {
    let offsets = [0, 1 << q0, 1 << q1, 1 << q0 | 1 << q1];
    // seat[k]: the index into `offsets` where local state k currently sits.
    let mut seat = [0, 1, 2, 3];
    let mut ops = Vec::new();
    let mut sources = Vec::new();
    for draft in drafts {
        let source = match draft {
            // CX exchanges the two states with the control bit set:
            // `control` alone and `3`.
            Draft::Cx { control } => {
                seat.swap(1 << control, 3);
                continue;
            }
            Draft::Run(w, run) => {
                let (bit, other) = (1 << w, 2 >> w);
                let at = |k: usize| offsets[seat[k]];
                ops.push(Local::Wire {
                    pairs: [[at(0), at(bit)], [at(other), at(3)]],
                    run: run.run.finish(keep_1q),
                });
                run.source([q0, q1][*w])
            }
            Draft::Dense(u, param) => {
                ops.push(Local::Dense(seated(u, &seat)));
                param.map(|k| Source::Dense { k, q0, seat })
            }
        };
        if let Some(source) = source {
            sources.push((Some(ops.len() - 1), source));
        }
    }
    // Settle state k at index k by swapping it with whatever sits there.
    let mut swaps = Vec::new();
    for k in 0..4 {
        let from = seat[k];
        if from != k {
            swaps.push([offsets[k], offsets[from]]);
            let evicted = seat
                .iter()
                .position(|&s| s == k)
                .expect("seat is a permutation");
            seat[evicted] = from;
            seat[k] = k;
        }
    }
    let step = Step::Pair {
        q0,
        q1,
        ops,
        keep,
        swaps,
    };
    Closed { step, sources }
}

/// `u` on the pair's local states, re-indexed to the offsets `seat` puts
/// them at.
fn seated(u: &Mat4, seat: &[usize; 4]) -> Mat4 {
    let mut seated = *u;
    for k in 0..4 {
        for l in 0..4 {
            seated[seat[k]][seat[l]] = u[k][l];
        }
    }
    seated
}

/// Re-expresses a two-qubit op on the local wires of a block whose first
/// qubit is `q0`.
fn draft_2q(op: &Marked, q0: usize) -> Draft {
    match op.op {
        FusedOp::Cx(c, _) => Draft::Cx {
            control: usize::from(c != q0),
        },
        _ => Draft::Dense(op.op.mat4_on(q0), op.param),
    }
}

/// Unchecked access to ρ's entries for the sweeps below. It holds a raw
/// pointer, so it is neither `Send` nor `Sync`: a sweep runs on the thread
/// that borrowed ρ.
#[derive(Clone, Copy)]
struct RawRho(*mut C64);

impl RawRho {
    /// Reads entry `i`.
    ///
    /// # Safety
    ///
    /// `i` must be below the length of the slice `self` was made from, and
    /// that borrow must still be live.
    #[inline(always)]
    unsafe fn get(self, i: usize) -> C64 {
        *self.0.add(i)
    }

    /// Writes entry `i`.
    ///
    /// # Safety
    ///
    /// As for [`RawRho::get`].
    #[inline(always)]
    unsafe fn set(self, i: usize, v: C64) {
        *self.0.add(i) = v;
    }

    /// Swaps entries `i` and `j`.
    ///
    /// # Safety
    ///
    /// As for [`RawRho::get`], for both indices.
    #[inline(always)]
    unsafe fn swap(self, i: usize, j: usize) {
        let a = self.get(i);
        self.set(i, self.get(j));
        self.set(j, a);
    }
}

/// Applies `run` in place to the sub-block at `rows × cols` (row offsets
/// already multiplied by the row length).
///
/// # Safety
///
/// The four indices must be in bounds of `ptr`'s slice.
#[inline(always)]
unsafe fn wire_at(ptr: RawRho, run: &WireOp, rows: [usize; 2], cols: [usize; 2]) {
    let at = [
        rows[0] + cols[0],
        rows[0] + cols[1],
        rows[1] + cols[0],
        rows[1] + cols[1],
    ];
    let out = run.apply(at.map(|i| ptr.get(i)));
    for (i, v) in at.into_iter().zip(out) {
        ptr.set(i, v);
    }
}

/// One lone run over the `2 × 2` sub-blocks of wire `q` inside `window`.
#[inline(always)]
fn sweep_wire(data: &mut [C64], dim: usize, q: usize, run: &WireOp, window: Window) {
    let _prof = qoncord_prof::span("sim::dm::apply_wire");
    let bit = 1usize << q;
    assert!(
        window.fits(dim, bit) && data.len() == dim * dim,
        "sweep outside ρ"
    );
    let ptr = RawRho(data.as_mut_ptr());
    for r in subsets(window.rows) {
        let rows = [r * dim, (r | bit) * dim];
        for d in subsets(window.deltas) {
            let c = r ^ d;
            // SAFETY: `r` and `d` are subsets of the window's masks, which
            // `fits` (asserted above) holds below the power of two `dim`
            // with bit `q` clear, as it does `bit` itself; so `r`, `c = r ^
            // d` and both with `bit` set are below `dim`, and each of the
            // four indices is at most `(dim − 1)·dim + dim − 1 <
            // data.len()`.
            unsafe { wire_at(ptr, run, rows, [c, c | bit]) };
        }
    }
}

/// One pair block on `(q0, q1)` over the tiles of `window`: each strip goes
/// through all of `ops`, the merged channel and the net permutation before
/// the next strip starts.
#[inline(always)]
fn sweep_pair(
    data: &mut [C64],
    dim: usize,
    [q0, q1]: [usize; 2],
    ops: &[Local],
    keep: f64,
    swaps: &[[usize; 2]],
    window: Window,
) {
    let _prof = qoncord_prof::span("sim::dm::apply_pair");
    let offsets = [0, 1 << q0, 1 << q1, 1 << q0 | 1 << q1];
    assert!(
        q0 != q1 && window.fits(dim, offsets[3]) && data.len() == dim * dim,
        "sweep outside ρ"
    );
    let ptr = RawRho(data.as_mut_ptr());
    for row in subsets(window.rows) {
        let strip = Strip {
            ptr,
            dim,
            offsets,
            row,
            deltas: window.deltas,
        };
        // SAFETY: `row` is a subset of `window.rows` and every column
        // anchor the strip derives is `row ^ d` for a subset `d` of
        // `window.deltas`; `fits` (asserted above) holds both masks and
        // `offsets[3]` below the power of two `dim` with the pair bits
        // clear in the masks, so every anchor is below `dim` with both pair
        // bits clear. `data.len() == dim * dim` is asserted too, and
        // `finish_pair` — the only place `ops` and `swaps` are built —
        // emits no offset outside `offsets`.
        unsafe {
            for op in ops {
                match op {
                    Local::Wire { pairs, run } => strip.wire(pairs, run),
                    Local::Dense(u) => strip.dense(u),
                }
            }
            if keep != 1.0 {
                strip.depolarize(keep);
            }
            for &[a, b] in swaps {
                strip.swap(a, b);
            }
        }
    }
}

/// The four rows `row | offsets[k]` of ρ — one row anchor's tiles, of which
/// a sweep visits those at the columns `row ^ d`, `d ⊆ deltas`.
#[derive(Clone, Copy)]
struct Strip {
    ptr: RawRho,
    dim: usize,
    /// Tile offsets of the pair's basis states: `0`, `q0`'s bit, `q1`'s
    /// bit, both.
    offsets: [usize; 4],
    row: usize,
    deltas: usize,
}

impl Strip {
    /// The column of each visited tile's first entry.
    #[inline(always)]
    fn anchors(self) -> impl Iterator<Item = usize> {
        subsets(self.deltas).map(move |d| self.row ^ d)
    }

    /// Start of the row holding the basis state at `offset`.
    #[inline(always)]
    fn row_at(self, offset: usize) -> usize {
        (self.row | offset) * self.dim
    }

    /// Applies `run` to the four sub-blocks of every tile.
    ///
    /// # Safety
    ///
    /// `ptr` must span `dim * dim` entries, `offsets` must be the pair's tile
    /// offsets, each below `dim`, `row` and every `row ^ d` for `d ⊆ deltas`
    /// anchors below `dim` with both pair bits clear, and every offset in
    /// `pairs` one of `offsets`.
    #[inline(always)]
    unsafe fn wire(self, pairs: &[[usize; 2]; 2], run: &WireOp) {
        let rows = pairs.map(|p| p.map(|o| self.row_at(o)));
        for c in self.anchors() {
            for rows in rows {
                for cols in pairs {
                    wire_at(self.ptr, run, rows, cols.map(|o| c | o));
                }
            }
        }
    }

    /// `tile ← U·tile·U†` on every tile.
    ///
    /// # Safety
    ///
    /// As for [`Strip::wire`].
    #[inline(always)]
    unsafe fn dense(self, u: &Mat4) {
        let rows = self.offsets.map(|o| self.row_at(o));
        for c in self.anchors() {
            let cols = self.offsets.map(|o| c | o);
            let t = rows.map(|row| cols.map(|col| self.ptr.get(row + col)));
            // A loop, not `array::from_fn`: that stays out of line, so the
            // AVX2 build would run this product at baseline.
            let mut left = [[C64::ZERO; 4]; 4];
            for k in 0..4 {
                for c in 0..4 {
                    left[k][c] = u[k][0] * t[0][c]
                        + u[k][1] * t[1][c]
                        + u[k][2] * t[2][c]
                        + u[k][3] * t[3][c];
                }
            }
            for (r, row) in rows.into_iter().enumerate() {
                for (k, col) in cols.into_iter().enumerate() {
                    let v = left[r][0] * u[k][0].conj()
                        + left[r][1] * u[k][1].conj()
                        + left[r][2] * u[k][2].conj()
                        + left[r][3] * u[k][3].conj();
                    self.ptr.set(row + col, v);
                }
            }
        }
    }

    /// The two-qubit channel in closed form on every tile:
    /// `tile ← keep·tile + (1 − keep)·Tr(tile)·I/4`.
    ///
    /// # Safety
    ///
    /// As for [`Strip::wire`].
    #[inline(always)]
    unsafe fn depolarize(self, keep: f64) {
        let mixed_scale = 0.25 * (1.0 - keep);
        let rows = self.offsets.map(|o| self.row_at(o));
        for c in self.anchors() {
            let cols = self.offsets.map(|o| c | o);
            let mut trace = C64::ZERO;
            for k in 0..4 {
                trace += self.ptr.get(rows[k] + cols[k]);
            }
            let mixed = trace.scale(mixed_scale);
            for (k, row) in rows.into_iter().enumerate() {
                for (l, col) in cols.into_iter().enumerate() {
                    let v = self.ptr.get(row + col).scale(keep);
                    self.ptr.set(row + col, if k == l { v + mixed } else { v });
                }
            }
        }
    }

    /// Exchanges the basis states at offsets `a` and `b` in every tile:
    /// their two rows, then their two columns in each of the strip's rows.
    ///
    /// # Safety
    ///
    /// As for [`Strip::wire`], with `a` and `b` among `offsets`.
    #[inline(always)]
    unsafe fn swap(self, a: usize, b: usize) {
        let (ra, rb) = (self.row_at(a), self.row_at(b));
        for c in self.anchors() {
            for o in self.offsets {
                self.ptr.swap(ra + (c | o), rb + (c | o));
            }
        }
        for o in self.offsets {
            let row = self.row_at(o);
            for c in self.anchors() {
                self.ptr.swap(row + (c | a), row + (c | b));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn max_diff(a: &DensityMatrix, b: &DensityMatrix) -> f64 {
        let dim = 1usize << a.n_qubits();
        (0..dim * dim)
            .map(|i| (a.entry(i / dim, i % dim) - b.entry(i / dim, i % dim)).abs())
            .fold(0.0, f64::max)
    }

    /// Program vs unfused evolution from a non-trivial product state.
    fn assert_matches_unfused(n: usize, ops: &[FusedOp], dep_1q: f64, dep_2q: f64) {
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
    fn mixed_program() -> Vec<FusedOp> {
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
    fn assert_outcome_is_the_full_runs_diagonal(program: &DensityProgram) {
        let mut rho = DensityMatrix::zero_state(program.n_qubits);
        program.run(&mut rho);
        assert_eq!(
            bits(&program.outcome_probabilities()),
            bits(&rho.probabilities())
        );
    }

    fn bits(d: &ProbDist) -> Vec<u64> {
        d.probabilities().iter().map(|p| p.to_bits()).collect()
    }

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

    #[test]
    fn empty_program_leaves_all_mass_on_the_zero_outcome() {
        let program = DensityProgram::compile(3, [], 0.01, 0.02);
        assert_eq!(program.stats().sweeps, 0);
        let outcome = program.outcome_probabilities();
        assert_eq!(outcome.probabilities()[0], 1.0);
        assert!(outcome.probabilities()[1..].iter().all(|&p| p == 0.0));
    }

    fn pair_sweep_on_01_of_three_qubits(window: Window) {
        let mut rho = DensityMatrix::zero_state(3);
        sweep_pair(rho.data_mut(), 8, [0, 1], &[], 0.9, &[], window);
    }

    #[test]
    #[should_panic(expected = "sweep outside ρ")]
    fn window_row_bit_beyond_the_register_fails_closed() {
        pair_sweep_on_01_of_three_qubits(window(0b1000, 0));
    }

    #[test]
    #[should_panic(expected = "sweep outside ρ")]
    fn window_delta_bit_beyond_the_register_fails_closed() {
        pair_sweep_on_01_of_three_qubits(window(0b100, 0b1100));
    }

    #[test]
    #[should_panic(expected = "sweep outside ρ")]
    fn window_bit_inside_the_pair_fails_closed() {
        pair_sweep_on_01_of_three_qubits(window(0b100, 0b110));
    }

    #[test]
    #[should_panic(expected = "sweep outside ρ")]
    fn wire_window_on_its_own_bit_fails_closed() {
        let mut rho = DensityMatrix::zero_state(2);
        let run = Run::new(&FusedOp::Rz(0.3, 1)).finish(0.99);
        sweep_wire(rho.data_mut(), 4, 1, &run, window(0b10, 0));
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

    /// A random program for [`dm_avx2_build_is_bitwise_the_baseline_build`]
    /// on `n` qubits. Two-qubit ops stay on the first `paired` wires (a
    /// CX-heavy mix of every `FusedOp` kind), and each wire above them is
    /// lone: alternately RZ-only (a `Phase` run) and general (a `Ptm` run).
    /// Each rate is exactly 0 (a pair's `keep == 1`) in half the cases.
    fn build_pin_program(rng: &mut StdRng, n: usize) -> DensityProgram {
        let paired = if n >= 4 {
            n - 2
        } else if n >= 2 && rng.random_bool(0.5) {
            n
        } else {
            0
        };
        let angle = |rng: &mut StdRng| rng.random_range(-3.2..3.2);
        let u3 = |rng: &mut StdRng| gates::u3(angle(rng), angle(rng), angle(rng));
        let ops: Vec<FusedOp> = (0..rng.random_range(1..32))
            .map(|_| {
                let q = rng.random_range(0..n);
                if q >= paired {
                    return if (q - paired) % 2 == 0 {
                        FusedOp::Rz(angle(rng), q)
                    } else {
                        FusedOp::One(u3(rng), q)
                    };
                }
                let p = (q + rng.random_range(1..paired)) % paired;
                match rng.random_range(0..8) {
                    0 => FusedOp::One(u3(rng), q),
                    1 => FusedOp::Rz(angle(rng), q),
                    2..=4 => FusedOp::Cx(q, p),
                    5 => FusedOp::Two(gates::crz(angle(rng)), q, p),
                    6 => FusedOp::Two(gates::rzz(angle(rng)), q, p),
                    _ => FusedOp::Mono(
                        [C64::cis(angle(rng)), C64::I, C64::cis(angle(rng)), C64::ONE],
                        [2, 0, 3, 1],
                        q,
                        p,
                    ),
                }
            })
            .collect();
        let mut rate = || {
            if rng.random_bool(0.5) {
                0.0
            } else {
                rng.random_range(0.0..0.2)
            }
        };
        let (dep_1q, dep_2q) = (rate(), rate());
        DensityProgram::compile(n, ops, dep_1q, dep_2q)
    }

    /// A dense `n`-qubit ρ with every entry random (not a state: the
    /// sweeps are linear and never look), and a few exact zeros of either
    /// sign among them.
    fn random_rho(rng: &mut StdRng, n: usize) -> Vec<C64> {
        let mut part = || rng.random_range(-1.0..1.0);
        let mut data: Vec<C64> = (0..1usize << (2 * n))
            .map(|_| C64::new(part(), part()))
            .collect();
        for zero in [C64::ZERO, C64::new(-0.0, 0.0), C64::new(0.0, -0.0)] {
            let at = rng.random_range(0..data.len());
            data[at] = zero;
        }
        data
    }

    fn same_bits(a: &[C64], b: &[C64]) -> bool {
        let bits = |v: &C64| [v.re.to_bits(), v.im.to_bits()];
        a.len() == b.len() && a.iter().zip(b).all(|(a, b)| bits(a) == bits(b))
    }

    #[test]
    fn dm_avx2_pin_reaches_every_step_shape() {
        // Phase wire, Ptm wire, pair with a local wire, with a dense op,
        // with keep < 1, with keep == 1, with swaps.
        let mut seen = [false; 7];
        let mut rng = StdRng::seed_from_u64(11);
        for n in (1..=7).cycle().take(70) {
            for step in &build_pin_program(&mut rng, n).steps {
                match step {
                    Step::Wire { run, .. } => seen[matches!(run, WireOp::Ptm(_)) as usize] = true,
                    Step::Pair {
                        ops, keep, swaps, ..
                    } => {
                        for op in ops {
                            seen[2 + matches!(op, Local::Dense(_)) as usize] = true;
                        }
                        seen[4 + (*keep == 1.0) as usize] = true;
                        seen[6] |= !swaps.is_empty();
                    }
                }
            }
        }
        assert_eq!(seen, [true; 7]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// The AVX2 build of the step sweeps leaves every entry bit the
        /// baseline build leaves, after every step of a program run on its
        /// full windows and on its read-out windows. [`step_sweep`] is
        /// called as compiled into the test (baseline), and [`Step::sweep`]
        /// on an AVX2 host is [`step_sweep_avx2`]; without AVX2 there is
        /// nothing to compare. The program-vs-unfused suites pin what both
        /// builds compute.
        #[test]
        fn dm_avx2_build_is_bitwise_the_baseline_build(seed in 0..u64::MAX) {
            if crate::sweep_build() != "avx2" {
                println!("skipped: this CPU has no AVX2, so only the baseline build runs");
                return;
            }
            let mut rng = StdRng::seed_from_u64(seed);
            for n in 1..=7 {
                let program = build_pin_program(&mut rng, n);
                let dim = 1usize << n;
                let start = random_rho(&mut rng, n);
                for readout in [false, true] {
                    let mut baseline = start.clone();
                    let mut avx2 = start.clone();
                    for (step, &window) in program.steps.iter().zip(&program.windows) {
                        let window = if readout {
                            window
                        } else {
                            Window::full(dim, step.qubits())
                        };
                        step_sweep(step, &mut baseline, dim, window);
                        step.sweep(&mut avx2, dim, window);
                        proptest::prop_assert!(
                            same_bits(&avx2, &baseline),
                            "{:?} on {} qubits, {:?}",
                            step,
                            n,
                            window
                        );
                    }
                }
            }
        }
    }
}
