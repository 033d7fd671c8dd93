//! The sweeps: one kernel per step shape, built twice, reaching ρ through
//! the workspace's one unchecked accessor.
//!
//! # Strip kernel
//!
//! A pair block on `(q0, q1)` acts on ρ's `4 × 4` *tiles* — the entries
//! whose row and column indices agree outside the pair — one tile at a
//! time. Its sweep visits the tiles of its *window* (`cone.rs`) one *strip*
//! at a time (the four rows of one row anchor, i.e. a row of tiles; at most
//! 8 KiB at 7 qubits, so it stays in L1) and takes each strip through the
//! whole block in place before moving on:
//!
//! - `Cx` moves no data: the compile renames the pair's basis states
//!   instead, and the block ends in their *net* permutation as swaps
//!   (`cx·rz·cx` nets to none, a routed SWAP to one);
//! - an RZ run multiplies the two coherences of each `2 × 2` sub-block by
//!   `K·e^{∓iθ}` and mixes its diagonal in closed form;
//! - any other run acts on a sub-block's Pauli coefficients `(x, y, z)` as
//!   the real `3 × 3` Pauli-transfer matrix `K·R(U)` — 18 real multiplies
//!   against 64 for `UρU†`, with the depolarizing factor folded in;
//! - `Two`/`Mono` conjugate each tile densely, and the trailing two-qubit
//!   channel is applied in closed form.
//!
//! Every pass is a read-modify-write of sub-blocks in place: gathering a
//! tile into a stack array and scattering it back costs as much as three
//! such passes, more than a typical block holds once its CX gates are gone.
//! No step divides by a survival factor, so fully depolarizing rates
//! (`p = 1`, `K = 0`) are ordinary inputs.
//!
//! # Two builds, one source
//!
//! As the statevector's are, the sweeps are built twice from one source:
//! `step_sweep` at the crate's target and again inside `step_sweep_avx2`,
//! which `Step::sweep` picks on a CPU with AVX2 ([`crate::sweep_build`]).
//! FMA stays off, so both do the same IEEE adds and multiplies in the same
//! order and the bits are equal
//! (`dm_avx2_build_is_bitwise_the_baseline_build`). A kernel under the
//! `match` that is not `#[inline(always)]` (`array::from_fn` is not) runs
//! its baseline build from the AVX2 one; `scripts/avx2_calls.sh` fails on
//! such a call.

#![allow(unsafe_code)]

use super::cone::{subsets, Window};
use crate::gates::Mat4;
use crate::math::C64;

/// One sweep over ρ.
#[derive(Debug, Clone)]
pub(super) enum Step {
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
    pub(super) fn qubits(&self) -> usize {
        match *self {
            Step::Wire { q, .. } => 1 << q,
            Step::Pair { q0, q1, .. } => 1 << q0 | 1 << q1,
        }
    }

    /// The merged run of a lone-wire step (`local` is `None`) or of its
    /// pair block's local op `local`.
    pub(super) fn run_mut(&mut self, local: Option<usize>) -> &mut WireOp {
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
    pub(super) fn sweep(&self, data: &mut [C64], dim: usize, window: Window) {
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

/// [`step_sweep`] and every kernel under it built again for AVX2, with the
/// same IEEE operations in the same order (module docs).
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
pub(super) enum Local {
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
pub(super) enum WireOp {
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

/// Unchecked access to ρ's entries for the sweeps below; bounds-checked
/// forms cost `noisy_fleet` 16–20 % of its `wall_s` (`docs/ARCHITECTURE.md`,
/// "Why the simulator is single-threaded"). It holds a raw pointer, so it
/// is neither `Send` nor `Sync`: a sweep runs on the thread that borrowed ρ.
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
    // Once per step, not per tile: every offset the ops and swaps address
    // is one of the tile's four, which is what the accesses below rely on.
    let in_tile = |o: &usize| offsets.contains(o);
    assert!(
        ops.iter().all(|op| match op {
            Local::Wire { pairs, .. } => pairs.iter().flatten().all(in_tile),
            Local::Dense(_) => true,
        }) && swaps.iter().flatten().all(in_tile),
        "pair op outside its tile"
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
        // bits clear. `data.len() == dim * dim` is asserted too, and so is
        // that every offset in `ops`' wire pairs and in `swaps` is one of
        // `offsets` (dense ops address `offsets` themselves).
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
            // Loops, not `array::map` / `array::from_fn`: those stay out of
            // line, so the AVX2 build would run this gather and product at
            // baseline.
            let mut t = [[C64::ZERO; 4]; 4];
            for r in 0..4 {
                for k in 0..4 {
                    t[r][k] = self.ptr.get(rows[r] + cols[k]);
                }
            }
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
    use crate::density::DensityMatrix;
    use crate::fuse::FusedOp;
    use crate::gates;
    use crate::noisy::compile::Run;
    use crate::noisy::DensityProgram;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn pair_sweep_on_01_of_three_qubits(window: Window) {
        let mut rho = DensityMatrix::zero_state(3);
        sweep_pair(rho.data_mut(), 8, [0, 1], &[], 0.9, &[], window);
    }

    fn window(rows: usize, deltas: usize) -> Window {
        Window { rows, deltas }
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
