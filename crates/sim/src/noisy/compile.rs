//! The compile: the density `Slot` rule on [`crate::fuse`]'s scan, the
//! closing of its slots into sweeps, and what a rebind replays.
//!
//! What a compile builds depends on the ops' variants and qubits only,
//! never on their angles: which slot each op lands in, the runs and the
//! order their ops fold in, a block's CX seating and swaps, the light-cone
//! order, the windows and a fork's trunk. Only the numbers do: a run's
//! `WireOp` and a dense local's seated matrix. So a variational job, which
//! evaluates one circuit at many parameter points, compiles once with
//! [`super::DensityProgram::compile_parametric`], flagging the ops a later
//! [`super::DensityProgram::rebind`] replaces. Per lone run and local op
//! that holds a flagged op, the program records where its numbers come
//! from: the run's ops in fold order (a fixed one by value, a flagged one
//! by its index among the flagged ops), or the dense op's index and its
//! seat. A rebind recomputes those and nothing else, through the compile's
//! own `Run` and seating arithmetic on the same ops in the same order, so
//! the program is then bit for bit a fresh compile of the new ops. A
//! rebound op keeps the variant and qubits of the op it replaces, or the
//! rebind panics: the slots and seats rest on them. The transpiled 7-qubit
//! QAOA holds its 18 parametric gates of 107 in 11 of its 16 sweeps
//! ([`super::DensityStats::steps_rebound`]); the H₂/UCCSD evaluation's
//! forked program re-binds 16 sweeps for its 12
//! ([`super::ForkStats::steps_rebound`], a step each branch runs counted
//! per branch).

use super::sweep::{Local, Step, WireOp};
use crate::fuse::{self, FusedOp, Scan, Slot as _};
use crate::gates::{self, mat2_adjoint, mat2_mul, Mat2, Mat4};
use crate::math::C64;
use std::borrow::Borrow;

/// A run while it can still absorb gates: the merged gate, a 1q
/// [`FusedOp`] merged by fusion's own fold (so pure-RZ runs stay symbolic
/// and keep the cheap phase kernel), and how many channels followed its
/// factors.
#[derive(Debug, Clone, Copy)]
pub(super) struct Run {
    gate: FusedOp,
    channels: i32,
}

impl Run {
    pub(super) fn new(gate: &FusedOp) -> Self {
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

    pub(super) fn finish(self, keep_1q: f64) -> WireOp {
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
    pub(super) fn replay(q: usize, members: &[Member], params: &[FusedOp]) -> Self {
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
pub(super) struct Marked {
    pub(super) op: FusedOp,
    pub(super) param: Option<usize>,
}

impl Borrow<FusedOp> for Marked {
    fn borrow(&self) -> &FusedOp {
        &self.op
    }
}

/// One op of a run, as a rebind replays it.
#[derive(Debug, Clone, Copy)]
pub(super) enum Member {
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
pub(super) struct Tracked {
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
pub(super) enum Source {
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
pub(super) enum Shape {
    One(usize),
    Rz(usize),
    Two(usize, usize),
    Cx(usize, usize),
    Mono(usize, usize),
}

impl Shape {
    pub(super) fn of(op: &FusedOp) -> Self {
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
pub(super) struct Place {
    pub(super) step: usize,
    pub(super) local: Option<usize>,
}

/// A step closed by the compile, with the sources of its parametric local
/// ops by [`Place::local`].
#[derive(Debug, Clone)]
pub(super) struct Closed {
    pub(super) step: Step,
    pub(super) sources: Vec<(Option<usize>, Source)>,
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

/// A sweep under construction: the density rule on [`fuse`]'s scan.
// A run's gate is a `FusedOp`, sized for a 4×4 matrix; boxing it would buy
// an allocation per lone run to shrink slots a compile holds a dozen of.
#[allow(clippy::large_enum_variant)]
#[derive(Clone)]
pub(super) enum Slot {
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
pub(super) enum Draft {
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

/// Closes the slots of `scan` with program-order indices in `range` at
/// survival factors `(keep_1q, keep_2q)` per channel.
pub(super) fn steps(
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
pub(super) fn seated(u: &Mat4, seat: &[usize; 4]) -> Mat4 {
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
