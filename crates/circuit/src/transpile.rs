//! Transpilation: basis-gate decomposition, SWAP routing against a coupling
//! map, and peephole optimization.
//!
//! The pipeline mirrors what the paper obtains from `qiskit transpile(...,
//! optimization_level=3)` at the granularity Qoncord actually consumes: the
//! post-routing single-/two-qubit gate counts and depth that feed the
//! P_correct fidelity estimate (Eq. 1).
//!
//! The target basis is IBM's `{rz, sx, x, cx}`. Routing is a SABRE-style
//! scheduler: a commutation-aware dependency DAG feeds a ready set, SWAPs
//! are chosen to minimize the aggregate distance of blocked gates, and the
//! initial layout greedily embeds the interaction graph. The device region
//! for small circuits is chosen by [`CouplingMap::connected_subgraph`].

use crate::circuit::Circuit;
use crate::coupling::CouplingMap;
use crate::gate::{Gate, GateKind};
use crate::param::Angle;
use std::f64::consts::PI;

/// Gate counts and depth after transpilation; the inputs to P_correct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CircuitStats {
    /// Single-qubit gate count.
    pub n_1q: usize,
    /// Two-qubit gate count.
    pub n_2q: usize,
    /// Circuit depth.
    pub depth: usize,
    /// Number of SWAPs inserted by routing (already expanded into CNOTs and
    /// included in `n_2q`).
    pub swaps_inserted: usize,
    /// Number of measured qubits (the full register in our workloads).
    pub n_measured: usize,
}

/// The output of [`transpile`]: a routed basis circuit plus bookkeeping to
/// map measurement outcomes back to logical qubits.
#[derive(Debug, Clone)]
pub struct TranspiledCircuit {
    /// The decomposed, routed circuit over the device region's qubits.
    pub circuit: Circuit,
    /// Physical device qubit backing each region qubit (`region_to_device[i]`
    /// is the device index of region qubit `i`).
    pub region_to_device: Vec<usize>,
    /// Final layout: `logical_to_region[l]` is the region qubit holding
    /// logical qubit `l` after all routing SWAPs.
    pub logical_to_region: Vec<usize>,
    /// Connectivity of the selected device region (indices match
    /// `circuit`'s qubits).
    pub region_coupling: CouplingMap,
    /// Gate statistics.
    pub stats: CircuitStats,
}

impl TranspiledCircuit {
    /// Permutes a probability vector over region-qubit bitstrings into one
    /// over the original logical qubits.
    ///
    /// # Panics
    ///
    /// Panics if `probs.len() != 2^n_region`.
    pub fn remap_probabilities(&self, probs: &[f64]) -> Vec<f64> {
        assert_eq!(probs.len(), 1usize << self.circuit.n_qubits());
        remap_to_logical(&self.logical_to_region, probs)
    }
}

/// [`TranspiledCircuit::remap_probabilities`] for a circuit whose final
/// layout is `logical_to_region`, given apart from the circuit.
///
/// # Panics
///
/// Panics if a region qubit of the layout indexes past `probs`.
pub fn remap_to_logical(logical_to_region: &[usize], probs: &[f64]) -> Vec<f64> {
    assert!(
        logical_to_region.iter().all(|&r| 1usize << r < probs.len()),
        "layout outside the register"
    );
    let mut out = vec![0.0; 1usize << logical_to_region.len()];
    for (idx, &p) in probs.iter().enumerate() {
        let mut logical = 0usize;
        for (l, &r) in logical_to_region.iter().enumerate() {
            if idx & (1 << r) != 0 {
                logical |= 1 << l;
            }
        }
        out[logical] += p;
    }
    out
}

/// Decomposes a circuit into the `{rz, sx, x, cx}` basis, preserving
/// parametric angles (all decompositions keep angles affine in the original
/// parameters).
///
/// Global phases are dropped — they are unobservable in every quantity this
/// repository measures.
pub fn decompose_to_basis(circuit: &Circuit) -> Circuit {
    let _prof = qoncord_prof::span("circuit::decompose");
    let mut out = Circuit::new(circuit.n_qubits(), circuit.n_params());
    for gate in circuit.gates() {
        decompose_gate(gate, &mut out);
    }
    out
}

fn rz_gate(q: usize, angle: Angle) -> Gate {
    Gate::new(GateKind::Rz, &[q], &[angle])
}

fn sx_gate(q: usize) -> Gate {
    Gate::new(GateKind::Sx, &[q], &[])
}

/// Appends `U3(θ, φ, λ)` as `RZ(φ+π) · SX · RZ(θ+π) · SX · RZ(λ)` (the
/// standard ZXZXZ Euler decomposition; rightmost factor applied first).
fn push_u3(out: &mut Circuit, q: usize, theta: Angle, phi: f64, lambda: f64) {
    out.push(rz_gate(q, Angle::constant(lambda)));
    out.push(sx_gate(q));
    let shifted = Angle {
        coeff: theta.coeff,
        param: theta.param,
        offset: theta.offset + PI,
    };
    out.push(rz_gate(q, shifted));
    out.push(sx_gate(q));
    out.push(rz_gate(q, Angle::constant(phi + PI)));
}

/// H in the basis alphabet: `RZ(π/2) · SX · RZ(π/2)` up to global phase.
fn push_h_basis(out: &mut Circuit, q: usize) {
    out.push(rz_gate(q, Angle::constant(PI / 2.0)));
    out.push(sx_gate(q));
    out.push(rz_gate(q, Angle::constant(PI / 2.0)));
}

fn decompose_gate(gate: &Gate, out: &mut Circuit) {
    let q = gate.qubits()[0];
    match gate.kind() {
        // Already in basis.
        GateKind::Rz | GateKind::Sx | GateKind::X | GateKind::Cx => {
            out.push(*gate);
        }
        // Phase-family gates are RZ up to global phase.
        GateKind::Z => {
            out.push(rz_gate(q, Angle::constant(PI)));
        }
        GateKind::S => {
            out.push(rz_gate(q, Angle::constant(PI / 2.0)));
        }
        GateKind::Sdg => {
            out.push(rz_gate(q, Angle::constant(-PI / 2.0)));
        }
        GateKind::T => {
            out.push(rz_gate(q, Angle::constant(PI / 4.0)));
        }
        GateKind::Tdg => {
            out.push(rz_gate(q, Angle::constant(-PI / 4.0)));
        }
        GateKind::P => {
            out.push(rz_gate(q, gate.angles()[0]));
        }
        // Y = RZ(π) · X up to global phase.
        GateKind::Y => {
            out.push(Gate::new(GateKind::X, &[q], &[]));
            out.push(rz_gate(q, Angle::constant(PI)));
        }
        // H = RZ(π/2) · SX · RZ(π/2) up to global phase (Qiskit's U2(0, π)).
        GateKind::H => {
            push_h_basis(out, q);
        }
        // RX(θ) = U3(θ, −π/2, π/2); RY(θ) = U3(θ, 0, 0).
        GateKind::Rx => {
            push_u3(out, q, gate.angles()[0], -PI / 2.0, PI / 2.0);
        }
        GateKind::Ry => {
            push_u3(out, q, gate.angles()[0], 0.0, 0.0);
        }
        GateKind::U3 => {
            // General U3 with potentially parametric φ/λ: emit the ZXZXZ chain
            // with each RZ carrying its own (affine) angle.
            let [theta, phi, lambda] = [gate.angles()[0], gate.angles()[1], gate.angles()[2]];
            out.push(rz_gate(q, lambda));
            out.push(sx_gate(q));
            out.push(rz_gate(
                q,
                Angle {
                    coeff: theta.coeff,
                    param: theta.param,
                    offset: theta.offset + PI,
                },
            ));
            out.push(sx_gate(q));
            out.push(rz_gate(
                q,
                Angle {
                    coeff: phi.coeff,
                    param: phi.param,
                    offset: phi.offset + PI,
                },
            ));
        }
        // RZZ(θ) a,b = CX(a,b) · RZ_b(θ) · CX(a,b).
        GateKind::Rzz => {
            let (a, b) = (gate.qubits()[0], gate.qubits()[1]);
            out.push(Gate::new(GateKind::Cx, &[a, b], &[]));
            out.push(rz_gate(b, gate.angles()[0]));
            out.push(Gate::new(GateKind::Cx, &[a, b], &[]));
        }
        // CZ a,b = H_b · CX(a,b) · H_b.
        GateKind::Cz => {
            let (a, b) = (gate.qubits()[0], gate.qubits()[1]);
            push_h_basis(out, b);
            out.push(Gate::new(GateKind::Cx, &[a, b], &[]));
            push_h_basis(out, b);
        }
        // SWAP = 3 CNOTs.
        GateKind::Swap => {
            let (a, b) = (gate.qubits()[0], gate.qubits()[1]);
            out.push(Gate::new(GateKind::Cx, &[a, b], &[]));
            out.push(Gate::new(GateKind::Cx, &[b, a], &[]));
            out.push(Gate::new(GateKind::Cx, &[a, b], &[]));
        }
        // CRZ(θ) c,t = RZ_t(θ/2) · CX · RZ_t(−θ/2) · CX.
        GateKind::Crz => {
            let (c, t) = (gate.qubits()[0], gate.qubits()[1]);
            let half = Angle {
                coeff: gate.angles()[0].coeff / 2.0,
                param: gate.angles()[0].param,
                offset: gate.angles()[0].offset / 2.0,
            };
            let neg_half = Angle {
                coeff: -half.coeff,
                param: half.param,
                offset: -half.offset,
            };
            out.push(rz_gate(t, half));
            out.push(Gate::new(GateKind::Cx, &[c, t], &[]));
            out.push(rz_gate(t, neg_half));
            out.push(Gate::new(GateKind::Cx, &[c, t], &[]));
        }
    }
}

/// Peephole optimization: merges adjacent RZ rotations on the same wire when
/// their angles are compatible (both constant or sharing a parameter), drops
/// identity rotations, and cancels immediately-repeated CNOT pairs.
pub fn optimize(circuit: &Circuit) -> Circuit {
    let _prof = qoncord_prof::span("circuit::optimize");
    let mut gates: Vec<Gate> = Vec::with_capacity(circuit.len());
    for gate in circuit.gates() {
        // Drop constant RZ(0 mod 2π).
        if gate.kind() == GateKind::Rz && !gate.angles()[0].is_parametric() {
            let v = gate.angles()[0].offset.rem_euclid(2.0 * PI);
            if v.abs() < 1e-12 || (v - 2.0 * PI).abs() < 1e-12 {
                continue;
            }
        }
        if let Some(last) = gates.last() {
            // Merge rz·rz on the same qubit.
            if gate.kind() == GateKind::Rz
                && last.kind() == GateKind::Rz
                && last.qubits() == gate.qubits()
            {
                if let Some(merged) = merge_angles(last.angles()[0], gate.angles()[0]) {
                    let q = gate.qubits()[0];
                    gates.pop();
                    // Re-check identity after merging.
                    if !merged.is_parametric() {
                        let v = merged.offset.rem_euclid(2.0 * PI);
                        if v.abs() < 1e-12 || (v - 2.0 * PI).abs() < 1e-12 {
                            continue;
                        }
                    }
                    gates.push(rz_gate(q, merged));
                    continue;
                }
            }
            // Cancel cx·cx on identical operands.
            if gate.kind() == GateKind::Cx
                && last.kind() == GateKind::Cx
                && last.qubits() == gate.qubits()
            {
                gates.pop();
                continue;
            }
            // Cancel x·x.
            if gate.kind() == GateKind::X
                && last.kind() == GateKind::X
                && last.qubits() == gate.qubits()
            {
                gates.pop();
                continue;
            }
        }
        gates.push(*gate);
    }
    // Every gate is one of `circuit`'s or an RZ merged from two of them.
    Circuit::from_checked(circuit.n_qubits(), circuit.n_params(), gates)
}

fn merge_angles(a: Angle, b: Angle) -> Option<Angle> {
    match (a.param, b.param) {
        (None, None) => Some(Angle::constant(a.offset + b.offset)),
        (Some(p), Some(q)) if p == q => Some(Angle {
            coeff: a.coeff + b.coeff,
            param: Some(p),
            offset: a.offset + b.offset,
        }),
        (Some(_), None) => Some(Angle {
            coeff: a.coeff,
            param: a.param,
            offset: a.offset + b.offset,
        }),
        (None, Some(_)) => Some(Angle {
            coeff: b.coeff,
            param: b.param,
            offset: a.offset + b.offset,
        }),
        _ => None,
    }
}

/// Chooses an initial logical→physical placement that greedily maximizes
/// the number of interacting logical pairs mapped to adjacent physical
/// qubits (a lightweight stand-in for SABRE's layout pass). `dist` is the
/// map's all-pairs distance table.
fn initial_layout(circuit: &Circuit, coupling: &CouplingMap, dist: &[Vec<usize>]) -> Vec<usize> {
    let n = circuit.n_qubits();
    // Interaction weights between logical qubits.
    let mut weight = vec![vec![0usize; n]; n];
    for g in circuit.gates() {
        if g.qubits().len() == 2 {
            let (a, b) = (g.qubits()[0], g.qubits()[1]);
            weight[a][b] += 1;
            weight[b][a] += 1;
        }
    }
    let wdeg = |q: usize| weight[q].iter().sum::<usize>();
    // Place logical qubits in descending connection order.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&q| std::cmp::Reverse(wdeg(q)));
    let mut layout = vec![usize::MAX; n]; // logical -> physical
    let mut used = vec![false; n]; // physical occupied
    for &logical in &order {
        // Score each free physical site by adjacency to already-placed
        // interaction partners; fall back to highest degree for the seed.
        let mut best: Option<(usize, i64)> = None;
        for phys in 0..n {
            if used[phys] {
                continue;
            }
            let mut score: i64 = 0;
            for partner in 0..n {
                let w = weight[logical][partner] as i64;
                if w == 0 || layout[partner] == usize::MAX {
                    continue;
                }
                if coupling.are_adjacent(phys, layout[partner]) {
                    score += 10 * w;
                } else {
                    // Penalize distance to placed partners.
                    let d = dist[phys][layout[partner]] as i64;
                    score -= d * w;
                }
            }
            score += coupling.neighbors(phys).len() as i64; // tie-break
            if best.map(|(_, s)| score > s).unwrap_or(true) {
                best = Some((phys, score));
            }
        }
        let (phys, _) = best.expect("free site exists");
        layout[logical] = phys;
        used[phys] = true;
    }
    layout
}

/// Commutation class of a gate at one of its qubits, used to build the
/// routing dependency DAG. Gates sharing a qubit commute there when both are
/// diagonal (Z class) or both are X-axis rotations at that position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CommClass {
    /// Diagonal in the computational basis (rz, cz, rzz, CX control, …).
    Z,
    /// X-axis (x, sx, rx, CX target).
    X,
    /// Everything else: commutes with nothing.
    General,
}

fn comm_class(kind: GateKind, position: usize) -> CommClass {
    match kind {
        GateKind::Rz
        | GateKind::Z
        | GateKind::S
        | GateKind::Sdg
        | GateKind::T
        | GateKind::Tdg
        | GateKind::P
        | GateKind::Rzz
        | GateKind::Cz
        | GateKind::Crz => CommClass::Z,
        GateKind::X | GateKind::Sx | GateKind::Rx => CommClass::X,
        GateKind::Cx => {
            if position == 0 {
                CommClass::Z // control
            } else {
                CommClass::X // target
            }
        }
        _ => CommClass::General,
    }
}

/// The routing dependency DAG in compressed form: gate `g`'s successors are
/// `targets[offsets[g]..offsets[g + 1]]`, ascending.
struct Dag {
    offsets: Vec<usize>,
    targets: Vec<usize>,
}

impl Dag {
    fn successors(&self, g: usize) -> &[usize] {
        &self.targets[self.offsets[g]..self.offsets[g + 1]]
    }
}

/// Builds the commutation-aware dependency DAG: gate `g` depends on the
/// gates of the immediately preceding commutation run on each of its qubits.
/// Returns the DAG and each gate's indegree.
fn dependency_dag(circuit: &Circuit) -> (Dag, Vec<usize>) {
    let n_gates = circuit.len();
    // Edges `(dep, g)` in discovery order, so ascending in `g`.
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut indegree = vec![0usize; n_gates];
    // Per qubit: the current commutation run and the previous run. A new
    // run recycles the previous run's buffer.
    #[derive(Clone, Default)]
    struct WireState {
        current: Vec<usize>,
        current_class: Option<CommClass>,
        previous: Vec<usize>,
    }
    let mut wires: Vec<WireState> = vec![WireState::default(); circuit.n_qubits()];
    for (g, gate) in circuit.gates().iter().enumerate() {
        let first_edge = edges.len();
        for (pos, &q) in gate.qubits().iter().enumerate() {
            let class = comm_class(gate.kind(), pos);
            let wire = &mut wires[q];
            let same_run = wire.current_class == Some(class) && class != CommClass::General;
            if !same_run {
                std::mem::swap(&mut wire.previous, &mut wire.current);
                wire.current.clear();
                wire.current_class = Some(class);
            }
            for &dep in &wire.previous {
                if dep != g && !edges[first_edge..].iter().any(|&(d, _)| d == dep) {
                    edges.push((dep, g));
                    indegree[g] += 1;
                }
            }
            wire.current.push(g);
        }
    }
    // Counting sort by `dep`: stable, so each gate's successors stay in
    // discovery order.
    let mut offsets = vec![0usize; n_gates + 1];
    for &(dep, _) in &edges {
        offsets[dep + 1] += 1;
    }
    for g in 0..n_gates {
        offsets[g + 1] += offsets[g];
    }
    let mut fill = offsets[..n_gates].to_vec();
    let mut targets = vec![0usize; edges.len()];
    for &(dep, g) in &edges {
        targets[fill[dep]] = g;
        fill[dep] += 1;
    }
    (Dag { offsets, targets }, indegree)
}

/// Routes a basis circuit onto `coupling` with a SABRE-style scheduler:
/// a commutation-aware dependency DAG feeds a ready set; adjacent ready
/// gates are emitted eagerly, and when none are executable a SWAP is chosen
/// to minimize the summed distance of all ready two-qubit gates. Returns the
/// routed circuit (with SWAPs still symbolic), the final logical→physical
/// layout, and the SWAP count.
fn route(circuit: &Circuit, coupling: &CouplingMap) -> (Circuit, Vec<usize>, usize) {
    let n = circuit.n_qubits();
    assert_eq!(
        coupling.n_qubits(),
        n,
        "routing region must match circuit size"
    );
    // Precompute all-pairs distances.
    let dist: Vec<Vec<usize>> = (0..n).map(|q| coupling.distances_from(q)).collect();
    // layout[l] = physical position of logical qubit l.
    let mut layout: Vec<usize> = initial_layout(circuit, coupling, &dist);
    // inverse[p] = logical qubit at physical position p.
    let mut inverse: Vec<usize> = vec![0; n];
    for (logical, &phys) in layout.iter().enumerate() {
        inverse[phys] = logical;
    }
    let (dag, mut indegree) = dependency_dag(circuit);
    let gates = circuit.gates();
    let mut ready: Vec<usize> = (0..gates.len()).filter(|&g| indegree[g] == 0).collect();
    ready.sort_unstable();
    let mut out = Circuit::new(n, circuit.n_params());
    let mut swaps = 0usize;
    let mut emitted = 0usize;
    // The positions of the blocked ready gates, refilled each time routing stalls.
    let mut blocked: Vec<(usize, usize)> = Vec::new();

    let emit = |g: usize,
                out: &mut Circuit,
                layout: &[usize],
                ready: &mut Vec<usize>,
                indegree: &mut [usize],
                emitted: &mut usize| {
        let gate = &gates[g];
        out.push(gate.on(layout));
        *emitted += 1;
        for &s in dag.successors(g) {
            indegree[s] -= 1;
            if indegree[s] == 0 {
                ready.push(s);
            }
        }
    };

    while emitted < gates.len() {
        // 1. Emit every executable ready gate (1q always; 2q when adjacent).
        let mut progressed = true;
        while progressed {
            progressed = false;
            let mut i = 0;
            while i < ready.len() {
                let g = ready[i];
                let gate = &gates[g];
                let executable = match gate.qubits().len() {
                    1 => true,
                    2 => coupling.are_adjacent(layout[gate.qubits()[0]], layout[gate.qubits()[1]]),
                    _ => unreachable!("IR has only 1- and 2-qubit gates"),
                };
                if executable {
                    ready.swap_remove(i);
                    emit(
                        g,
                        &mut out,
                        &layout,
                        &mut ready,
                        &mut indegree,
                        &mut emitted,
                    );
                    progressed = true;
                } else {
                    i += 1;
                }
            }
        }
        if emitted == gates.len() {
            break;
        }
        // 2. All ready gates are blocked 2q gates: pick the SWAP minimizing
        // the summed ready-gate distance (strictly improving to avoid
        // livelock, with a fallback walk along the closest pair's path).
        blocked.clear();
        blocked.extend(
            ready
                .iter()
                .map(|&g| (layout[gates[g].qubits()[0]], layout[gates[g].qubits()[1]])),
        );
        assert!(!blocked.is_empty(), "scheduler stalled with no ready gates");
        let base_cost: usize = blocked.iter().map(|&(a, b)| dist[a][b]).sum();
        // Candidate swaps: coupling edges touching a qubit of a blocked pair.
        let mut best: Option<((usize, usize), usize)> = None;
        for &(ea, eb) in coupling.edges() {
            let touches = blocked
                .iter()
                .any(|&(a, b)| a == ea || a == eb || b == ea || b == eb);
            if !touches {
                continue;
            }
            // Apply the swap virtually.
            let remap = |p: usize| {
                if p == ea {
                    eb
                } else if p == eb {
                    ea
                } else {
                    p
                }
            };
            let c: usize = blocked.iter().map(|&(a, b)| dist[remap(a)][remap(b)]).sum();
            if c < base_cost && best.map(|(_, bc)| c < bc).unwrap_or(true) {
                best = Some(((ea, eb), c));
            }
        }
        match best {
            Some(((sa, sb), _)) => {
                out.push(Gate::new(GateKind::Swap, &[sa, sb], &[]));
                swaps += 1;
                let (ia, ib) = (inverse[sa], inverse[sb]);
                inverse.swap(sa, sb);
                layout[ia] = sb;
                layout[ib] = sa;
            }
            None => {
                // No single swap improves the aggregate: break the deadlock
                // by walking the closest blocked pair all the way to
                // adjacency, which guarantees a gate is emitted next round.
                let &(a, b) = blocked
                    .iter()
                    .min_by_key(|&&(a, b)| dist[a][b])
                    .expect("non-empty");
                let path = coupling.shortest_path(a, b).expect("connected map");
                let mut pa = a;
                for &next in &path[1..path.len() - 1] {
                    out.push(Gate::new(GateKind::Swap, &[pa, next], &[]));
                    swaps += 1;
                    let (ia, ib) = (inverse[pa], inverse[next]);
                    inverse.swap(pa, next);
                    layout[ia] = next;
                    layout[ib] = pa;
                    pa = next;
                }
            }
        }
    }
    (out, layout, swaps)
}

/// Full transpilation pipeline: decompose → route onto a connected device
/// region → expand SWAPs → peephole-optimize.
///
/// # Panics
///
/// Panics if the device has fewer qubits than the circuit.
pub fn transpile(circuit: &Circuit, device_coupling: &CouplingMap) -> TranspiledCircuit {
    assert!(
        device_coupling.n_qubits() >= circuit.n_qubits(),
        "device ({}) smaller than circuit ({})",
        device_coupling.n_qubits(),
        circuit.n_qubits()
    );
    let _prof = qoncord_prof::span("circuit::transpile");
    let (region, region_to_device) = device_coupling.connected_subgraph(circuit.n_qubits());
    let basis = decompose_to_basis(circuit);
    let basis = optimize(&basis);
    let (routed, logical_to_region, swaps_inserted) = route(&basis, &region);
    let expanded = decompose_to_basis(&routed); // expand inserted SWAPs
    let final_circuit = optimize(&expanded);
    let stats = CircuitStats {
        n_1q: final_circuit.count_1q(),
        n_2q: final_circuit.count_2q(),
        depth: final_circuit.depth(),
        swaps_inserted,
        n_measured: circuit.n_qubits(),
    };
    TranspiledCircuit {
        circuit: final_circuit,
        region_to_device,
        logical_to_region,
        region_coupling: region,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamId;
    use qoncord_sim::dist::ProbDist;

    /// The decomposed circuit must produce the same outcome distribution as
    /// the original (global phase is unobservable).
    fn assert_same_distribution(original: &Circuit, transformed: &Circuit, params: &[f64]) {
        let a = ProbDist::new(original.simulate_ideal(params).probabilities());
        let b = ProbDist::new(transformed.simulate_ideal(params).probabilities());
        assert!(
            a.total_variation(&b) < 1e-9,
            "distributions diverge: tv = {}",
            a.total_variation(&b)
        );
    }

    #[test]
    fn decomposition_preserves_bell_distribution() {
        let mut qc = Circuit::new(2, 0);
        qc.h(0).cx(0, 1);
        let basis = decompose_to_basis(&qc);
        assert_same_distribution(&qc, &basis, &[]);
        for g in basis.gates() {
            assert!(matches!(
                g.kind(),
                GateKind::Rz | GateKind::Sx | GateKind::X | GateKind::Cx
            ));
        }
    }

    #[test]
    fn decomposition_preserves_every_gate_kind() {
        let mut qc = Circuit::new(3, 1);
        qc.h(0)
            .x(1)
            .y(2)
            .z(0)
            .s(1)
            .sdg(2)
            .sx(0)
            .rx(1, 0.37)
            .ry(2, -0.8)
            .rz(0, ParamId(0))
            .p(1, 1.1)
            .cx(0, 1)
            .cz(1, 2)
            .swap(0, 2)
            .rzz(0, 1, 0.55);
        qc.push(Gate::new(GateKind::T, &[0], &[]));
        qc.push(Gate::new(GateKind::Tdg, &[1], &[]));
        qc.push(Gate::new(GateKind::Crz, &[0, 2], &[Angle::constant(0.9)]));
        qc.push(Gate::new(
            GateKind::U3,
            &[1],
            &[
                Angle::constant(0.4),
                Angle::constant(1.2),
                Angle::constant(-0.6),
            ],
        ));
        let basis = decompose_to_basis(&qc);
        assert_same_distribution(&qc, &basis, &[0.73]);
    }

    #[test]
    fn parametric_rzz_survives_decomposition() {
        let mut qc = Circuit::new(2, 1);
        qc.h(0).h(1).rzz(0, 1, Angle::scaled(ParamId(0), 2.0));
        let basis = decompose_to_basis(&qc);
        for theta in [0.0, 0.4, 1.3] {
            assert_same_distribution(&qc, &basis, &[theta]);
        }
    }

    #[test]
    fn optimize_cancels_cx_pairs() {
        let mut qc = Circuit::new(2, 0);
        qc.cx(0, 1).cx(0, 1).h(0);
        let opt = optimize(&qc);
        assert_eq!(opt.count_2q(), 0);
        assert_eq!(opt.count_1q(), 1);
    }

    #[test]
    fn optimize_merges_rz_chains() {
        let mut qc = Circuit::new(1, 0);
        qc.rz(0, 0.3).rz(0, 0.7).rz(0, -1.0);
        let opt = optimize(&qc);
        assert!(opt.is_empty(), "0.3+0.7-1.0 = 0 should vanish, got {opt}");
    }

    #[test]
    fn optimize_preserves_distribution() {
        let mut qc = Circuit::new(2, 1);
        qc.h(0)
            .rz(0, 0.2)
            .rz(0, ParamId(0))
            .cx(0, 1)
            .cx(0, 1)
            .x(1)
            .x(1);
        let opt = optimize(&qc);
        assert_same_distribution(&qc, &opt, &[0.9]);
        assert!(opt.len() < qc.len());
    }

    #[test]
    fn routing_on_chain_inserts_swaps() {
        // All-pairs CX on a 4-qubit chain cannot avoid swaps: the region is
        // a tree with 3 edges but 6 distinct qubit pairs are exercised.
        let mut qc = Circuit::new(4, 0);
        qc.h(0);
        for a in 0..4 {
            for b in (a + 1)..4 {
                qc.cx(a, b);
            }
        }
        let t = transpile(&qc, &CouplingMap::linear(4));
        assert!(t.stats.swaps_inserted >= 1);
        // All cx must be between adjacent region qubits.
        for g in t.circuit.gates() {
            if g.kind() == GateKind::Cx {
                assert!(t.region_coupling.are_adjacent(g.qubits()[0], g.qubits()[1]));
            }
        }
    }

    #[test]
    fn routed_circuit_matches_logical_distribution() {
        let mut qc = Circuit::new(3, 0);
        qc.h(0).cx(0, 2).cx(2, 1).rzz(0, 1, 0.8);
        let t = transpile(&qc, &CouplingMap::linear(3));
        let ideal = qc.simulate_ideal(&[]).probabilities();
        let routed_raw = t.circuit.simulate_ideal(&[]).probabilities();
        let routed = t.remap_probabilities(&routed_raw);
        let a = ProbDist::new(ideal);
        let b = ProbDist::new(routed);
        assert!(
            a.total_variation(&b) < 1e-9,
            "tv = {}",
            a.total_variation(&b)
        );
    }

    #[test]
    fn transpile_to_falcon_region() {
        let mut qc = Circuit::new(7, 2);
        for q in 0..7 {
            qc.h(q);
        }
        for q in 0..6 {
            qc.rzz(q, q + 1, Angle::scaled(ParamId(0), 2.0));
        }
        for q in 0..7 {
            qc.rx(q, Angle::scaled(ParamId(1), 2.0));
        }
        let t = transpile(&qc, &CouplingMap::falcon_27());
        assert_eq!(t.circuit.n_qubits(), 7);
        assert_eq!(t.region_to_device.len(), 7);
        assert!(t.stats.n_2q >= 12, "rzz pairs expand to ≥2 cx each");
        let ideal = ProbDist::new(qc.simulate_ideal(&[0.4, 0.3]).probabilities());
        let routed = ProbDist::new(
            t.remap_probabilities(&t.circuit.simulate_ideal(&[0.4, 0.3]).probabilities()),
        );
        assert!(ideal.total_variation(&routed) < 1e-9);
    }

    #[test]
    fn all_to_all_needs_no_swaps() {
        let mut qc = Circuit::new(4, 0);
        qc.h(0).cx(0, 3).cx(1, 2).cx(0, 2);
        let t = transpile(&qc, &CouplingMap::all_to_all(4));
        assert_eq!(t.stats.swaps_inserted, 0);
    }

    #[test]
    fn stats_count_basis_gates() {
        let mut qc = Circuit::new(2, 0);
        qc.h(0).cx(0, 1);
        let t = transpile(&qc, &CouplingMap::linear(2));
        assert_eq!(t.stats.n_2q, 1);
        assert!(t.stats.n_1q >= 3, "h expands into rz/sx chain");
        assert_eq!(t.stats.n_measured, 2);
    }
}
