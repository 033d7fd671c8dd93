//! # qoncord-circuit
//!
//! Parametric quantum-circuit IR for the Qoncord reproduction: gates with
//! affine symbolic angles, a chainable circuit builder, device coupling maps
//! (including the 27-qubit IBM Falcon lattice of the paper's Fig. 11), and a
//! transpiler that decomposes to the IBM `{rz, sx, x, cx}` basis and routes
//! with greedy SWAP insertion.
//!
//! ## Example
//!
//! ```
//! use qoncord_circuit::circuit::Circuit;
//! use qoncord_circuit::coupling::CouplingMap;
//! use qoncord_circuit::param::{Angle, ParamId};
//! use qoncord_circuit::transpile::transpile;
//!
//! // A 1-layer QAOA-style block on 3 qubits with parameters γ, β.
//! let mut qc = Circuit::new(3, 2);
//! for q in 0..3 {
//!     qc.h(q);
//! }
//! qc.rzz(0, 1, Angle::scaled(ParamId(0), 2.0));
//! qc.rzz(1, 2, Angle::scaled(ParamId(0), 2.0));
//! for q in 0..3 {
//!     qc.rx(q, Angle::scaled(ParamId(1), 2.0));
//! }
//! let transpiled = transpile(&qc, &CouplingMap::falcon_27());
//! assert!(transpiled.stats.n_2q >= 4);
//! ```

#![warn(missing_docs)]

pub mod circuit;
pub mod coupling;
pub mod gate;
pub mod param;
pub mod transpile;

pub use circuit::Circuit;
pub use coupling::CouplingMap;
pub use gate::{Gate, GateKind, ResolvedGate};
pub use param::{Angle, ParamId};
pub use transpile::{transpile, CircuitStats, TranspiledCircuit};
