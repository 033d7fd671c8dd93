//! Helpers the device integration suites share.

use qoncord_circuit::transpile::TranspiledCircuit;
use qoncord_device::noise_model::SimulatedBackend;
use qoncord_sim::dist::ProbDist;

/// `backend.run`'s tail: readout error, then the routing permutation undone.
pub fn as_run_reports(
    backend: &SimulatedBackend,
    t: &TranspiledCircuit,
    physical: ProbDist,
) -> ProbDist {
    let readout = backend.noise().readout;
    let physical = if readout.mean_error() > 0.0 {
        physical.with_uniform_readout_error(readout)
    } else {
        physical
    };
    ProbDist::new(t.remap_probabilities(physical.probabilities()))
}
