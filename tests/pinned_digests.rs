//! Seeded sample-parallel bits pinned across revisions.
//!
//! Every case below runs on the single-evolution multiplicity-map path
//! (unitary circuits with terminal readout, or channels on a backend
//! that absorbs them deterministically). Its digest is a checked-in
//! constant, so a refactor of the sampler that changes a single seeded
//! bit on this path fails here — not only when two runs of the *same*
//! revision disagree. The constants may change only with a deliberate,
//! documented change of the sample-parallel RNG contract.
//!
//! Coverage: state vector, density matrix with channels, purified MPS
//! with channels, and chain MPS (one case wider than the dense
//! accumulation limit), each through [`Simulator::run`] (histogram
//! digest) and [`Simulator::sample_final_bitstrings`] (ordered sample
//! digest).

use bgls_suite::apps::{brickwork_circuit, ghz_circuit};
use bgls_suite::backend::SimulatorExt;
use bgls_suite::circuit::{Circuit, Gate, Operation, Qubit};
use bgls_suite::core::{Simulator, SimulatorOptions};
use bgls_suite::BackendKind;
use bgls_testkit::{circuit_for, digest_samples, sample_digest, CircuitClass};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `(case, digest)` pairs of the sample-parallel path's seeded bits; see
/// the module doc for when they may change.
const PINNED: &[(&str, u64)] = &[
    ("sv-universal-5q/run", 0x2b5e66c1ac66c4cd),
    ("sv-universal-5q/final", 0x0c1edd0323d2d3c8),
    ("sv-brickwork-10q/run", 0x8398b967246a1a77),
    ("sv-brickwork-10q/final", 0xc1af4115aa9b7cf0),
    ("density-noisy-4q/run", 0xed3368421d4a8e43),
    ("density-noisy-4q/final", 0x3c9253f97d86e38a),
    ("density-heavy-4q/run", 0xb1b6939d70bb176d),
    ("density-heavy-4q/final", 0x38a79d8fc6684f0f),
    ("pmps-noisy-4q/run", 0xed3368421d4a8e43),
    ("pmps-noisy-4q/final", 0x3c9253f97d86e38a),
    ("pmps-heavy-4q/run", 0xb1b6939d70bb176d),
    ("pmps-heavy-4q/final", 0x38a79d8fc6684f0f),
    ("mps-universal-5q/run", 0xf84aa5c12c2d6761),
    ("mps-universal-5q/final", 0xb964b1891bd33bdc),
    ("mps-wide-sparse-24q/run", 0x19ee9206d6ad4c2b),
    ("mps-wide-sparse-24q/final", 0xedc82c06aab24c5b),
];

const PURIFIED: BackendKind = BackendKind::PurifiedMps {
    chi: None,
    kraus_dim: None,
};

fn opts(seed: u64) -> SimulatorOptions {
    SimulatorOptions {
        seed: Some(seed),
        ..Default::default()
    }
}

/// GHZ on `n` qubits followed by a rotation layer: a sparse map (two
/// GHZ branches spread by the rotations) on a register too wide for the
/// dense redistribution accumulator.
fn wide_sparse(n: usize) -> Circuit {
    let mut c = ghz_circuit(n);
    for q in (0..n as u32).step_by(3) {
        c.push(Operation::gate(Gate::Ry(0.6.into()), vec![Qubit(q)]).unwrap());
    }
    c
}

fn cases() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let mut both = |name: &str, kind: BackendKind, circuit: &Circuit, n: usize, reps: u64| {
        let run = sample_digest(kind, circuit, n, reps, opts(7))
            .unwrap_or_else(|e| panic!("{name} run: {e}"));
        out.push((format!("{name}/run"), run));
        let samples = Simulator::for_backend(kind, n, opts(8))
            .sample_final_bitstrings(circuit, reps)
            .unwrap_or_else(|e| panic!("{name} sample_final_bitstrings: {e}"));
        out.push((format!("{name}/final"), digest_samples(&samples)));
    };

    let universal = circuit_for(CircuitClass::Universal, 5, 11);
    both(
        "sv-universal-5q",
        BackendKind::StateVector,
        &universal,
        5,
        3000,
    );
    let mut rng = StdRng::seed_from_u64(4);
    // 10 qubits and many shots: maps above the parallel-redistribution
    // threshold, through the dense accumulator
    let brick = brickwork_circuit(10, 3, &mut rng);
    both(
        "sv-brickwork-10q",
        BackendKind::StateVector,
        &brick,
        10,
        6000,
    );

    let noisy = circuit_for(CircuitClass::Noisy, 4, 11);
    let heavy = circuit_for(CircuitClass::ChannelHeavy, 4, 11);
    both(
        "density-noisy-4q",
        BackendKind::DensityMatrix,
        &noisy,
        4,
        3000,
    );
    both(
        "density-heavy-4q",
        BackendKind::DensityMatrix,
        &heavy,
        4,
        3000,
    );
    both("pmps-noisy-4q", PURIFIED, &noisy, 4, 3000);
    both("pmps-heavy-4q", PURIFIED, &heavy, 4, 3000);

    let chain = BackendKind::ChainMps { chi: None };
    both("mps-universal-5q", chain, &universal, 5, 3000);
    both("mps-wide-sparse-24q", chain, &wide_sparse(24), 24, 2000);
    out
}

#[test]
fn sample_parallel_digests_match_the_pinned_constants() {
    let actual = cases();
    let listing: String = actual
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", 0x{d:016x}),\n"))
        .collect();
    let expected: Vec<(String, u64)> = PINNED.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    assert_eq!(
        actual, expected,
        "sample-parallel seeded bits drifted; current digests:\n{listing}"
    );
}
