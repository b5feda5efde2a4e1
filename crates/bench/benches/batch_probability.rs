//! Bench: the batched candidate-probability hot path on the paper's
//! sample-parallelized sampler. A 16-qubit, 40-moment random circuit at
//! 10^5 repetitions saturates the multiplicity map, so runtime is
//! dominated by candidate evaluation and redistribution — exactly what
//! the batched hook, the per-entry RNG streams, and gate fusion target.
//!
//! Configurations:
//! * `scalar`  — the baseline path: a `with_hooks` simulator whose
//!   candidate sets loop the per-candidate `compute_probability` hook,
//!   no fusion;
//! * `batched` — `Simulator::new`: `probabilities_batch`;
//! * `batched_fused` — the full hot path, adding the optimizer's
//!   single-qubit merge.
//!
//! Redistribution fans out across Rayon threads on multi-core hosts in
//! every arm. All three produce identically distributed histograms;
//! `scalar` and `batched` are bit-identical under a fixed seed.

use bgls_bench::universal_workload;
use bgls_circuit::{Operation, Qubit};
use bgls_core::{Simulator, SimulatorOptions};
use bgls_statevector::StateVector;
use bgls_testkit::{merge_1q, scalar_simulator};
use criterion::{criterion_group, criterion_main, Criterion};

const QUBITS: usize = 16;
const MOMENTS: usize = 40;
const REPS: u64 = 100_000;

fn bench_batch_probability(c: &mut Criterion) {
    let mut circuit = universal_workload(QUBITS, MOMENTS, 42);
    circuit.push(Operation::measure(Qubit::range(QUBITS), "m").unwrap());
    let mut group = c.benchmark_group("batch_probability");
    group.sample_size(2);
    for (label, batch, fuse) in [
        ("scalar", false, false),
        ("batched", true, false),
        ("batched_fused", true, true),
    ] {
        group.bench_function(label, |b| {
            let state = StateVector::zero(QUBITS);
            let sim = if batch {
                Simulator::new(state)
            } else {
                scalar_simulator(state)
            };
            let sim = sim.with_options(SimulatorOptions {
                seed: Some(7),
                optimize: fuse.then(merge_1q),
                ..Default::default()
            });
            b.iter(|| sim.run(&circuit, REPS).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_batch_probability);
criterion_main!(benches);
