//! Cross-backend conformance battery.
//!
//! One declarative matrix (see `bgls-testkit`): circuit classes down
//! the side, backends across the top, and three assertions at every
//! `(backend, class)` cell the capability matrix claims:
//!
//! 1. **Expectations** agree pairwise to 1e-10 across all claiming
//!    backends — exact values through the expectation frontier, so
//!    channels and mid-circuit measurements contribute their full
//!    mixture with no sampling noise.
//! 2. **Histograms** of seeded sampling runs pass a 5-sigma chi-squared
//!    fit against the exact Born distribution (computed once on the
//!    density matrix through the same frontier).
//! 3. **Digests** of the sampled sequence are bit-identical under a
//!    scalar probability hook and across `RAYON_NUM_THREADS` (the
//!    thread-count half runs in child processes, since the vendored
//!    Rayon pins its pool size per process) — through `run`,
//!    `sample_final_bitstrings` and `run_batch`.
//!
//! On top of the fixed-seed battery, a seeded differential sweep
//! repeats the expectation and chi-squared assertions over generated
//! circuits of every class at several seeds.
//!
//! The battery is the enforcement side of the capability matrix: a
//! backend silently losing a capability fails its cells instead of
//! silently shrinking the suite.

use bgls_suite::apps::chi_squared_fits;
use bgls_suite::circuit::{Circuit, Operation, Qubit};
use bgls_suite::core::{Simulator, SimulatorOptions};
use bgls_suite::{BackendKind, CostModel, SimulatorExt};
use bgls_testkit::{
    backends_under_test, circuit_for, digest_counts, digest_samples, exact_distribution,
    expectation_on, observables_for, run_counts, sample_counts, sample_digest, scalar_batch_hook,
    supports, CircuitClass,
};
use std::process::Command;

/// Battery width: small enough that the exact reference (2^n projector
/// expectations of 2^n terms each) stays cheap, large enough that every
/// backend routes multi-qubit entanglement and swap paths.
const N: usize = 4;
const SEED: u64 = 2024;
const EXPECT_TOL: f64 = 1e-10;
/// Width of the seeded differential sweep.
const SWEEP_N: usize = 4;
/// Frontier headroom for trajectory backends on the channel-heavy
/// class: 8 two-branch channels fork at most 2^8 = 256 leaves.
const FRONTIER: usize = 1 << 12;

fn claiming(class: CircuitClass) -> Vec<BackendKind> {
    backends_under_test()
        .into_iter()
        .filter(|&k| supports(k, class))
        .collect()
}

/// Assertion 1 on one circuit: every observable's exact expectation
/// agrees to [`EXPECT_TOL`] across all claiming backends.
fn assert_expectations_agree(class: CircuitClass, circuit: &Circuit, n: usize, tag: &str) {
    for (oi, obs) in observables_for(n).iter().enumerate() {
        let values: Vec<(BackendKind, f64)> = claiming(class)
            .into_iter()
            .map(|kind| {
                let v = expectation_on(kind, circuit, n, obs, FRONTIER)
                    .unwrap_or_else(|e| panic!("{class}{tag} obs#{oi} on {kind}: {e}"));
                (kind, v)
            })
            .collect();
        for (i, (ka, va)) in values.iter().enumerate() {
            for (kb, vb) in &values[i + 1..] {
                assert!(
                    (va - vb).abs() <= EXPECT_TOL,
                    "{class}{tag} obs#{oi}: {ka} = {va} vs {kb} = {vb}"
                );
            }
        }
    }
}

/// Assertion 2 on one circuit: every claiming backend's histogram of
/// `reps` shots, sampled under `seed`, passes a 5-sigma chi-squared
/// fit against the exact Born distribution `exact`.
fn assert_histograms_fit(
    class: CircuitClass,
    circuit: &Circuit,
    n: usize,
    exact: &[f64],
    (reps, seed): (u64, u64),
    tag: &str,
) {
    for kind in claiming(class) {
        let opts = SimulatorOptions {
            seed: Some(seed),
            max_forest_nodes: FRONTIER,
            ..Default::default()
        };
        let counts = sample_counts(kind, circuit, n, reps, opts)
            .unwrap_or_else(|e| panic!("{class}{tag} on {kind}: {e}"));
        assert!(
            chi_squared_fits(&counts, exact, 5.0),
            "{class}{tag} on {kind}: histogram fails 5-sigma chi-squared vs exact Born"
        );
    }
}

#[test]
fn expectations_agree_pairwise_across_all_claiming_backends() {
    for class in CircuitClass::all() {
        assert_expectations_agree(class, &circuit_for(class, N, SEED), N, "");
    }
}

#[test]
fn sampled_histograms_fit_the_exact_born_distribution() {
    for class in CircuitClass::all() {
        let circuit = circuit_for(class, N, SEED);
        let exact = exact_distribution(&circuit, N);
        assert_histograms_fit(class, &circuit, N, &exact, (4000, 91), "");
    }
}

/// The differential sweep: the two assertions above over generated
/// circuits of every class at seeds 0..8, each seed also seeding the
/// samplers. Classes whose builder ignores the seed (noisy,
/// channel-heavy) repeat one circuit, so its exact checks run once and
/// only the sampling streams vary.
#[test]
fn seeded_differential_sweep_over_generated_circuits() {
    for class in CircuitClass::all() {
        let mut checked: Vec<(Circuit, Vec<f64>)> = Vec::new();
        for seed in 0..8u64 {
            let circuit = circuit_for(class, SWEEP_N, seed);
            let tag = format!(" (seed {seed})");
            let exact = match checked.iter().find(|(c, _)| *c == circuit) {
                Some((_, exact)) => exact.clone(),
                None => {
                    assert_expectations_agree(class, &circuit, SWEEP_N, &tag);
                    let exact = exact_distribution(&circuit, SWEEP_N);
                    checked.push((circuit.clone(), exact.clone()));
                    exact
                }
            };
            assert_histograms_fit(class, &circuit, SWEEP_N, &exact, (2000, seed), &tag);
        }
    }
}

#[test]
fn sampling_digests_are_invariant_under_a_scalar_probability_hook() {
    const REPS: u64 = 2000;
    for class in CircuitClass::all() {
        let circuit = circuit_for(class, N, SEED);
        for kind in claiming(class) {
            let opts = SimulatorOptions {
                seed: Some(57),
                max_forest_nodes: FRONTIER,
                ..Default::default()
            };
            let digest = |sim: Simulator<_>| {
                let counts = run_counts(&sim, &circuit, N, REPS)
                    .unwrap_or_else(|e| panic!("{class} on {kind}: {e}"));
                digest_counts(&counts)
            };
            let reference = digest(Simulator::for_backend(kind, N, opts.clone()));
            // repeat: seed-stability
            assert_eq!(
                digest(Simulator::for_backend(kind, N, opts.clone())),
                reference,
                "{class} on {kind}: digest drifted on a repeat"
            );
            // default hooks keep every engine; only candidate evaluation
            // goes one scalar call at a time
            let scalar = Simulator::for_backend(kind, N, opts).with_batch_hook(scalar_batch_hook());
            assert_eq!(
                digest(scalar),
                reference,
                "{class} on {kind}: digest drifted under the scalar hook"
            );
        }
    }
}

/// Child half of the thread-count protocol: fold every claiming
/// backend's sampled sequence for the named class into one digest under
/// whatever `RAYON_NUM_THREADS` the parent chose.
#[test]
fn conformance_child_emit() {
    let Ok(scenario) = std::env::var("BGLS_CONFORMANCE_CLASS") else {
        return;
    };
    let out = std::env::var("BGLS_CONFORMANCE_OUT").expect("output path set alongside class");
    let class = CircuitClass::all()
        .into_iter()
        .find(|c| c.name() == scenario)
        .unwrap_or_else(|| panic!("unknown class {scenario}"));
    let circuit = circuit_for(class, N, SEED);
    let mut measured = circuit.clone();
    measured.push(Operation::measure(Qubit::range(N), "conf").unwrap());
    let mut digest = 0u64;
    for kind in claiming(class) {
        let opts = SimulatorOptions {
            seed: Some(23),
            max_forest_nodes: FRONTIER,
            ..Default::default()
        };
        let ctx = format!("{class} on {kind}");
        let run = sample_digest(kind, &circuit, N, 1000, opts.clone())
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        let sim = Simulator::for_backend(kind, N, opts);
        let samples = sim
            .sample_final_bitstrings(&circuit, 500)
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        let jobs: Vec<(Circuit, Option<u64>)> =
            (0..3).map(|s| (measured.clone(), Some(s))).collect();
        let batch = sim
            .run_batch(&jobs, 300)
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        for d in [run, digest_samples(&samples)] {
            digest = digest.rotate_left(7) ^ d;
        }
        for result in &batch {
            let h = result.histogram("conf").expect("readout key recorded");
            let counts: Vec<u64> = (0..1u64 << N).map(|v| h.count_value(v)).collect();
            digest = digest.rotate_left(7) ^ digest_counts(&counts);
        }
    }
    std::fs::write(out, format!("{digest:016x}")).expect("write child digest");
}

#[test]
fn sampling_digests_are_bit_identical_across_thread_counts() {
    let exe = std::env::current_exe().expect("test binary path");
    for class in CircuitClass::all() {
        let mut digests: Vec<String> = Vec::new();
        for threads in ["1", "4"] {
            let out = std::env::temp_dir().join(format!(
                "bgls_conformance_digest_{}_{}_{threads}",
                std::process::id(),
                class.name(),
            ));
            let status = Command::new(&exe)
                .args(["--exact", "conformance_child_emit", "--nocapture"])
                .env("RAYON_NUM_THREADS", threads)
                .env("BGLS_CONFORMANCE_CLASS", class.name())
                .env("BGLS_CONFORMANCE_OUT", &out)
                .status()
                .expect("spawn child test process");
            assert!(
                status.success(),
                "{class}: child failed at {threads} threads"
            );
            let digest = std::fs::read_to_string(&out).expect("read child digest");
            let _ = std::fs::remove_file(&out);
            digests.push(digest);
        }
        assert!(
            digests.iter().all(|d| d == &digests[0]),
            "{class}: digests differ across RAYON_NUM_THREADS=1/4: {digests:?}"
        );
    }
}

/// The tentpole's reach claim: an exact noisy-channel expectation at 20
/// qubits, where the density matrix's 4^20 complex amplitudes (~17 TB)
/// cannot be allocated. GHZ(20) with single-qubit depolarizing noise on
/// every qubit has the closed form `<Z^(x20)> = (1 - 4p/3)^20`, so the
/// purified-MPS answer is checked against pencil and paper, not against
/// another simulator.
#[test]
fn purified_mps_serves_wide_noisy_expectations_beyond_the_density_matrix() {
    use bgls_suite::circuit::{Channel, Circuit, Gate, Operation, PauliOp, PauliString, Qubit};
    use bgls_suite::linalg::C64;
    use bgls_suite::plan::CircuitProfile;

    let n = 20;
    let p = 0.1;
    let mut circuit = Circuit::new();
    circuit.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
    for q in 1..n as u32 {
        circuit.push(Operation::gate(Gate::Cnot, vec![Qubit(q - 1), Qubit(q)]).unwrap());
    }
    for q in 0..n as u32 {
        circuit
            .push(Operation::channel(Channel::depolarizing(p).unwrap(), vec![Qubit(q)]).unwrap());
    }
    let mut zn = bgls_suite::circuit::PauliSum::new();
    zn.add_term(
        C64::ONE,
        PauliString::from_ops((0..n).map(|q| (q, PauliOp::Z))).unwrap(),
    );

    let pmps = BackendKind::PurifiedMps {
        chi: None,
        kraus_dim: None,
    };
    let value = expectation_on(pmps, &circuit, n, &zn, 16).expect("purified MPS serves 20 qubits");
    let analytic = (1.0 - 4.0 * p / 3.0).powi(n as i32);
    assert!(
        (value - analytic).abs() < 1e-10,
        "purified MPS {value} vs closed form {analytic}"
    );

    // The cost model agrees this is out of the density matrix's reach:
    // its static units dwarf the purified chain's by many orders of
    // magnitude (4^20 amplitudes vs n * chi^3 * kappa tensor work).
    let profile = CircuitProfile::of(&circuit);
    let dm = CostModel::static_units(&profile, &BackendKind::DensityMatrix);
    let pm = CostModel::static_units(&profile, &pmps);
    assert!(
        dm > 1e6 * pm,
        "density units {dm} must dwarf purified-MPS units {pm}"
    );
}
