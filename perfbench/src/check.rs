//! Output verification. Every served output is checked; a wrong one
//! counts as failed and makes the run incorrect.
//!
//! - Histograms: every key's counts sum to the shot count.
//! - On a seeded subset, the histogram bits equal a direct re-run of the
//!   reported plan (the report's `backend` and `path`) with the same seed.
//! - Expectations: within [`EXPECT_TOL`] of an independent reference:
//!   each term evaluated exactly on its backward lightcone by a backend
//!   of another family than the one that served it (channels outside a
//!   term's cone cannot change it), with single-qubit channels that end
//!   a qubit's history folded in in closed form.

use crate::drive::{Kept, Served};
use crate::gen::{Ask, Req};
use bgls_backend::{BackendKind, SimulatorExt};
use bgls_circuit::{Channel, Circuit, OpKind, Operation, PauliOp, PauliString, PauliSum, Qubit};
use bgls_core::{SimError, Simulator, SimulatorOptions};
use bgls_linalg::Matrix;
use bgls_plan::{plan_prepared, prepare, Deliverable, PlannerConfig};

/// Absolute tolerance on expectation values.
pub const EXPECT_TOL: f64 = 1e-9;

/// Histograms re-run directly: about one in this many, chosen by seed.
pub const RERUN_STRIDE: u64 = 16;
/// At most this many direct re-runs per phase, so checking stays cheap.
pub const RERUN_CAP: usize = 48;

/// Whether request `index` of a run seeded `seed` is in the re-run subset.
pub fn rerun_selected(seed: u64, index: u64) -> bool {
    let mut z = seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)).is_multiple_of(RERUN_STRIDE)
}

/// Whether a served output is settled by its count checks alone: a
/// histogram outside the re-run subset whose counts are right. Anything
/// else is kept for [`check`] after the measured loop.
pub fn passes_without_reference(req: &Req, report: &Served) -> bool {
    match (&req.ask, &report.kept) {
        (
            Ask::Histogram { shots, .. },
            Kept::Hist {
                repetitions,
                keys,
                bad_total: None,
                full: None,
            },
        ) => *keys > 0 && repetitions == shots,
        _ => false,
    }
}

/// Checks one served output; a histogram kept whole is also re-run.
pub fn check(req: &Req, report: &Served) -> Result<(), String> {
    match (&req.ask, &report.kept) {
        (
            Ask::Histogram { shots, seed },
            Kept::Hist {
                repetitions,
                keys,
                bad_total,
                full,
            },
        ) => {
            if *keys == 0 || repetitions != shots {
                return Err(format!(
                    "{}: {repetitions} repetitions under {keys} keys, asked {shots}",
                    req.class
                ));
            }
            if let Some((key, total)) = bad_total {
                return Err(format!(
                    "{}: key {key} counts sum to {total}, asked {shots}",
                    req.class
                ));
            }
            if let Some(result) = full {
                let direct = rerun_reported(req, report, *shots, *seed)
                    .map_err(|e| format!("{}: direct re-run failed: {e}", req.class))?;
                for key in result.keys() {
                    let served = result.histogram(key).map(|h| h.iter_sorted());
                    let again = direct.histogram(key).map(|h| h.iter_sorted());
                    if served != again {
                        return Err(format!(
                            "{}: key {key} differs from a direct re-run of {} / {} at seed {seed}",
                            req.class,
                            report.backend.name(),
                            report.path
                        ));
                    }
                }
            }
            Ok(())
        }
        (Ask::Expectation(obs), Kept::Value(value)) => {
            let reference =
                lightcone_reference(&req.circuit, obs, reference_backend(report.backend))
                    .map_err(|e| format!("{}: reference failed: {e}", req.class))?;
            if (value - reference).abs() > EXPECT_TOL {
                return Err(format!(
                    "{}: served {value} vs reference {reference} (|diff| {:e})",
                    req.class,
                    (value - reference).abs()
                ));
            }
            Ok(())
        }
        _ => Err(format!("{}: served the wrong kind of output", req.class)),
    }
}

/// Re-runs a histogram request directly on the plan the report names:
/// the static plan, re-targeted to the reported backend when the
/// service's cost model routed it elsewhere on the same path.
fn rerun_reported(
    req: &Req,
    report: &Served,
    shots: u64,
    seed: u64,
) -> Result<bgls_core::RunResult, SimError> {
    let config = PlannerConfig::default();
    let prep = prepare(&req.circuit, &config);
    let deliverable = Deliverable::Histogram { repetitions: shots };
    let mut plan = plan_prepared(&prep, &deliverable, &config, None)?;
    if plan.path != report.path {
        return Err(SimError::Invalid(format!(
            "served path {} but the static plan takes {}",
            report.path, plan.path
        )));
    }
    plan.backend = report.backend;
    plan.run(shots, Some(seed))
}

/// `<obs>` on the circuit's output, evaluated one term at a time on
/// the term's backward lightcone with the `reference` backend.
///
/// Single-qubit channels that end a qubit's history (no later operation
/// touches it) are folded in exactly, in closed form: such a channel
/// maps a Pauli `P` on its qubit to `lambda_P P`, with `lambda_P` read
/// off its Kraus operators, so each term is scaled by the product of
/// the `lambda`s on its support. Channels elsewhere stay in the cone.
pub fn lightcone_reference(
    circuit: &Circuit,
    obs: &PauliSum,
    reference: BackendKind,
) -> Result<f64, SimError> {
    let (body, trailing) = split_trailing_channels(circuit);
    let mut total = 0.0;
    for (coeff, string) in obs.terms() {
        if coeff.im.abs() > 1e-15 {
            return Err(SimError::Invalid("non-Hermitian observable".into()));
        }
        let support = string.support();
        if support.is_empty() {
            total += coeff.re;
            continue;
        }
        let mut factor = 1.0;
        for (q, op) in string.iter() {
            for channel in trailing.iter().filter(|(tq, _)| *tq == q).map(|(_, c)| c) {
                factor *= pauli_transfer(channel, op)?;
            }
        }
        let (cone, qubits) = backward_cone(&body, &support);
        let index = |q: usize| qubits.binary_search(&q).expect("cone covers its seeds");
        let local = PauliString::from_ops(string.iter().map(|(q, op)| (index(q), op)))
            .map_err(|e| SimError::Invalid(e.to_string()))?;
        let sim = Simulator::for_backend(reference, qubits.len(), SimulatorOptions::default());
        let value = sim.expectation_value(
            &cone,
            &PauliSum::from_terms([(bgls_linalg::C64::real(1.0), local)]),
        )?;
        total += coeff.re * factor * value;
    }
    Ok(total)
}

/// The circuit without its trailing single-qubit channels, and those
/// channels with their qubits.
fn split_trailing_channels(circuit: &Circuit) -> (Circuit, Vec<(usize, Channel)>) {
    let ops: Vec<&Operation> = circuit.all_operations().collect();
    let mut touched_later: Vec<usize> = Vec::new();
    let mut body_rev: Vec<&Operation> = Vec::new();
    let mut trailing = Vec::new();
    for op in ops.into_iter().rev() {
        let support: Vec<usize> = op.support().iter().map(|q| q.index()).collect();
        if let OpKind::Channel(c) = &op.kind {
            if support.len() == 1 && !touched_later.contains(&support[0]) {
                trailing.push((support[0], (**c).clone()));
                continue;
            }
        }
        touched_later.extend(support);
        body_rev.push(op);
    }
    (
        Circuit::from_ops(body_rev.into_iter().rev().cloned()),
        trailing,
    )
}

/// `lambda` with `sum_i K_i^dag P K_i = lambda P` for a single-qubit
/// channel; an error when the channel does not act on `P` that way.
fn pauli_transfer(channel: &Channel, op: PauliOp) -> Result<f64, SimError> {
    let p = op.matrix();
    let mut image = Matrix::zeros(2, 2);
    for k in channel.kraus() {
        let term = k.dagger().matmul(&p).matmul(k);
        for (a, b) in image.data_mut().iter_mut().zip(term.data()) {
            *a += *b;
        }
    }
    let lambda = 0.5 * p.matmul(&image).trace().re;
    if !image.approx_eq(&p.scale(bgls_linalg::C64::real(lambda)), 1e-12) {
        return Err(SimError::Unsupported(format!(
            "channel {} is not Pauli-diagonal on {op:?}",
            channel.name()
        )));
    }
    Ok(lambda)
}

/// The backend the reference runs on: never the family that served.
pub fn reference_backend(served: BackendKind) -> BackendKind {
    match served {
        BackendKind::StateVector => BackendKind::ChainMps { chi: None },
        _ => BackendKind::StateVector,
    }
}

/// The operations that can influence `seeds`, relabelled onto
/// `0..width`, and the sorted original qubits that label maps from.
fn backward_cone(circuit: &Circuit, seeds: &[usize]) -> (Circuit, Vec<usize>) {
    let mut live: Vec<usize> = seeds.to_vec();
    let mut kept: Vec<&Operation> = Vec::new();
    let ops: Vec<&Operation> = circuit.all_operations().collect();
    for op in ops.into_iter().rev() {
        if op.is_measurement() {
            continue;
        }
        let support: Vec<usize> = op.support().iter().map(|q| q.index()).collect();
        if support.iter().any(|q| live.contains(q)) {
            for q in support {
                if !live.contains(&q) {
                    live.push(q);
                }
            }
            kept.push(op);
        }
    }
    live.sort_unstable();
    let map = |q: &Qubit| Qubit(live.binary_search(&q.index()).expect("live qubit") as u32);
    let cone = Circuit::from_ops(kept.into_iter().rev().map(|op| {
        let qubits: Vec<Qubit> = op.support().iter().map(map).collect();
        match &op.kind {
            OpKind::Gate(g) => Operation::gate(g.clone(), qubits),
            OpKind::Channel(c) => Operation::channel((**c).clone(), qubits),
            OpKind::Measure { .. } => unreachable!("measurements were skipped"),
        }
        .expect("relabelled operation stays valid")
    }));
    (cone, live)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{brickwork, zz_chain};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn density_value(circuit: &Circuit, obs: &PauliSum, n: usize) -> f64 {
        Simulator::for_backend(BackendKind::DensityMatrix, n, SimulatorOptions::default())
            .expectation_value(circuit, obs)
            .expect("exact walk")
    }

    #[test]
    fn lightcone_reference_matches_the_full_density_matrix() {
        let circuit = brickwork(6, 3, &mut StdRng::seed_from_u64(4));
        let obs = zz_chain(6);
        let full = density_value(&circuit, &obs, 6);
        for backend in [
            BackendKind::StateVector,
            BackendKind::ChainMps { chi: None },
        ] {
            let cone = lightcone_reference(&circuit, &obs, backend).expect("cone walk");
            assert!((full - cone).abs() < 1e-12, "{backend:?}: {full} vs {cone}");
        }
    }

    #[test]
    fn trailing_depolarizing_is_folded_in_exactly() {
        let mut circuit = brickwork(5, 3, &mut StdRng::seed_from_u64(9));
        // a channel inside the circuit stays in the cone
        circuit.push(Operation::channel(Channel::bit_flip(0.1).unwrap(), vec![Qubit(2)]).unwrap());
        circuit.push(Operation::gate(bgls_circuit::Gate::H, vec![Qubit(2)]).unwrap());
        for q in 0..5 {
            let ch = Channel::depolarizing(0.05).unwrap();
            circuit.push(Operation::channel(ch, vec![Qubit(q)]).unwrap());
        }
        let obs = zz_chain(5);
        let full = density_value(&circuit, &obs, 5);
        let cone =
            lightcone_reference(&circuit, &obs, BackendKind::StateVector).expect("cone walk");
        assert!((full - cone).abs() < 1e-12, "{full} vs {cone}");
    }
}
