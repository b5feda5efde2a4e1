//! Seeded request generator for the four workloads.
//!
//! Every circuit is built here, from the workload seed alone, so the
//! program under test only ever sees generated inputs. The generators
//! are deliberately local to the benchmark: a later change to a circuit
//! helper inside the library cannot silently change the workload.

use bgls_circuit::{Channel, Circuit, Gate, Operation, PauliString, PauliSum, Qubit};
use bgls_linalg::C64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Every workload the generator makes. `BENCHMARK.json` lists
/// `dense_sweep` and `noisy_forest`; the others run by hand with the
/// same command (see `targets.json`).
pub const WORKLOADS: [&str; 5] = [
    "small_fresh",
    "dense_sweep",
    "noisy_expect",
    "noisy_forest",
    "hot_repeat",
];

/// What a request asks the service for.
#[derive(Clone, Debug)]
pub enum Ask {
    /// A seeded histogram of `shots` repetitions.
    Histogram { shots: u64, seed: u64 },
    /// An exact expectation value.
    Expectation(PauliSum),
}

/// One generated request.
#[derive(Clone, Debug)]
pub struct Req {
    /// Circuit class, e.g. `brick8`; names the routing rule it exercises.
    pub class: &'static str,
    pub circuit: Circuit,
    pub ask: Ask,
}

impl Req {
    /// The service request for this input.
    pub fn to_sim_request(&self) -> bgls_plan::SimRequest {
        match &self.ask {
            Ask::Histogram { shots, seed } => {
                bgls_plan::SimRequest::histogram(self.circuit.clone(), *shots).with_seed(*seed)
            }
            Ask::Expectation(obs) => {
                bgls_plan::SimRequest::expectation(self.circuit.clone(), obs.clone())
            }
        }
    }
}

/// Shots of every `small_fresh` request.
pub const SMALL_SHOTS: u64 = 100;
/// Shots of every `dense_sweep` and `hot_repeat` request.
pub const DENSE_SHOTS: u64 = 1000;
/// Shots of the forest histogram class (`noisy_expect`, `noisy_forest`).
pub const FOREST_SHOTS: u64 = 500;
/// Brickwork layers of the `dense_sweep` circuits.
pub const DENSE_LAYERS: u32 = 4;
/// Fixed circuits `dense_sweep` draws from, and the seed they are drawn
/// with.
pub const DENSE_POOL: usize = 4;
const DENSE_POOL_SEED: u64 = 0xd15e;
/// Hot seeds `hot_repeat` cycles over.
pub const HOT_SEEDS: usize = 2;

/// A deterministic request stream for one workload and seed.
pub struct Stream {
    workload: &'static str,
    rng: StdRng,
    next: u64,
    /// `dense_sweep`'s fixed pool, or `hot_repeat`'s distinct requests.
    fixed: Vec<Arc<Req>>,
}

impl Stream {
    /// The stream of `workload` under `seed`; `None` for an unknown name.
    pub fn new(workload: &str, seed: u64) -> Option<Stream> {
        let workload = *WORKLOADS.iter().find(|w| **w == workload)?;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut pool_rng = StdRng::seed_from_u64(DENSE_POOL_SEED);
        let fixed = match workload {
            // The same circuits under every seed: the result cache holds
            // about 1000 of their histograms, whose sizes follow how widely
            // each circuit spreads its output, so circuits drawn per seed
            // made the heap peak follow the seed (31.6-42.6 MB over five).
            "dense_sweep" => (0..DENSE_POOL)
                .map(|_| {
                    Arc::new(Req {
                        class: "dense16",
                        circuit: measured(brickwork(16, DENSE_LAYERS, &mut pool_rng), 16),
                        ask: Ask::Histogram {
                            shots: DENSE_SHOTS,
                            seed: 0,
                        },
                    })
                })
                .collect(),
            "hot_repeat" => {
                let seeds: Vec<u64> = (0..HOT_SEEDS)
                    .map(|_| rng.gen_range(0..1u64 << 48))
                    .collect();
                let mut out = Vec::new();
                for seed in seeds {
                    for (class, circuit) in hot_mix() {
                        out.push(Arc::new(Req {
                            class,
                            circuit,
                            ask: Ask::Histogram {
                                shots: DENSE_SHOTS,
                                seed,
                            },
                        }));
                    }
                }
                out
            }
            _ => Vec::new(),
        };
        Some(Stream {
            workload,
            rng,
            next: 0,
            fixed,
        })
    }

    /// The requests that warm the service before measuring: one of each
    /// class (`small_fresh`, `noisy_expect`, `noisy_forest`), every pool
    /// circuit (`dense_sweep`, filling the prep memo), or every distinct
    /// request (`hot_repeat`, filling the result cache as well). Drawn from a
    /// separate generator so the measured stream does not depend on how
    /// often set-up runs.
    pub fn warmup(&self, round: u64) -> Vec<Arc<Req>> {
        match self.workload {
            "dense_sweep" => {
                let mut rng = StdRng::seed_from_u64(round ^ 0x5151);
                self.fixed
                    .iter()
                    .map(|r| with_seed(r, rng.gen_range(0..1u64 << 48)))
                    .collect()
            }
            "hot_repeat" => self.fixed.clone(),
            _ => {
                let mut rng = StdRng::seed_from_u64(round ^ 0xa11c_e5ed);
                let classes = classes_of(self.workload);
                (0..classes as u64)
                    .map(|i| Arc::new(fresh(self.workload, i, &mut rng)))
                    .collect()
            }
        }
    }

    /// The next measured request.
    pub fn next_req(&mut self) -> Arc<Req> {
        let i = self.next;
        self.next += 1;
        match self.workload {
            "dense_sweep" => {
                let seed = self.rng.gen_range(0..1u64 << 48);
                with_seed(&self.fixed[i as usize % self.fixed.len()], seed)
            }
            "hot_repeat" => Arc::clone(&self.fixed[i as usize % self.fixed.len()]),
            w => Arc::new(fresh(w, i, &mut self.rng)),
        }
    }
}

/// Interleaved classes of a fresh workload.
fn classes_of(workload: &str) -> usize {
    match workload {
        "small_fresh" => 4,
        "noisy_expect" => 3,
        // noisy_forest is noisy_expect's forest class alone
        _ => 1,
    }
}

fn with_seed(req: &Req, seed: u64) -> Arc<Req> {
    let shots = match req.ask {
        Ask::Histogram { shots, .. } => shots,
        Ask::Expectation(_) => unreachable!("pooled requests are histograms"),
    };
    Arc::new(Req {
        class: req.class,
        circuit: req.circuit.clone(),
        ask: Ask::Histogram { shots, seed },
    })
}

/// Request `i` of a fresh-circuit workload: classes round-robin, each
/// request a new circuit.
fn fresh(workload: &str, i: u64, rng: &mut StdRng) -> Req {
    let seed = rng.gen_range(0..1u64 << 48);
    let mut crng = StdRng::seed_from_u64(seed);
    let hist = |class, circuit, shots| Req {
        class,
        circuit,
        ask: Ask::Histogram { shots, seed },
    };
    match (workload, i % classes_of(workload) as u64) {
        ("small_fresh", 0) => hist(
            "brick8",
            measured(brickwork(8, 6, &mut crng), 8),
            SMALL_SHOTS,
        ),
        ("small_fresh", 1) => hist(
            "clifford10",
            measured(clifford(10, 3, &mut crng), 10),
            SMALL_SHOTS,
        ),
        ("small_fresh", 2) => hist(
            "noisy8",
            measured(noisy_brickwork(8, 3, &mut crng), 8),
            SMALL_SHOTS,
        ),
        ("small_fresh", _) => hist("midclifford10", mid_clifford(10, 3, &mut crng), SMALL_SHOTS),
        ("noisy_expect" | "noisy_forest", 0) => hist(
            "forest14",
            measured(sparse_noise_brickwork(14, 4, 4, &mut crng), 14),
            FOREST_SHOTS,
        ),
        ("noisy_expect", 1) => Req {
            class: "pmps20",
            circuit: depolarized_brickwork(20, 4, 0.02, &mut crng),
            ask: Ask::Expectation(zz_chain(20)),
        },
        _ => Req {
            class: "svexpect14",
            circuit: brickwork(14, 4, &mut crng),
            ask: Ask::Expectation(zz_chain(14)),
        },
    }
}

/// Terminal measurement of qubits `0..n` under key `m`.
fn measured(mut c: Circuit, n: u32) -> Circuit {
    c.push(Operation::measure((0..n).map(Qubit).collect::<Vec<_>>(), "m").expect("measure"));
    c
}

fn gate(c: &mut Circuit, g: Gate, qs: &[u32]) {
    c.push(Operation::gate(g, qs.iter().map(|&q| Qubit(q)).collect::<Vec<_>>()).expect("gate"));
}

/// Brickwork: each layer applies a random gate from `{sqrt(X), T, H, S}`
/// to every qubit, then nearest-neighbour CZ bricks at alternating
/// offsets.
pub fn brickwork(n: u32, layers: u32, rng: &mut StdRng) -> Circuit {
    let mut c = Circuit::new();
    for layer in 0..layers {
        brick_layer(&mut c, n, layer, rng);
    }
    c
}

fn brick_layer(c: &mut Circuit, n: u32, layer: u32, rng: &mut StdRng) {
    const ONE_Q: [Gate; 4] = [Gate::SqrtX, Gate::T, Gate::H, Gate::S];
    for q in 0..n {
        gate(c, ONE_Q[rng.gen_range(0..ONE_Q.len())].clone(), &[q]);
    }
    let mut q = layer % 2;
    while q + 1 < n {
        gate(c, Gate::Cz, &[q, q + 1]);
        q += 2;
    }
}

/// Brickwork with a bit-flip on one random qubit after every layer.
fn noisy_brickwork(n: u32, layers: u32, rng: &mut StdRng) -> Circuit {
    let mut c = Circuit::new();
    for layer in 0..layers {
        brick_layer(&mut c, n, layer, rng);
        let q = rng.gen_range(0..n);
        channel(&mut c, Channel::bit_flip(0.05), q);
    }
    c
}

/// Brickwork with `flips` bit-flip channels after random layers.
fn sparse_noise_brickwork(n: u32, layers: u32, flips: u32, rng: &mut StdRng) -> Circuit {
    let mut after: Vec<u32> = (0..flips).map(|_| rng.gen_range(0..layers)).collect();
    after.sort_unstable();
    let mut c = Circuit::new();
    for layer in 0..layers {
        brick_layer(&mut c, n, layer, rng);
        for _ in after.iter().filter(|&&l| l == layer) {
            let q = rng.gen_range(0..n);
            channel(&mut c, Channel::bit_flip(0.05), q);
        }
    }
    c
}

/// Brickwork followed by a depolarizing channel on every qubit.
fn depolarized_brickwork(n: u32, layers: u32, p: f64, rng: &mut StdRng) -> Circuit {
    let mut c = brickwork(n, layers, rng);
    for q in 0..n {
        channel(&mut c, Channel::depolarizing(p), q);
    }
    c
}

fn channel(c: &mut Circuit, ch: Result<Channel, bgls_circuit::CircuitError>, q: u32) {
    c.push(Operation::channel(ch.expect("valid channel"), vec![Qubit(q)]).expect("channel"));
}

/// Random Clifford circuit: per layer a random gate from
/// `{H, S, Sdg, X, Z}` on every qubit, then CNOTs on a random pairing.
fn clifford(n: u32, layers: u32, rng: &mut StdRng) -> Circuit {
    let mut c = Circuit::new();
    for _ in 0..layers {
        clifford_layer(&mut c, n, rng);
    }
    c
}

fn clifford_layer(c: &mut Circuit, n: u32, rng: &mut StdRng) {
    const ONE_Q: [Gate; 5] = [Gate::H, Gate::S, Gate::Sdg, Gate::X, Gate::Z];
    for q in 0..n {
        gate(c, ONE_Q[rng.gen_range(0..ONE_Q.len())].clone(), &[q]);
    }
    let mut order: Vec<u32> = (0..n).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    for pair in order.chunks_exact(2) {
        if rng.gen_bool(0.7) {
            gate(c, Gate::Cnot, &[pair[0], pair[1]]);
        }
    }
}

/// Random Clifford circuit with a mid-circuit measurement of a random
/// qubit (key `mid`) halfway through; that qubit is acted on again
/// afterwards, so the measurement is not terminal.
fn mid_clifford(n: u32, layers: u32, rng: &mut StdRng) -> Circuit {
    let mut c = Circuit::new();
    for layer in 0..layers {
        clifford_layer(&mut c, n, rng);
        if layer + 1 == layers / 2 {
            let q = rng.gen_range(0..n);
            c.push(Operation::measure(vec![Qubit(q)], "mid").expect("measure"));
            gate(&mut c, Gate::H, &[q]);
        }
    }
    measured(c, n)
}

/// `sum_i Z_i Z_{i+1}` over a chain of `n` qubits (`n - 1` terms).
pub fn zz_chain(n: usize) -> PauliSum {
    PauliSum::from_terms((0..n - 1).map(|i| {
        (
            C64::real(1.0),
            PauliString::z_string(&[i, i + 1]).expect("distinct qubits"),
        )
    }))
}

/// The `service_throughput` hot mix: one circuit per routing rule.
fn hot_mix() -> Vec<(&'static str, Circuit)> {
    vec![
        ("ghz12", ghz(12)),
        ("tladder14", t_ladder(14)),
        ("noisy8", noisy_ghz(8)),
        ("midcircuit10", mid_ghz(10)),
    ]
}

/// Pure Clifford GHZ ladder: routed to the CH form.
fn ghz(n: u32) -> Circuit {
    measured(ghz_body(n), n)
}

fn ghz_body(n: u32) -> Circuit {
    let mut c = Circuit::new();
    gate(&mut c, Gate::H, &[0]);
    for i in 1..n {
        gate(&mut c, Gate::Cnot, &[i - 1, i]);
    }
    c
}

/// T-dusted ladder: unitary non-Clifford, routed dense.
fn t_ladder(n: u32) -> Circuit {
    let mut c = Circuit::new();
    for i in 0..n {
        gate(&mut c, Gate::T, &[i]);
        gate(&mut c, Gate::H, &[i]);
    }
    for i in 1..n {
        gate(&mut c, Gate::Cnot, &[i - 1, i]);
    }
    measured(c, n)
}

/// Narrow noisy GHZ: routed to the density matrix.
fn noisy_ghz(n: u32) -> Circuit {
    let mut c = ghz_body(n);
    for i in 0..n {
        channel(&mut c, Channel::bit_flip(0.02), i);
    }
    measured(c, n)
}

/// Clifford with a mid-circuit measurement: routed to the tableau.
fn mid_ghz(n: u32) -> Circuit {
    let mut c = Circuit::new();
    gate(&mut c, Gate::H, &[0]);
    c.push(Operation::measure(vec![Qubit(0)], "early").expect("measure"));
    for i in 1..n {
        gate(&mut c, Gate::Cnot, &[i - 1, i]);
    }
    measured(c, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hashes(workload: &str, seed: u64, n: usize) -> Vec<(u64, String)> {
        let mut s = Stream::new(workload, seed).expect("known workload");
        (0..n)
            .map(|_| {
                let r = s.next_req();
                (r.circuit.structural_hash(), format!("{:?}", r.ask))
            })
            .collect()
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        for w in WORKLOADS {
            assert_eq!(hashes(w, 7, 12), hashes(w, 7, 12), "{w}");
        }
    }

    #[test]
    fn different_seeds_give_different_streams() {
        for w in WORKLOADS {
            assert_ne!(hashes(w, 7, 12), hashes(w, 8, 12), "{w}");
        }
    }

    #[test]
    fn warmup_does_not_shift_the_measured_stream() {
        let s = Stream::new("small_fresh", 3).expect("known workload");
        let warm = s.warmup(0);
        assert_eq!(warm.len(), 4);
        assert_eq!(hashes("small_fresh", 3, 6), {
            let mut s = s;
            (0..6)
                .map(|_| {
                    let r = s.next_req();
                    (r.circuit.structural_hash(), format!("{:?}", r.ask))
                })
                .collect::<Vec<_>>()
        });
    }

    #[test]
    fn fresh_workloads_never_repeat_a_circuit() {
        for w in ["small_fresh", "noisy_expect", "noisy_forest"] {
            let mut seen: Vec<u64> = hashes(w, 1, 24).into_iter().map(|(h, _)| h).collect();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), 24, "{w}");
        }
    }

    #[test]
    fn pooled_workloads_cycle_a_fixed_set() {
        let mut dense: Vec<u64> = hashes("dense_sweep", 1, 16)
            .into_iter()
            .map(|(h, _)| h)
            .collect();
        dense.sort_unstable();
        dense.dedup();
        assert_eq!(dense.len(), DENSE_POOL);
        let mut hot = hashes("hot_repeat", 1, 32);
        hot.sort();
        hot.dedup();
        assert_eq!(hot.len(), 4 * HOT_SEEDS);
    }

    #[test]
    fn unknown_workloads_are_rejected() {
        assert!(Stream::new("nope", 1).is_none());
    }
}
