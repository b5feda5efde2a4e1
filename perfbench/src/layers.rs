//! The traced run (`--trace 1`) and the direct-run probe behind
//! `threads.speedup`.
//!
//! The traced run drives the workload's serving loop in four short legs,
//! plain and with spans recorded around each call, then times calls into
//! each layer's public functions on the workload's first
//! [`PROBE_REQS`] requests (`noisy_expect`'s for `noisy_forest`):
//!
//! - planner: `CircuitProfile::of`, `optimize`, `prepare`, `plan_prepared`;
//! - sampler: `ExecutionPlan::run` / `expectation`, per execution path;
//! - state: the same runs through `Simulator::with_hooks` +
//!   `with_batch_hook`, whose hooks time `BglsState::apply_gate` /
//!   `apply_kraus` and `probabilities_batch`. Hooks turn the trajectory
//!   forest off, so plans on the forest, replay, tableau-collapse and
//!   shot-estimate paths are timed as whole calls only. Every hooked
//!   result must be bit-identical to the untraced direct run;
//! - kernel: `apply_unitaries` at 16 qubits, GEMM and SVD at the MPS
//!   shapes of `noisy_expect`;
//! - threads: the direct runs again in two child processes, at
//!   `RAYON_NUM_THREADS=1` and at the default thread count.

use crate::drive::{self, LoopResult, WINDOW};
use crate::gen::{self, Ask, Req, Stream};
use crate::report::{host_line, in_table_order, Metric, Output, PER_LAYER};
use crate::run::{self, Verdict};
use crate::trace::Tracer;
use crate::{stats, Args};
use bgls_backend::{AnyState, BackendKind};
use bgls_circuit::{optimize, OpKind, Operation};
use bgls_core::{ApplyFn, BatchProbFn, BglsState, ProbFn, RunResult, SimError, Simulator};
use bgls_linalg::{gemm, svd, Matrix, C64};
use bgls_plan::{
    degrade, plan_prepared, prepare, CircuitProfile, Deliverable, ExecPath, ExecutionPlan,
    PlannerConfig, ServiceStats,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Requests of the workload's stream the layer probes run on.
pub const PROBE_REQS: usize = 8;
/// Timed repetitions of each planner call per probe request.
const PLANNER_REPS: usize = 7;
/// Timed repetitions of each direct run per probe request.
const DIRECT_REPS: usize = 3;
/// Probe size of the fallback rungs (replay, shot estimate), which cost
/// far more per shot than the engines they stand in for: shots of a
/// replayed histogram, and shots per group of a grouped-shot estimate.
const FALLBACK_SHOTS: u64 = 32;
const ESTIMATE_SHOTS: u64 = 128;
/// Request ids of probe spans start here, above any serving-loop id;
/// kernel probe spans carry the last id.
const PROBE_ID_BASE: u64 = 1 << 32;
const KERNEL_ID: u64 = u64::MAX;

/// Every execution path, with the metric its direct run time goes to.
const PATH_METRICS: [(ExecPath, &str); 6] = [
    (ExecPath::SampleParallel, "sampler.sample-parallel.run_ms"),
    (ExecPath::Forest, "sampler.forest.run_ms"),
    (ExecPath::Replay, "sampler.replay.run_ms"),
    (ExecPath::TableauCollapse, "sampler.tableau-collapse.run_ms"),
    (ExecPath::ExpectationWalk, "sampler.expectation-walk.run_ms"),
    (ExecPath::ShotEstimate, "sampler.shot-estimate.run_ms"),
];

/// Backend families whose state operations the hooks time, with their
/// apply and probability metrics.
const STATE_METRICS: [(&str, &str, &str); 5] = [
    (
        "statevector",
        "state.statevector.apply_ms",
        "state.statevector.prob_ms",
    ),
    ("density", "state.density.apply_ms", "state.density.prob_ms"),
    ("chform", "state.chform.apply_ms", "state.chform.prob_ms"),
    ("mps", "state.mps.apply_ms", "state.mps.prob_ms"),
    ("pmps", "state.pmps.apply_ms", "state.pmps.prob_ms"),
];

/// A probe request with its static plan.
struct Probe {
    id: u64,
    req: Arc<Req>,
    deliverable: Deliverable,
    plan: ExecutionPlan,
}

/// The output of one direct execution, compared bit for bit.
#[derive(PartialEq, Debug)]
enum Direct {
    Hist(Vec<(String, Vec<(u64, u64)>)>),
    /// `f64::to_bits` of the value.
    Value(u64),
}

fn direct_of(result: &RunResult) -> Direct {
    Direct::Hist(
        result
            .keys()
            .into_iter()
            .map(|k| {
                let h = result.histogram(k).expect("listed key");
                (
                    k.to_string(),
                    h.iter_sorted()
                        .into_iter()
                        .map(|(b, c)| (b.as_u64(), c))
                        .collect(),
                )
            })
            .collect(),
    )
}

fn deliverable_of(req: &Req) -> Deliverable {
    match &req.ask {
        Ask::Histogram { shots, .. } => Deliverable::Histogram {
            repetitions: *shots,
        },
        Ask::Expectation(obs) => Deliverable::Expectation {
            observable: obs.clone(),
        },
    }
}

/// The first [`PROBE_REQS`] requests of the workload, planned statically.
/// `noisy_forest` serves only `noisy_expect`'s forest class, so its
/// probes run on `noisy_expect`'s stream: the expectation walks and the
/// purified-MPS state are timed directly on a listed workload as well.
fn probes(workload: &str, seed: u64) -> Result<Vec<Probe>, String> {
    let source = match workload {
        "noisy_forest" => "noisy_expect",
        w => w,
    };
    let mut stream = Stream::new(source, seed).ok_or("unknown workload")?;
    let config = PlannerConfig::default();
    (0..PROBE_REQS)
        .map(|i| {
            let req = stream.next_req();
            let deliverable = deliverable_of(&req);
            let prep = prepare(&req.circuit, &config);
            let plan = plan_prepared(&prep, &deliverable, &config, None)
                .map_err(|e| format!("{}: planning failed: {e}", req.class))?;
            Ok(Probe {
                id: PROBE_ID_BASE + i as u64,
                req,
                deliverable,
                plan,
            })
        })
        .collect()
}

/// Runs `plan` directly, untraced.
fn run_direct(plan: &ExecutionPlan, req: &Req) -> Result<Direct, SimError> {
    match &req.ask {
        Ask::Histogram { shots, seed } => plan.run(*shots, Some(*seed)).map(|r| direct_of(&r)),
        Ask::Expectation(obs) => {
            if plan.path == ExecPath::ShotEstimate {
                let n = expectation_width(plan, obs);
                plan.simulator(n, Some(1))
                    .estimate_expectation(&plan.circuit, obs, ESTIMATE_SHOTS)
                    .map(|e| Direct::Value(e.value.to_bits()))
            } else {
                plan.expectation(obs).map(|v| Direct::Value(v.to_bits()))
            }
        }
    }
}

fn expectation_width(plan: &ExecutionPlan, obs: &bgls_circuit::PauliSum) -> usize {
    let obs_width = obs
        .terms()
        .iter()
        .filter_map(|(_, p)| p.max_qubit())
        .map(|q| q + 1)
        .max()
        .unwrap_or(0);
    plan.circuit.num_qubits().max(obs_width).max(1)
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Median wall time of `reps` calls of `f`, in milliseconds.
fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            ms_since(t)
        })
        .collect();
    stats::median(&times).expect("at least one repetition")
}

/// `--probe-direct`: the direct runs alone, repeated until `--seconds`
/// pass (at least [`DIRECT_REPS`] rounds); reports the sum over the
/// probe requests of each one's median time. Run in a child process so
/// `RAYON_NUM_THREADS` takes effect.
pub fn probe_direct(args: &Args) -> Result<Output, String> {
    let probes = probes(&args.workload, args.seed)?;
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); probes.len()];
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < DIRECT_REPS || started.elapsed().as_secs_f64() < args.seconds {
        for (p, t) in probes.iter().zip(times.iter_mut()) {
            let t0 = Instant::now();
            black_box(run_direct(&p.plan, &p.req).map_err(|e| e.to_string())?);
            t.push(ms_since(t0));
        }
        rounds += 1;
    }
    let medians: Vec<f64> = times
        .iter()
        .map(|t| stats::median(t).expect("timed at least once"))
        .collect();
    let mut notes = vec![host_line(&args.workload, args.seed, WINDOW)];
    for (p, m) in probes.iter().zip(&medians) {
        notes.push(format!(
            "# probe {} {} on {} / {}: {m:.3} ms direct",
            p.id - PROBE_ID_BASE,
            p.req.class,
            p.plan.backend.name(),
            p.plan.path
        ));
    }
    let direct_ms: f64 = medians.iter().sum();
    Ok(Output {
        correct: true,
        attempted: (rounds * probes.len()) as u64,
        failed: 0,
        metrics: vec![Metric {
            name: "direct_ms",
            value: direct_ms,
            unit: "ms",
        }],
        notes,
    })
}

/// Runs `--probe-direct` in a child process; `threads` sets
/// `RAYON_NUM_THREADS`, `None` removes it (the shipped default).
fn child_direct_ms(args: &Args, threads: Option<usize>, seconds: f64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args([
        "--workload",
        &args.workload,
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &format!("{seconds}"),
        "--trace",
        "0",
        "--probe-direct",
    ]);
    match threads {
        Some(t) => cmd.env("RAYON_NUM_THREADS", t.to_string()),
        None => cmd.env_remove("RAYON_NUM_THREADS"),
    };
    // `output` waits for the child to exit
    let out = cmd.output().map_err(|e| format!("probe child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "probe child failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let last = stdout.lines().last().unwrap_or_default();
    let tail = last
        .split("\"direct_ms\": {\"value\": ")
        .nth(1)
        .ok_or_else(|| format!("probe child printed no direct_ms: {last}"))?;
    tail.split(',')
        .next()
        .and_then(|v| v.trim().parse::<f64>().ok())
        .ok_or_else(|| format!("unreadable direct_ms in {last}"))
}

/// Interval recorder shared by the hooks (they may run on several
/// threads at once).
struct HookLog {
    origin: Instant,
    apply_calls: AtomicU64,
    candidates: AtomicU64,
    /// `(is_prob, start_ns, end_ns)` per hook call.
    spans: Mutex<Vec<(bool, u64, u64)>>,
}

impl HookLog {
    fn new() -> Arc<Self> {
        Arc::new(HookLog {
            origin: Instant::now(),
            apply_calls: AtomicU64::new(0),
            candidates: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn record(&self, is_prob: bool, start: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = (is_prob, ns(start), ns(Instant::now()));
        self.spans.lock().expect("hook log poisoned").push(span);
    }
}

/// The plan's simulator with timing hooks that do exactly what the
/// default hooks do.
fn hooked_simulator(
    plan: &ExecutionPlan,
    n: usize,
    seed: Option<u64>,
    log: &Arc<HookLog>,
) -> Simulator<AnyState> {
    let l = Arc::clone(log);
    let apply: ApplyFn<AnyState> = Arc::new(move |state: &mut AnyState, op: &Operation, rng| {
        let t = Instant::now();
        let qs: Vec<usize> = op.support().iter().map(|q| q.index()).collect();
        let result = match &op.kind {
            OpKind::Gate(g) => state.apply_gate(g, &qs),
            OpKind::Channel(c) => state.apply_kraus(c, &qs, rng).map(|_| ()),
            OpKind::Measure { .. } => Ok(()),
        };
        l.apply_calls.fetch_add(1, Ordering::Relaxed);
        l.record(false, t);
        result
    });
    let l = Arc::clone(log);
    let prob: ProbFn<AnyState> = Arc::new(move |state: &AnyState, bits| {
        let t = Instant::now();
        let p = state.probability(bits);
        l.candidates.fetch_add(1, Ordering::Relaxed);
        l.record(true, t);
        p
    });
    let l = Arc::clone(log);
    let batch: BatchProbFn<AnyState> = Arc::new(move |state: &AnyState, cands| {
        let t = Instant::now();
        let p = state.probabilities_batch(cands);
        l.candidates
            .fetch_add(cands.len() as u64, Ordering::Relaxed);
        l.record(true, t);
        p
    });
    let mut options = plan.options.clone();
    options.seed = seed;
    Simulator::with_hooks(AnyState::zero(plan.backend, n.max(1)), apply, prob, false)
        .with_batch_hook(batch)
        .with_options(options)
}

/// Whether the hooks can run a plan without changing its engine.
fn hookable(plan: &ExecutionPlan) -> bool {
    matches!(
        plan.path,
        ExecPath::SampleParallel | ExecPath::ExpectationWalk
    )
}

/// Total length of the union of `[start, end)` intervals.
fn union_ns(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// One hooked run's measurements.
struct Hooked {
    run_ms: f64,
    /// Union of the hook intervals (what the sampler's self time excludes).
    hooks_ms: f64,
    /// Union of the apply-hook intervals alone, and of the probability ones.
    apply_ms: f64,
    prob_ms: f64,
    state_ops: u64,
    candidates: u64,
    output: Direct,
}

fn run_hooked(p: &Probe, root: Option<usize>, tracer: &mut Tracer) -> Result<Hooked, SimError> {
    let log = HookLog::new();
    let t0 = Instant::now();
    let output = match &p.req.ask {
        Ask::Histogram { shots, seed } => {
            let sim = hooked_simulator(&p.plan, p.plan.circuit.num_qubits(), Some(*seed), &log);
            direct_of(&sim.run(&p.plan.circuit, *shots)?)
        }
        Ask::Expectation(obs) => {
            let sim = hooked_simulator(&p.plan, expectation_width(&p.plan, obs), None, &log);
            Direct::Value(sim.expectation_value(&p.plan.circuit, obs)?.to_bits())
        }
    };
    let t1 = Instant::now();
    let spans = std::mem::take(&mut *log.spans.lock().expect("hook log poisoned"));
    let parent = tracer.span(p.id, "sampler.run", root, t0, t1);
    let to_instant = |ns: u64| log.origin + std::time::Duration::from_nanos(ns);
    for &(is_prob, s, e) in &spans {
        let name = if is_prob { "state.prob" } else { "state.apply" };
        tracer.span(p.id, name, Some(parent), to_instant(s), to_instant(e));
    }
    let pick = |want: Option<bool>| {
        union_ns(
            spans
                .iter()
                .filter(|(is_prob, _, _)| want.is_none_or(|w| *is_prob == w))
                .map(|&(_, s, e)| (s, e))
                .collect(),
        ) as f64
            / 1e6
    };
    Ok(Hooked {
        run_ms: t1.duration_since(t0).as_secs_f64() * 1e3,
        hooks_ms: pick(None),
        apply_ms: pick(Some(false)),
        prob_ms: pick(Some(true)),
        state_ops: log.apply_calls.load(Ordering::Relaxed),
        candidates: log.candidates.load(Ordering::Relaxed),
        output,
    })
}

/// Family name of a backend, as the `state.<backend>` metrics use it.
fn family(kind: BackendKind) -> &'static str {
    match kind {
        BackendKind::StateVector => "statevector",
        BackendKind::DensityMatrix => "density",
        BackendKind::ChForm => "chform",
        BackendKind::ChainMps { .. } => "mps",
        BackendKind::LazyNetwork => "lazy",
        BackendKind::Tableau => "tableau",
        BackendKind::PurifiedMps { .. } => "pmps",
    }
}

/// Collected per-layer numbers, reported in a fixed order.
struct Layers {
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl Layers {
    fn put(&mut self, name: &str, value: f64) {
        self.metrics.push(Metric::of(PER_LAYER, name, value));
    }
}

fn median_or_zero(v: &[f64]) -> f64 {
    stats::median(v).unwrap_or(0.0)
}

/// Planner and sampler probes; returns bit-identity failures.
fn probe_layers(probes: &[Probe], tracer: &mut Tracer, out: &mut Layers) -> Result<u64, String> {
    let config = PlannerConfig::default();
    let (mut profile, mut opt, mut prep_t, mut route, mut share) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut ops_before, mut ops_after) = (0usize, 0usize);
    let mut path_ms: Vec<Vec<f64>> = vec![Vec::new(); PATH_METRICS.len()];
    let mut self_ms = Vec::new();
    let mut apply_ms: Vec<Vec<f64>> = vec![Vec::new(); STATE_METRICS.len()];
    let mut prob_ms: Vec<Vec<f64>> = vec![Vec::new(); STATE_METRICS.len()];
    let (mut state_ops, mut candidates) = (0u64, 0u64);
    let mut mismatches = 0;
    let mut add_path = |path: ExecPath, ms: f64| {
        let i = PATH_METRICS
            .iter()
            .position(|(p, _)| *p == path)
            .expect("every path listed");
        path_ms[i].push(ms);
    };
    for p in probes {
        let c = &p.req.circuit;
        let root = Some(tracer.open(p.id, "probe", None, Instant::now()));
        let t = Instant::now();
        profile.push(time_ms(PLANNER_REPS, || CircuitProfile::of(c)));
        tracer.span(p.id, "planner.profile", root, t, Instant::now());
        let prep = prepare(c, &config);
        if let Some(cfg) = prep.config {
            let t = Instant::now();
            opt.push(time_ms(PLANNER_REPS, || optimize(c, &cfg)));
            tracer.span(p.id, "optimize", root, t, Instant::now());
        }
        ops_before += prep.rewrite.ops_before;
        ops_after += prep.rewrite.ops_after;
        let t = Instant::now();
        let prepare_ms = time_ms(PLANNER_REPS, || prepare(c, &config));
        tracer.span(p.id, "planner.prepare", root, t, Instant::now());
        let t = Instant::now();
        let route_ms = time_ms(PLANNER_REPS, || {
            plan_prepared(&prep, &p.deliverable, &config, None).map(|plan| plan.path)
        });
        tracer.span(p.id, "planner.route", root, t, Instant::now());
        prep_t.push(prepare_ms);
        route.push(route_ms);

        let mut reference = None;
        let t = Instant::now();
        let run_ms = time_ms(DIRECT_REPS, || {
            let r = run_direct(&p.plan, &p.req);
            if reference.is_none() {
                reference = Some(r);
            }
        });
        tracer.span(p.id, "sampler.direct", root, t, Instant::now());
        let reference = reference
            .expect("timed at least once")
            .map_err(|e| format!("{}: direct run failed: {e}", p.req.class))?;
        add_path(p.plan.path, run_ms);
        share.push((prepare_ms + route_ms) / (prepare_ms + route_ms + run_ms));

        if hookable(&p.plan) {
            let h = run_hooked(p, root, tracer)
                .map_err(|e| format!("{}: hooked run failed: {e}", p.req.class))?;
            if h.output != reference {
                mismatches += 1;
                out.notes.push(format!(
                    "# {} (request {}): hooked output differs from the untraced direct run",
                    p.req.class,
                    p.id - PROBE_ID_BASE
                ));
            }
            self_ms.push(h.run_ms - h.hooks_ms);
            state_ops += h.state_ops;
            candidates += h.candidates;
            let family = family(p.plan.backend);
            if let Some(b) = STATE_METRICS.iter().position(|(f, _, _)| *f == family) {
                apply_ms[b].push(h.apply_ms);
                prob_ms[b].push(h.prob_ms);
            }
        }
        // the fallback rungs of the frontier engines, as the service
        // would degrade to them
        if matches!(p.plan.path, ExecPath::Forest | ExecPath::ExpectationWalk) {
            if let Some(rung) = degrade(&p.plan, &config) {
                let small = match p.req.ask {
                    Ask::Histogram { seed, .. } => Req {
                        ask: Ask::Histogram {
                            shots: FALLBACK_SHOTS,
                            seed,
                        },
                        ..(*p.req).clone()
                    },
                    Ask::Expectation(_) => (*p.req).clone(),
                };
                let t = Instant::now();
                let ms = time_ms(1, || run_direct(&rung, &small));
                tracer.span(p.id, "sampler.degraded", root, t, Instant::now());
                add_path(rung.path, ms);
            }
        }
        if let Some(root) = root {
            tracer.end(root, Instant::now());
        }
    }
    out.put("planner.profile_ms", median_or_zero(&profile));
    out.put("optimize.ms", median_or_zero(&opt));
    out.put("planner.prepare_ms", median_or_zero(&prep_t));
    out.put("planner.route_ms", median_or_zero(&route));
    out.put("planner.share", median_or_zero(&share));
    out.put(
        "optimize.ops_kept_frac",
        ops_after as f64 / ops_before.max(1) as f64,
    );
    out.notes.push(format!(
        "# optimize.ops_kept_frac base: {ops_after} ops kept of {ops_before} over {} probe requests",
        probes.len()
    ));
    for ((_, name), times) in PATH_METRICS.iter().zip(&path_ms) {
        out.put(name, median_or_zero(times));
    }
    out.put("sampler.self_ms", median_or_zero(&self_ms));
    out.put("sampler.state_ops", state_ops as f64);
    out.put("sampler.candidates", candidates as f64);
    for ((_, a, pr), (am, pm)) in STATE_METRICS.iter().zip(apply_ms.iter().zip(&prob_ms)) {
        out.put(a, median_or_zero(am));
        out.put(pr, median_or_zero(pm));
    }
    Ok(mismatches)
}

/// Kernel probes at fixed shapes taken from the workloads.
fn probe_kernels(seed: u64, budget_s: f64, tracer: &mut Tracer, out: &mut Layers) {
    // 16 qubits: one brickwork layer pair of the dense_sweep shape
    let n = 16;
    let layer = gen::brickwork(n, 2, &mut StdRng::seed_from_u64(seed));
    let mats: Vec<(Matrix, Vec<usize>)> = layer
        .all_operations()
        .filter_map(|op| {
            let u = op.as_gate()?.unitary().ok()?;
            Some((u, op.support().iter().map(|q| q.index()).collect()))
        })
        .collect();
    let ops: Vec<(&Matrix, &[usize])> = mats.iter().map(|(m, q)| (m, q.as_slice())).collect();
    let mut amps = vec![C64::ZERO; 1 << n];
    amps[0] = C64::real(1.0);
    let t = Instant::now();
    let per_call_ms = time_until(budget_s / 3.0, || {
        bgls_statevector::apply_unitaries(&mut amps, &ops);
    });
    tracer.span(KERNEL_ID, "kernel.apply_unitaries", None, t, Instant::now());
    // computed bytes: every op reads and writes the whole vector once
    let bytes = (ops.len() * 2 * (1usize << n) * std::mem::size_of::<C64>()) as f64;
    out.put(
        "kernel.apply_unitaries_gbps",
        bytes / (per_call_ms * 1e-3) / 1e9,
    );
    out.notes.push(format!(
        "# kernel.apply_unitaries_gbps is computed, not measured traffic: {} ops x 2 x 2^{n} amplitudes x 16 B = {bytes} B per call, {per_call_ms:.4} ms per call",
        ops.len()
    ));

    // noisy_expect's purified MPS: bond chi from the planner, Kraus leg
    // kappa = 4 (single-qubit depolarizing); the two-site merge is a
    // (2 chi kappa x chi) . (chi x 2 chi kappa) product, split by an SVD
    let chi = pmps_chi(seed);
    let kappa = 4;
    let (m, k) = (2 * chi * kappa, chi);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6e6d);
    let mut rand_c = || {
        use rand::Rng;
        C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
    };
    let a: Vec<C64> = (0..m * k).map(|_| rand_c()).collect();
    let b: Vec<C64> = (0..k * m).map(|_| rand_c()).collect();
    let t = Instant::now();
    let gemm_ms = time_until(budget_s / 3.0, || gemm::matmul(m, k, m, &a, &b));
    tracer.span(KERNEL_ID, "kernel.matmul", None, t, Instant::now());
    let flops = 8.0 * (m * k * m) as f64;
    out.put("kernel.matmul_gflops", flops / (gemm_ms * 1e-3) / 1e9);
    let theta = Matrix::from_fn(m, m, |_, _| rand_c());
    let t = Instant::now();
    let svd_ms = time_until(budget_s / 3.0, || svd(&theta));
    tracer.span(KERNEL_ID, "kernel.svd", None, t, Instant::now());
    out.put("kernel.svd_ms", svd_ms);
    out.notes.push(format!(
        "# kernel shapes: GEMM {m}x{k}x{m} complex (chi {chi}, kappa {kappa}), SVD {m}x{m}"
    ));
}

/// The bond cap the planner gives `noisy_expect`'s purified-MPS class.
fn pmps_chi(seed: u64) -> usize {
    let mut stream = Stream::new("noisy_expect", seed).expect("known workload");
    let config = PlannerConfig::default();
    (0..3)
        .map(|_| stream.next_req())
        .filter(|r| r.class == "pmps20")
        .find_map(|r| {
            let prep = prepare(&r.circuit, &config);
            match plan_prepared(&prep, &deliverable_of(&r), &config, None)
                .ok()?
                .backend
            {
                BackendKind::PurifiedMps { chi, .. } => Some(chi.unwrap_or(16)),
                _ => None,
            }
        })
        .unwrap_or(4)
        .max(1)
}

/// Median per-call time of `f` over batches repeated for `budget_s`.
fn time_until<T>(budget_s: f64, mut f: impl FnMut() -> T) -> f64 {
    let started = Instant::now();
    let mut per_call = Vec::new();
    let mut batch = 1usize;
    while per_call.len() < 5 || started.elapsed().as_secs_f64() < budget_s {
        let t = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        let ms = ms_since(t);
        per_call.push(ms / batch as f64);
        if ms < 1.0 {
            batch *= 2;
        }
    }
    stats::median(&per_call).expect("timed at least five batches")
}

/// Service-layer numbers from the traced serving legs, with each leg's
/// service counters before and after it.
fn service_layers(
    legs: &[LoopResult],
    counters: &[(ServiceStats, ServiceStats)],
    out: &mut Layers,
) {
    let overhead: Vec<f64> = legs
        .iter()
        .flat_map(|l| l.overhead_ms.iter())
        .map(|&v| f64::from(v))
        .collect();
    let submit: Vec<f64> = legs
        .iter()
        .flat_map(|l| l.submit_us.iter())
        .map(|&v| f64::from(v))
        .collect();
    let err: Vec<f64> = legs
        .iter()
        .flat_map(|l| l.cost_err.iter().copied())
        .collect();
    let hits: u64 = legs.iter().map(|l| l.hits).sum();
    let lookups: u64 = legs.iter().map(|l| l.reports).sum();
    let degraded: u64 = legs.iter().map(|l| l.degraded).sum();
    let exec_ms: f64 = legs.iter().map(|l| l.exec_ms).sum();
    let wall_ms: f64 = legs.iter().map(|l| l.wall_s * 1e3).sum();
    let delta =
        |f: fn(&ServiceStats) -> u64| -> u64 { counters.iter().map(|(b, a)| f(a) - f(b)).sum() };
    let batches = delta(|s| s.batches);
    let completed = delta(|s| s.completed + s.failed);
    let simulated = delta(|s| s.simulated_jobs);
    let merged = delta(|s| s.merged_jobs);
    out.put("service.overhead_ms", median_or_zero(&overhead));
    out.put(
        "service.cache_hit_frac",
        hits as f64 / lookups.max(1) as f64,
    );
    out.put("service.cache_hits", hits as f64);
    out.put("service.lookups", lookups as f64);
    out.put(
        "service.jobs_per_batch",
        completed as f64 / batches.max(1) as f64,
    );
    out.put(
        "service.merged_frac",
        merged as f64 / simulated.max(1) as f64,
    );
    out.put(
        "service.degraded_frac",
        degraded as f64 / lookups.max(1) as f64,
    );
    out.put("costmodel.err_frac", median_or_zero(&err));
    out.put("serve.submit_us", median_or_zero(&submit));
    out.put("serve.exec_concurrency", exec_ms / wall_ms);
    out.notes.push(format!(
        "# service bases: {hits} cache hits of {lookups} reports; {completed} jobs settled in {batches} batches; {merged} merged of {simulated} simulated; {} cost-model predictions; {exec_ms:.3} ms executed in {wall_ms:.3} ms wall",
        err.len(),
    ));
}

/// Wall time per finished request over some legs, in milliseconds.
fn ms_per_request(legs: &[LoopResult]) -> f64 {
    let wall: f64 = legs.iter().map(|l| l.wall_s).sum();
    let done: usize = legs.iter().map(|l| l.events.len()).sum();
    wall * 1e3 / done.max(1) as f64
}

/// `--trace 1`: the per-layer metrics.
pub fn traced_run(args: &Args) -> Result<Output, String> {
    let mut tracer = Tracer::new();
    let mut out = Layers {
        metrics: Vec::new(),
        notes: vec![host_line(&args.workload, args.seed, WINDOW)],
    };

    // The serving loop in four legs over the same request sequence,
    // untraced, traced, traced, untraced (the order cancels drift), each
    // on its own freshly warmed handle so no leg sees another's cached
    // results. The service metrics come from the traced legs.
    let leg = args.seconds / 8.0;
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut warm_unresolved = 0;
    let mut service_delta = Vec::new();
    for traced_leg in [false, true, true, false] {
        let mut stream = Stream::new(&args.workload, args.seed).ok_or("unknown workload")?;
        let handle = drive::start();
        warm_unresolved += drive::run_list(&handle, stream.warmup(0)).unresolved;
        let before = handle.stats();
        let tr = traced_leg.then_some(&mut tracer);
        let phase = drive::run_stream(&handle, &mut stream, args.seed, leg, 0, 0, leg, tr);
        if traced_leg {
            service_delta.push((before, handle.stats()));
            traced.push(phase);
        } else {
            plain.push(phase);
        }
        handle.shutdown();
    }
    let mut verdict = Verdict::default();
    for phase in plain.iter().chain(&traced) {
        merge(&mut verdict, run::verify(phase, &args.workload, args.seed));
    }
    service_layers(&traced, &service_delta, &mut out);

    // direct layer probes
    let probes = probes(&args.workload, args.seed)?;
    let mismatches = probe_layers(&probes, &mut tracer, &mut out)?;
    probe_kernels(args.seed, args.seconds / 16.0, &mut tracer, &mut out);

    // threads: direct runs at 1 thread and at the default count
    let t1 = child_direct_ms(args, Some(1), args.seconds / 8.0)?;
    let tdefault = child_direct_ms(args, None, args.seconds / 8.0)?;
    out.put("threads.speedup", t1 / tdefault);
    out.put("threads.t1_ms", t1);
    out.put("threads.tdefault_ms", tdefault);
    out.notes.push(format!(
        "# threads.speedup base: {t1:.3} ms at RAYON_NUM_THREADS=1 / {tdefault:.3} ms at the default count, summed over {} probe requests",
        probes.len()
    ));

    let (a, b) = (ms_per_request(&plain), ms_per_request(&traced));
    out.put("trace.overhead_frac", b / a - 1.0);
    out.notes.push(format!(
        "# trace.overhead_frac base: {b:.4} ms per request traced vs {a:.4} ms untraced"
    ));
    let path = write_trace(&args.workload, &tracer);
    out.notes
        .push(format!("# {} spans written to {path}", tracer.spans.len()));

    let legs = plain.iter().chain(&traced);
    let attempted = legs.clone().map(LoopResult::attempted).sum::<u64>() + probes.len() as u64;
    let unresolved: u64 = legs.clone().map(|l| l.unresolved).sum();
    let refused: u64 = legs.map(|l| l.refused).sum();
    let failed = verdict.errors + verdict.wrong + mismatches + unresolved + refused;
    out.notes
        .extend(verdict.first_problems.iter().map(|p| format!("# {p}")));
    out.notes.push(format!(
        "# traced run: attempted {attempted}, failed {failed} (errors {}, wrong {}, hooked mismatches {mismatches}, unresolved {}), warm-up unresolved {}",
        verdict.errors,
        verdict.wrong,
        unresolved,
        warm_unresolved
    ));
    let metrics = in_table_order(out.metrics, PER_LAYER)?;
    for m in &metrics {
        out.notes
            .push(format!("# {} = {} {}", m.name, m.value, m.unit));
    }
    Ok(Output {
        correct: verdict.wrong == 0 && mismatches == 0,
        attempted,
        failed,
        metrics,
        notes: out.notes,
    })
}

fn merge(into: &mut Verdict, other: Verdict) {
    into.ok += other.ok;
    into.errors += other.errors;
    into.wrong += other.wrong;
    into.reruns += other.reruns;
    into.first_problems.extend(other.first_problems);
}

/// Writes the spans as JSON lines under `perfbench/out/` of the working
/// directory (the benchmark runs from the repository root); returns the
/// path, or why it could not be written.
fn write_trace(workload: &str, tracer: &Tracer) -> String {
    let dir = std::path::Path::new("perfbench").join("out");
    let path = dir.join(format!("trace-{workload}.jsonl"));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_json_lines()));
    match written {
        Ok(()) => path.display().to_string(),
        Err(e) => format!("nowhere ({e})"),
    }
}
