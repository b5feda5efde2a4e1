//! The run's result line and the host record printed beside it.

use std::fmt::Write as _;

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The metrics of `--trace 0`, by name with their units, in the order
/// they are printed. `BENCHMARK.json` lists the same (a test checks).
pub const END_TO_END: &[(&str, &str)] = &[
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("live_heap_mb", "MB"),
    ("setup_s", "s"),
];

/// The metrics of `--trace 1`, as [`END_TO_END`].
pub const PER_LAYER: &[(&str, &str)] = &[
    ("planner.profile_ms", "ms"),
    ("optimize.ms", "ms"),
    ("planner.prepare_ms", "ms"),
    ("planner.route_ms", "ms"),
    ("planner.share", "ratio"),
    ("optimize.ops_kept_frac", "ratio"),
    ("service.overhead_ms", "ms"),
    ("service.cache_hit_frac", "ratio"),
    ("service.cache_hits", "count"),
    ("service.lookups", "count"),
    ("service.jobs_per_batch", "count"),
    ("service.merged_frac", "ratio"),
    ("service.degraded_frac", "ratio"),
    ("costmodel.err_frac", "ratio"),
    ("serve.submit_us", "us"),
    ("serve.exec_concurrency", "ratio"),
    ("sampler.sample-parallel.run_ms", "ms"),
    ("sampler.forest.run_ms", "ms"),
    ("sampler.replay.run_ms", "ms"),
    ("sampler.tableau-collapse.run_ms", "ms"),
    ("sampler.expectation-walk.run_ms", "ms"),
    ("sampler.shot-estimate.run_ms", "ms"),
    ("sampler.self_ms", "ms"),
    ("sampler.state_ops", "count"),
    ("sampler.candidates", "count"),
    ("state.statevector.apply_ms", "ms"),
    ("state.statevector.prob_ms", "ms"),
    ("state.density.apply_ms", "ms"),
    ("state.density.prob_ms", "ms"),
    ("state.chform.apply_ms", "ms"),
    ("state.chform.prob_ms", "ms"),
    ("state.mps.apply_ms", "ms"),
    ("state.mps.prob_ms", "ms"),
    ("state.pmps.apply_ms", "ms"),
    ("state.pmps.prob_ms", "ms"),
    ("kernel.apply_unitaries_gbps", "GB/s"),
    ("kernel.matmul_gflops", "GFLOP/s"),
    ("kernel.svd_ms", "ms"),
    ("threads.speedup", "ratio"),
    ("threads.t1_ms", "ms"),
    ("threads.tdefault_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

impl Metric {
    /// The metric `name` of `table`, with the unit the table gives it.
    ///
    /// # Panics
    /// When `table` has no metric `name`.
    pub fn of(table: &'static [(&'static str, &'static str)], name: &str, value: f64) -> Metric {
        let &(name, unit) = table
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a listed metric"));
        Metric { name, value, unit }
    }
}

/// `metrics` in the order of `table`; an error names a metric of
/// `table` that is missing or reported twice.
pub fn in_table_order(
    mut metrics: Vec<Metric>,
    table: &[(&str, &str)],
) -> Result<Vec<Metric>, String> {
    let mut ordered = Vec::with_capacity(table.len());
    for (name, _) in table {
        let Some(i) = metrics.iter().position(|m| m.name == *name) else {
            return Err(format!("metric {name} was not measured"));
        };
        ordered.push(metrics.remove(i));
    }
    match metrics.first() {
        Some(extra) => Err(format!("metric {} was reported twice", extra.name)),
        None => Ok(ordered),
    }
}

/// What a run prints.
pub struct Output {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Lines printed before the result line (host record, bases,
    /// failure details).
    pub notes: Vec<String>,
}

impl Output {
    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn to_json(&self) -> String {
        let mut m = String::new();
        for (i, metric) in self.metrics.iter().enumerate() {
            if i > 0 {
                m.push_str(", ");
            }
            let _ = write!(
                m,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name,
                json_number(metric.value),
                metric.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// A finite number in JSON syntax with every digit Rust prints; JSON
/// has no NaN or infinity, so those become `null`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The host's CPU time so far, all of it and the part other guests of
/// the machine took from this one (`steal`), in clock ticks, summed over
/// CPUs (the first line of `/proc/stat`).
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    (fields.len() == 8).then(|| (fields.iter().sum(), fields[7]))
}

/// The commit the checkout was made from, read from `.git` without
/// running git; `unknown` outside a git work tree.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The host record every output carries: cores, ISA, rayon threads,
/// serving workers, client window, and commit.
pub fn host_line(workload: &str, seed: u64, window: usize) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"host\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"cores\": {cores}, \"isa\": \"{}\", \"rayon_threads\": {}, \"rayon_num_threads_env\": \"{}\", \"workers\": {}, \"window\": {window}, \"commit\": \"{}\"}}}}",
        bgls_linalg::dispatch::active_isa().name(),
        rayon::current_num_threads(),
        std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into()),
        bgls_plan::ServePolicy::default().workers,
        git_commit()
    )
}
