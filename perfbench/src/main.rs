//! Serving benchmark for the BGLS workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <small_fresh|dense_sweep|noisy_expect|noisy_forest|hot_repeat> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` drives the workload through `ServiceHandle` in a closed
//! loop and reports the end-to-end metrics; `--trace 1` runs the same
//! traffic with spans recorded around each layer's public calls and
//! reports the per-layer metrics. Every output is checked. The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod check;
mod drive;
mod gen;
mod heap;
mod layers;
mod report;
mod run;
mod stats;
mod trace;

use std::process::ExitCode;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Internal: time direct plan runs only (the thread-count probe).
    pub probe_direct: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut probe_direct = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| e.to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--probe-direct" => probe_direct = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !gen::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; choose one of {:?}",
            gen::WORKLOADS
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        probe_direct,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.probe_direct {
        layers::probe_direct(&args)
    } else if args.trace {
        layers::traced_run(&args)
    } else {
        run::serving(&args)
    };
    match outcome {
        Ok(out) => {
            for line in &out.notes {
                println!("{line}");
            }
            println!("{}", out.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    //! The metric tables of [`report`] and the workloads of [`gen`],
    //! checked against `BENCHMARK.json` and `targets.json`.

    use crate::report::{END_TO_END, PER_LAYER};

    const BENCHMARK: &str = include_str!("../../BENCHMARK.json");
    const TARGETS: &str = include_str!("../targets.json");

    /// The text of the JSON array that follows `"<section>":`, brackets
    /// inside strings skipped.
    fn array<'a>(text: &'a str, section: &str) -> &'a str {
        let key = format!("\"{section}\"");
        let at = text.find(&key).unwrap_or_else(|| panic!("no {section}"));
        let body = &text[at + key.len()..];
        let open = body.find('[').expect("an array");
        let (mut depth, mut in_string, mut escaped) = (0, false, false);
        for (i, c) in body[open..].char_indices() {
            match c {
                _ if escaped => escaped = false,
                '\\' if in_string => escaped = true,
                '"' => in_string = !in_string,
                '[' if !in_string => depth += 1,
                ']' if !in_string => {
                    depth -= 1;
                    if depth == 0 {
                        return &body[open + 1..open + i];
                    }
                }
                _ => {}
            }
        }
        panic!("{section} does not close");
    }

    /// The string values of `key` in the array `section`, in order.
    fn values(text: &str, section: &str, key: &str) -> Vec<String> {
        let body = array(text, section);
        let needle = format!("\"{key}\":");
        body.match_indices(&needle)
            .map(|(i, _)| {
                let rest = body[i + needle.len()..].trim_start();
                let rest = rest.strip_prefix('"').expect("a string value");
                rest[..rest.find('"').expect("closing quote")].to_string()
            })
            .collect()
    }

    fn table(t: &[(&str, &str)]) -> (Vec<String>, Vec<String>) {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .unzip()
    }

    fn valid(name: &str) -> bool {
        let ok_char = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(ok_char)
    }

    #[test]
    fn every_name_uses_only_allowed_characters() {
        let listed = values(BENCHMARK, "workloads", "name");
        let mut all = table(END_TO_END).0;
        all.extend(table(PER_LAYER).0);
        all.extend(crate::gen::WORKLOADS.iter().map(|w| w.to_string()));
        assert!(all.len() > 10);
        for name in all.iter().chain(&listed) {
            assert!(valid(name), "{name}");
        }
        for names in [all, listed] {
            let mut unique = names.clone();
            unique.sort();
            unique.dedup();
            assert_eq!(unique.len(), names.len(), "a name is used twice");
        }
        assert!(!valid("a b") && !valid("_lead") && !valid("x/y"));
    }

    #[test]
    fn every_listed_workload_is_generated() {
        let listed = values(BENCHMARK, "workloads", "name");
        assert!(listed.len() >= 2);
        for name in &listed {
            assert!(crate::gen::WORKLOADS.contains(&name.as_str()), "{name}");
        }
    }

    #[test]
    fn the_metric_tables_match_benchmark_json() {
        let (names, units) = table(END_TO_END);
        assert_eq!(values(BENCHMARK, "end_to_end", "name"), names);
        assert_eq!(values(BENCHMARK, "end_to_end", "unit"), units);
        let (names, units) = table(PER_LAYER);
        assert_eq!(values(BENCHMARK, "per_layer", "name"), names);
        assert_eq!(values(BENCHMARK, "per_layer", "unit"), units);
    }

    #[test]
    fn every_layer_metric_has_a_target() {
        let (names, _) = table(PER_LAYER);
        assert_eq!(values(TARGETS, "layer_targets", "metric"), names);
    }
}
