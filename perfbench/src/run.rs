//! The untraced serving run: set-up, the measured closed loop, and the
//! verification of every output.

use crate::drive::{self, Deferred, Event, LoopResult, WINDOW};
use crate::gen::Stream;
use crate::report::{
    cpu_ticks, host_line, in_table_order, peak_rss_mb, Metric, Output, END_TO_END,
};
use crate::{check, stats, Args};
use bgls_plan::ServiceHandle;
use std::time::Instant;

/// Set-up rounds per run: `SETUP_BATCHES` batches of `SETUP_BATCH`
/// before the measured phase and as many after it, so that one spell of
/// host noise rarely covers all of them. A single round's time takes one of two
/// values about 25 ms apart (an idle worker's receive timeout lands in
/// it or not), so a median of single rounds jumps between them with the
/// share of slow rounds; a batch's mean moves with that share smoothly.
/// `setup_s` is the median of the mean round times of the
/// [`SETUP_QUIET`] batches in which other guests took the least CPU time
/// (see [`STRETCH_SECONDS`] for why).
pub const SETUP_BATCHES: usize = 5;
pub const SETUP_BATCH: usize = 8;
pub const SETUP_QUIET: usize = 5;

/// A measured phase may run on past `--seconds` to collect enough
/// requests or quiet seconds, but never past this multiple of it. Spells
/// of host noise last up to several minutes; a run that waits out more
/// of one leaves fewer runs measured inside it, and the runs of a whole
/// benchmark pass must fit its time limit.
pub const MAX_OVERRUN: f64 = 3.0;

/// The end-to-end figures are measured over the requests that settled in
/// the whole seconds of the phase in which other guests of the machine
/// took at most [`drive::QUIET_STEAL`] of its CPU time, and in at least
/// this many seconds: the quietest, by the steal counter alone, a choice
/// made without looking at the figures. The host shares its cores, and
/// a tenth of its CPU stolen slows the service by half or more for
/// seconds to minutes at a time, which a whole-phase figure cannot tell
/// from a regression; the phase runs on until it has this many quiet
/// seconds and they hold [`STRETCH_MIN`] settled requests (enough for a
/// p99 with 10 samples beyond it). Should the phase reach its
/// [`MAX_OVERRUN`] first, seconds are added, quietest first, until they
/// hold [`STRETCH_MIN`] requests.
pub const STRETCH_SECONDS: usize = 8;
pub const STRETCH_MIN: usize = 1010;

/// One set-up batch: its mean round time and the share of CPU time
/// other guests took while it ran.
pub struct SetupBatch {
    pub mean_s: f64,
    pub steal: f64,
}

/// Starts the service and warms it `SETUP_BATCHES * SETUP_BATCH` times,
/// with warm-up rounds numbered from `first_round`; returns the last
/// handle, the batches, and the warm-up requests that did not resolve.
pub fn setup(stream: &Stream, first_round: u64) -> (ServiceHandle, Vec<SetupBatch>, u64) {
    let mut batches = Vec::new();
    let mut unresolved = 0;
    let mut kept = None;
    let mut round = first_round;
    for _ in 0..SETUP_BATCHES {
        let ticks = cpu_ticks();
        let mut batch_s = 0.0;
        for _ in 0..SETUP_BATCH {
            let started = Instant::now();
            let handle = drive::start();
            let warm = drive::run_list(&handle, stream.warmup(round));
            batch_s += started.elapsed().as_secs_f64();
            unresolved += warm.unresolved;
            round += 1;
            // the previous handle's shutdown is not part of a set-up
            if let Some(old) = kept.replace(handle) {
                old.shutdown();
            }
        }
        let steal = match (ticks, cpu_ticks()) {
            (Some((t0, s0)), Some((t1, s1))) => (s1 - s0) as f64 / (t1 - t0).max(1) as f64,
            _ => 0.0,
        };
        batches.push(SetupBatch {
            mean_s: batch_s / SETUP_BATCH as f64,
            steal,
        });
    }
    (
        kept.expect("at least one set-up round"),
        batches,
        unresolved,
    )
}

/// `setup_s`: the median mean round time of the [`SETUP_QUIET`] batches
/// with the least steal (the earliest of equals).
pub fn setup_s(batches: &[SetupBatch]) -> Option<f64> {
    let mut order: Vec<&SetupBatch> = batches.iter().collect();
    order.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    let quiet: Vec<f64> = order.iter().take(SETUP_QUIET).map(|b| b.mean_s).collect();
    stats::median(&quiet)
}

/// Outcome of checking a phase's outputs.
#[derive(Default)]
pub struct Verdict {
    pub ok: u64,
    pub errors: u64,
    pub wrong: u64,
    pub reruns: usize,
    pub first_problems: Vec<String>,
}

/// Checks a phase's outputs: those the loop settled by their counts,
/// plus the deferred ones (references and direct re-runs), whose
/// requests are generated again from the stream of `workload` and `seed`
/// that the phase ran.
pub fn verify(phase: &LoopResult, workload: &str, seed: u64) -> Verdict {
    let mut v = Verdict {
        ok: phase.passed,
        errors: phase.errors,
        reruns: phase.kept_full,
        first_problems: phase.error_notes.clone(),
        ..Verdict::default()
    };
    let mut stream = Stream::new(workload, seed).expect("the phase's workload is known");
    let mut generated = 0;
    let mut order: Vec<&Deferred> = phase.deferred.iter().collect();
    order.sort_by_key(|d| d.index);
    for d in order {
        let req = loop {
            let r = stream.next_req();
            generated += 1;
            if generated > d.index {
                break r;
            }
        };
        match check::check(&req, &d.served) {
            Ok(()) => v.ok += 1,
            Err(msg) => {
                v.wrong += 1;
                note(&mut v, format!("request {}: wrong output: {msg}", d.index));
            }
        }
    }
    v
}

fn note(v: &mut Verdict, msg: String) {
    if v.first_problems.len() < 5 {
        v.first_problems.push(msg);
    }
}

/// End-to-end figures over the measured seconds of a phase.
#[derive(Debug, PartialEq)]
pub struct Stretch {
    /// Settled requests in the measured seconds, and how many seconds.
    pub requests: usize,
    pub seconds: f64,
    /// Mean share of CPU time stolen in them.
    pub steal: f64,
    pub jobs_per_s: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
}

/// The figures over the quiet seconds of `steal` (per-second stolen
/// shares of the phase, read through [`drive::guarded`]), at least
/// [`STRETCH_SECONDS`] of them and enough to hold [`STRETCH_MIN`]
/// settled requests, quietest first; over the whole phase of `wall_s`
/// seconds when the host reports no steal. `None` when the phase cannot
/// hold [`STRETCH_MIN`] requests.
pub fn quiet_stretch(events: &[Event], steal: &[f32], wall_s: f64) -> Option<Stretch> {
    if steal.is_empty() {
        return figures(events.iter(), wall_s, 0.0);
    }
    // settled requests per second (the last, partial one has no reading)
    let mut per_second = vec![0usize; steal.len()];
    for e in events {
        if let Some(n) = per_second.get_mut(e.at_s as usize) {
            *n += 1;
        }
    }
    let guarded = drive::guarded(steal);
    let order = drive::quietest_first(&guarded);
    let mut take = drive::quiet_seconds(&guarded)
        .max(STRETCH_SECONDS)
        .min(order.len());
    let held = |k: usize| order[..k].iter().map(|&s| per_second[s]).sum::<usize>();
    while held(take) < STRETCH_MIN && take < order.len() {
        take += 1;
    }
    let mut chosen = vec![false; steal.len()];
    for &s in &order[..take] {
        chosen[s] = true;
    }
    let stolen = order[..take]
        .iter()
        .map(|&s| f64::from(steal[s]))
        .sum::<f64>();
    let measured = events
        .iter()
        .filter(|e| chosen.get(e.at_s as usize).copied().unwrap_or(false));
    figures(measured, take as f64, stolen / take.max(1) as f64)
}

/// Throughput and latency percentiles of `events` over `seconds`.
fn figures<'a>(
    events: impl Iterator<Item = &'a Event>,
    seconds: f64,
    steal: f64,
) -> Option<Stretch> {
    let mut ok = 0;
    let mut latencies = Vec::new();
    for e in events {
        ok += usize::from(e.ok);
        latencies.push(e.latency_ms);
    }
    if latencies.len() < STRETCH_MIN {
        return None;
    }
    Some(Stretch {
        requests: latencies.len(),
        seconds,
        steal,
        jobs_per_s: ok as f64 / seconds,
        p50_ms: stats::percentile(&latencies, 0.5)?,
        p99_ms: stats::percentile(&latencies, 0.99)?,
    })
}

/// `--trace 0`: the end-to-end metrics.
pub fn serving(args: &Args) -> Result<Output, String> {
    let mut stream = Stream::new(&args.workload, args.seed).ok_or("unknown workload")?;
    let (handle, mut setup_batches, mut setup_unresolved) = setup(&stream, 0);
    crate::heap::reset_peak();
    let before = handle.stats();
    let phase = drive::run_stream(
        &handle,
        &mut stream,
        args.seed,
        args.seconds,
        STRETCH_MIN,
        STRETCH_SECONDS,
        args.seconds * MAX_OVERRUN,
        None,
    );
    let heap_max = crate::heap::peak_mb();
    let rss_mb = peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?;
    let never = phase.still_unresolved(&handle);
    let after = handle.stats();
    handle.shutdown();
    let (last, later, unresolved) = setup(&stream, (SETUP_BATCHES * SETUP_BATCH) as u64);
    last.shutdown();
    setup_batches.extend(later);
    setup_unresolved += unresolved;
    let setup_s = setup_s(&setup_batches).expect("at least one set-up batch");
    let v = verify(&phase, &args.workload, args.seed);
    let attempted = phase.attempted();
    let failed = v.errors + v.wrong + phase.unresolved + phase.refused;
    let mut notes = vec![
        host_line(&args.workload, args.seed, WINDOW),
        format!(
            "# set-up batches of {SETUP_BATCH} rounds before and after the phase, (mean round s, steal %): {:?}",
            setup_batches
                .iter()
                .map(|b| (b.mean_s, (b.steal * 1e3).round() / 10.0))
                .collect::<Vec<_>>()
        ),
    ];
    notes.push(format!(
        "# {}: attempted {attempted}, ok {}, errors {}, unresolved {} ({} after the service reported them done, {never} still unresolved at the end), refused {}, wrong {}, direct re-runs {}, wall {:.3} s, warm-up tickets unresolved {setup_unresolved}",
        args.workload,
        v.ok,
        v.errors,
        phase.unresolved,
        phase.lost_after_done,
        phase.refused,
        v.wrong,
        v.reruns,
        phase.wall_s,
    ));
    notes.extend(v.first_problems.iter().map(|p| format!("# {p}")));
    notes.extend(class_lines(&phase));
    let Some(stretch) = quiet_stretch(&phase.events, &phase.steal, phase.wall_s) else {
        for n in &notes {
            eprintln!("{n}");
        }
        return Err(format!(
            "{} settled requests cannot hold a stretch of {STRETCH_MIN}",
            phase.events.len()
        ));
    };
    notes.push(format!(
        "# measured over the quietest seconds: {} of {} settled requests in {} s of {:.3} s, {:.2}% stolen; whole phase {:.3} ok/s",
        stretch.requests,
        phase.events.len(),
        stretch.seconds,
        phase.wall_s,
        stretch.steal * 100.0,
        phase.events.iter().filter(|e| e.ok).count() as f64 / phase.wall_s
    ));
    notes.push(format!(
        "# service during the phase: {} jobs settled in {} batches, {} merged of {} simulated",
        (after.completed + after.failed) - (before.completed + before.failed),
        after.batches - before.batches,
        after.merged_jobs - before.merged_jobs,
        after.simulated_jobs - before.simulated_jobs
    ));
    notes.push(format!(
        "# ok/s per second of the phase: {:?}",
        per_second(&phase.events)
    ));
    notes.push(format!(
        "# host CPU stolen by other guests per second of the phase (%): {:?}; {} quiet seconds",
        phase
            .steal
            .iter()
            .map(|s| (s * 100.0).round() as u32)
            .collect::<Vec<_>>(),
        drive::quiet_seconds(&drive::guarded(&phase.steal))
    ));
    let metrics = in_table_order(
        vec![
            Metric::of(END_TO_END, "jobs_per_s", stretch.jobs_per_s),
            Metric::of(END_TO_END, "latency_p50_ms", stretch.p50_ms),
            Metric::of(END_TO_END, "latency_p99_ms", stretch.p99_ms),
            Metric::of(END_TO_END, "live_heap_mb", phase.heap_mean_mb(args.seconds)),
            Metric::of(END_TO_END, "setup_s", setup_s),
        ],
        END_TO_END,
    )?;
    // printed with the bounded metrics, but not bounded (see targets.json)
    notes.push(format!(
        "# failed_frac = {} ratio ({failed} failed of {attempted} attempted)",
        failed as f64 / attempted.max(1) as f64
    ));
    notes.push(format!(
        "# peak_rss_mb = {rss_mb} MB (VmHWM); live heap peak over the phase {heap_max} MB, {} readings",
        phase.heap_mb.len()
    ));
    for m in &metrics {
        notes.push(format!("# {} = {} {}", m.name, m.value, m.unit));
    }
    Ok(Output {
        correct: v.wrong == 0,
        attempted,
        failed,
        metrics,
        notes,
    })
}

/// Successful requests settled in each whole second of a phase.
fn per_second(events: &[Event]) -> Vec<usize> {
    let mut counts = Vec::new();
    for e in events.iter().filter(|e| e.ok) {
        let s = e.at_s as usize;
        if counts.len() <= s {
            counts.resize(s + 1, 0);
        }
        counts[s] += 1;
    }
    counts
}

/// Per-class request counts, routes and mean latencies.
fn class_lines(phase: &LoopResult) -> Vec<String> {
    phase
        .classes
        .iter()
        .map(|(c, stat)| {
            format!(
                "# class {c}: {} requests on {:?}, mean latency {:.3} ms",
                stat.count,
                stat.routes,
                stat.latency_ms_sum / stat.count.max(1) as f64
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Events settling every `gap_ms` from `from_s` to `to_s`, with
    /// latency `latency_ms`.
    fn events(spells: &[(f64, f64, f64, f64)]) -> Vec<Event> {
        let mut out = Vec::new();
        for &(from_s, to_s, gap_ms, latency_ms) in spells {
            let mut at = from_s + gap_ms / 1e3;
            while at < to_s {
                out.push(Event {
                    at_s: at,
                    latency_ms,
                    ok: true,
                });
                at += gap_ms / 1e3;
            }
        }
        out
    }

    #[test]
    fn the_measured_seconds_are_the_quiet_ones_not_the_fast_ones() {
        // 20 s: a fast spell in seconds 0-8 that steal touched, then
        // quiet seconds at a slower rate
        let e = events(&[(0.0, 8.0, 2.0, 1.0), (8.0, 20.0, 4.0, 3.0)]);
        let mut steal = vec![0.05; 8];
        steal.extend([0.0; 12]);
        let s = quiet_stretch(&e, &steal, 20.0).expect("long enough");
        // second 8 follows a stolen second
        assert_eq!(s.seconds, 11.0);
        assert!((s.jobs_per_s - 250.0).abs() < 1.0, "{s:?}");
        assert!((s.p50_ms - 3.0).abs() < 1e-9 && (s.p99_ms - 3.0).abs() < 1e-9);
        // with too few quiet seconds, the least stolen ones make up the
        // rest, whatever their rate
        steal[3] = 0.04;
        steal[4] = 0.04;
        let short = quiet_stretch(&e[..e.len() - 2000], &steal[..14], 14.0).expect("long enough");
        assert_eq!(short.seconds, STRETCH_SECONDS as f64);
        // five quiet seconds (9-13), then second 4 (4% stolen, and 4% the
        // second before) and seconds 0 and 1 (5%)
        assert!((short.steal - 0.14 / 8.0).abs() < 1e-6, "{short:?}");
    }

    #[test]
    fn the_measured_seconds_hold_at_least_the_p99_minimum() {
        assert!(STRETCH_MIN >= stats::min_samples_for(0.99));
        // 100 requests a second, 4 quiet seconds: 11 seconds are taken
        let e = events(&[(0.0, 30.0, 10.0, 1.0)]);
        let mut steal = vec![0.1; 30];
        steal[..4].fill(0.0);
        let s = quiet_stretch(&e, &steal, 30.0).expect("long enough");
        assert_eq!(s.seconds, 11.0);
        assert!(s.requests >= STRETCH_MIN);
        // a phase that cannot hold them
        assert_eq!(quiet_stretch(&e[..STRETCH_MIN - 1], &steal, 30.0), None);
        // a host that reports no steal: the whole phase
        let whole = quiet_stretch(&e, &[], 30.0).expect("long enough");
        assert_eq!((whole.requests, whole.seconds), (e.len(), 30.0));
    }

    #[test]
    fn failures_count_against_throughput_but_keep_their_latency() {
        let mut e = events(&[(0.0, 10.0, 1.0, 1.0)]);
        for ev in e.iter_mut().step_by(2) {
            ev.ok = false;
        }
        let s = quiet_stretch(&e, &[0.0; 10], 10.0).expect("long enough");
        assert!((s.jobs_per_s - 500.0).abs() < 1.0, "{s:?}");
    }

    #[test]
    fn setup_takes_the_median_of_the_quietest_batches() {
        let batch = |mean_s, steal| SetupBatch { mean_s, steal };
        let mut batches: Vec<SetupBatch> = (0..2 * SETUP_BATCHES)
            .map(|i| batch(1.0 + i as f64, 0.0))
            .collect();
        assert_eq!(setup_s(&batches), Some(3.0));
        // the fastest batch was not quiet
        batches[0].steal = 0.2;
        assert_eq!(setup_s(&batches), Some(4.0));
    }
}
