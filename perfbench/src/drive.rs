//! The closed-loop client: one thread keeps a fixed window of tickets
//! outstanding against a `ServiceHandle` and records, per request, the
//! time from `submit` to holding the resolved `JobReport`.
//!
//! Results are aggregated as they arrive. The client keeps an output
//! only when a check needs it after the loop (an expectation reference,
//! a direct re-run, or a failed count check), and then with the index
//! of its request instead of the request.

use crate::gen::{Req, Stream};
use crate::report::cpu_ticks;
use crate::trace::Tracer;
use crate::{check, heap};
use bgls_backend::BackendKind;
use bgls_core::{RunResult, SimError};
use bgls_plan::{
    ExecPath, JobOutput, JobReport, JobStatus, ServePolicy, ServiceConfig, ServiceHandle, Ticket,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outstanding tickets the client keeps in flight; at least the default
/// worker count, so every worker can be busy.
pub const WINDOW: usize = 4;

/// A ticket that has not resolved this long after `submit` is counted
/// as failed (unresolved) and abandoned.
pub const WAIT_BOUND_MS: u64 = 10_000;

/// Longest single wait on the oldest ticket before the client looks at
/// the rest of the window again.
const POLL_MS: u64 = 1;

/// The client asks the handle for the oldest ticket's status once it has
/// waited twice the typical latency, then once per typical latency, and
/// never more often than every [`STATUS_MIN_MS`]. `status` takes the
/// service lock, which a worker holds across a whole simulation, so a
/// fixed short interval would stall the client behind every long job;
/// pacing by latency keeps that rare while a lost cache hit is still
/// noticed within a millisecond or two.
const STATUS_MIN_MS: f64 = 1.0;

/// Weight of each settled request in the typical latency's moving average.
const TYPICAL_WEIGHT: f64 = 0.05;

/// A ticket whose status has read `Done` for this long without the
/// ticket resolving leaves the window (the service has finished its job,
/// so it no longer occupies a worker) and is watched on the side. It
/// counts as unresolved only if it has still not resolved when the
/// phase ends, plus [`FINAL_WAIT_MS`]: the service finished its job but
/// the result never reached the ticket.
const LOST_GRACE_MS: u64 = 2;
const FINAL_WAIT_MS: u64 = 50;

/// The client reads the live heap this often (see
/// [`LoopResult::heap_mean_mb`]).
const HEAP_EVERY_MS: u64 = 10;

/// The client's per-request records grow by this many entries at a time.
const RECORD_GROWTH: usize = 1 << 14;

/// One of the client's per-request records. They grow with the number of
/// requests served, so their buffers are kept out of the heap metric
/// (see [`crate::heap`]).
pub struct Records<T>(Vec<T>);

impl<T> Records<T> {
    const SIZE: isize = std::mem::size_of::<T>() as isize;

    fn push(&mut self, value: T) {
        if self.0.len() == self.0.capacity() {
            let before = self.0.capacity() as isize;
            heap::exclude(RECORD_GROWTH as isize * Self::SIZE);
            self.0.reserve_exact(RECORD_GROWTH);
            let extra = self.0.capacity() as isize - before - RECORD_GROWTH as isize;
            heap::exclude(extra * Self::SIZE);
        }
        self.0.push(value);
    }
}

impl<T> Default for Records<T> {
    fn default() -> Self {
        Records(Vec::new())
    }
}

impl<T> std::ops::Deref for Records<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.0
    }
}

impl<T> Drop for Records<T> {
    fn drop(&mut self) {
        let bytes = self.0.capacity() as isize * Self::SIZE;
        drop(std::mem::take(&mut self.0));
        heap::exclude(-bytes);
    }
}

/// What the client keeps of a served output: enough to check it.
pub enum Kept {
    /// A histogram's repetitions, its key count, the first key whose
    /// counts do not sum to the repetitions, and the whole result when
    /// the request is in the direct re-run subset.
    Hist {
        repetitions: u64,
        keys: usize,
        bad_total: Option<(String, u64)>,
        full: Option<Arc<RunResult>>,
    },
    Value(f64),
}

impl Kept {
    pub fn of(output: &JobOutput, keep_full: bool) -> Kept {
        match output {
            JobOutput::Histogram(r) => {
                let keys = r.keys();
                let bad_total = keys.iter().find_map(|k| {
                    let total = r.histogram(k).map_or(0, |h| h.total());
                    (total != r.repetitions()).then(|| (k.to_string(), total))
                });
                Kept::Hist {
                    repetitions: r.repetitions(),
                    keys: keys.len(),
                    bad_total,
                    full: keep_full.then(|| Arc::clone(r)),
                }
            }
            JobOutput::Expectation(v) => Kept::Value(*v),
        }
    }
}

/// The parts of a `JobReport` the checks read.
pub struct Served {
    pub kept: Kept,
    pub backend: BackendKind,
    pub path: ExecPath,
}

/// A served request whose check runs after the loop. The request itself
/// is generated again from its index then, so the client holds no
/// circuits while it measures.
pub struct Deferred {
    pub index: u64,
    pub served: Served,
}

/// A ticket settling, as the client saw it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Event {
    /// Seconds from the phase's first submit.
    pub at_s: f64,
    /// From `submit` to the resolved report, or to abandoning the ticket.
    pub latency_ms: f64,
    /// Whether it resolved to a report (not an error, not abandoned).
    pub ok: bool,
}

/// Per-class tallies for the run's summary.
#[derive(Default)]
pub struct ClassStat {
    pub count: u64,
    pub latency_ms_sum: f64,
    pub routes: BTreeSet<String>,
}

/// Everything a closed-loop phase observed.
#[derive(Default)]
pub struct LoopResult {
    /// Every resolved or abandoned ticket, in the order the client saw
    /// it settle.
    pub events: Records<Event>,
    /// Time inside `submit`, per accepted submission.
    pub submit_us: Records<f32>,
    /// Latency minus `JobReport::measured_ms` (nothing is measured for a
    /// cache hit), per successful report.
    pub overhead_ms: Records<f32>,
    /// |predicted - measured| / measured, per report carrying both.
    pub cost_err: Records<f64>,
    /// Sum of `measured_ms` over successful reports.
    pub exec_ms: f64,
    /// Successful reports, and those served from the cache
    /// (`attempts == 0`) or by a fallback plan.
    pub reports: u64,
    pub hits: u64,
    pub degraded: u64,
    /// Reports that passed the count checks and need no later check.
    pub passed: u64,
    /// Reports checked after the loop.
    pub deferred: Records<Deferred>,
    /// Tickets that resolved to an error, with the first few messages.
    pub errors: u64,
    pub error_notes: Vec<String>,
    /// Tickets abandoned unresolved: after [`WAIT_BOUND_MS`], or at the
    /// end of the phase after their status read `Done`.
    pub unresolved: u64,
    /// Of those, the ones whose status read `Done`.
    pub lost_after_done: u64,
    /// The abandoned tickets, to confirm later that they never resolved.
    pub abandoned: Vec<Ticket>,
    /// Submissions the handle refused.
    pub refused: u64,
    /// Histograms kept whole for the direct re-run check.
    pub kept_full: usize,
    pub classes: BTreeMap<&'static str, ClassStat>,
    /// Share of the host's CPU time stolen by other guests, per second
    /// of the phase (empty where `/proc/stat` cannot be read).
    pub steal: Records<f32>,
    /// Live heap readings, in MiB, every [`HEAP_EVERY_MS`] of the phase.
    pub heap_mb: Records<f32>,
    /// Tickets settled in each whole second of the phase.
    settled_per_s: Vec<u32>,
    /// Wall time from the first submit to the last resolution.
    pub wall_s: f64,
    origin: Option<Instant>,
    /// Moving average of successful latencies, pacing the status checks.
    typical_ms: f64,
}

impl LoopResult {
    pub fn attempted(&self) -> u64 {
        self.events.len() as u64 + self.refused
    }

    /// Mean live heap over the first `seconds` of the phase (all of it,
    /// if shorter), in MiB. Readings are due every [`HEAP_EVERY_MS`]
    /// from the phase's start, and one held up by a busy client is taken
    /// as soon as it can be, so the `i`-th stands for `i` intervals in.
    pub fn heap_mean_mb(&self, seconds: f64) -> f64 {
        let due = (seconds * 1e3 / HEAP_EVERY_MS as f64) as usize;
        let readings = &self.heap_mb[..due.min(self.heap_mb.len())];
        readings.iter().map(|&m| f64::from(m)).sum::<f64>() / readings.len().max(1) as f64
    }

    fn settle(&mut self, at: Instant, submitted: Instant, ok: bool) -> f64 {
        let latency_ms = at.duration_since(submitted).as_secs_f64() * 1e3;
        if ok {
            self.typical_ms += TYPICAL_WEIGHT * (latency_ms - self.typical_ms);
        }
        let at_s = self
            .origin
            .map_or(0.0, |t0| at.duration_since(t0).as_secs_f64());
        let second = at_s as usize;
        if self.settled_per_s.len() <= second {
            self.settled_per_s.resize(second + 1, 0);
        }
        self.settled_per_s[second] += 1;
        self.events.push(Event {
            at_s,
            latency_ms,
            ok,
        });
        latency_ms
    }

    /// Tickets settled in the quiet seconds of the phase so far (see
    /// [`guarded`]).
    pub fn quiet_requests(&self) -> usize {
        guarded(&self.steal)
            .iter()
            .zip(&self.settled_per_s)
            .filter(|(&s, _)| s <= QUIET_STEAL)
            .map(|(_, &n)| n as usize)
            .sum()
    }

    /// Interval between status checks of a waiting ticket.
    fn status_every(&self) -> Duration {
        Duration::from_secs_f64(self.typical_ms.max(STATUS_MIN_MS) / 1e3)
    }

    /// Abandoned tickets that have still not resolved; call after the
    /// phase, before shutting the handle down.
    pub fn still_unresolved(&self, handle: &ServiceHandle) -> usize {
        self.abandoned
            .iter()
            .filter(|t| handle.wait_timeout(**t, 0).is_none())
            .count()
    }
}

/// Starts a service with the shipped defaults.
pub fn start() -> ServiceHandle {
    ServiceHandle::start(ServiceConfig::default(), ServePolicy::default())
        .expect("the default serving policy starts")
}

/// Runs `reqs` through `handle` with the closed-loop window and bounded
/// waits; used for warm-up.
pub fn run_list(handle: &ServiceHandle, reqs: Vec<Arc<Req>>) -> LoopResult {
    let mut it = reqs.into_iter();
    closed_loop(handle, |_| it.next(), None, None)
}

/// A second of the phase counts as quiet when other guests of the
/// machine took at most this share of its CPU time during it. Even a
/// tenth stolen can slow the service by half: a worker descheduled while
/// it holds the service lock stalls the other one too.
pub const QUIET_STEAL: f32 = 0.03;

/// Per-second steal as the quiet rule reads it: the larger of a
/// second's own share and that of the second before it. A request that
/// settles early in a second was in flight during the previous one
/// (latencies are well under a second), so a second that follows a
/// stolen one is not quiet either.
pub fn guarded(steal: &[f32]) -> Vec<f32> {
    (0..steal.len())
        .map(|i| match i {
            0 => steal[0],
            _ => steal[i].max(steal[i - 1]),
        })
        .collect()
}

/// How many seconds of `steal` (per-second stolen shares) were quiet.
pub fn quiet_seconds(steal: &[f32]) -> usize {
    steal.iter().filter(|&&s| s <= QUIET_STEAL).count()
}

/// The seconds of `steal`, least stolen first (the earliest of equals).
pub fn quietest_first(steal: &[f32]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    order
}

/// Drives `stream` until `seconds` have passed, `min_samples` requests
/// were submitted, and `quiet_s` seconds were quiet and held
/// `min_samples` settled requests (no quiet condition on a host that
/// does not report steal), submitting nothing new after `max_seconds`;
/// then drains the window.
/// Histograms in the re-run subset of `seed` are kept whole.
#[allow(clippy::too_many_arguments)]
pub fn run_stream(
    handle: &ServiceHandle,
    stream: &mut Stream,
    seed: u64,
    seconds: f64,
    min_samples: usize,
    quiet_s: usize,
    max_seconds: f64,
    tracer: Option<&mut Tracer>,
) -> LoopResult {
    let started = Instant::now();
    let mut count = 0usize;
    let next = |out: &LoopResult| {
        let elapsed = started.elapsed().as_secs_f64();
        let quiet = out.steal.is_empty()
            || (quiet_seconds(&guarded(&out.steal)) >= quiet_s
                && out.quiet_requests() >= min_samples);
        let enough = elapsed >= seconds && count >= min_samples && quiet;
        count += 1;
        (!enough && elapsed < max_seconds).then(|| stream.next_req())
    };
    closed_loop(handle, next, Some(seed), tracer)
}

struct Pending {
    index: u64,
    ticket: Ticket,
    submitted: Instant,
    req: Arc<Req>,
    /// When the client next asks for this ticket's status.
    next_status: Instant,
    /// When its status first read `Done` while it was still unresolved.
    done_seen: Option<Instant>,
    /// Its `request` span, when tracing.
    span: Option<usize>,
}

fn closed_loop(
    handle: &ServiceHandle,
    mut next: impl FnMut(&LoopResult) -> Option<Arc<Req>>,
    rerun_seed: Option<u64>,
    mut tracer: Option<&mut Tracer>,
) -> LoopResult {
    let mut out = LoopResult::default();
    let mut window: VecDeque<Pending> = VecDeque::new();
    // tickets whose status reads `Done` but that have not resolved
    let mut suspects: VecDeque<Pending> = VecDeque::new();
    let mut next_suspect_check = Instant::now();
    let mut index = 0;
    let mut exhausted = false;
    let t0 = Instant::now();
    out.origin = Some(t0);
    let mut next_tick = t0 + Duration::from_secs(1);
    let mut ticks = cpu_ticks();
    let mut next_heap = t0;
    loop {
        heap::sample();
        if Instant::now() >= next_heap {
            next_heap += Duration::from_millis(HEAP_EVERY_MS);
            out.heap_mb.push(heap::live_mb() as f32);
        }
        if Instant::now() >= next_tick {
            next_tick += Duration::from_secs(1);
            let now = cpu_ticks();
            if let (Some((total0, steal0)), Some((total1, steal1))) = (ticks, now) {
                let share = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
                out.steal.push(share as f32);
            }
            ticks = now;
        }
        while !exhausted && window.len() < WINDOW {
            let Some(req) = next(&out) else {
                exhausted = true;
                break;
            };
            let request = req.to_sim_request();
            let submitted = Instant::now();
            let ticket = handle.submit(request);
            let returned = Instant::now();
            let span = tracer.as_deref_mut().map(|t| {
                let root = t.open(index, "request", None, submitted);
                t.span(index, "serve.submit", Some(root), submitted, returned);
                root
            });
            match ticket {
                Ok(ticket) => {
                    let submit_us = returned.duration_since(submitted).as_secs_f64() * 1e6;
                    out.submit_us.push(submit_us as f32);
                    window.push_back(Pending {
                        index,
                        ticket,
                        submitted,
                        req,
                        next_status: submitted + 2 * out.status_every(),
                        done_seen: None,
                        span,
                    });
                }
                Err(_) => out.refused += 1,
            }
            index += 1;
        }
        let Some(oldest) = window.front_mut() else {
            break;
        };
        let suspect = oldest
            .done_seen
            .is_some_and(|t| t.elapsed() >= Duration::from_millis(LOST_GRACE_MS));
        let waited_ms = oldest.submitted.elapsed().as_millis() as u64;
        if suspect {
            suspects.push_back(window.pop_front().expect("window is non-empty"));
        } else if waited_ms >= WAIT_BOUND_MS {
            let p = window.pop_front().expect("window is non-empty");
            abandon(&mut out, p, false);
        } else {
            if Instant::now() >= oldest.next_status {
                oldest.next_status = Instant::now() + out.status_every();
                if handle.status(oldest.ticket) == JobStatus::Done && oldest.done_seen.is_none() {
                    oldest.done_seen = Some(Instant::now());
                }
            }
            // Wait on the oldest ticket in short steps, so a ticket that
            // never resolves holds one window slot, not the whole client.
            let step = (WAIT_BOUND_MS - waited_ms).min(POLL_MS);
            if let Some(result) = handle.wait_timeout(oldest.ticket, step) {
                let p = window.pop_front().expect("window is non-empty");
                finish(&mut out, p, result, rerun_seed, tracer.as_deref_mut());
            }
        }
        // harvest every other ticket that resolved meanwhile, and the
        // suspects every status interval
        harvest(
            &mut window,
            handle,
            &mut out,
            rerun_seed,
            tracer.as_deref_mut(),
        );
        if Instant::now() >= next_suspect_check {
            next_suspect_check = Instant::now() + out.status_every();
            harvest(
                &mut suspects,
                handle,
                &mut out,
                rerun_seed,
                tracer.as_deref_mut(),
            );
        }
    }
    // one grace period for all suspects together, not one each
    let last_call = Instant::now() + Duration::from_millis(FINAL_WAIT_MS);
    for p in suspects {
        let left = last_call.saturating_duration_since(Instant::now());
        match handle.wait_timeout(p.ticket, left.as_millis() as u64) {
            Some(result) => finish(&mut out, p, result, rerun_seed, tracer.as_deref_mut()),
            None => abandon(&mut out, p, true),
        }
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    out
}

/// Finishes every ticket of `pending` that has resolved.
fn harvest(
    pending: &mut VecDeque<Pending>,
    handle: &ServiceHandle,
    out: &mut LoopResult,
    rerun_seed: Option<u64>,
    mut tracer: Option<&mut Tracer>,
) {
    let mut still = VecDeque::with_capacity(pending.len());
    for p in pending.drain(..) {
        match handle.wait_timeout(p.ticket, 0) {
            Some(result) => finish(out, p, result, rerun_seed, tracer.as_deref_mut()),
            None => still.push_back(p),
        }
    }
    *pending = still;
}

/// Counts a ticket as unresolved, settling it as a failure now.
fn abandon(out: &mut LoopResult, p: Pending, after_done: bool) {
    out.settle(Instant::now(), p.submitted, false);
    out.unresolved += 1;
    out.lost_after_done += u64::from(after_done);
    out.abandoned.push(p.ticket);
}

fn finish(
    out: &mut LoopResult,
    p: Pending,
    result: Result<JobReport, SimError>,
    rerun_seed: Option<u64>,
    tracer: Option<&mut Tracer>,
) {
    let now = Instant::now();
    if let (Some(t), Some(span)) = (tracer, p.span) {
        t.end(span, now);
    }
    let latency_ms = out.settle(now, p.submitted, result.is_ok());
    let class = out.classes.entry(p.req.class).or_default();
    class.count += 1;
    class.latency_ms_sum += latency_ms;
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            out.errors += 1;
            if out.error_notes.len() < 5 {
                let note = format!("request {} ({}): error {e}", p.index, p.req.class);
                out.error_notes.push(note);
            }
            return;
        }
    };
    if class.routes.len() < 4 {
        class
            .routes
            .insert(format!("{}/{}", report.backend.name(), report.path));
    }
    out.reports += 1;
    out.hits += u64::from(report.attempts == 0);
    out.degraded += u64::from(report.degraded());
    let measured = report.measured_ms.unwrap_or(0.0);
    out.exec_ms += measured;
    out.overhead_ms.push((latency_ms - measured) as f32);
    if let (Some(pred), Some(meas)) = (report.predicted_ms, report.measured_ms) {
        if meas > 0.0 {
            out.cost_err.push((pred - meas).abs() / meas);
        }
    }
    let keep_full = out.kept_full < check::RERUN_CAP
        && rerun_seed.is_some_and(|seed| check::rerun_selected(seed, p.index));
    let served = Served {
        kept: Kept::of(&report.output, keep_full),
        backend: report.backend,
        path: report.path,
    };
    out.kept_full += usize::from(matches!(served.kept, Kept::Hist { full: Some(_), .. }));
    if check::passes_without_reference(&p.req, &served) {
        out.passed += 1;
    } else {
        out.deferred.push(Deferred {
            index: p.index,
            served,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_are_ranked_by_steal_alone() {
        let steal = [0.2, 0.0, 0.1, 0.03, 0.0, 0.3, 0.04];
        assert_eq!(quiet_seconds(&steal), 3);
        assert_eq!(quietest_first(&steal), vec![1, 4, 3, 6, 2, 0, 5]);
        assert!(quietest_first(&[]).is_empty());
    }

    #[test]
    fn a_second_after_a_stolen_one_is_not_quiet() {
        let steal = [0.0, 0.2, 0.0, 0.0, 0.05, 0.01];
        assert_eq!(guarded(&steal), vec![0.0, 0.2, 0.2, 0.0, 0.05, 0.05]);
        assert_eq!(quiet_seconds(&guarded(&steal)), 2);
        assert!(guarded(&[]).is_empty());
    }
}
