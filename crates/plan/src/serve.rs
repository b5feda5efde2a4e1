//! The async front door: a worker pool over the batch service.
//!
//! [`ServiceHandle`] turns the single-threaded [`SimulationService`]
//! drain loop into a concurrent server around one id and one table. A
//! [`Ticket`] *is* the service's [`JobId`]: [`ServiceHandle::submit`]
//! numbers the request, records it in the front table as waiting, and
//! appends it to a *bounded* intake queue (backpressure is a typed
//! rejection, never an unbounded buffer) — all under the front lock,
//! never the service lock. Workers move the whole intake into the
//! service under each request's own id, plan, batch and execute, and
//! publish each result straight to the slot with that id; callers
//! redeem the ticket with [`ServiceHandle::wait`] whenever they please.
//!
//! The liveness contract: **every accepted ticket resolves, exactly
//! once** — to a [`JobReport`] or a typed [`SimError`] — no matter
//! what faults, panics, deadlines, cancellations, or shutdowns occur
//! in between. Workers never die: all job execution happens inside the
//! service's per-job `catch_unwind` failure domains, so a panicking
//! kernel costs one job one attempt, not a worker thread.
//!
//! Shutdown is two-flavored: [`ServiceHandle::shutdown`] stops intake
//! and drains everything in flight (including retry/degradation
//! chains); [`ServiceHandle::abort`] stops intake and fails all
//! unfinished work with [`SimError::Cancelled`]. Dropping the handle
//! aborts.

use crate::service::{
    JobId, JobReport, JobStatus, ServiceConfig, ServiceStats, SimRequest, SimulationService,
};
use bgls_core::{Clock, SimError};
use bgls_linalg::FxHashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Cap on how long a worker sleeps waiting out retry-backoff windows in
/// one hop (it re-checks for new arrivals in between).
const BACKOFF_NAP_CAP_MS: u64 = 50;

/// Locks a mutex, recovering from poisoning: a panicking worker must
/// never take the service down with it — the protected state is only
/// ever updated in consistent steps, so the post-panic value is valid.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Configuration of the serving front door.
#[derive(Clone, Copy, Debug)]
pub struct ServePolicy {
    /// Worker threads draining the service.
    pub workers: usize,
    /// Bounded intake depth; a full intake queue rejects
    /// [`ServiceHandle::submit`] with [`SimError::Invalid`].
    pub queue_depth: usize,
}

impl Default for ServePolicy {
    fn default() -> Self {
        ServePolicy {
            workers: 2,
            queue_depth: 256,
        }
    }
}

/// Claim check for a submitted request — the id of its service job;
/// redeem with [`ServiceHandle::wait`].
pub type Ticket = JobId;

type Outcome = Result<JobReport, SimError>;

/// A ticket's entry in the front table.
enum Slot {
    /// Accepted and not yet resolved: in the intake queue or the
    /// service.
    Waiting,
    /// Resolved; the result is parked for the caller.
    Done(Outcome),
}

/// The front table: what the front door knows about each ticket.
struct Front {
    /// Accepted requests no worker has moved into the service yet,
    /// oldest first.
    intake: VecDeque<(u64, SimRequest)>,
    /// Ticket id → slot; an entry leaves when its result is waited.
    slots: FxHashMap<u64, Slot>,
    /// Intake closed by shutdown or abort.
    closed: bool,
}

struct Shared {
    /// The batch service. Lock order is always service → front.
    service: Mutex<SimulationService>,
    front: Mutex<Front>,
    /// Signalled when the intake gains a request or closes.
    arrived: Condvar,
    /// Signalled when slots resolve.
    resolved: Condvar,
    abort: AtomicBool,
    clock: Arc<dyn Clock>,
}

/// Concurrent, fault-tolerant front door over a [`SimulationService`].
pub struct ServiceHandle {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    next_ticket: AtomicU64,
    queue_depth: usize,
}

impl ServiceHandle {
    /// Starts the worker pool over a fresh service built from `config`.
    pub fn start(config: ServiceConfig, policy: ServePolicy) -> Result<ServiceHandle, SimError> {
        if policy.workers == 0 {
            return Err(SimError::Invalid(
                "serving policy needs at least one worker".into(),
            ));
        }
        if policy.queue_depth == 0 {
            return Err(SimError::Invalid(
                "serving policy needs a submission queue depth of at least 1".into(),
            ));
        }
        let mut handle = ServiceHandle::workerless(config, policy.queue_depth);
        for i in 0..policy.workers {
            let shared = Arc::clone(&handle.shared);
            let worker = std::thread::Builder::new()
                .name(format!("bgls-serve-{i}"))
                .spawn(move || worker_loop(&shared))
                .map_err(|e| SimError::Invalid(format!("failed to spawn worker: {e}")))?;
            handle.workers.push(worker);
        }
        Ok(handle)
    }

    /// Starts with default service configuration and serving policy.
    pub fn with_defaults() -> Result<ServiceHandle, SimError> {
        ServiceHandle::start(ServiceConfig::default(), ServePolicy::default())
    }

    /// The handle and its shared state, before any worker starts.
    fn workerless(config: ServiceConfig, queue_depth: usize) -> ServiceHandle {
        let service = SimulationService::new(config);
        let clock = service.clock();
        ServiceHandle {
            shared: Arc::new(Shared {
                service: Mutex::new(service),
                front: Mutex::new(Front {
                    intake: VecDeque::new(),
                    slots: FxHashMap::default(),
                    closed: false,
                }),
                arrived: Condvar::new(),
                resolved: Condvar::new(),
                abort: AtomicBool::new(false),
                clock,
            }),
            workers: Vec::new(),
            next_ticket: AtomicU64::new(0),
            queue_depth,
        }
    }

    /// Submits a request. Non-blocking, and never waits on the service:
    /// a full intake queue or a shut-down pool rejects with
    /// [`SimError::Invalid`]. An accepted ticket is guaranteed to
    /// resolve.
    pub fn submit(&self, request: SimRequest) -> Result<Ticket, SimError> {
        let mut front = lock(&self.shared.front);
        if front.closed {
            return Err(SimError::Invalid("the serving pool is shut down".into()));
        }
        if front.intake.len() >= self.queue_depth {
            return Err(SimError::Invalid(
                "the serving submission queue is full; wait out some tickets first".into(),
            ));
        }
        let id = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        front.slots.insert(id, Slot::Waiting);
        front.intake.push_back((id, request));
        drop(front);
        self.shared.arrived.notify_one();
        Ok(JobId(id))
    }

    /// Blocks until the ticket resolves and removes its result. A
    /// second wait on the same ticket reports it unknown.
    pub fn wait(&self, ticket: Ticket) -> Result<JobReport, SimError> {
        self.redeem(ticket, None)
            .unwrap_or_else(|| unreachable!("a wait without a deadline returns a result"))
    }

    /// Like [`ServiceHandle::wait`], but gives up after `timeout_ms`,
    /// returning `None` with the ticket still live.
    pub fn wait_timeout(
        &self,
        ticket: Ticket,
        timeout_ms: u64,
    ) -> Option<Result<JobReport, SimError>> {
        let deadline = Instant::now().checked_add(Duration::from_millis(timeout_ms));
        self.redeem(ticket, deadline)
    }

    /// Waits for the ticket until `deadline` (`None`: for ever).
    fn redeem(&self, ticket: Ticket, deadline: Option<Instant>) -> Option<Outcome> {
        let mut front = lock(&self.shared.front);
        loop {
            match front.slots.remove(&ticket.0) {
                Some(Slot::Done(result)) => return Some(result),
                Some(Slot::Waiting) => {
                    front.slots.insert(ticket.0, Slot::Waiting);
                }
                None => {
                    return Some(Err(SimError::Invalid(format!(
                        "unknown ticket {} (never submitted, or already waited)",
                        ticket.0
                    ))))
                }
            }
            front = match deadline {
                None => self
                    .shared
                    .resolved
                    .wait(front)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return None;
                    }
                    self.shared
                        .resolved
                        .wait_timeout(front, left)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
        }
    }

    /// Where the ticket currently is in its lifecycle.
    pub fn status(&self, ticket: Ticket) -> JobStatus {
        {
            let front = lock(&self.shared.front);
            match front.slots.get(&ticket.0) {
                None => return JobStatus::Unknown,
                Some(Slot::Done(_)) => return JobStatus::Done,
                Some(Slot::Waiting) if front.intake.iter().any(|(id, _)| *id == ticket.0) => {
                    return JobStatus::Pending
                }
                Some(Slot::Waiting) => {}
            }
        }
        match lock(&self.shared.service).status(ticket) {
            // finished inside the service but not yet published
            JobStatus::Unknown | JobStatus::Done => JobStatus::Done,
            live => live,
        }
    }

    /// Best-effort cancellation: a ticket still queued (in the intake
    /// or the service queue) resolves at once with
    /// [`SimError::Cancelled`]; one already executing or finished is
    /// left alone. Returns whether the cancellation landed.
    pub fn cancel(&self, ticket: Ticket) -> bool {
        {
            let mut front = lock(&self.shared.front);
            if !matches!(front.slots.get(&ticket.0), Some(Slot::Waiting)) {
                return false;
            }
            if let Some(pos) = front.intake.iter().position(|(id, _)| *id == ticket.0) {
                front.intake.remove(pos);
                drop(front);
                publish(&self.shared, vec![(ticket, Err(SimError::Cancelled))]);
                return true;
            }
        }
        // Not in the intake, so in the service: a worker moves the
        // intake into the service inside one service-lock hold.
        let mut svc = lock(&self.shared.service);
        if !svc.cancel(ticket) {
            return false;
        }
        // settle it here: an idle worker would not publish it before
        // the next arrival
        svc.take_result(ticket);
        drop(svc);
        publish(&self.shared, vec![(ticket, Err(SimError::Cancelled))]);
        true
    }

    /// Snapshot of the underlying service counters.
    pub fn stats(&self) -> ServiceStats {
        lock(&self.shared.service).stats()
    }

    /// Stops intake and drains every in-flight job — retries,
    /// degradations and all — before returning the final counters.
    pub fn shutdown(mut self) -> ServiceStats {
        self.finish(true)
    }

    /// Stops intake and fails all unfinished work with
    /// [`SimError::Cancelled`]; every outstanding ticket still
    /// resolves. Returns the final counters.
    pub fn abort(mut self) -> ServiceStats {
        self.finish(false)
    }

    fn finish(&mut self, drain: bool) -> ServiceStats {
        if !drain {
            self.shared.abort.store(true, Ordering::Release);
        }
        // Draining workers exit once intake and backlog are empty,
        // aborting ones at the next loop head.
        lock(&self.shared.front).closed = true;
        self.shared.arrived.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Settle everything the workers left behind (nothing after a
        // drain; after an abort, the intake and the service backlog).
        let mut svc = lock(&self.shared.service);
        let waiting: Vec<u64> = lock(&self.shared.front)
            .slots
            .iter()
            .filter(|(_, slot)| matches!(slot, Slot::Waiting))
            .map(|(id, _)| *id)
            .collect();
        for id in waiting {
            svc.cancel(JobId(id));
        }
        publish(&self.shared, svc.take_finished());
        {
            let mut front = lock(&self.shared.front);
            front.intake.clear();
            for slot in front.slots.values_mut() {
                if matches!(slot, Slot::Waiting) {
                    *slot = Slot::Done(Err(SimError::Cancelled));
                }
            }
        }
        self.shared.resolved.notify_all();
        svc.stats()
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.finish(false);
        }
    }
}

/// Resolves the tickets of finished jobs and wakes their waiters.
fn publish(shared: &Shared, finished: Vec<(JobId, Outcome)>) {
    if finished.is_empty() {
        return;
    }
    {
        let mut front = lock(&shared.front);
        for (job, result) in finished {
            if let Some(slot @ Slot::Waiting) = front.slots.get_mut(&job.0) {
                *slot = Slot::Done(result);
            }
        }
    }
    shared.resolved.notify_all();
}

/// What one worker turn left behind in the service.
struct Turn {
    /// Jobs the turn's batch settled.
    settled: usize,
    /// Jobs still queued in the service.
    backlog: usize,
    /// [`SimulationService::next_eligible_delay_ms`] after the batch.
    delay: Option<u64>,
}

/// One worker turn inside one service-lock hold: move the intake into
/// the service under each ticket's id until it stays empty (requests
/// that arrive while earlier ones are planned join the same batch),
/// drain one admission-controlled batch, and collect every finished
/// result (and every request rejected at the door) for the caller to
/// publish.
fn take_turn(shared: &Shared) -> (Turn, Vec<(JobId, Outcome)>) {
    let mut svc = lock(&shared.service);
    let mut finished = Vec::new();
    loop {
        let intake = std::mem::take(&mut lock(&shared.front).intake);
        if intake.is_empty() {
            break;
        }
        for (id, request) in intake {
            // rejected at the door (infeasible plan, full service
            // queue): the ticket resolves with the typed error
            if let Err(err) = svc.submit_as(JobId(id), request) {
                finished.push((JobId(id), Err(err)));
            }
        }
    }
    let settled = svc.run_pending();
    finished.extend(svc.take_finished());
    let turn = Turn {
        settled,
        backlog: svc.queue_len(),
        delay: svc.next_eligible_delay_ms(),
    };
    (turn, finished)
}

/// Blocks, holding no lock while it sleeps, until the intake has a
/// request; `false` once intake is closed and empty.
fn await_arrival(shared: &Shared) -> bool {
    let mut front = lock(&shared.front);
    while front.intake.is_empty() {
        if front.closed {
            return false;
        }
        front = shared
            .arrived
            .wait(front)
            .unwrap_or_else(PoisonError::into_inner);
    }
    true
}

fn worker_loop(shared: &Shared) {
    while !shared.abort.load(Ordering::Acquire) {
        let (turn, finished) = take_turn(shared);
        publish(shared, finished);
        if turn.backlog == 0 {
            if !await_arrival(shared) {
                // graceful end: intake closed and everything drained
                return;
            }
        } else if turn.settled == 0 {
            // every queued job is waiting out a retry backoff window:
            // nap until the earliest becomes eligible (capped, so fresh
            // arrivals are picked up promptly)
            if let Some(delay_ms) = turn.delay.filter(|&d| d > 0) {
                shared.clock.sleep_ms(delay_ms.min(BACKOFF_NAP_CAP_MS));
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::planner::Deliverable;
    use crate::service::JobOutput;
    use bgls_circuit::{Circuit, Gate, Operation, Qubit};
    use bgls_core::BatchPolicy;

    fn bell() -> Circuit {
        let mut c = Circuit::new();
        c.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
        c.push(Operation::gate(Gate::Cnot, vec![Qubit(0), Qubit(1)]).unwrap());
        c.push(Operation::measure(vec![Qubit(0), Qubit(1)], "m").unwrap());
        c
    }

    /// The histogram the sync service produces for `request`.
    fn sync_histogram(request: SimRequest) -> bgls_core::Histogram {
        let mut service = SimulationService::new(ServiceConfig::default());
        let id = service.submit(request).unwrap();
        service.run_all();
        let report = service.take_result(id).unwrap().unwrap();
        report.histogram().unwrap().histogram("m").unwrap().clone()
    }

    #[test]
    fn tickets_resolve_with_the_same_bits_as_the_sync_service() {
        let handle = ServiceHandle::with_defaults().unwrap();
        let tickets: Vec<(Ticket, u64)> = (0..8u64)
            .map(|s| {
                let t = handle
                    .submit(SimRequest::histogram(bell(), 100).with_seed(s))
                    .unwrap();
                (t, s)
            })
            .collect();
        for (ticket, seed) in tickets {
            let report = handle.wait(ticket).unwrap();
            let standalone = crate::plan_and_run(&bell(), 100, Some(seed))
                .unwrap()
                .result;
            assert_eq!(
                report.histogram().unwrap().histogram("m"),
                standalone.histogram("m"),
                "seed {seed}"
            );
        }
        let stats = handle.shutdown();
        assert_eq!(stats.completed, 8);
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn submit_returns_while_the_service_lock_is_held() {
        let handle = ServiceHandle::with_defaults().unwrap();
        let (sent, received) = std::sync::mpsc::channel();
        let ticket = std::thread::scope(|s| {
            let service = lock(&handle.shared.service);
            let h = &handle;
            s.spawn(move || {
                let _ = sent.send(h.submit(SimRequest::histogram(bell(), 10).with_seed(1)));
            });
            let submitted = received
                .recv_timeout(Duration::from_secs(10))
                .expect("submit blocked on the service lock");
            drop(service);
            submitted.unwrap()
        });
        assert!(handle.wait(ticket).is_ok());
        handle.shutdown();
    }

    #[test]
    fn wait_timeout_waits_out_its_timeout_through_unrelated_wakeups() {
        let handle = ServiceHandle::workerless(ServiceConfig::default(), 16);
        let ticket = handle
            .submit(SimRequest::histogram(bell(), 10).with_seed(1))
            .unwrap();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            // other tickets resolving: a wakeup every millisecond
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    handle.shared.resolved.notify_all();
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
            let started = Instant::now();
            let result = handle.wait_timeout(ticket, 100);
            let waited = started.elapsed();
            stop.store(true, Ordering::Relaxed);
            assert!(result.is_none(), "nothing resolves the ticket");
            assert!(
                waited >= Duration::from_millis(100),
                "gave up after {waited:?}"
            );
        });
    }

    #[test]
    fn a_result_finished_before_it_is_published_resolves_its_ticket() {
        // The early-publish window: a worker's turn has run the job and
        // taken its result from the service but not yet published it.
        let request = || SimRequest::histogram(bell(), 50).with_seed(3);
        let handle = ServiceHandle::workerless(ServiceConfig::default(), 16);
        let ticket = handle.submit(request()).unwrap();
        assert_eq!(handle.status(ticket), JobStatus::Pending);
        let (_, finished) = take_turn(&handle.shared);
        assert_eq!(finished.len(), 1);
        assert_eq!(handle.status(ticket), JobStatus::Done);
        assert!(!handle.cancel(ticket), "a finished job cannot be cancelled");
        assert!(
            handle.wait_timeout(ticket, 0).is_none(),
            "not published yet"
        );
        publish(&handle.shared, finished);
        let report = handle.wait_timeout(ticket, 0).unwrap().unwrap();
        assert_eq!(
            report.histogram().unwrap().histogram("m"),
            Some(&sync_histogram(request()))
        );
        assert_eq!(handle.status(ticket), JobStatus::Unknown);
    }

    #[test]
    fn a_ticket_cancelled_before_admission_never_reaches_the_service() {
        let handle = ServiceHandle::workerless(ServiceConfig::default(), 16);
        let ticket = handle
            .submit(SimRequest::histogram(bell(), 50).with_seed(5))
            .unwrap();
        assert!(handle.cancel(ticket));
        assert!(!handle.cancel(ticket), "already resolved");
        let (turn, finished) = take_turn(&handle.shared);
        assert!(finished.is_empty() && turn.backlog == 0);
        assert_eq!(handle.stats().submitted, 0, "the service never saw it");
        assert!(matches!(
            handle.wait_timeout(ticket, 0),
            Some(Err(SimError::Cancelled))
        ));
    }

    #[test]
    fn a_ticket_cancelled_in_the_service_queue_resolves_at_once() {
        let one_per_batch = ServiceConfig {
            batch: BatchPolicy {
                min_batch: 1,
                max_batch: 1,
                ..BatchPolicy::default()
            },
            ..ServiceConfig::default()
        };
        let handle = ServiceHandle::workerless(one_per_batch, 16);
        let first = handle
            .submit(SimRequest::histogram(bell(), 50).with_seed(6))
            .unwrap();
        let second = handle
            .submit(SimRequest::histogram(bell(), 50).with_seed(7))
            .unwrap();
        let (turn, finished) = take_turn(&handle.shared);
        assert_eq!(turn.backlog, 1, "the second job is queued in the service");
        assert_eq!(handle.status(second), JobStatus::Pending);
        assert!(handle.cancel(second));
        assert!(matches!(
            handle.wait_timeout(second, 0),
            Some(Err(SimError::Cancelled))
        ));
        publish(&handle.shared, finished);
        assert!(handle.wait_timeout(first, 0).unwrap().is_ok());
        let stats = handle.stats();
        assert_eq!((stats.completed, stats.cancellations), (1, 1));
    }

    #[test]
    fn a_cancel_after_publish_is_refused_and_keeps_the_result() {
        let handle = ServiceHandle::workerless(ServiceConfig::default(), 16);
        let ticket = handle
            .submit(SimRequest::histogram(bell(), 50).with_seed(4))
            .unwrap();
        let (_, finished) = take_turn(&handle.shared);
        publish(&handle.shared, finished);
        assert_eq!(handle.status(ticket), JobStatus::Done);
        assert!(!handle.cancel(ticket));
        assert!(handle.wait_timeout(ticket, 0).unwrap().is_ok());
    }

    #[test]
    fn a_full_intake_rejects_until_a_worker_takes_it() {
        let handle = ServiceHandle::workerless(ServiceConfig::default(), 2);
        let a = handle.submit(SimRequest::histogram(bell(), 10)).unwrap();
        let b = handle.submit(SimRequest::histogram(bell(), 10)).unwrap();
        assert!(matches!(
            handle.submit(SimRequest::histogram(bell(), 10)),
            Err(SimError::Invalid(_))
        ));
        let (_, finished) = take_turn(&handle.shared);
        publish(&handle.shared, finished);
        let c = handle.submit(SimRequest::histogram(bell(), 10)).unwrap();
        for t in [a, b] {
            assert!(handle.wait_timeout(t, 0).unwrap().is_ok());
        }
        assert_eq!(handle.status(c), JobStatus::Pending);
    }

    #[test]
    fn graceful_shutdown_drains_the_backlog() {
        let handle = ServiceHandle::with_defaults().unwrap();
        let tickets: Vec<Ticket> = (0..16u64)
            .map(|s| {
                handle
                    .submit(SimRequest::histogram(bell(), 60).with_seed(s))
                    .unwrap()
            })
            .collect();
        let stats = handle.shutdown();
        assert_eq!(stats.completed, 16, "shutdown drains, never drops");
        // tickets submitted before shutdown stay redeemable after it
        drop(tickets);
    }

    #[test]
    fn abort_resolves_every_outstanding_ticket() {
        let handle = ServiceHandle::with_defaults().unwrap();
        let tickets: Vec<Ticket> = (0..12u64)
            .map(|s| {
                handle
                    .submit(SimRequest::histogram(bell(), 50).with_seed(s))
                    .unwrap()
            })
            .collect();
        let mut resolved_ok = 0usize;
        let mut resolved_cancelled = 0usize;
        // Wait for the first ticket so at least one batch lands, then
        // pull the plug.
        let first = handle.wait(tickets[0]);
        assert!(first.is_ok());
        let handle2 = handle; // (move keeps the borrow checker honest)
        let stats = {
            // abort consumes the handle but tickets must still resolve
            // beforehand via the slots it settles; count afterwards via
            // wait on a fresh handle is impossible — so check the
            // stats' conservation law instead.
            handle2.abort()
        };
        resolved_ok += stats.completed as usize;
        resolved_cancelled += stats.cancellations as usize;
        assert_eq!(
            stats.completed + stats.failed,
            stats.submitted,
            "every admitted job settled: {stats:?}"
        );
        assert!(resolved_ok >= 1);
        let _ = resolved_cancelled;
    }

    #[test]
    fn infeasible_submissions_resolve_with_the_planner_error() {
        // A wide non-Clifford Toffoli ladder where every qubit feeds the
        // measurement: the lightcone keeps all 30 qubits live, arity-3
        // gates exclude the chain backends, and 30 dense qubits exceed
        // the width budget — infeasible even after optimization.
        let mut wide = Circuit::new();
        for i in 0..30u32 {
            wide.push(Operation::gate(Gate::T, vec![Qubit(i)]).unwrap());
        }
        for i in 2..30u32 {
            wide.push(
                Operation::gate(Gate::Ccx, vec![Qubit(i - 2), Qubit(i - 1), Qubit(i)]).unwrap(),
            );
        }
        wide.push(Operation::measure((0..30).map(Qubit).collect::<Vec<_>>(), "m").unwrap());
        let handle = ServiceHandle::with_defaults().unwrap();
        let ticket = handle
            .submit(SimRequest {
                circuit: wide,
                resolver: None,
                deliverable: Deliverable::Histogram { repetitions: 10 },
                seed: None,
                deadline_ms: None,
            })
            .unwrap();
        assert!(matches!(handle.wait(ticket), Err(SimError::Unsupported(_))));
        handle.shutdown();
    }

    #[test]
    fn lightcone_rescues_wide_circuits_with_dead_qubits() {
        // 30 raw qubits but only a 3-qubit observable cone: the optimizer
        // prunes the dead width, the planner accepts the residue, and the
        // service allocates state for the pruned circuit only.
        let mut wide = Circuit::new();
        for i in 0..30u32 {
            wide.push(Operation::gate(Gate::H, vec![Qubit(i)]).unwrap());
        }
        wide.push(Operation::gate(Gate::Ccx, vec![Qubit(0), Qubit(1), Qubit(2)]).unwrap());
        wide.push(Operation::measure(vec![Qubit(0)], "m").unwrap());
        let handle = ServiceHandle::with_defaults().unwrap();
        let ticket = handle
            .submit(SimRequest {
                circuit: wide,
                resolver: None,
                deliverable: Deliverable::Histogram { repetitions: 10 },
                seed: Some(5),
                deadline_ms: None,
            })
            .unwrap();
        let report = handle.wait(ticket).expect("pruned circuit is feasible");
        match &report.output {
            JobOutput::Histogram(result) => {
                assert_eq!(result.histogram("m").unwrap().total(), 10);
            }
            other => panic!("histogram expected, got {other:?}"),
        }
        assert!(
            report.rewrite.ops_after < report.rewrite.ops_before,
            "lightcone must have pruned dead gates: {:?}",
            report.rewrite
        );
        handle.shutdown();
    }

    #[test]
    fn waiting_twice_reports_the_ticket_unknown() {
        let handle = ServiceHandle::with_defaults().unwrap();
        let t = handle
            .submit(SimRequest::histogram(bell(), 10).with_seed(1))
            .unwrap();
        handle.wait(t).unwrap();
        assert!(matches!(handle.wait(t), Err(SimError::Invalid(_))));
        assert_eq!(handle.status(t), JobStatus::Unknown);
        handle.shutdown();
    }
}
