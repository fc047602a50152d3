//! Tickets, the single-flight table, and the executor behind
//! [`TransposeService::submit_async`].
//!
//! Every request registers in one **single-flight table** keyed by
//! `(PlanKey problem fingerprint, input identity)`, whichever of
//! `submit`, `submit_async` or `submit_batch` brought it in. The first
//! registration of a problem leads: it runs the service's staged
//! pipeline. Identical registrations that arrive while it is in flight
//! follow: they attach a ticket to the leader's entry and run nothing.
//! Whichever thread finishes a leader completes its followers' tickets
//! itself.
//!
//! `submit_async` hands its leaders to a small executor: a bounded queue
//! drained by `ttlg-async-N` workers. The caller never blocks; a full
//! queue completes the ticket at once with an overload error. Workers
//! hold only a [`Weak`] reference to the service and complete every
//! ticket of a run before letting go of it. When a worker turns out to
//! hold the last reference, the service's teardown runs on that worker,
//! which then skips joining itself.

use crate::service::{Outcome, TransposeRequest, TransposeService};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::thread::{self, JoinHandle};
use std::time::Duration;
use ttlg::PlanKey;
use ttlg_obs::{clock_ns, Envelope};
use ttlg_tensor::Element;

/// Geometry of the executor behind `submit_async`, embedded in
/// [`crate::RuntimeConfig::async_exec`]. The executor runs
/// [`crate::RuntimeConfig::workers`] threads.
#[derive(Debug, Clone, Copy)]
pub struct AsyncConfig {
    /// Executor queue capacity. A full queue completes the ticket with
    /// an overload error instead of blocking the caller.
    pub submit_capacity: usize,
}

impl Default for AsyncConfig {
    fn default() -> Self {
        AsyncConfig {
            submit_capacity: 256,
        }
    }
}

/// Lock `m`, ignoring poison: every critical section here leaves its
/// data consistent, and a panic caught elsewhere must not wedge tickets.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One request's completion slot.
pub(crate) struct Ticket<E: Element> {
    /// Clock reading ([`clock_ns`]) at submission: the request's trace
    /// starts here.
    pub(crate) submitted_ns: u64,
    /// A follower's gateway envelope, for its trace record (a leader's
    /// rides on its request).
    pub(crate) envelope: Option<Envelope>,
    slot: Mutex<Option<Arc<Outcome<E>>>>,
    ready: Condvar,
}

impl<E: Element> Ticket<E> {
    fn new(submitted_ns: u64, envelope: Option<Envelope>) -> Arc<Self> {
        Arc::new(Ticket {
            submitted_ns,
            envelope,
            slot: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    /// Fill the slot and wake every waiter. Only the first call counts.
    pub(crate) fn complete(&self, outcome: Outcome<E>) {
        let mut slot = lock(&self.slot);
        if slot.is_none() {
            *slot = Some(Arc::new(outcome));
            drop(slot);
            self.ready.notify_all();
        }
    }
}

/// The caller's side of one submission: poll it, or wait for it.
pub struct TicketHandle<E: Element> {
    ticket: Arc<Ticket<E>>,
}

impl<E: Element> TicketHandle<E> {
    /// The outcome, if ready. Never blocks beyond one short mutex.
    pub fn poll(&self) -> Option<Arc<Outcome<E>>> {
        lock(&self.ticket.slot).clone()
    }

    /// Block until the outcome is ready.
    pub fn wait(&self) -> Arc<Outcome<E>> {
        let slot = self
            .ticket
            .ready
            .wait_while(lock(&self.ticket.slot), |s| s.is_none())
            .unwrap_or_else(PoisonError::into_inner);
        Arc::clone(slot.as_ref().expect("woken with an outcome"))
    }

    /// [`Self::wait`] with a deadline; `None` on timeout.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Arc<Outcome<E>>> {
        let (slot, _) = self
            .ticket
            .ready
            .wait_timeout_while(lock(&self.ticket.slot), timeout, |s| s.is_none())
            .unwrap_or_else(PoisonError::into_inner);
        slot.clone()
    }
}

/// Point-in-time counters of the single-flight table, consumed by
/// `bench-serve async`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PipelineStats {
    /// Requests registered by any entry point (leaders, followers, rejects).
    pub submitted: u64,
    /// Leader runs; each plans and executes once.
    pub executed: u64,
    /// Followers that shared a leader's run.
    pub coalesced: u64,
    /// `submit_async` calls refused because the executor queue was full.
    pub rejected: u64,
}

/// Identity of one in-flight problem: the plan key's fingerprint plus
/// the input tensor's `Arc` identity (same allocation, same bytes). The
/// leader holds the input alive for as long as its entry exists, so no
/// other tensor can reuse the address meanwhile.
pub(crate) type FlightKey = (u64, usize);

fn flight_key<E: Element>(req: &TransposeRequest<E>, key: &PlanKey) -> FlightKey {
    (key.problem_fingerprint(), Arc::as_ptr(&req.input) as usize)
}

/// What registering a request made it.
pub(crate) enum Role<E: Element> {
    /// Run the pipeline, then complete the followers of this key.
    Lead(FlightKey),
    /// Wait: an identical leader is in flight.
    Follow(TicketHandle<E>),
}

/// In-flight problem -> tickets of the followers waiting on its leader.
type Table<E> = HashMap<FlightKey, Vec<Arc<Ticket<E>>>>;

/// The one single-flight table, with its counters.
pub(crate) struct Flights<E: Element> {
    table: Mutex<Table<E>>,
    submitted: AtomicU64,
    executed: AtomicU64,
    coalesced: AtomicU64,
    rejected: AtomicU64,
}

impl<E: Element> Flights<E> {
    pub(crate) fn new() -> Self {
        Flights {
            table: Mutex::new(HashMap::new()),
            submitted: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// Register requests in order under one lock. Each follows an
    /// identical in-flight leader (an earlier request of the same call
    /// included) or leads.
    pub(crate) fn register<'a>(
        &self,
        reqs: impl IntoIterator<Item = (&'a TransposeRequest<E>, &'a PlanKey)>,
        submitted_ns: u64,
    ) -> Vec<Role<E>> {
        let mut table = lock(&self.table);
        reqs.into_iter()
            .map(|(req, key)| {
                let key = flight_key(req, key);
                self.submitted.fetch_add(1, Ordering::Relaxed);
                match table.get_mut(&key) {
                    Some(followers) => {
                        self.coalesced.fetch_add(1, Ordering::Relaxed);
                        let ticket = Ticket::new(submitted_ns, req.envelope.clone());
                        followers.push(Arc::clone(&ticket));
                        Role::Follow(TicketHandle { ticket })
                    }
                    None => {
                        table.insert(key, Vec::new());
                        Role::Lead(key)
                    }
                }
            })
            .collect()
    }

    /// Count one leader run.
    pub(crate) fn note_run(&self) {
        self.executed.fetch_add(1, Ordering::Relaxed);
    }

    /// Remove a finished leader's entry, returning the tickets of the
    /// followers that attached while it ran.
    pub(crate) fn land(&self, key: FlightKey) -> Vec<Arc<Ticket<E>>> {
        lock(&self.table).remove(&key).unwrap_or_default()
    }

    pub(crate) fn stats(&self) -> PipelineStats {
        PipelineStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            executed: self.executed.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }
}

impl<E: Element> Drop for Flights<E> {
    /// The service is going away: a follower still attached here rides a
    /// leader that will never run, so it fails now rather than hang.
    fn drop(&mut self) {
        let table = self.table.get_mut().unwrap_or_else(PoisonError::into_inner);
        for ticket in table.drain().flat_map(|(_, followers)| followers) {
            ticket.complete(shutdown(&ticket, true));
        }
    }
}

fn shutdown<E: Element>(ticket: &Ticket<E>, coalesced: bool) -> Outcome<E> {
    Outcome::error(
        "service shut down before the request executed".into(),
        ticket.submitted_ns,
        coalesced,
    )
}

/// One `submit_async` leader waiting for a worker.
struct Job<E: Element> {
    req: TransposeRequest<E>,
    key: PlanKey,
    flight: FlightKey,
    ticket: Arc<Ticket<E>>,
}

/// Bounded FIFO of jobs: non-blocking push, blocking pop, explicit close.
struct JobQueue<E: Element> {
    /// Queued jobs, and whether the queue has closed.
    state: Mutex<(VecDeque<Job<E>>, bool)>,
    capacity: usize,
    added: Condvar,
}

impl<E: Element> JobQueue<E> {
    /// Block for the next job; `None` once the queue is closed and empty.
    fn pop(&self) -> Option<Job<E>> {
        let mut state = self
            .added
            .wait_while(lock(&self.state), |(jobs, closed)| {
                jobs.is_empty() && !*closed
            })
            .unwrap_or_else(PoisonError::into_inner);
        state.0.pop_front()
    }

    fn close(&self) {
        lock(&self.state).1 = true;
        self.added.notify_all();
    }
}

/// The worker pool behind `submit_async`. Owned by the service, started
/// on the first `submit_async`; `Drop` closes the queue and joins the
/// workers.
pub(crate) struct Executor<E: Element> {
    queue: Arc<JobQueue<E>>,
    workers: Vec<JoinHandle<()>>,
}

impl<E: Element> Executor<E> {
    pub(crate) fn start(svc: Weak<TransposeService<E>>, cfg: AsyncConfig, workers: usize) -> Self {
        let queue = Arc::new(JobQueue {
            state: Mutex::new((VecDeque::new(), false)),
            capacity: cfg.submit_capacity.max(1),
            added: Condvar::new(),
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let (queue, svc) = (Arc::clone(&queue), svc.clone());
                thread::Builder::new()
                    .name(format!("ttlg-async-{i}"))
                    .spawn(move || {
                        while let Some(job) = queue.pop() {
                            let Some(svc) = svc.upgrade() else {
                                job.ticket.complete(shutdown(&job.ticket, false));
                                continue;
                            };
                            let out =
                                svc.lead(&job.req, &job.key, job.flight, job.ticket.submitted_ns);
                            job.ticket.complete(out);
                        }
                    })
                    .expect("spawn async worker")
            })
            .collect();
        Executor { queue, workers }
    }

    /// Issue a ticket for `req` without blocking: follow an identical
    /// in-flight leader, or queue `req` as a leader, or (queue full)
    /// complete the ticket at once with an overload error.
    pub(crate) fn submit(
        &self,
        flights: &Flights<E>,
        req: TransposeRequest<E>,
        key: PlanKey,
    ) -> TicketHandle<E> {
        let flight = flight_key(&req, &key);
        let submitted_ns = clock_ns();
        // Queue under the table lock, so the entry exists before a
        // worker can finish the job and land it.
        let mut table = lock(&flights.table);
        flights.submitted.fetch_add(1, Ordering::Relaxed);
        if let Some(followers) = table.get_mut(&flight) {
            flights.coalesced.fetch_add(1, Ordering::Relaxed);
            let ticket = Ticket::new(submitted_ns, req.envelope);
            followers.push(Arc::clone(&ticket));
            return TicketHandle { ticket };
        }
        let ticket = Ticket::new(submitted_ns, None);
        let handle = TicketHandle {
            ticket: Arc::clone(&ticket),
        };
        let mut state = lock(&self.queue.state);
        if state.0.len() >= self.queue.capacity {
            let depth = state.0.len();
            drop((state, table));
            flights.rejected.fetch_add(1, Ordering::Relaxed);
            let msg = format!("async executor overloaded: queue full ({depth} queued)");
            ticket.complete(Outcome::error(msg, ticket.submitted_ns, false));
            return handle;
        }
        state.0.push_back(Job {
            req,
            key,
            flight,
            ticket,
        });
        table.insert(flight, Vec::new());
        drop((state, table));
        self.queue.added.notify_one();
        handle
    }
}

impl<E: Element> Drop for Executor<E> {
    fn drop(&mut self) {
        // Workers fail what is still queued (the service is gone) and exit.
        self.queue.close();
        let me = thread::current().id();
        for worker in self.workers.drain(..) {
            // A worker that released the last service reference runs this
            // teardown itself; it cannot join itself, and it exits once
            // the queue drains.
            if worker.thread().id() != me {
                let _ = worker.join();
            }
        }
    }
}
