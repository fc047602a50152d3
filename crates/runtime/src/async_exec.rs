//! Tickets, the single-flight table, and the executor behind
//! [`TransposeService::submit_async`].
//!
//! Every request registers in one **single-flight table** keyed by
//! `(PlanKey problem fingerprint, input identity)` through one function,
//! `Flights::register`, whether `submit` or `submit_async` brought it
//! in. The first registration of a problem leads: it runs the service's
//! staged pipeline. Identical registrations that arrive while it is in
//! flight follow: they attach a ticket to the leader's entry and run
//! nothing. Whichever thread finishes a leader completes its followers'
//! tickets itself.
//!
//! `submit_async` hands its leaders to a small executor: bounded
//! per-(tenant, class) queues drained by `ttlg-async-N` workers. A
//! follower takes no queue slot and no worker. The caller never blocks;
//! a full queue completes the ticket at once with an
//! [`ErrorKind::QueueFull`] error. The queues are keyed by the request's
//! [`Envelope`]: its tenant and its [`Priority`] class; a request without
//! one queues under one default tenant, interactive. A worker picks,
//! outermost first:
//!
//! * **class weighting** — up to four interactive requests in a row
//!   before one batch request, when both classes have work (strict
//!   priority would starve batch under sustained interactive load; FIFO
//!   would let a batch flood ruin interactive tails);
//! * **tenant round-robin** — within a class, tenants with queued work
//!   are served one request each in turn, so one hot tenant cannot
//!   monopolize the workers.
//!
//! Workers hold only a [`Weak`] reference to the service and complete
//! every ticket of a run before letting go of it. When a worker turns
//! out to hold the last reference, the service's teardown runs on that
//! worker, which then skips joining itself.

use crate::service::{ErrorKind, Outcome, ServeError, TransposeRequest, TransposeService};
use std::borrow::Borrow;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::thread::{self, JoinHandle};
use std::time::Duration;
use ttlg::PlanKey;
use ttlg_obs::{Envelope, Priority};
use ttlg_tensor::Element;

/// Lock `m`, ignoring poison: every critical section here leaves its
/// data consistent, and a panic caught elsewhere must not wedge tickets.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One request's completion slot.
pub(crate) struct Ticket<E: Element> {
    /// Clock reading ([`ttlg_obs::clock_ns`]) at submission: the
    /// request's trace starts here.
    pub(crate) submitted_ns: u64,
    /// A follower's gateway envelope, for its trace record (a leader's
    /// rides on its request).
    pub(crate) envelope: Option<Envelope>,
    slot: Mutex<Option<Arc<Outcome<E>>>>,
    ready: Condvar,
}

impl<E: Element> Ticket<E> {
    pub(crate) fn new(submitted_ns: u64, envelope: Option<Envelope>) -> Arc<Self> {
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

impl<E: Element> From<Arc<Ticket<E>>> for TicketHandle<E> {
    fn from(ticket: Arc<Ticket<E>>) -> Self {
        TicketHandle { ticket }
    }
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
    /// Requests registered by either entry point (leaders, followers,
    /// rejects).
    pub submitted: u64,
    /// Leader runs; each plans and executes once.
    pub executed: u64,
    /// Followers that shared a leader's run.
    pub coalesced: u64,
    /// `submit_async` calls refused because their (tenant, class) queue
    /// was full.
    pub rejected: u64,
}

/// Identity of one in-flight problem: the plan key's fingerprint plus
/// the input tensor's `Arc` identity (same allocation, same bytes). The
/// leader holds the input alive for as long as its entry exists, so no
/// other tensor can reuse the address meanwhile.
pub(crate) type FlightKey = (u64, usize);

pub(crate) fn flight_key<E: Element>(req: &TransposeRequest<E>, key: &PlanKey) -> FlightKey {
    (key.problem_fingerprint(), Arc::as_ptr(&req.input) as usize)
}

/// What registering a request made it.
pub(crate) enum Role<E: Element, T> {
    /// The entry is made, and `T` is what the registration's `lead`
    /// started: run the pipeline (or let it run), then land the entry.
    Lead(T),
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

    /// Register one request under its flight key: count it, then follow
    /// an identical in-flight leader, or lead. A follower gets a ticket
    /// carrying its own envelope. A leader runs `lead` with the request
    /// while the table lock is held, so whatever `lead` starts (a queued
    /// job) cannot land the entry before it exists; if `lead` refuses,
    /// no entry is made, the request counts as rejected, and the refusal
    /// comes back.
    pub(crate) fn register<R: Borrow<TransposeRequest<E>>, T, X>(
        &self,
        req: R,
        flight: FlightKey,
        submitted_ns: u64,
        lead: impl FnOnce(R) -> Result<T, X>,
    ) -> Result<Role<E, T>, X> {
        let mut table = lock(&self.table);
        self.submitted.fetch_add(1, Ordering::Relaxed);
        if let Some(followers) = table.get_mut(&flight) {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            let ticket = Ticket::new(submitted_ns, req.borrow().envelope.clone());
            followers.push(Arc::clone(&ticket));
            return Ok(Role::Follow(ticket.into()));
        }
        match lead(req) {
            Ok(led) => {
                table.insert(flight, Vec::new());
                Ok(Role::Lead(led))
            }
            Err(refused) => {
                drop(table);
                self.rejected.fetch_add(1, Ordering::Relaxed);
                Err(refused)
            }
        }
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
    let e = ServeError {
        kind: ErrorKind::Failed,
        message: "service shut down before the request executed".into(),
    };
    Outcome::error(e, ticket.submitted_ns, coalesced)
}

/// Interactive requests picked in a row before one batch request, when
/// both classes have work.
const INTERACTIVE_WEIGHT: u32 = 4;

/// The queue a request joins: its envelope's tenant and class, or the
/// default tenant (empty; the gateway never names a tenant so),
/// interactive.
fn queue_of(envelope: Option<&Envelope>) -> (String, Priority) {
    envelope.map_or((String::new(), Priority::Interactive), |e| {
        (e.tenant.clone(), e.priority)
    })
}

/// One class's queues: a FIFO per tenant with work, and those tenants
/// in serving order.
struct ClassQueues<T> {
    tenants: HashMap<String, VecDeque<T>>,
    /// Each tenant of `tenants` exactly once.
    rotation: VecDeque<String>,
}

impl<T> ClassQueues<T> {
    fn new() -> Self {
        ClassQueues {
            tenants: HashMap::new(),
            rotation: VecDeque::new(),
        }
    }

    /// Append `item` to `tenant`'s FIFO, or hand it back if that holds
    /// `capacity` (at least one) already.
    fn push(&mut self, tenant: String, item: T, capacity: usize) -> Result<(), T> {
        match self.tenants.get_mut(&tenant) {
            Some(queue) if queue.len() >= capacity => return Err(item),
            Some(queue) => queue.push_back(item),
            None => {
                self.rotation.push_back(tenant.clone());
                self.tenants.insert(tenant, VecDeque::from([item]));
            }
        }
        Ok(())
    }

    /// Take one item from the tenant at the head of the rotation. The
    /// tenant goes to the back if it still has work, or leaves the map:
    /// an idle tenant costs nothing.
    fn pop(&mut self) -> Option<T> {
        let tenant = self.rotation.pop_front()?;
        let queue = self.tenants.get_mut(&tenant).expect("rotation invariant");
        let item = queue.pop_front();
        if queue.is_empty() {
            self.tenants.remove(&tenant);
        } else {
            self.rotation.push_back(tenant);
        }
        item
    }

    fn fullest(&self) -> usize {
        self.tenants.values().map(VecDeque::len).max().unwrap_or(0)
    }
}

/// Everything [`FairQueue`]'s lock guards.
struct Queues<T> {
    interactive: ClassQueues<T>,
    batch: ClassQueues<T>,
    /// Interactive picks since the last batch pick.
    streak: u32,
    depth: usize,
    closed: bool,
}

impl<T> Queues<T> {
    /// The weighted pick: batch when interactive has no work or has had
    /// [`INTERACTIVE_WEIGHT`] picks in a row, else interactive.
    fn pick(&mut self) -> Option<T> {
        if self.depth == 0 {
            return None;
        }
        let take_batch = !self.batch.rotation.is_empty()
            && (self.interactive.rotation.is_empty() || self.streak >= INTERACTIVE_WEIGHT);
        self.depth -= 1;
        if take_batch {
            self.streak = 0;
            self.batch.pop()
        } else {
            self.streak = self.streak.saturating_add(1);
            self.interactive.pop()
        }
    }
}

/// Bounded per-(tenant, class) queues with the weighted, tenant-fair
/// pick: non-blocking push, blocking pop, explicit close.
struct FairQueue<T> {
    state: Mutex<Queues<T>>,
    /// Bound of each (tenant, class) queue.
    capacity: usize,
    added: Condvar,
}

impl<T> FairQueue<T> {
    fn new(capacity: usize) -> Self {
        FairQueue {
            state: Mutex::new(Queues {
                interactive: ClassQueues::new(),
                batch: ClassQueues::new(),
                streak: 0,
                depth: 0,
                closed: false,
            }),
            capacity: capacity.max(1),
            added: Condvar::new(),
        }
    }

    /// Queue `item`, or hand it back if the queue has closed or
    /// `tenant`'s queue of `class` is full.
    fn push(&self, tenant: String, class: Priority, item: T) -> Result<(), T> {
        let mut state = lock(&self.state);
        if state.closed {
            return Err(item);
        }
        let queues = match class {
            Priority::Interactive => &mut state.interactive,
            Priority::Batch => &mut state.batch,
        };
        queues.push(tenant, item, self.capacity)?;
        state.depth += 1;
        drop(state);
        self.added.notify_one();
        Ok(())
    }

    /// Block for the next pick; `None` once the queue has closed and
    /// drained.
    fn pop(&self) -> Option<T> {
        let mut state = lock(&self.state);
        loop {
            if let Some(item) = state.pick() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .added
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Refuse further pushes; `pop` still hands out what is queued.
    fn close(&self) {
        lock(&self.state).closed = true;
        self.added.notify_all();
    }

    /// Queued items in all, and in the fullest (tenant, class) queue.
    fn occupancy(&self) -> (usize, usize) {
        let state = lock(&self.state);
        let fullest = state.interactive.fullest().max(state.batch.fullest());
        (state.depth, fullest)
    }
}

/// Occupancy of the executor's queues, which the gateway exports as its
/// `ttlg_gateway_queue_*` gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Requests queued across every tenant and class.
    pub depth: usize,
    /// Requests in the fullest (tenant, class) queue.
    pub fullest: usize,
    /// The bound of each (tenant, class) queue
    /// ([`crate::RuntimeConfig::queue_capacity`]).
    pub capacity: usize,
}

/// One `submit_async` leader waiting for a worker.
pub(crate) struct Job<E: Element> {
    pub(crate) req: TransposeRequest<E>,
    pub(crate) key: PlanKey,
    pub(crate) flight: FlightKey,
    pub(crate) ticket: Arc<Ticket<E>>,
}

/// The worker pool behind `submit_async`. Owned by the service, started
/// on the first `submit_async`; `Drop` closes the queue and joins the
/// workers.
pub(crate) struct Executor<E: Element> {
    queue: Arc<FairQueue<Job<E>>>,
    workers: Vec<JoinHandle<()>>,
}

impl<E: Element> Executor<E> {
    pub(crate) fn start(svc: Weak<TransposeService<E>>, capacity: usize, workers: usize) -> Self {
        let queue: Arc<FairQueue<Job<E>>> = Arc::new(FairQueue::new(capacity));
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

    /// Queue `job` under its envelope's tenant and class without
    /// blocking, or hand it back (boxed: a refusal is the rare path) if
    /// that queue is full.
    pub(crate) fn submit(&self, job: Job<E>) -> Result<(), Box<Job<E>>> {
        let (tenant, class) = queue_of(job.req.envelope.as_ref());
        self.queue.push(tenant, class, job).map_err(Box::new)
    }

    /// Queued requests in all, and in the fullest (tenant, class) queue.
    pub(crate) fn occupancy(&self) -> (usize, usize) {
        self.queue.occupancy()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RuntimeConfig;
    use ttlg::Transposer;
    use ttlg_tensor::{DenseTensor, Permutation, Shape};

    fn pop_n<T>(queue: &FairQueue<T>, n: usize) -> Vec<T> {
        (0..n).map(|_| queue.pop().expect("queued")).collect()
    }

    fn envelope(tenant: &str, priority: Priority) -> Envelope {
        Envelope {
            ctx: ttlg_obs::TraceContext::generate(),
            request_id: String::new(),
            tenant: tenant.into(),
            priority,
            network_ns: 0,
            shed: None,
        }
    }

    #[test]
    fn queue_bound_is_per_tenant_and_class() {
        let queue = FairQueue::new(2);
        let push = |tenant: &str, class, item| queue.push(tenant.into(), class, item);
        push("a", Priority::Batch, 1).unwrap();
        push("a", Priority::Batch, 2).unwrap();
        assert_eq!(push("a", Priority::Batch, 3), Err(3));
        // Same tenant, other class: separate bound.
        push("a", Priority::Interactive, 4).unwrap();
        // Other tenant, same class: separate bound.
        push("b", Priority::Batch, 5).unwrap();
        assert_eq!(queue.occupancy(), (4, 2));
    }

    #[test]
    fn weighted_dequeue_interleaves_classes() {
        let queue = FairQueue::new(16);
        for _ in 0..8 {
            queue.push("t".into(), Priority::Interactive, "i").unwrap();
        }
        for _ in 0..3 {
            queue.push("t".into(), Priority::Batch, "b").unwrap();
        }
        // Four interactive per batch until interactive drains.
        assert_eq!(
            pop_n(&queue, 11),
            ["i", "i", "i", "i", "b", "i", "i", "i", "i", "b", "b"]
        );
    }

    #[test]
    fn tenants_round_robin_within_a_class() {
        let queue = FairQueue::new(16);
        for i in 0..3 {
            queue
                .push("a".into(), Priority::Batch, format!("a{i}"))
                .unwrap();
        }
        queue
            .push("b".into(), Priority::Batch, "b0".into())
            .unwrap();
        // Tenant b's single item is served second, not after all of a's.
        assert_eq!(pop_n(&queue, 4), ["a0", "b0", "a1", "a2"]);
    }

    #[test]
    fn batch_is_not_starved_by_interactive_floods() {
        let queue = FairQueue::new(200);
        for _ in 0..100 {
            queue.push("t".into(), Priority::Interactive, 0).unwrap();
        }
        queue.push("t".into(), Priority::Batch, 1).unwrap();
        // The batch item surfaces within INTERACTIVE_WEIGHT + 1 picks.
        assert_eq!(pop_n(&queue, 5), [0, 0, 0, 0, 1]);
    }

    #[test]
    fn close_refuses_new_work_and_drains_leftovers() {
        let queue = FairQueue::new(16);
        queue.push("a".into(), Priority::Interactive, 1).unwrap();
        queue.push("b".into(), Priority::Batch, 2).unwrap();
        queue.close();
        assert_eq!(queue.push("c".into(), Priority::Interactive, 3), Err(3));
        // Workers still take what was queued, then see the close.
        assert_eq!(pop_n(&queue, 2), [1, 2]);
        assert_eq!(queue.pop(), None);
        assert_eq!(queue.occupancy(), (0, 0));
    }

    /// The executor's workers drain every tenant's and class's queue,
    /// and dropping the service closes the queue and joins them.
    #[test]
    fn workers_drain_and_stop_joins() {
        let cfg = RuntimeConfig {
            workers: 3,
            ..RuntimeConfig::default()
        };
        let svc = Arc::new(TransposeService::<f64>::with_config(
            Transposer::new_k40c(),
            cfg,
        ));
        let perm = Permutation::new(&[1, 0]).unwrap();
        let tickets: Vec<_> = (0..50)
            .map(|i| {
                // Each request on its own input: nothing coalesces.
                let input = DenseTensor::<f64>::iota(Shape::new(&[8, 4]).unwrap());
                let mut req = TransposeRequest::new(Arc::new(input), perm.clone());
                let tenant = if i % 2 == 0 { "even" } else { "odd" };
                let class = if i % 3 == 0 {
                    Priority::Interactive
                } else {
                    Priority::Batch
                };
                req.envelope = Some(envelope(tenant, class));
                svc.submit_async(req)
            })
            .collect();
        for t in &tickets {
            assert!(t.wait().result.is_ok(), "every request executed");
        }
        assert_eq!(svc.pipeline_stats().executed, 50);
        assert_eq!(svc.queue_stats().depth, 0);
        drop(svc);
    }
}
