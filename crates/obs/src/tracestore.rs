//! The one store of per-request records, and the span trees read from
//! them.
//!
//! Every request the service finishes becomes one [`TraceRecord`]: the
//! service's [`RequestTrace`], the gateway's [`Envelope`] when the
//! request came in over HTTP, and the planner's decision payload. The
//! record is written once, when the request finishes. Span trees
//! ([`TraceRecord::root`], [`RequestTrace::spans`]) and decision text are
//! built only when someone reads a record.
//!
//! Each write makes one sampling decision:
//!
//! * **Tail forcing**: sheds, errors and SLO misses are always kept, with
//!   the reason recorded. The writer passes the SLO tracker's miss
//!   decision ([`crate::SloTracker::record`], whose total includes the
//!   gateway's network time), so the trace store and
//!   `ttlg_slo_violations_total` count the same misses.
//! * **Head sampling** keeps a configured fraction of the rest. It hashes
//!   the trace id (the service request id when no gateway is involved),
//!   so one trace samples consistently. An inbound `traceparent` whose
//!   sampled flag is clear suppresses head sampling, never tail forcing.
//!
//! Kept records are retained by two policies in one structure under one
//! mutex:
//!
//! * the **recent window**: the last `capacity` kept records, the source
//!   of recent-trace listings;
//! * the **slowest [`SLOWEST_PER_BUCKET`] records per `(schema,
//!   shape-class)` bucket**, the records that answer "why was p99
//!   slow". Sheds never reached the service, so they join the window
//!   only.
//!
//! The buckets are the one `(schema, shape-class)` grouping. A record
//! without a schema (planning failed) is labelled `unplanned`. The first
//! [`MAX_BUCKETS`] keys the store meets get a bucket each; every later
//! key folds into [`OVERFLOW_BUCKET`]. Beside its slowest records, each
//! bucket keeps the [`PhaseProfile`] of its key's records in the window:
//! a record's phases are added when it enters the window and taken out
//! when it leaves (pushed out, or replaced by a newer record with the
//! same trace id), so [`TraceStore::profiles`] folds nothing on read.
//!
//! A record stays fetchable by trace id while either policy holds it.
//! One that leaves both is evicted and counted
//! (`ttlg_trace_store_evicted_total`). The decision payload is generic
//! (`D`) so this crate stays dependency-free; the runtime stores
//! `Arc<DecisionTrace>`.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::snapshot::{MetricKind, MetricsSnapshot, Sample};
use crate::{PhaseProfile, RequestTrace, ShapeClass, TraceContext};

/// Slowest records kept per `(schema, shape-class)` bucket.
pub const SLOWEST_PER_BUCKET: usize = 4;

/// Distinct buckets before further keys fold into [`OVERFLOW_BUCKET`].
pub const MAX_BUCKETS: usize = 64;

/// Schema and shape-class label of the overflow bucket.
pub const OVERFLOW_BUCKET: &str = "_other";

/// A bucket's key: the record's schema (`"unplanned"` when planning
/// failed) and shape class.
type BucketKey = (&'static str, Option<ShapeClass>);

/// The key every record past the bucket cap competes under.
const OVERFLOW_KEY: BucketKey = (OVERFLOW_BUCKET, None);

/// Window capacity and head-sampling rate. `Copy` so it can ride inside
/// the runtime's `Copy` config.
#[derive(Debug, Clone, Copy)]
pub struct TraceStoreConfig {
    /// Records in the recent window; the oldest leaves beyond this.
    pub capacity: usize,
    /// Head-sampling rate in `[0, 1]`: fraction of ordinary requests
    /// kept. Shed, error and SLO-miss records bypass the rate.
    pub sample_rate: f64,
}

impl Default for TraceStoreConfig {
    fn default() -> Self {
        TraceStoreConfig {
            capacity: 256,
            sample_rate: 1.0,
        }
    }
}

/// Why a record was kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleReason {
    /// Head sampling: the id hashed under the configured rate.
    Head,
    /// Forced: the request missed its latency objective.
    SloMiss,
    /// Forced: the request was load-shed.
    Shed,
    /// Forced: the request failed.
    Error,
}

impl SampleReason {
    const ALL: [SampleReason; 4] = [
        SampleReason::Head,
        SampleReason::SloMiss,
        SampleReason::Shed,
        SampleReason::Error,
    ];

    /// Label value for metrics and JSON.
    pub fn as_str(&self) -> &'static str {
        match self {
            SampleReason::Head => "head",
            SampleReason::SloMiss => "slo_miss",
            SampleReason::Shed => "shed",
            SampleReason::Error => "error",
        }
    }
}

/// One timed region of a request with attributes and children.
#[derive(Debug, Clone, Default)]
pub struct SpanNode {
    /// Span name, e.g. `"plan"`, `"alg3-sweep"`.
    pub name: String,
    /// Process-relative start, ns (see [`crate::clock_ns`]).
    pub start_ns: u64,
    /// Duration, ns.
    pub duration_ns: u64,
    /// String-rendered attributes.
    pub attrs: Vec<(String, String)>,
    /// Child spans, in start order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// A leaf span.
    pub fn new(name: impl Into<String>, start_ns: u64, duration_ns: u64) -> SpanNode {
        SpanNode {
            name: name.into(),
            start_ns,
            duration_ns,
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Attach an attribute (builder style).
    pub fn with_attr(mut self, key: impl Into<String>, value: impl Into<String>) -> SpanNode {
        self.attrs.push((key.into(), value.into()));
        self
    }

    /// Attach a child (builder style).
    pub fn with_child(mut self, child: SpanNode) -> SpanNode {
        self.children.push(child);
        self
    }

    /// Total spans in this subtree (including self).
    pub fn span_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(SpanNode::span_count)
            .sum::<usize>()
    }

    /// Depth-first search by span name.
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// Flame-style rendering: one line per span with duration, share of
    /// the root, and a proportional bar, attributes in brackets.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let root_ns = self.duration_ns.max(1);
        self.render_into(&mut out, "", true, true, root_ns);
        out
    }

    fn render_into(
        &self,
        out: &mut String,
        prefix: &str,
        is_last: bool,
        is_root: bool,
        root_ns: u64,
    ) {
        const BAR_WIDTH: usize = 24;
        let (branch, child_prefix) = if is_root {
            (String::new(), String::new())
        } else if is_last {
            (format!("{prefix}`- "), format!("{prefix}   "))
        } else {
            (format!("{prefix}|- "), format!("{prefix}|  "))
        };
        let share = self.duration_ns as f64 / root_ns as f64;
        let filled = ((share * BAR_WIDTH as f64).round() as usize).min(BAR_WIDTH);
        let label = format!("{branch}{}", self.name);
        let attrs = if self.attrs.is_empty() {
            String::new()
        } else {
            let pairs: Vec<String> = self.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!("  [{}]", pairs.join(" "))
        };
        out.push_str(&format!(
            "{label:<32} {:>12.1} us {:>6.1}%  |{}{}|{}\n",
            self.duration_ns as f64 / 1e3,
            share * 100.0,
            "#".repeat(filled),
            " ".repeat(BAR_WIDTH - filled),
            attrs,
        ));
        for (i, child) in self.children.iter().enumerate() {
            child.render_into(
                out,
                &child_prefix,
                i + 1 == self.children.len(),
                false,
                root_ns,
            );
        }
    }
}

impl RequestTrace {
    /// The service-side span forest, laid out from the trace's stage
    /// times, which are sequential: `queue-wait`, then `plan` (children
    /// `cache-lookup` and, on a miss, `plan-build` with `alg3-sweep`),
    /// then `execute` (children `kernel-launch` and `kernel`). A request
    /// whose plan never arrived ends at `plan`, carrying the error.
    pub fn spans(&self) -> Vec<SpanNode> {
        let queue = SpanNode::new("queue-wait", self.start_ns, self.queue_wait_ns);
        let plan_start = self.start_ns + self.queue_wait_ns;
        let mut plan = SpanNode::new("plan", plan_start, self.plan_fetch_ns);
        let Some(hit) = self.cache_hit else {
            if let Some(err) = &self.error {
                plan = plan.with_attr("error", err.clone());
            }
            return vec![queue, plan];
        };
        plan = plan
            .with_attr("cache", if hit { "hit" } else { "miss" })
            .with_child(SpanNode::new("cache-lookup", plan_start, self.lookup_ns));
        if !hit && self.build_ns > 0 {
            let build_start = plan_start + self.lookup_ns;
            let mut build = SpanNode::new("plan-build", build_start, self.build_ns);
            if self.sweep_ns > 0 {
                build = build.with_child(
                    SpanNode::new("alg3-sweep", build_start, self.sweep_ns)
                        .with_attr("candidates", self.candidates.to_string()),
                );
            }
            plan = plan.with_child(build);
        }
        let exec_start = plan_start + self.plan_fetch_ns;
        let mut exec =
            SpanNode::new("execute", exec_start, self.execute_ns).with_attr("schema", self.schema);
        if self.ok {
            exec = exec
                .with_child(SpanNode::new("kernel-launch", exec_start, self.launch_ns))
                .with_child(
                    SpanNode::new(
                        "kernel",
                        exec_start + self.launch_ns,
                        self.measured_ns as u64,
                    )
                    .with_attr("predicted_ns", format!("{:.0}", self.predicted_ns))
                    .with_attr("dram_efficiency", format!("{:.3}", self.dram_efficiency))
                    .with_attr("smem_replay", format!("{:.3}", self.smem_replay_rate)),
                );
        } else {
            exec = exec.with_attr("error", self.error.clone().unwrap_or_default());
        }
        vec![queue, plan, exec]
    }
}

/// Priority class of a request, from the `x-ttlg-priority` header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Latency-sensitive traffic; weighted ahead of batch.
    Interactive,
    /// Throughput traffic; served with the leftover weight.
    Batch,
}

impl Priority {
    /// Parse a header value. Unknown values are `None` (the gateway
    /// answers 400 rather than guessing).
    pub fn parse(s: &str) -> Option<Priority> {
        match s {
            "interactive" => Some(Priority::Interactive),
            "batch" => Some(Priority::Batch),
            _ => None,
        }
    }

    /// Label for metrics and response bodies.
    pub fn as_str(&self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
        }
    }
}

/// What the network edge knows about a request. It travels to the
/// service with the request and lands in the request's record.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// The W3C context the request ran under: its trace id (the
    /// `GET /v1/trace/:id` key) and whether the caller sampled it.
    pub ctx: TraceContext,
    /// The request id echoed to the client.
    pub request_id: String,
    /// Sanitized tenant label.
    pub tenant: String,
    /// Priority class: with the tenant, it picks the service queue the
    /// request waits in.
    pub priority: Priority,
    /// First byte to parsed request, ns: the edge's only phase; the
    /// service's `queue-wait` runs from admission on.
    pub network_ns: u64,
    /// Why the edge shed the request, if it did. A shed never ran in the
    /// service, so its record holds no service stages.
    pub shed: Option<&'static str>,
}

/// One retained request.
#[derive(Debug, Clone)]
pub struct TraceRecord<D> {
    /// The service's trace: stage times, cache attribution, Table I
    /// rates, and the numbers the span tree is laid out from.
    pub trace: RequestTrace,
    /// The gateway's envelope, when the request came in over HTTP.
    pub envelope: Option<Envelope>,
    /// The planner's decision payload, when the plan retained one.
    pub decision: Option<D>,
    /// Why the record was kept.
    pub reason: SampleReason,
}

impl<D> TraceRecord<D> {
    /// End-to-end duration, ns: the service's stages plus the edge's
    /// network time.
    pub fn total_ns(&self) -> u64 {
        self.trace.total_ns() + self.network_ns()
    }

    /// The edge's network time, ns (0 without a gateway).
    fn network_ns(&self) -> u64 {
        self.envelope.as_ref().map_or(0, |e| e.network_ns)
    }

    /// Start of the request, ns: the first byte on the wire when a
    /// gateway is involved, else the service submission.
    fn start_ns(&self) -> u64 {
        self.trace.start_ns.saturating_sub(self.network_ns())
    }

    /// Whether the gateway shed this request.
    pub fn is_shed(&self) -> bool {
        self.envelope.as_ref().is_some_and(|e| e.shed.is_some())
    }

    /// The request's span tree, built on read and rooted at `request`.
    /// A gateway request adds its `network` span and the tenant/priority
    /// attributes; a shed is the root plus its `network` span.
    pub fn root(&self) -> SpanNode {
        let start = self.start_ns();
        let mut root = SpanNode::new("request", start, self.total_ns());
        let Some(e) = &self.envelope else {
            root.children = self.trace.spans();
            return root;
        };
        root = root.with_attr("tenant", e.tenant.clone());
        let network = SpanNode::new("network", start, e.network_ns);
        if let Some(shed) = e.shed {
            return root.with_attr("shed", shed).with_child(network);
        }
        root = root
            .with_attr("priority", e.priority.as_str())
            .with_child(network);
        root.children.extend(self.trace.spans());
        root
    }

    fn trace_id(&self) -> Option<u128> {
        self.envelope.as_ref().map(|e| e.ctx.trace_id)
    }

    /// The `(schema, shape-class)` key of this record's bucket; `None`
    /// for sheds.
    fn bucket_key(&self) -> Option<BucketKey> {
        if self.is_shed() {
            return None;
        }
        let schema = match self.trace.schema {
            "" => "unplanned",
            s => s,
        };
        Some((schema, self.trace.shape_class))
    }
}

/// A retained record with its write sequence number.
type Slot<D> = (u64, Arc<TraceRecord<D>>);

/// `(schema, shape-class)` buckets with their slowest records, slowest
/// first within each bucket.
pub type SlowestBuckets<D> = Vec<((String, String), Vec<Arc<TraceRecord<D>>>)>;

struct Bucket<D> {
    /// At most [`SLOWEST_PER_BUCKET`] records.
    slowest: Vec<Slot<D>>,
    /// The key's records in the recent window, under the bucket's labels
    /// (rendered once, when the bucket is created).
    profile: PhaseProfile,
}

impl<D> Bucket<D> {
    fn new((schema, class): BucketKey) -> Bucket<D> {
        let class = match class {
            Some(c) => c.to_string(),
            None if schema == OVERFLOW_BUCKET => OVERFLOW_BUCKET.to_string(),
            None => String::new(),
        };
        let profile = PhaseProfile::new(schema.to_string(), class);
        Bucket {
            slowest: Vec::new(),
            profile,
        }
    }
}

struct Inner<D> {
    next_seq: u64,
    /// Recent window, oldest first (sequence numbers ascend); the flag
    /// marks a record its bucket holds too.
    window: VecDeque<(Slot<D>, bool)>,
    /// At most [`MAX_BUCKETS`] buckets plus the overflow bucket.
    buckets: HashMap<BucketKey, Bucket<D>>,
    /// Trace id -> record, for gateway records the window or a bucket
    /// holds.
    index: HashMap<u128, Arc<TraceRecord<D>>>,
    /// Distinct records the window or a bucket holds.
    resident: usize,
    evicted: u64,
}

impl<D> Inner<D> {
    fn window_pos(&self, seq: u64) -> Option<usize> {
        self.window.binary_search_by_key(&seq, |(s, _)| s.0).ok()
    }

    /// The bucket `rec` competes in, created on first use while under the
    /// cap; the overflow bucket after that. Buckets are never removed, so
    /// a record finds the same bucket for as long as the store holds it.
    /// `None` for sheds.
    fn bucket_for(&mut self, rec: &TraceRecord<D>) -> Option<&mut Bucket<D>> {
        let mut key = rec.bucket_key()?;
        if self.buckets.len() >= MAX_BUCKETS && !self.buckets.contains_key(&key) {
            key = OVERFLOW_KEY;
        }
        Some(self.buckets.entry(key).or_insert_with(|| Bucket::new(key)))
    }

    /// A record left the store: neither the window nor its bucket holds
    /// it any more.
    fn gone(&mut self, rec: &Arc<TraceRecord<D>>) {
        self.resident -= 1;
        self.evicted += 1;
        if let Some(id) = rec.trace_id() {
            if self.index.get(&id).is_some_and(|cur| Arc::ptr_eq(cur, rec)) {
                self.index.remove(&id);
            }
        }
    }

    /// Drop a record a newer one with the same trace id replaced, from
    /// both policies and its bucket's profile, so no ghost entry remains.
    fn forget(&mut self, rec: &Arc<TraceRecord<D>>) {
        let in_window = self.window.iter().position(|(s, _)| Arc::ptr_eq(&s.1, rec));
        if let Some(at) = in_window {
            self.window.remove(at);
        }
        if let Some(bucket) = self.bucket_for(rec) {
            if in_window.is_some() {
                bucket.profile.forget(&rec.trace);
            }
            bucket.slowest.retain(|s| !Arc::ptr_eq(&s.1, rec));
        }
        self.resident -= 1;
    }

    /// Window and bucket records, each once.
    fn resident_records(&self) -> impl Iterator<Item = &Arc<TraceRecord<D>>> {
        let bucket_only = self
            .buckets
            .values()
            .flat_map(|b| &b.slowest)
            .filter(|s| self.window_pos(s.0).is_none());
        self.window
            .iter()
            .map(|(s, _)| s)
            .chain(bucket_only)
            .map(|s| &s.1)
    }
}

/// The bounded, sampling store of per-request records. See the module
/// docs for the policies.
pub struct TraceStore<D> {
    capacity: usize,
    /// `sample_rate` mapped onto the id-hash space; ids hashing below
    /// this are head-sampled.
    threshold: u64,
    inner: Mutex<Inner<D>>,
    offered: AtomicU64,
    /// Kept records, by [`SampleReason`] in declaration order.
    sampled: [AtomicU64; 4],
    unsampled: AtomicU64,
}

impl<D> TraceStore<D> {
    /// A store with `cfg`'s window and rate.
    pub fn new(cfg: TraceStoreConfig) -> TraceStore<D> {
        let rate = cfg.sample_rate.clamp(0.0, 1.0);
        let threshold = if rate >= 1.0 {
            u64::MAX
        } else {
            (rate * u64::MAX as f64) as u64
        };
        TraceStore {
            capacity: cfg.capacity.max(1),
            threshold,
            inner: Mutex::new(Inner {
                next_seq: 0,
                window: VecDeque::new(),
                buckets: HashMap::new(),
                index: HashMap::new(),
                resident: 0,
                evicted: 0,
            }),
            offered: AtomicU64::new(0),
            sampled: Default::default(),
            unsampled: AtomicU64::new(0),
        }
    }

    /// Record one finished request, making its one sampling decision;
    /// `slo_miss` is the SLO tracker's miss decision for it
    /// ([`crate::SloTracker::record`]). Returns why the record was kept,
    /// or `None` when head sampling declined it; a declined record costs
    /// no lock.
    pub fn write(
        &self,
        trace: &RequestTrace,
        envelope: Option<Envelope>,
        decision: Option<&D>,
        slo_miss: bool,
    ) -> Option<SampleReason>
    where
        D: Clone,
    {
        self.offered.fetch_add(1, Ordering::Relaxed);
        let reason = if envelope.as_ref().is_some_and(|e| e.shed.is_some()) {
            SampleReason::Shed
        } else if !trace.ok {
            SampleReason::Error
        } else if slo_miss {
            SampleReason::SloMiss
        } else if self.head_sampled(trace, envelope.as_ref()) {
            SampleReason::Head
        } else {
            self.unsampled.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        self.sampled[reason as usize].fetch_add(1, Ordering::Relaxed);
        self.insert(Arc::new(TraceRecord {
            trace: trace.clone(),
            envelope,
            decision: decision.cloned(),
            reason,
        }));
        Some(reason)
    }

    fn head_sampled(&self, trace: &RequestTrace, envelope: Option<&Envelope>) -> bool {
        let id = match envelope {
            Some(e) if !e.ctx.sampled() => return false,
            Some(e) => e.ctx.trace_id,
            None => trace.id as u128,
        };
        // Hash rather than compare the raw id: client-supplied trace ids
        // may be structured (sequential low bits), and the decision must
        // be uniform in the rate regardless.
        self.threshold == u64::MAX || mix128(id) < self.threshold
    }

    fn insert(&self, rec: Arc<TraceRecord<D>>) {
        let mut guard = self.inner.lock().expect("trace store poisoned");
        let inner = &mut *guard;
        if let Some(id) = rec.trace_id() {
            if let Some(old) = inner.index.insert(id, Arc::clone(&rec)) {
                inner.forget(&old);
            }
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.resident += 1;
        let total_ns = rec.total_ns();
        let mut displaced = None;
        let bucketed = match inner.bucket_for(&rec) {
            None => false,
            Some(bucket) => {
                bucket.profile.observe(&rec.trace);
                let slowest = &mut bucket.slowest;
                if slowest.len() < SLOWEST_PER_BUCKET {
                    slowest.push((seq, Arc::clone(&rec)));
                    true
                } else {
                    let (fastest, fastest_ns) = slowest
                        .iter()
                        .map(|s| s.1.total_ns())
                        .enumerate()
                        .min_by_key(|&(_, ns)| ns)
                        .expect("bucket is full");
                    if total_ns > fastest_ns {
                        displaced = Some(std::mem::replace(
                            &mut slowest[fastest],
                            (seq, Arc::clone(&rec)),
                        ));
                    }
                    displaced.is_some()
                }
            }
        };
        if let Some((old_seq, old)) = displaced {
            match inner.window_pos(old_seq) {
                Some(at) => inner.window[at].1 = false,
                None => inner.gone(&old),
            }
        }
        inner.window.push_back(((seq, rec), bucketed));
        while inner.window.len() > self.capacity {
            let ((_, old), bucketed) = inner.window.pop_front().expect("window over capacity");
            if let Some(bucket) = inner.bucket_for(&old) {
                bucket.profile.forget(&old.trace);
            }
            if !bucketed {
                inner.gone(&old);
            }
        }
    }

    /// The retained record for a trace id.
    pub fn get(&self, trace_id: u128) -> Option<Arc<TraceRecord<D>>> {
        self.inner
            .lock()
            .expect("trace store poisoned")
            .index
            .get(&trace_id)
            .cloned()
    }

    /// The `n` most recent records of the window, newest first.
    pub fn recent(&self, n: usize) -> Vec<Arc<TraceRecord<D>>> {
        self.inner
            .lock()
            .expect("trace store poisoned")
            .window
            .iter()
            .rev()
            .take(n)
            .map(|((_, rec), _)| Arc::clone(rec))
            .collect()
    }

    /// The `n` slowest retained records, window and buckets, slowest
    /// first.
    pub fn slowest(&self, n: usize) -> Vec<Arc<TraceRecord<D>>> {
        let mut all: Vec<Arc<TraceRecord<D>>> = self
            .inner
            .lock()
            .expect("trace store poisoned")
            .resident_records()
            .cloned()
            .collect();
        all.sort_by_key(|r| std::cmp::Reverse(r.total_ns()));
        all.truncate(n);
        all
    }

    /// Every non-empty bucket with its records, slowest first within a
    /// bucket, buckets ordered by their slowest record.
    pub fn buckets(&self) -> SlowestBuckets<D> {
        let inner = self.inner.lock().expect("trace store poisoned");
        let mut out: SlowestBuckets<D> = inner
            .buckets
            .values()
            .filter(|b| !b.slowest.is_empty())
            .map(|b| {
                let mut recs: Vec<Arc<TraceRecord<D>>> =
                    b.slowest.iter().map(|s| Arc::clone(&s.1)).collect();
                recs.sort_by_key(|r| std::cmp::Reverse(r.total_ns()));
                let labels = (b.profile.schema.clone(), b.profile.shape_class.clone());
                (labels, recs)
            })
            .collect();
        out.sort_by_key(|(_, recs)| std::cmp::Reverse(recs[0].total_ns()));
        out
    }

    /// The phase profile of every bucket with records in the recent
    /// window, hottest (most attributed time) first.
    pub fn profiles(&self) -> Vec<PhaseProfile> {
        let mut out: Vec<PhaseProfile> = self
            .inner
            .lock()
            .expect("trace store poisoned")
            .buckets
            .values()
            .filter(|b| b.profile.requests > 0)
            .map(|b| b.profile.clone())
            .collect();
        out.sort_by(|a, b| {
            b.total_ns()
                .cmp(&a.total_ns())
                .then_with(|| a.schema.cmp(&b.schema))
                .then_with(|| a.shape_class.cmp(&b.shape_class))
        });
        out
    }

    /// Records currently retained by the window or a bucket.
    pub fn resident(&self) -> usize {
        self.inner.lock().expect("trace store poisoned").resident
    }

    /// Records that left both the window and their bucket.
    pub fn evicted(&self) -> u64 {
        self.inner.lock().expect("trace store poisoned").evicted
    }

    /// Requests written so far.
    pub fn offered(&self) -> u64 {
        self.offered.load(Ordering::Relaxed)
    }

    /// Records kept so far (all reasons).
    pub fn sampled(&self) -> u64 {
        self.sampled.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Writes declined by head sampling.
    pub fn unsampled(&self) -> u64 {
        self.unsampled.load(Ordering::Relaxed)
    }

    /// Append the `ttlg_trace_store_*` families to a snapshot.
    pub fn export_into(&self, snap: &mut MetricsSnapshot) {
        snap.push_metric(
            "ttlg_trace_store_offered_total",
            "Requests offered to the trace store.",
            MetricKind::Counter,
            vec![Sample::plain(self.offered() as f64)],
        );
        snap.push_metric(
            "ttlg_trace_store_sampled_total",
            "Records kept, by sampling reason.",
            MetricKind::Counter,
            SampleReason::ALL
                .iter()
                .map(|&r| {
                    let n = self.sampled[r as usize].load(Ordering::Relaxed);
                    Sample::labelled("reason", r.as_str(), n as f64)
                })
                .collect(),
        );
        snap.push_metric(
            "ttlg_trace_store_unsampled_total",
            "Offers declined by head sampling.",
            MetricKind::Counter,
            vec![Sample::plain(self.unsampled() as f64)],
        );
        snap.push_metric(
            "ttlg_trace_store_evicted_total",
            "Records that left both the recent window and their slowest-per-bucket set.",
            MetricKind::Counter,
            vec![Sample::plain(self.evicted() as f64)],
        );
        snap.push_metric(
            "ttlg_trace_store_resident",
            "Records currently retained.",
            MetricKind::Gauge,
            vec![Sample::plain(self.resident() as f64)],
        );
    }
}

/// Fold a 128-bit id into a well-mixed 64-bit hash (splitmix64 finalizer
/// over both halves).
fn mix128(id: u128) -> u64 {
    let mut z = (id as u64) ^ ((id >> 64) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(capacity: usize, sample_rate: f64) -> TraceStore<u64> {
        TraceStore::new(TraceStoreConfig {
            capacity,
            sample_rate,
        })
    }

    /// The shape class `r<rank>v<log2_volume>`.
    fn class(rank: u32, log2_volume: u32) -> Option<ShapeClass> {
        Some(ShapeClass { rank, log2_volume })
    }

    /// A successful service trace of `total_ns` in one bucket.
    fn trace(
        id: u64,
        schema: &'static str,
        class: Option<ShapeClass>,
        total_ns: u64,
    ) -> RequestTrace {
        RequestTrace {
            id,
            schema,
            shape_class: class,
            ok: true,
            cache_hit: Some(true),
            execute_ns: total_ns,
            ..Default::default()
        }
    }

    fn envelope(trace_id: u128) -> Envelope {
        Envelope {
            ctx: TraceContext {
                trace_id,
                parent_span_id: 1,
                flags: crate::tracecontext::FLAG_SAMPLED,
            },
            request_id: format!("req-{trace_id}"),
            tenant: "acme".into(),
            priority: Priority::Interactive,
            network_ns: 0,
            shed: None,
        }
    }

    /// Write a gateway record with trace id `id` and total `total_ns`.
    fn put(s: &TraceStore<u64>, id: u64, total_ns: u64) -> Option<SampleReason> {
        s.write(
            &trace(id, "Naive", class(3, 12), total_ns),
            Some(envelope(id as u128)),
            Some(&total_ns),
            false,
        )
    }

    fn ids(recs: &[Arc<TraceRecord<u64>>]) -> Vec<u64> {
        recs.iter().map(|r| r.trace.id).collect()
    }

    fn totals(recs: &[Arc<TraceRecord<u64>>]) -> Vec<u64> {
        recs.iter().map(|r| r.total_ns()).collect()
    }

    fn tree(total_ns: u64) -> SpanNode {
        SpanNode::new("request", 0, total_ns)
            .with_child(SpanNode::new("network", 0, total_ns / 10))
            .with_child(
                SpanNode::new("plan", total_ns / 10, total_ns / 2)
                    .with_attr("cache", "miss")
                    .with_child(SpanNode::new("cache-lookup", total_ns / 10, 100))
                    .with_child(SpanNode::new("alg3-sweep", total_ns / 5, total_ns / 4)),
            )
            .with_child(SpanNode::new("execute", total_ns / 2, total_ns / 2))
    }

    #[test]
    fn span_tree_counts_finds_and_renders() {
        let t = tree(10_000);
        assert_eq!(t.span_count(), 6);
        assert_eq!(t.find("alg3-sweep").unwrap().duration_ns, 2_500);
        assert!(t.find("nope").is_none());
        let text = t.render();
        assert!(text.contains("request"), "{text}");
        assert!(text.contains("|- plan"), "{text}");
        assert!(text.contains("`- execute"), "{text}");
        assert!(text.contains("[cache=miss]"), "{text}");
        assert!(text.contains("100.0%"), "{text}");
        // Children are indented under their parent.
        assert!(text.contains("|  |- cache-lookup"), "{text}");
    }

    /// One span as a `(depth, name, start, duration, attrs)` row.
    type Row = (usize, String, u64, u64, Vec<(String, String)>);

    /// Depth-first rows of a span tree.
    fn flatten(s: &SpanNode) -> Vec<Row> {
        fn walk(s: &SpanNode, depth: usize, out: &mut Vec<Row>) {
            out.push((
                depth,
                s.name.clone(),
                s.start_ns,
                s.duration_ns,
                s.attrs.clone(),
            ));
            for c in &s.children {
                walk(c, depth + 1, out);
            }
        }
        let mut out = Vec::new();
        walk(s, 0, &mut out);
        out
    }

    fn row(depth: usize, name: &str, start: u64, dur: u64, attrs: &[(&str, &str)]) -> Row {
        let attrs = attrs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        (depth, name.to_string(), start, dur, attrs)
    }

    /// The on-read span builder lays out DESIGN §11's taxonomy exactly,
    /// from fixed numbers: a miss with an Alg. 3 sweep, a cache hit, a
    /// coalesced follower, a failed plan, and a shed.
    #[test]
    fn span_builder_lays_out_the_design_taxonomy() {
        let served = RequestTrace {
            id: 3,
            start_ns: 10_000,
            schema: "Orthogonal-Distinct",
            shape_class: class(3, 9),
            ok: true,
            cache_hit: Some(false),
            queue_wait_ns: 100,
            plan_fetch_ns: 5_000,
            execute_ns: 2_000,
            predicted_ns: 1_234.4,
            measured_ns: 1_500.0,
            dram_efficiency: 0.5,
            smem_replay_rate: 0.25,
            lookup_ns: 300,
            build_ns: 4_600,
            sweep_ns: 4_000,
            candidates: 17,
            launch_ns: 400,
            ..Default::default()
        };
        let record = |trace: RequestTrace, shed: Option<&'static str>| TraceRecord::<u64> {
            trace,
            envelope: Some(Envelope {
                network_ns: 900,
                shed,
                ..envelope(9)
            }),
            decision: None,
            reason: SampleReason::Head,
        };
        let kernel = [
            ("predicted_ns", "1234"),
            ("dram_efficiency", "0.500"),
            ("smem_replay", "0.250"),
        ];
        let gateway = [("tenant", "acme"), ("priority", "interactive")];

        // Miss: plan-build with its sweep; the root starts at the first
        // byte on the wire, 900 ns before the service submission.
        let miss = record(served.clone(), None);
        assert_eq!(
            flatten(&miss.root()),
            vec![
                row(0, "request", 9_100, 8_000, &gateway),
                row(1, "network", 9_100, 900, &[]),
                row(1, "queue-wait", 10_000, 100, &[]),
                row(1, "plan", 10_100, 5_000, &[("cache", "miss")]),
                row(2, "cache-lookup", 10_100, 300, &[]),
                row(2, "plan-build", 10_400, 4_600, &[]),
                row(3, "alg3-sweep", 10_400, 4_000, &[("candidates", "17")]),
                row(
                    1,
                    "execute",
                    15_100,
                    2_000,
                    &[("schema", "Orthogonal-Distinct")]
                ),
                row(2, "kernel-launch", 15_100, 400, &[]),
                row(2, "kernel", 15_500, 1_500, &kernel),
            ]
        );

        // Hit: no build, so no sweep, whatever the plan once cost.
        let hit = record(
            RequestTrace {
                cache_hit: Some(true),
                plan_fetch_ns: 300,
                build_ns: 0,
                ..served.clone()
            },
            None,
        );
        let rows = flatten(&hit.root());
        assert_eq!(rows[3], row(1, "plan", 10_100, 300, &[("cache", "hit")]));
        assert_eq!(rows[4], row(2, "cache-lookup", 10_100, 300, &[]));
        assert_eq!(rows[5].1, "execute");
        assert_eq!(rows.len(), 8);

        // Coalesced follower: the leader's numbers, no lookup or build of
        // its own, and its whole wait before the shared execute.
        let follower = RequestTrace {
            coalesced: true,
            cache_hit: Some(true),
            queue_wait_ns: 3_000,
            plan_fetch_ns: 0,
            lookup_ns: 0,
            build_ns: 0,
            ..served.clone()
        };
        assert_eq!(
            flatten(&SpanNode {
                children: follower.spans(),
                ..SpanNode::default()
            })[1..],
            [
                row(1, "queue-wait", 10_000, 3_000, &[]),
                row(1, "plan", 13_000, 0, &[("cache", "hit")]),
                row(2, "cache-lookup", 13_000, 0, &[]),
                row(
                    1,
                    "execute",
                    13_000,
                    2_000,
                    &[("schema", "Orthogonal-Distinct")]
                ),
                row(2, "kernel-launch", 13_000, 400, &[]),
                row(2, "kernel", 13_400, 1_500, &kernel),
            ]
        );

        // Failed plan: the cache never answered, so the tree ends at plan.
        let failed = RequestTrace {
            id: 4,
            start_ns: 10_000,
            queue_wait_ns: 100,
            plan_fetch_ns: 900,
            error: Some("no admissible schema".into()),
            ..Default::default()
        };
        assert_eq!(
            flatten(&record(failed, None).root()),
            vec![
                row(0, "request", 9_100, 1_900, &gateway),
                row(1, "network", 9_100, 900, &[]),
                row(1, "queue-wait", 10_000, 100, &[]),
                row(1, "plan", 10_100, 900, &[("error", "no admissible schema")]),
            ]
        );

        // Shed: the root and its network span.
        let shed = record(
            RequestTrace {
                start_ns: 10_000,
                ..Default::default()
            },
            Some("quota"),
        );
        assert_eq!(
            flatten(&shed.root()),
            vec![
                row(
                    0,
                    "request",
                    9_100,
                    900,
                    &[("tenant", "acme"), ("shed", "quota")]
                ),
                row(1, "network", 9_100, 900, &[]),
            ]
        );
    }

    #[test]
    fn rate_one_samples_everything() {
        let s = store(256, 1.0);
        for id in 1..=100 {
            assert_eq!(put(&s, id, 10), Some(SampleReason::Head));
        }
        assert_eq!(s.offered(), 100);
        assert_eq!(s.sampled(), 100);
        assert_eq!(s.unsampled(), 0);
    }

    /// Tail forcing: errors, sheds and SLO misses are kept at rate 0,
    /// and with the caller's sampled flag clear.
    #[test]
    fn rate_zero_samples_nothing_but_forced() {
        let s = store(8, 0.0);
        for id in 1..=50 {
            assert_eq!(put(&s, id, 10), None);
        }
        assert_eq!(s.unsampled(), 50);
        assert_eq!(s.resident(), 0);
        let failed = RequestTrace {
            error: Some("boom".into()),
            ..Default::default()
        };
        assert_eq!(
            s.write(&failed, None, None, false),
            Some(SampleReason::Error)
        );
        let unsampled_flag = Envelope {
            ctx: TraceContext {
                flags: 0,
                ..envelope(51).ctx
            },
            ..envelope(51)
        };
        assert_eq!(
            s.write(
                &trace(51, "Naive", class(3, 12), 1),
                Some(unsampled_flag),
                None,
                true
            ),
            Some(SampleReason::SloMiss)
        );
        let shed = Envelope {
            shed: Some("quota"),
            ..envelope(52)
        };
        assert_eq!(
            s.write(&RequestTrace::default(), Some(shed), None, false),
            Some(SampleReason::Shed)
        );
        assert_eq!(s.offered(), 53);
        assert_eq!(s.sampled(), 3);
    }

    #[test]
    fn unsampled_inbound_flag_suppresses_head_sampling() {
        let s = store(8, 1.0);
        let unsampled_flag = Envelope {
            ctx: TraceContext {
                flags: 0,
                ..envelope(7).ctx
            },
            ..envelope(7)
        };
        let t = trace(7, "Naive", class(3, 12), 10);
        assert_eq!(s.write(&t, Some(unsampled_flag), None, false), None);
        assert!(s.get(7).is_none());
        assert_eq!(s.unsampled(), 1);
    }

    #[test]
    fn fractional_rate_is_roughly_proportional_and_deterministic() {
        let count = |s: &TraceStore<u64>| (1..=4000).filter(|&id| put(s, id, 10).is_some()).count();
        let hits = count(&store(8, 0.25));
        // Deterministic hash, so the count is exact across runs; just
        // bound it loosely around 25%.
        assert!((600..=1400).contains(&hits), "hits {hits}");
        // Same ids, same answers.
        assert_eq!(hits, count(&store(8, 0.25)));
        // Without a gateway the service request id is the hashed key.
        let s = store(8, 0.25);
        let service_only = (1..=4000u64)
            .filter(|&id| {
                s.write(&trace(id, "Naive", class(3, 12), 10), None, None, false)
                    .is_some()
            })
            .count();
        assert_eq!(service_only, hits);
    }

    #[test]
    fn insert_get_recent_slowest() {
        let s = store(256, 1.0);
        put(&s, 1, 500);
        put(&s, 2, 9_000);
        put(&s, 3, 2_000);
        assert_eq!(s.resident(), 3);
        let got = s.get(2).expect("retained");
        assert_eq!(got.total_ns(), 9_000);
        assert_eq!(got.decision, Some(9_000));
        assert_eq!(got.envelope.as_ref().unwrap().request_id, "req-2");
        assert_eq!(totals(&s.recent(2)), vec![2_000, 9_000]);
        assert_eq!(totals(&s.slowest(2)), vec![9_000, 2_000]);
    }

    /// The window bound and newest-first order.
    #[test]
    fn keeps_most_recent_entries() {
        let s = store(4, 1.0);
        // Each record in its own bucket, so only the window bound acts.
        for id in 0..10 {
            s.write(
                &trace(id, "Naive", class(id as u32, 0), 10),
                None,
                None,
                false,
            );
        }
        assert_eq!(ids(&s.recent(2)), vec![9, 8]);
        assert_eq!(ids(&s.recent(100)), vec![9, 8, 7, 6]);
    }

    #[test]
    fn recent_on_partially_filled_window() {
        let s = store(8, 1.0);
        put(&s, 1, 10);
        put(&s, 2, 10);
        assert_eq!(ids(&s.recent(10)), vec![2, 1]);
        assert!(store(8, 1.0).recent(3).is_empty());
    }

    #[test]
    fn capacity_is_at_least_one() {
        let s = store(0, 1.0);
        let shed = |id: u128| Envelope {
            shed: Some("queue"),
            ..envelope(id)
        };
        s.write(&RequestTrace::default(), Some(shed(1)), None, false);
        s.write(&RequestTrace::default(), Some(shed(2)), None, false);
        assert_eq!(s.recent(10).len(), 1);
        assert!(s.get(2).is_some() && s.get(1).is_none());
    }

    /// A record leaves the store, and counts as evicted, only once both
    /// the window and its bucket have let it go.
    #[test]
    fn capacity_evicts_oldest_and_counts() {
        // Rising totals: the bucket keeps the newest four, the window the
        // newest two, so the first four leave.
        let s = store(2, 1.0);
        for id in 1..=8 {
            put(&s, id, id * 100);
        }
        assert_eq!(s.resident(), 4);
        assert_eq!(s.evicted(), 4);
        assert!(s.get(4).is_none(), "evicted");
        assert!(s.get(5).is_some());
        // Falling totals: the bucket keeps the first four, the window the
        // last two.
        let s = store(2, 1.0);
        for id in 1..=8 {
            put(&s, id, 10_000 - id * 100);
        }
        assert_eq!(s.resident(), 6);
        assert_eq!(s.evicted(), 2);
        assert!(s.get(1).is_some(), "slowest stays in its bucket");
        assert!(s.get(6).is_none() && s.get(5).is_none());
        assert_eq!(ids(&s.recent(10)), vec![8, 7]);
        assert_eq!(ids(&s.slowest(1)), vec![1]);
    }

    #[test]
    fn duplicate_trace_id_replaces_without_ghost_entry() {
        let s = store(256, 1.0);
        put(&s, 7, 100);
        put(&s, 7, 999);
        assert_eq!(s.resident(), 1);
        assert_eq!(s.recent(10).len(), 1);
        assert_eq!(s.slowest(10).len(), 1);
        assert_eq!(s.buckets()[0].1.len(), 1);
        assert_eq!(s.get(7).unwrap().total_ns(), 999);
        assert_eq!(s.evicted(), 0);
        let profiles = s.profiles();
        assert_eq!((profiles[0].requests, profiles[0].execute_ns), (1, 999));
    }

    #[test]
    fn retains_slowest_per_bucket() {
        let s = store(1, 1.0);
        for (id, ns) in [10, 500, 20, 400, 30, 300, 200, 40].into_iter().enumerate() {
            put(&s, id as u64 + 1, ns);
        }
        let buckets = s.buckets();
        assert_eq!(buckets.len(), 1);
        assert_eq!(totals(&buckets[0].1), vec![500, 400, 300, 200]);
        // Decision payload rides along untouched.
        assert_eq!(buckets[0].1[0].decision, Some(500));
        // The window's one record (40 ns) is resident as well.
        assert_eq!(s.resident(), 5);
    }

    #[test]
    fn buckets_are_independent() {
        let s = store(1, 1.0);
        s.write(&trace(1, "Naive", class(3, 12), 100), None, None, false);
        s.write(&trace(2, "Copy", class(2, 4), 5), None, None, false);
        let buckets = s.buckets();
        let keys: Vec<(&str, &str)> = buckets
            .iter()
            .map(|((a, b), _)| (a.as_str(), b.as_str()))
            .collect();
        assert_eq!(keys, vec![("Naive", "r3v12"), ("Copy", "r2v4")]);
        assert!(buckets.iter().all(|(_, recs)| recs.len() == 1));
    }

    #[test]
    fn bucket_cap_folds_into_overflow() {
        let s = store(1, 1.0);
        for id in 0..MAX_BUCKETS as u64 + 2 {
            s.write(
                &trace(id, "Naive", class(1, id as u32), 10),
                None,
                None,
                false,
            );
        }
        let buckets = s.buckets();
        // The cap's worth of real buckets plus the overflow bucket.
        assert_eq!(buckets.len(), MAX_BUCKETS + 1);
        let other = buckets
            .iter()
            .find(|((schema, class), _)| schema == OVERFLOW_BUCKET && class == OVERFLOW_BUCKET)
            .expect("overflow bucket");
        assert_eq!(other.1.len(), 2);
    }

    #[test]
    fn empty_schema_is_labelled_unplanned_and_sheds_join_no_bucket() {
        let s = store(8, 1.0);
        let failed = RequestTrace {
            shape_class: class(3, 12),
            error: Some("no admissible schema".into()),
            ..Default::default()
        };
        s.write(&failed, None, None, false);
        let shed = Envelope {
            shed: Some("quota"),
            ..envelope(3)
        };
        s.write(&RequestTrace::default(), Some(shed), None, false);
        let buckets = s.buckets();
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0].0, ("unplanned".to_string(), "r3v12".to_string()));
        assert_eq!(s.resident(), 2);
    }

    #[test]
    fn exports_all_counter_families() {
        let s = store(1, 0.0);
        put(&s, 1, 10);
        s.write(&RequestTrace::default(), None, None, false);
        let mut snap = MetricsSnapshot::new();
        s.export_into(&mut snap);
        let names: Vec<&str> = snap.metrics.iter().map(|m| m.name.as_str()).collect();
        for expected in [
            "ttlg_trace_store_offered_total",
            "ttlg_trace_store_sampled_total",
            "ttlg_trace_store_unsampled_total",
            "ttlg_trace_store_evicted_total",
            "ttlg_trace_store_resident",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
        let sampled = snap
            .metrics
            .iter()
            .find(|m| m.name == "ttlg_trace_store_sampled_total")
            .unwrap();
        assert_eq!(sampled.samples.len(), 4, "one series per reason");
    }

    #[test]
    fn concurrent_writes_lose_nothing_overall() {
        let s = store(1024, 1.0);
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let s = &s;
                scope.spawn(move || {
                    for i in 0..100 {
                        put(s, t * 1_000 + i + 1, 10);
                    }
                });
            }
        });
        let recent = s.recent(usize::MAX);
        assert_eq!(recent.len(), 800);
        let distinct: std::collections::HashSet<u64> = ids(&recent).into_iter().collect();
        assert_eq!(distinct.len(), 800);
        assert_eq!(s.evicted(), 0);
    }

    #[test]
    fn concurrent_offers_and_inserts_are_consistent() {
        let s = store(64, 1.0);
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let s = &s;
                scope.spawn(move || {
                    for i in 0..200 {
                        let id = t * 1_000 + i + 1;
                        put(s, id, id);
                    }
                });
            }
        });
        assert_eq!(s.offered(), 1_600);
        assert_eq!(s.sampled(), 1_600);
        assert_eq!(s.recent(usize::MAX).len(), 64);
        assert!((64..=64 + SLOWEST_PER_BUCKET).contains(&s.resident()));
        assert_eq!(s.resident() as u64 + s.evicted(), 1_600);
    }

    /// Hammer test: many threads race slow and fast requests into the
    /// same bucket through a tiny window. The slowest request is always
    /// retained, and no retained record is torn (id, time and decision
    /// travel together).
    #[test]
    fn concurrent_offers_never_lose_the_slowest_or_tear_traces() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 500;
        let s = store(2, 1.0);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let s = &s;
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        let id = t * PER_THREAD + i;
                        // Mostly fast traffic with interleaved slow
                        // outliers; ids encode the latency so tearing is
                        // detectable.
                        let exec = if i % 97 == 0 {
                            1_000_000 + id
                        } else {
                            10 + id % 7
                        };
                        s.write(
                            &trace(id, "Naive", class(3, 12), exec),
                            None,
                            Some(&exec),
                            false,
                        );
                    }
                });
            }
        });
        assert_eq!(s.offered(), THREADS * PER_THREAD);
        let buckets = s.buckets();
        assert_eq!(buckets.len(), 1);
        let retained = &buckets[0].1;
        assert_eq!(retained.len(), SLOWEST_PER_BUCKET);
        let expected_max = (0..THREADS)
            .flat_map(|t| {
                (0..PER_THREAD)
                    .filter(|i| i % 97 == 0)
                    .map(move |i| 1_000_000 + t * PER_THREAD + i)
            })
            .max()
            .unwrap();
        assert_eq!(retained[0].total_ns(), expected_max, "slowest was lost");
        assert_eq!(s.slowest(1)[0].total_ns(), expected_max);
        for r in retained {
            assert_eq!(r.trace.execute_ns, 1_000_000 + r.trace.id, "torn trace");
            assert_eq!(r.decision, Some(r.trace.execute_ns), "torn decision");
        }
    }

    /// The profile fold the store replaces, kept as the reference its
    /// buckets' profiles must equal: group by `(schema, shape-class)`
    /// labels (`unplanned` without a schema), the first [`MAX_BUCKETS`]
    /// keys met and then `_other`, hottest first.
    fn reference_fold<'a>(traces: impl IntoIterator<Item = &'a RequestTrace>) -> Vec<PhaseProfile> {
        let mut map: HashMap<(String, String), PhaseProfile> = HashMap::new();
        for t in traces {
            let schema = if t.schema.is_empty() {
                "unplanned"
            } else {
                t.schema
            };
            let class = t.shape_class.map_or_else(String::new, |c| c.to_string());
            let mut key = (schema.to_string(), class);
            if !map.contains_key(&key) && map.len() >= MAX_BUCKETS {
                key = (OVERFLOW_BUCKET.to_string(), OVERFLOW_BUCKET.to_string());
            }
            map.entry(key.clone())
                .or_insert_with(|| PhaseProfile::new(key.0, key.1))
                .observe(t);
        }
        let mut profiles: Vec<PhaseProfile> = map.into_values().collect();
        profiles.sort_by(|a, b| {
            b.total_ns()
                .cmp(&a.total_ns())
                .then_with(|| a.schema.cmp(&b.schema))
                .then_with(|| a.shape_class.cmp(&b.shape_class))
        });
        profiles
    }

    /// After every write of a seeded mix (several keys, failures with and
    /// without a shape class, sheds, trace ids written again, and ten
    /// times more writes than the window holds), the buckets' profiles
    /// equal the reference fold of the window's non-shed records.
    #[test]
    fn profiles_equal_a_reference_fold_of_the_window() {
        let s = store(32, 1.0);
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let schemas = ["Naive", "Copy", "Orthogonal-Distinct", ""];
        let (mut sheds, mut replaced, mut failed) = (0, 0, 0);
        for id in 0..320u64 {
            let r = next();
            let schema = schemas[(r % 4) as usize];
            let mut t = RequestTrace {
                id,
                schema,
                shape_class: class(3 + (r >> 8) as u32 % 2, 10 + (r >> 12) as u32 % 2),
                ok: !schema.is_empty(),
                warmed: (r >> 16) & 1 == 1,
                queue_wait_ns: (r >> 20) % 40_000,
                plan_fetch_ns: (r >> 32) % 9_000,
                execute_ns: 1_000 + (r >> 44) % 3_000_000,
                ..Default::default()
            };
            if !t.ok {
                failed += 1;
                t.error = Some("no admissible schema".into());
                if (r >> 17) & 1 == 1 {
                    t.shape_class = None;
                }
            }
            // A small pool of trace ids, so ids come back while the
            // window or a bucket still holds the earlier record.
            let trace_id = 1 + (r >> 56) as u128 % 24;
            replaced += s.get(trace_id).is_some() as usize;
            let env = match (r >> 52) % 8 {
                0 => {
                    sheds += 1;
                    Some(Envelope {
                        shed: Some("quota"),
                        ..envelope(trace_id)
                    })
                }
                1..=3 => Some(envelope(trace_id)),
                _ => None,
            };
            s.write(&t, env, None, false);
            let window = s.recent(usize::MAX);
            let served = window.iter().filter(|r| !r.is_shed()).map(|r| &r.trace);
            let want = reference_fold(served);
            let got = s.profiles();
            assert_eq!(got, want, "after write {id}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.quantile_us(0.99).to_bits(), w.quantile_us(0.99).to_bits());
                assert_eq!(g.shares_at(0.99), w.shares_at(0.99));
            }
        }
        assert!(sheds > 10 && replaced > 10 && failed > 10);
    }

    #[test]
    fn profiles_group_by_schema_and_class() {
        let s = store(8, 1.0);
        let put = |id, schema, class, queue, plan, exec| {
            let t = RequestTrace {
                id,
                schema,
                shape_class: class,
                ok: true,
                queue_wait_ns: queue,
                plan_fetch_ns: plan,
                execute_ns: exec,
                ..Default::default()
            };
            s.write(&t, None, None, false);
        };
        put(1, "Naive", class(3, 12), 10, 20, 70);
        put(2, "Naive", class(3, 12), 10, 20, 70);
        put(3, "Copy", class(2, 4), 1, 1, 1);
        let profiles = s.profiles();
        assert_eq!(profiles.len(), 2);
        // Sorted hottest-first.
        let top = &profiles[0];
        assert_eq!(
            (top.schema.as_str(), top.shape_class.as_str()),
            ("Naive", "r3v12")
        );
        assert_eq!(top.requests, 2);
        assert_eq!(top.execute_ns, 140);
        assert_eq!(top.shares().dominant(), "execute");
    }

    /// The first [`MAX_BUCKETS`] keys the store meets keep their own
    /// bucket for good; the next key folds into `_other` in both the
    /// slowest records and the profiles.
    #[test]
    fn cardinality_cap_folds_into_other() {
        let s = store(256, 1.0);
        for id in 0..=MAX_BUCKETS as u64 {
            s.write(
                &trace(id, "Naive", class(1, id as u32), 10 + id),
                None,
                None,
                false,
            );
        }
        let other =
            |schema: &str, class: &str| schema == OVERFLOW_BUCKET && class == OVERFLOW_BUCKET;
        let buckets = s.buckets();
        assert_eq!(buckets.len(), MAX_BUCKETS + 1);
        let (_, recs) = buckets
            .iter()
            .find(|((schema, class), _)| other(schema, class))
            .expect("overflow bucket");
        assert_eq!(ids(recs), vec![MAX_BUCKETS as u64]);
        let profiles = s.profiles();
        assert_eq!(profiles.len(), MAX_BUCKETS + 1);
        let overflow = profiles
            .iter()
            .find(|p| other(&p.schema, &p.shape_class))
            .expect("overflow profile");
        assert_eq!(
            (overflow.requests, overflow.execute_ns),
            (1, 10 + MAX_BUCKETS as u64)
        );
        // The first key still has its own bucket.
        s.write(&trace(100, "Naive", class(1, 0), 10), None, None, false);
        let first = s.profiles().into_iter().find(|p| p.shape_class == "r1v0");
        assert_eq!(first.map(|p| p.requests), Some(2));
    }
}
