//! Plan caching for the repeated-use scenario.
//!
//! The paper's evaluation distinguishes single-use (plan + one run) from
//! repeated-use (plan once, run many times — Fig. 12). This module makes
//! the repeated-use pattern a one-liner and scales it to many concurrent
//! clients: [`ShardedPlanCache`] keys plans by `(extents, permutation,
//! options fingerprint)` across 8 mutex shards, with **single-flight**
//! planning (concurrent misses on one key block on a single builder
//! instead of racing), per-shard LRU eviction past 64 plans, and
//! lock-free atomic hit/miss/eviction counters.
//! `ttlg-runtime` builds its multi-tenant service on this type.

use crate::backend::Backend;
use crate::plan::{Plan, PlanError, TransposeOptions, Transposer};
use crate::schema::Schema;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use ttlg_tensor::{Element, Permutation, Shape};

/// Cache key: extents + permutation + the options that affect planning,
/// plus `check_disjoint_writes`, which decides how a plan executes.
///
/// Public so higher layers (the runtime's batcher) can group requests by
/// the plan they will share without re-deriving the fingerprint rules.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    extents: Vec<usize>,
    perm: Vec<usize>,
    forced: Option<Schema>,
    fusion: bool,
    sweep: bool,
    overbooking: usize,
    backend: Backend,
    /// A verify-mode plan runs its simulated kernel, a serving plan the
    /// host kernel, so the two must never share a cache slot.
    check_disjoint_writes: bool,
}

impl PlanKey {
    /// Fingerprint of `(shape, perm, opts)` — equal keys share a plan.
    pub fn new(shape: &Shape, perm: &Permutation, opts: &TransposeOptions) -> PlanKey {
        PlanKey {
            extents: shape.extents().to_vec(),
            perm: perm.as_slice().to_vec(),
            forced: opts.forced_schema,
            fusion: opts.enable_fusion,
            sweep: opts.model_sweep,
            overbooking: opts.overbooking,
            backend: opts.backend,
            check_disjoint_writes: opts.check_disjoint_writes,
        }
    }

    /// Stable hash used for shard selection.
    fn shard_hash(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }

    /// The tensor extents this key fingerprints.
    pub fn extents(&self) -> &[usize] {
        &self.extents
    }

    /// The permutation entries this key fingerprints.
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// Reconstruct the planning inputs behind this key, so a cached
    /// problem can be re-planned from the key alone (the runtime's
    /// autotuner measures hot keys this way).
    pub fn problem_parts(&self) -> (Shape, Permutation, TransposeOptions) {
        let shape = Shape::new(&self.extents).expect("key was built from a valid shape");
        let perm = Permutation::new(&self.perm).expect("key was built from a valid permutation");
        let opts = TransposeOptions {
            forced_schema: self.forced,
            enable_fusion: self.fusion,
            model_sweep: self.sweep,
            overbooking: self.overbooking,
            check_disjoint_writes: self.check_disjoint_writes,
            backend: self.backend,
        };
        (shape, perm, opts)
    }

    /// Stable 64-bit identity of the *problem* this key names — FNV-1a
    /// over every field of the key, independent of hasher
    /// seeds and process lifetime. Two requests with equal fingerprints
    /// describe the same transposition problem end-to-end, so runtime
    /// layers can use this as the single-flight coalescing key (combined
    /// with input identity) without re-deriving the fingerprint rules.
    pub fn problem_fingerprint(&self) -> u64 {
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        fn mix(h: &mut u64, byte: u8) {
            *h ^= byte as u64;
            *h = h.wrapping_mul(FNV_PRIME);
        }
        fn mix_usize(h: &mut u64, v: usize) {
            for byte in (v as u64).to_le_bytes() {
                mix(h, byte);
            }
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        mix_usize(&mut h, self.extents.len());
        for &e in &self.extents {
            mix_usize(&mut h, e);
        }
        for &p in &self.perm {
            mix_usize(&mut h, p);
        }
        mix(
            &mut h,
            match self.forced {
                None => 0xff,
                Some(s) => s as u8,
            },
        );
        mix(&mut h, self.fusion as u8);
        mix(&mut h, self.sweep as u8);
        mix_usize(&mut h, self.overbooking);
        mix(
            &mut h,
            match self.backend {
                Backend::GpuSim => 0,
                Backend::Cpu => 1,
            },
        );
        mix(&mut h, self.check_disjoint_writes as u8);
        h
    }
}

/// Wall-clock split of one plan fetch (see
/// [`ShardedPlanCache::get_or_plan_keyed_timed`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchTiming {
    /// Time on the lookup side: shard lock, LRU touch, and any wait for
    /// another caller's in-flight build of the same key.
    pub lookup_ns: u64,
    /// Time inside `Transposer::plan` when this call built the plan;
    /// 0 on a hit.
    pub build_ns: u64,
}

/// Cache usage counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Plans served from the cache.
    pub hits: u64,
    /// Plans built on demand.
    pub misses: u64,
    /// Plans dropped by LRU eviction.
    pub evictions: u64,
}

/// Mutex shards of a [`ShardedPlanCache`]; keys are hash-distributed
/// across them.
const SHARDS: usize = 8;

/// Unpinned resident plans a shard keeps before LRU eviction.
const CAPACITY_PER_SHARD: usize = 64;

/// Slot state within a shard: either a resident plan (with its LRU stamp)
/// or a build in flight that waiters block on.
enum Entry<E: Element> {
    Ready {
        plan: Arc<Plan<E>>,
        last_used: u64,
        /// Pinned plans (measured-best, installed by the autotuner) are
        /// exempt from LRU eviction and do not count against capacity:
        /// plain cache pressure must never silently replace a warmed
        /// plan with a stale model pick.
        pinned: bool,
    },
    Building,
}

struct ShardState<E: Element> {
    map: HashMap<PlanKey, Entry<E>>,
    /// Monotonic use counter; higher = more recently used.
    tick: u64,
}

struct Shard<E: Element> {
    state: Mutex<ShardState<E>>,
    /// Signalled when an in-flight build completes (or fails).
    built: Condvar,
}

impl<E: Element> Shard<E> {
    fn new() -> Self {
        Shard {
            state: Mutex::new(ShardState {
                map: HashMap::new(),
                tick: 0,
            }),
            built: Condvar::new(),
        }
    }
}

/// A key's single-flight build in progress. Dropping it, when planning
/// returned an error or unwound, removes the key's `Entry::Building` and
/// wakes the waiters, so one of them takes over as the builder; without
/// it a panicking planner would leave every later fetch of the key
/// waiting on the shard condvar forever.
struct BuildSlot<'a, E: Element> {
    shard: &'a Shard<E>,
    key: &'a PlanKey,
}

impl<E: Element> Drop for BuildSlot<'_, E> {
    fn drop(&mut self) {
        // A poisoned shard fails every later fetch on its own; only the
        // wake-up matters then. `Drop` must not panic.
        if let Ok(mut state) = self.shard.state.lock() {
            state.map.remove(self.key);
        }
        self.shard.built.notify_all();
    }
}

/// A sharded, bounded, single-flight cache of transposition plans for one
/// element type.
///
/// ```
/// use ttlg::{ShardedPlanCache, TransposeOptions, Transposer};
/// use ttlg_tensor::{DenseTensor, Permutation, Shape};
///
/// let t = Transposer::new_k40c();
/// let cache: ShardedPlanCache<f64> = ShardedPlanCache::new();
/// let input: DenseTensor<f64> = DenseTensor::iota(Shape::new(&[16, 16]).unwrap());
/// let perm = Permutation::new(&[1, 0]).unwrap();
/// for _ in 0..3 {
///     let plan = cache
///         .get_or_plan(&t, input.shape(), &perm, &TransposeOptions::default())
///         .unwrap();
///     t.execute(&plan, &input).unwrap();
/// }
/// assert_eq!(cache.stats().misses, 1); // planned once, reused twice
/// ```
///
/// Concurrency contract:
/// * a hit touches only its shard's mutex (briefly) and one atomic;
/// * concurrent misses on the *same* key build the plan exactly once —
///   one caller plans while the rest wait on the shard condvar;
/// * concurrent misses on *different* keys in different shards proceed
///   fully in parallel;
/// * planning happens outside the shard lock, so a slow build never
///   blocks hits on other keys in the same shard.
pub struct ShardedPlanCache<E: Element> {
    shards: [Shard<E>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<E: Element> ShardedPlanCache<E> {
    /// An empty cache: 8 shards of 64 plans each.
    pub fn new() -> Self {
        ShardedPlanCache {
            shards: std::array::from_fn(|_| Shard::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &PlanKey) -> &Shard<E> {
        &self.shards[(key.shard_hash() % SHARDS as u64) as usize]
    }

    /// Fetch the plan for `key`, building it with `t` on first use.
    ///
    /// This is the single-flight core: the first caller to miss becomes
    /// the builder; concurrent callers for the same key block until the
    /// build completes and then share the result. If the build fails or
    /// panics, the slot is released, the error (or panic) goes to the
    /// builder, and one waiter takes over as the next builder (so a
    /// transient failure does not wedge the key).
    ///
    /// Besides the plan, the call returns its own attribution, which the
    /// aggregate counters in [`Self::stats`] cannot give one caller: the
    /// flag is `true` when this call was served from the cache (waiting
    /// out another caller's in-flight build included) and `false` when
    /// it built the plan itself; [`FetchTiming`] splits its wall time
    /// into the lookup side (shard lock, LRU touch, waiting out another
    /// caller's build) and the build side (`Transposer::plan` itself; 0
    /// on a hit). The tracing layer renders these as the `cache-lookup`
    /// and `plan-build` child spans of `plan`.
    pub fn get_or_plan_keyed_timed(
        &self,
        t: &Transposer,
        key: &PlanKey,
        shape: &Shape,
        perm: &Permutation,
        opts: &TransposeOptions,
    ) -> Result<(Arc<Plan<E>>, bool, FetchTiming), PlanError> {
        enum Slot {
            Ready,
            Building,
            Vacant,
        }
        let fetch_started = std::time::Instant::now();
        let shard = self.shard(key);
        let mut state = shard.state.lock().expect("cache shard poisoned");
        loop {
            let slot = match state.map.get(key) {
                Some(Entry::Ready { .. }) => Slot::Ready,
                Some(Entry::Building) => Slot::Building,
                None => Slot::Vacant,
            };
            match slot {
                Slot::Ready => {
                    state.tick += 1;
                    let tick = state.tick;
                    let Some(Entry::Ready {
                        plan, last_used, ..
                    }) = state.map.get_mut(key)
                    else {
                        unreachable!("entry changed while the shard lock was held");
                    };
                    *last_used = tick;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    let timing = FetchTiming {
                        lookup_ns: fetch_started.elapsed().as_nanos() as u64,
                        build_ns: 0,
                    };
                    return Ok((Arc::clone(plan), true, timing));
                }
                Slot::Building => {
                    state = shard.built.wait(state).expect("cache shard poisoned");
                }
                Slot::Vacant => break,
            }
        }
        // We are the builder for this key. If planning fails or unwinds,
        // `slot` releases the key and wakes its waiters.
        state.map.insert(key.clone(), Entry::Building);
        drop(state);
        let slot = BuildSlot { shard, key };
        let build_started = std::time::Instant::now();
        let plan = Arc::new(t.plan::<E>(shape, perm, opts)?);
        let build_ns = build_started.elapsed().as_nanos() as u64;
        let mut state = shard.state.lock().expect("cache shard poisoned");
        state.tick += 1;
        let stamp = state.tick;
        let pinned = plan.is_measured();
        state.map.insert(
            key.clone(),
            Entry::Ready {
                plan: Arc::clone(&plan),
                last_used: stamp,
                pinned,
            },
        );
        // The key holds its plan now; the slot must not remove it.
        std::mem::forget(slot);
        self.evict_locked(&mut state);
        self.misses.fetch_add(1, Ordering::Relaxed);
        shard.built.notify_all();
        let total = fetch_started.elapsed().as_nanos() as u64;
        let timing = FetchTiming {
            lookup_ns: total.saturating_sub(build_ns),
            build_ns,
        };
        Ok((plan, false, timing))
    }

    /// Fetch the plan for `(shape, perm, opts)`, building it on first use.
    pub fn get_or_plan(
        &self,
        t: &Transposer,
        shape: &Shape,
        perm: &Permutation,
        opts: &TransposeOptions,
    ) -> Result<Arc<Plan<E>>, PlanError> {
        let key = PlanKey::new(shape, perm, opts);
        self.get_or_plan_keyed_timed(t, &key, shape, perm, opts)
            .map(|(plan, _, _)| plan)
    }

    /// Install (or replace) the resident plan for `key` without touching
    /// the hit/miss counters — cache *warming*, used by the runtime's
    /// autotuner to swap a measured-best plan over the modeled one.
    /// Measured plans ([`Plan::is_measured`]) are installed **pinned**:
    /// exempt from LRU eviction, so cache pressure can never silently
    /// fall a hot key back to a stale model pick.
    /// Returns `false` (installing nothing) while a single-flight build
    /// for the key is in flight: replacing a `Building` slot would strand
    /// its waiters, and the tuner can simply retry on a later pass.
    pub fn warm(&self, key: &PlanKey, plan: Arc<Plan<E>>) -> bool {
        let shard = self.shard(key);
        let mut state = shard.state.lock().expect("cache shard poisoned");
        if matches!(state.map.get(key), Some(Entry::Building)) {
            return false;
        }
        state.tick += 1;
        let stamp = state.tick;
        let pinned = plan.is_measured();
        state.map.insert(
            key.clone(),
            Entry::Ready {
                plan,
                last_used: stamp,
                pinned,
            },
        );
        self.evict_locked(&mut state);
        true
    }

    /// Number of pinned (measured-best, eviction-exempt) resident plans.
    pub fn pinned_plans(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.state
                    .lock()
                    .expect("cache shard poisoned")
                    .map
                    .values()
                    .filter(|e| matches!(e, Entry::Ready { pinned: true, .. }))
                    .count()
            })
            .sum()
    }

    /// The resident plan for `key`, if any — no hit/miss accounting and
    /// no LRU touch, so diagnostics (and the autotuner) can inspect the
    /// cache without skewing its behavior.
    pub fn peek(&self, key: &PlanKey) -> Option<Arc<Plan<E>>> {
        let shard = self.shard(key);
        let state = shard.state.lock().expect("cache shard poisoned");
        match state.map.get(key) {
            Some(Entry::Ready { plan, .. }) => Some(Arc::clone(plan)),
            _ => None,
        }
    }

    /// Evict least-recently-used resident plans beyond the capacity.
    /// In-flight builds and pinned (measured-best) plans never count
    /// against capacity nor fall to eviction.
    fn evict_locked(&self, state: &mut ShardState<E>) {
        loop {
            let resident = state
                .map
                .values()
                .filter(|e| matches!(e, Entry::Ready { pinned: false, .. }))
                .count();
            if resident <= CAPACITY_PER_SHARD {
                return;
            }
            let oldest = state
                .map
                .iter()
                .filter_map(|(k, e)| match e {
                    Entry::Ready {
                        last_used,
                        pinned: false,
                        ..
                    } => Some((*last_used, k.clone())),
                    _ => None,
                })
                .min_by_key(|(stamp, _)| *stamp)
                .map(|(_, k)| k)
                .expect("resident > capacity implies an unpinned Ready entry");
            state.map.remove(&oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of resident plans (in-flight builds excluded).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.state
                    .lock()
                    .expect("cache shard poisoned")
                    .map
                    .values()
                    .filter(|e| matches!(e, Entry::Ready { .. }))
                    .count()
            })
            .sum()
    }

    /// Whether the cache holds no resident plans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        SHARDS
    }

    /// Hit/miss/eviction counters (atomic snapshot of each).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Drop every resident plan (counters are kept; in-flight builds
    /// complete and re-insert themselves).
    pub fn clear(&self) {
        for s in &self.shards {
            s.state
                .lock()
                .expect("cache shard poisoned")
                .map
                .retain(|_, e| matches!(e, Entry::Building));
        }
    }
}

impl<E: Element> Default for ShardedPlanCache<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttlg_tensor::{reference, DenseTensor};

    /// `n` distinct 2-D problems (`[m, 8]` transposed) whose keys all
    /// land in one shard, so a test can fill that shard past its
    /// capacity.
    fn one_shard_problems(n: usize) -> Vec<(Shape, PlanKey)> {
        let opts = TransposeOptions::default();
        let p = Permutation::new(&[1, 0]).unwrap();
        let shard = |key: &PlanKey| key.shard_hash() % SHARDS as u64;
        let problems = (2..).map(|m| {
            let s = Shape::new(&[m, 8]).unwrap();
            let key = PlanKey::new(&s, &p, &opts);
            (s, key)
        });
        let target = shard(&problems.clone().next().unwrap().1);
        problems
            .filter(|(_, key)| shard(key) == target)
            .take(n)
            .collect()
    }

    #[test]
    fn second_call_hits_the_cache() {
        let t = Transposer::new_k40c();
        let cache: ShardedPlanCache<u64> = ShardedPlanCache::new();
        let shape = Shape::new(&[16, 8, 4]).unwrap();
        let perm = Permutation::new(&[2, 0, 1]).unwrap();
        let input: DenseTensor<u64> = DenseTensor::iota(shape);
        let opts = TransposeOptions::default();
        let transpose = || {
            let plan = cache.get_or_plan(&t, input.shape(), &perm, &opts).unwrap();
            t.execute(&plan, &input).unwrap().0
        };
        let (out1, out2) = (transpose(), transpose());
        assert_eq!(out1.data(), out2.data());
        let expect = reference::transpose_reference(&input, &perm).unwrap();
        assert_eq!(out1.data(), expect.data());
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_problems_get_distinct_plans() {
        let t = Transposer::new_k40c();
        let cache: ShardedPlanCache<f64> = ShardedPlanCache::new();
        let opts = TransposeOptions::default();
        let s1 = Shape::new(&[8, 8]).unwrap();
        let s2 = Shape::new(&[16, 8]).unwrap();
        let p = Permutation::new(&[1, 0]).unwrap();
        cache.get_or_plan(&t, &s1, &p, &opts).unwrap();
        cache.get_or_plan(&t, &s2, &p, &opts).unwrap();
        // Different options are different cache entries too.
        let opts2 = TransposeOptions {
            model_sweep: false,
            ..Default::default()
        };
        cache.get_or_plan(&t, &s1, &p, &opts2).unwrap();
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn clear_resets_plans_but_not_stats() {
        let t = Transposer::new_k40c();
        let cache: ShardedPlanCache<f64> = ShardedPlanCache::new();
        let s = Shape::new(&[8, 8]).unwrap();
        let p = Permutation::new(&[1, 0]).unwrap();
        cache
            .get_or_plan(&t, &s, &p, &TransposeOptions::default())
            .unwrap();
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let t = Transposer::new_k40c();
        let cache: ShardedPlanCache<u32> = ShardedPlanCache::new();
        let shape = Shape::new(&[16, 16]).unwrap();
        let perm = Permutation::new(&[1, 0]).unwrap();
        ttlg_tensor::parallel::parallel_for_threads(8, 1, 4, |_| {
            let plan = cache
                .get_or_plan(&t, &shape, &perm, &TransposeOptions::default())
                .expect("plannable");
            assert!(plan.predicted_ns() > 0.0);
        });
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 8);
        // Single-flight: with one key there is exactly one build even
        // under concurrency (the old implementation allowed duplicates).
        assert_eq!(s.misses, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn sharded_cache_evicts_lru() {
        let t = Transposer::new_k40c();
        let cache: ShardedPlanCache<u64> = ShardedPlanCache::new();
        let opts = TransposeOptions::default();
        let p = Permutation::new(&[1, 0]).unwrap();
        let problems = one_shard_problems(CAPACITY_PER_SHARD + 1);
        let fetch = |i: usize| {
            cache.get_or_plan(&t, &problems[i].0, &p, &opts).unwrap();
        };
        (0..CAPACITY_PER_SHARD).for_each(fetch);
        // Touch the first so the second becomes the LRU entry.
        fetch(0);
        fetch(CAPACITY_PER_SHARD);
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(cache.len(), CAPACITY_PER_SHARD);
        // The first survived (recently used): hitting it builds nothing new.
        let misses_before = cache.stats().misses;
        fetch(0);
        assert_eq!(cache.stats().misses, misses_before);
        // The second was evicted: asking again rebuilds.
        fetch(1);
        assert_eq!(cache.stats().misses, misses_before + 1);
    }

    #[test]
    fn flagged_fetch_attributes_hits_and_misses() {
        let t = Transposer::new_k40c();
        let cache: ShardedPlanCache<u64> = ShardedPlanCache::new();
        let shape = Shape::new(&[16, 8]).unwrap();
        let perm = Permutation::new(&[1, 0]).unwrap();
        let opts = TransposeOptions::default();
        let key = PlanKey::new(&shape, &perm, &opts);
        let (_, hit, timing) = cache
            .get_or_plan_keyed_timed(&t, &key, &shape, &perm, &opts)
            .unwrap();
        assert!(!hit, "first fetch builds");
        assert!(timing.build_ns > 0);
        let (_, hit, timing) = cache
            .get_or_plan_keyed_timed(&t, &key, &shape, &perm, &opts)
            .unwrap();
        assert!(hit, "second fetch is served from cache");
        assert_eq!(timing.build_ns, 0);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn a_planner_panic_does_not_wedge_its_key() {
        /// Panics on its first prediction, then answers like the
        /// analytic model.
        struct PanicsOnce {
            fired: std::sync::atomic::AtomicBool,
            inner: crate::model::AnalyticPredictor,
        }
        impl crate::model::TimePredictor for PanicsOnce {
            fn predict_ns(&self, c: &crate::features::Candidate) -> f64 {
                if !self.fired.swap(true, Ordering::SeqCst) {
                    panic!("predictor fault");
                }
                self.inner.predict_ns(c)
            }
        }
        let device = ttlg_gpu_sim::DeviceConfig::k40c();
        let predictor = PanicsOnce {
            fired: false.into(),
            inner: crate::model::AnalyticPredictor::new(device.clone()),
        };
        let t = Arc::new(Transposer::with_predictor(device, Arc::new(predictor)));
        let cache: Arc<ShardedPlanCache<f64>> = Arc::new(ShardedPlanCache::new());
        let shape = Shape::new(&[16, 8]).unwrap();
        let perm = Permutation::new(&[1, 0]).unwrap();
        let opts = TransposeOptions::default();
        let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_plan(&t, &shape, &perm, &opts)
        }));
        assert!(first.is_err(), "the planner's panic reaches the builder");
        // A later fetch of the same key, from another thread, must build
        // the plan instead of waiting for the failed build forever.
        let (tx, rx) = std::sync::mpsc::channel();
        let fetcher = std::thread::spawn({
            let (t, cache) = (Arc::clone(&t), Arc::clone(&cache));
            move || {
                let fetched = cache.get_or_plan(&t, &shape, &perm, &opts).map(|_| ());
                tx.send(fetched).expect("test thread is waiting");
            }
        });
        let second = rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("a fetch after a planner panic must not hang");
        assert!(second.is_ok(), "{second:?}");
        fetcher.join().expect("fetcher thread");
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn plan_key_round_trips_problem_parts() {
        let shape = Shape::new(&[9, 7, 5]).unwrap();
        let perm = Permutation::new(&[2, 0, 1]).unwrap();
        let opts = TransposeOptions {
            forced_schema: Some(Schema::Naive),
            enable_fusion: false,
            model_sweep: false,
            overbooking: 3,
            check_disjoint_writes: true,
            backend: Backend::Cpu,
        };
        let key = PlanKey::new(&shape, &perm, &opts);
        assert_eq!(key.extents(), shape.extents());
        assert_eq!(key.perm(), perm.as_slice());
        let (s2, p2, o2) = key.problem_parts();
        assert_eq!(s2.extents(), shape.extents());
        assert_eq!(p2.as_slice(), perm.as_slice());
        assert_eq!(o2.forced_schema, opts.forced_schema);
        assert_eq!(o2.enable_fusion, opts.enable_fusion);
        assert_eq!(o2.model_sweep, opts.model_sweep);
        assert_eq!(o2.overbooking, opts.overbooking);
        assert_eq!(o2.backend, opts.backend);
        assert_eq!(o2.check_disjoint_writes, opts.check_disjoint_writes);
        assert_eq!(key, PlanKey::new(&s2, &p2, &o2));
        let unchecked = TransposeOptions {
            check_disjoint_writes: false,
            ..opts
        };
        let serving = PlanKey::new(&shape, &perm, &unchecked);
        assert_ne!(key, serving);
        assert_ne!(key.problem_fingerprint(), serving.problem_fingerprint());
        assert!(!serving.problem_parts().2.check_disjoint_writes);
    }

    #[test]
    fn verify_and_serving_fetches_build_separate_plans() {
        let t = Transposer::new_k40c();
        let cache: ShardedPlanCache<u64> = ShardedPlanCache::new();
        let shape = Shape::new(&[16, 8, 4]).unwrap();
        let perm = Permutation::new(&[2, 0, 1]).unwrap();
        let verify = TransposeOptions {
            check_disjoint_writes: true,
            ..TransposeOptions::default()
        };
        let serving = TransposeOptions::default();
        let checked = cache.get_or_plan(&t, &shape, &perm, &verify).unwrap();
        let plain = cache.get_or_plan(&t, &shape, &perm, &serving).unwrap();
        assert!(!Arc::ptr_eq(&checked, &plain));
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.len(), 2);
        // Each flag value then hits its own plan.
        let again = cache.get_or_plan(&t, &shape, &perm, &verify).unwrap();
        assert!(Arc::ptr_eq(&checked, &again));
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn warm_replaces_resident_plan_without_counting() {
        let t = Transposer::new_k40c();
        let cache: ShardedPlanCache<u64> = ShardedPlanCache::new();
        let shape = Shape::new(&[16, 8]).unwrap();
        let perm = Permutation::new(&[1, 0]).unwrap();
        let opts = TransposeOptions::default();
        let key = PlanKey::new(&shape, &perm, &opts);
        assert!(cache.peek(&key).is_none());
        cache.get_or_plan(&t, &shape, &perm, &opts).unwrap();
        let before = cache.stats();
        // Swap in a measured plan, as the autotuner does.
        let (warmed, _) = t.plan_measured::<u64>(&shape, &perm, &opts, 2).unwrap();
        let warmed = Arc::new(warmed);
        assert!(cache.warm(&key, Arc::clone(&warmed)));
        assert_eq!(cache.stats(), before, "warming skews no counters");
        assert_eq!(cache.len(), 1);
        let peeked = cache.peek(&key).expect("warmed plan resident");
        assert!(Arc::ptr_eq(&peeked, &warmed));
        assert_eq!(cache.stats(), before, "peek skews no counters either");
        // The next fetch is a hit served from the warmed plan.
        let fetched = cache.get_or_plan(&t, &shape, &perm, &opts).unwrap();
        assert!(Arc::ptr_eq(&fetched, &warmed));
        assert_eq!(cache.stats().hits, before.hits + 1);
    }

    #[test]
    fn warm_skips_in_flight_builds() {
        let t = Transposer::new_k40c();
        let cache: ShardedPlanCache<u64> = ShardedPlanCache::new();
        let shape = Shape::new(&[16, 8]).unwrap();
        let perm = Permutation::new(&[1, 0]).unwrap();
        let opts = TransposeOptions::default();
        let key = PlanKey::new(&shape, &perm, &opts);
        let plan = Arc::new(t.plan::<u64>(&shape, &perm, &opts).unwrap());
        // Simulate another caller's single-flight build in progress.
        cache
            .shard(&key)
            .state
            .lock()
            .unwrap()
            .map
            .insert(key.clone(), Entry::Building);
        assert!(
            !cache.warm(&key, Arc::clone(&plan)),
            "warming must not replace an in-flight build"
        );
        assert!(cache.peek(&key).is_none());
        // Once the slot is free again, warming succeeds.
        cache.shard(&key).state.lock().unwrap().map.remove(&key);
        assert!(cache.warm(&key, plan));
        assert!(cache.peek(&key).is_some());
    }

    #[test]
    fn warm_respects_capacity() {
        let t = Transposer::new_k40c();
        let cache: ShardedPlanCache<u64> = ShardedPlanCache::new();
        let opts = TransposeOptions::default();
        let p = Permutation::new(&[1, 0]).unwrap();
        for (s, key) in one_shard_problems(CAPACITY_PER_SHARD + 1) {
            let plan = Arc::new(t.plan::<u64>(&s, &p, &opts).unwrap());
            assert!(cache.warm(&key, plan));
        }
        assert_eq!(
            cache.len(),
            CAPACITY_PER_SHARD,
            "warming still enforces the LRU bound"
        );
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn measured_plans_pin_and_survive_lru_pressure() {
        let t = Transposer::new_k40c();
        let cache: ShardedPlanCache<u64> = ShardedPlanCache::new();
        let opts = TransposeOptions::default();
        let p = Permutation::new(&[1, 0]).unwrap();
        let problems = one_shard_problems(CAPACITY_PER_SHARD + 5);
        // Warm one *measured* plan: it must pin.
        let (hot_shape, hot_key) = &problems[0];
        let (warmed, _) = t.plan_measured::<u64>(hot_shape, &p, &opts, 1).unwrap();
        assert!(warmed.is_measured());
        let warmed = Arc::new(warmed);
        assert!(cache.warm(hot_key, Arc::clone(&warmed)));
        assert_eq!(cache.pinned_plans(), 1);
        // Flood its shard past capacity with modeled plans.
        for (s, _) in &problems[1..] {
            cache.get_or_plan(&t, s, &p, &opts).unwrap();
        }
        // LRU churned the modeled plans but the pinned plan survived
        // untouched, still predicting its measured time.
        assert!(cache.stats().evictions >= 4);
        assert_eq!(cache.pinned_plans(), 1);
        let resident = cache.peek(hot_key).expect("pinned plan never evicted");
        assert!(Arc::ptr_eq(&resident, &warmed));
        assert_eq!(
            cache.len(),
            CAPACITY_PER_SHARD + 1,
            "64 modeled (capacity) + 1 pinned"
        );
    }

    #[test]
    fn modeled_warm_stays_unpinned_and_evictable() {
        let t = Transposer::new_k40c();
        let cache: ShardedPlanCache<u64> = ShardedPlanCache::new();
        let opts = TransposeOptions::default();
        let p = Permutation::new(&[1, 0]).unwrap();
        let problems = one_shard_problems(CAPACITY_PER_SHARD + 1);
        let (s, key) = &problems[0];
        let plan = Arc::new(t.plan::<u64>(s, &p, &opts).unwrap());
        assert!(!plan.is_measured());
        assert!(cache.warm(key, plan));
        assert_eq!(cache.pinned_plans(), 0, "modeled plans never pin");
        for (sn, _) in &problems[1..] {
            cache.get_or_plan(&t, sn, &p, &opts).unwrap();
        }
        assert!(cache.peek(key).is_none(), "unpinned warm falls to LRU");
    }

    #[test]
    fn sharded_cache_distributes_keys() {
        let t = Transposer::new_k40c();
        let cache: ShardedPlanCache<f64> = ShardedPlanCache::new();
        let opts = TransposeOptions::default();
        let p = Permutation::new(&[1, 0]).unwrap();
        let mut shards = std::collections::BTreeSet::new();
        for n in 1..=16usize {
            let s = Shape::new(&[8 * n, 8]).unwrap();
            shards.insert(PlanKey::new(&s, &p, &opts).shard_hash() % SHARDS as u64);
            cache.get_or_plan(&t, &s, &p, &opts).unwrap();
        }
        assert_eq!(cache.len(), 16);
        assert_eq!(cache.stats().misses, 16);
        assert_eq!(cache.shard_count(), SHARDS);
        assert!(shards.len() > 1, "16 keys spread over {shards:?}");
    }
}
