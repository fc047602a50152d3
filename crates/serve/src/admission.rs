//! Admission control: per-tenant token-bucket quotas and the explicit
//! shed decision.
//!
//! The gateway admits a request only after two gates pass:
//!
//! 1. **quota** — the tenant's token bucket (`TokenBucket`) has a
//!    token. Buckets refill continuously at `rate_per_sec` up to a
//!    `burst` cap, so a tenant can spike briefly but not sustain more
//!    than its configured rate;
//! 2. **queue** — the tenant's scheduler queue (see
//!    [`crate::scheduler`]) has room.
//!
//! Either failure is an explicit [`Shed`] carrying the HTTP 429
//! `Retry-After` hint: quota sheds report when the next token accrues,
//! queue sheds a fixed one-second backoff. Nothing is silently dropped —
//! the gateway counts every shed in `ttlg_gateway_shed_total`.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

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

/// Why a request was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The tenant's token bucket was empty.
    QuotaExceeded,
    /// The tenant's bounded queue was full.
    QueueFull,
}

impl ShedReason {
    /// Label for `ttlg_gateway_shed_total{reason=...}`.
    pub fn as_str(&self) -> &'static str {
        match self {
            ShedReason::QuotaExceeded => "quota",
            ShedReason::QueueFull => "queue",
        }
    }
}

/// A load-shed decision: HTTP 429 with this `Retry-After`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shed {
    /// Which gate refused the request.
    pub reason: ShedReason,
    /// Seconds the client should wait before retrying (>= 1).
    pub retry_after_secs: u64,
}

/// Quota configuration shared by every tenant.
#[derive(Debug, Clone, Copy)]
pub struct QuotaConfig {
    /// Sustained admission rate per tenant, requests/second.
    pub rate_per_sec: f64,
    /// Burst capacity per tenant (bucket size), requests.
    pub burst: f64,
    /// Max tenant buckets tracked; beyond this the least-recently-seen
    /// bucket is recycled (an unbounded tenant map would itself be a
    /// memory-exhaustion vector).
    pub max_tenants: usize,
}

impl Default for QuotaConfig {
    fn default() -> Self {
        QuotaConfig {
            rate_per_sec: 500.0,
            burst: 100.0,
            max_tenants: 1024,
        }
    }
}

/// One tenant's continuously-refilling token bucket.
#[derive(Debug)]
struct TokenBucket {
    tokens: f64,
    refilled_at: Instant,
    last_seen: Instant,
}

impl TokenBucket {
    fn full(cfg: &QuotaConfig, now: Instant) -> Self {
        TokenBucket {
            tokens: cfg.burst.max(1.0),
            refilled_at: now,
            last_seen: now,
        }
    }

    /// Refill for elapsed time, then try to take one token.
    fn try_take(&mut self, cfg: &QuotaConfig, now: Instant) -> Result<(), Shed> {
        let elapsed = now.duration_since(self.refilled_at).as_secs_f64();
        self.tokens = (self.tokens + elapsed * cfg.rate_per_sec).min(cfg.burst.max(1.0));
        self.refilled_at = now;
        self.last_seen = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            Ok(())
        } else {
            let deficit = 1.0 - self.tokens;
            let secs = if cfg.rate_per_sec > 0.0 {
                (deficit / cfg.rate_per_sec).ceil().max(1.0)
            } else {
                // Rate zero: the bucket never refills; tell the client
                // to go away for a while.
                60.0
            };
            Err(Shed {
                reason: ShedReason::QuotaExceeded,
                retry_after_secs: secs as u64,
            })
        }
    }
}

/// Per-tenant quota enforcement. One mutex: the critical section is a
/// couple of float ops, contention is not on the execute path.
pub struct AdmissionController {
    cfg: QuotaConfig,
    buckets: Mutex<HashMap<String, TokenBucket>>,
}

impl AdmissionController {
    /// A controller with the given quota config.
    pub fn new(cfg: QuotaConfig) -> Self {
        AdmissionController {
            cfg,
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// The configured quota.
    pub fn config(&self) -> &QuotaConfig {
        &self.cfg
    }

    /// Charge one request against `tenant`'s bucket.
    pub fn check_quota(&self, tenant: &str) -> Result<(), Shed> {
        self.check_quota_at(tenant, Instant::now())
    }

    /// [`Self::check_quota`] with an injected clock (deterministic tests).
    pub fn check_quota_at(&self, tenant: &str, now: Instant) -> Result<(), Shed> {
        let mut buckets = self.buckets.lock().expect("admission poisoned");
        if !buckets.contains_key(tenant) && buckets.len() >= self.cfg.max_tenants.max(1) {
            // Recycle the least-recently-seen bucket. A recycled tenant
            // that returns simply starts from a full bucket again.
            if let Some(stalest) = buckets
                .iter()
                .min_by_key(|(_, b)| b.last_seen)
                .map(|(k, _)| k.clone())
            {
                buckets.remove(&stalest);
            }
        }
        buckets
            .entry(tenant.to_string())
            .or_insert_with(|| TokenBucket::full(&self.cfg, now))
            .try_take(&self.cfg, now)
    }

    /// Tenants currently tracked.
    pub fn tracked_tenants(&self) -> usize {
        self.buckets.lock().expect("admission poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn cfg(rate: f64, burst: f64) -> QuotaConfig {
        QuotaConfig {
            rate_per_sec: rate,
            burst,
            max_tenants: 4,
        }
    }

    #[test]
    fn burst_then_shed_then_refill() {
        let adm = AdmissionController::new(cfg(10.0, 3.0));
        let t0 = Instant::now();
        for _ in 0..3 {
            adm.check_quota_at("a", t0).unwrap();
        }
        let shed = adm.check_quota_at("a", t0).unwrap_err();
        assert_eq!(shed.reason, ShedReason::QuotaExceeded);
        assert_eq!(shed.retry_after_secs, 1, "ceil(deficit/rate) >= 1s");
        // 100 ms later one token has accrued.
        let t1 = t0 + Duration::from_millis(100);
        adm.check_quota_at("a", t1).unwrap();
        assert!(adm.check_quota_at("a", t1).is_err());
    }

    #[test]
    fn tenants_have_independent_buckets() {
        let adm = AdmissionController::new(cfg(1.0, 1.0));
        let t0 = Instant::now();
        adm.check_quota_at("a", t0).unwrap();
        assert!(adm.check_quota_at("a", t0).is_err(), "a is out of tokens");
        adm.check_quota_at("b", t0).unwrap();
        assert_eq!(adm.tracked_tenants(), 2);
    }

    #[test]
    fn bucket_never_exceeds_burst() {
        let adm = AdmissionController::new(cfg(1000.0, 2.0));
        let t0 = Instant::now();
        adm.check_quota_at("a", t0).unwrap();
        // A long idle period refills to burst, not to rate * elapsed.
        let t1 = t0 + Duration::from_secs(3600);
        adm.check_quota_at("a", t1).unwrap();
        adm.check_quota_at("a", t1).unwrap();
        assert!(adm.check_quota_at("a", t1).is_err());
    }

    #[test]
    fn tenant_map_is_bounded() {
        let adm = AdmissionController::new(cfg(1.0, 1.0));
        let t0 = Instant::now();
        for (i, name) in ["a", "b", "c", "d", "e", "f"].iter().enumerate() {
            adm.check_quota_at(name, t0 + Duration::from_millis(i as u64))
                .unwrap();
        }
        assert!(adm.tracked_tenants() <= 4);
        // A recycled tenant comes back with a fresh (full) bucket.
        adm.check_quota_at("a", t0 + Duration::from_millis(10))
            .unwrap();
    }

    #[test]
    fn zero_rate_sheds_with_long_backoff() {
        let adm = AdmissionController::new(cfg(0.0, 1.0));
        let t0 = Instant::now();
        adm.check_quota_at("a", t0).unwrap();
        let shed = adm.check_quota_at("a", t0).unwrap_err();
        assert_eq!(shed.retry_after_secs, 60);
    }

    #[test]
    fn priority_parsing() {
        assert_eq!(Priority::parse("interactive"), Some(Priority::Interactive));
        assert_eq!(Priority::parse("batch"), Some(Priority::Batch));
        assert_eq!(Priority::parse("Urgent"), None);
        assert_eq!(Priority::Interactive.as_str(), "interactive");
    }
}
