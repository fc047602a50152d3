//! Bounded in-memory time-series store for metrics history.
//!
//! A scraper (owned by the runtime service) feeds successive
//! [`MetricsSnapshot`]s into [`TimeSeriesStore::ingest`]. The store diffs
//! each snapshot against the previous one and keeps compact delta-encoded
//! series:
//!
//! * **counters** → per-interval increments (with counter-reset detection:
//!   a raw value that goes backwards is treated as a restart and the full
//!   new value becomes the increment),
//! * **gauges** → sampled last-value,
//! * **log2 histograms** → per-bucket count deltas (so windows can be
//!   merged for `quantile_over_time`).
//!
//! Each series holds two retention rings: a *fine* ring of 600 points
//! (10 min at the default 1 s scrape) and a *coarse* ring of 480 points
//! (4 h) fed by downsampling — every 30 fine ingests, the pending
//! accumulator (increments/bucket-deltas summed, gauges averaged) is folded
//! into one coarse point. Both rings are hard-capped, and the store keeps
//! at most 2 048 series, so memory is bounded regardless of scrape flood
//! rate.
//!
//! The store also serialises to a line-based text format
//! ([`TimeSeriesStore::save`] / [`TimeSeriesStore::hydrate`]) so `ttlg
//! serve --history-file` survives restarts, and exports its own health as
//! `ttlg_tsdb_*` metrics via [`TimeSeriesStore::export_into`].

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::snapshot::{MetricKind, MetricsSnapshot, Sample};

/// Points kept in the fine ring per series.
const FINE_CAPACITY: usize = 600;
/// Fine ingests folded into one coarse point.
const COARSE_FACTOR: u32 = 30;
/// Points kept in the coarse ring per series.
const COARSE_CAPACITY: usize = 480;
/// Hard cap on distinct series (scalar + histogram); excess series are
/// dropped and counted in `ttlg_tsdb_series_dropped_total`.
const MAX_SERIES: usize = 2_048;

/// A series identity: metric family name plus its label set.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct SeriesKey {
    name: String,
    labels: Vec<(String, String)>,
}

#[derive(Debug)]
struct ScalarSeries {
    kind: MetricKind,
    /// Last raw cumulative value seen (counters) or last sample (gauges).
    last_raw: f64,
    fine: VecDeque<(u64, f64)>,
    coarse: VecDeque<(u64, f64)>,
    /// Downsampling accumulator: sum of increments (counter) or sum of
    /// samples (gauge, averaged on fold).
    pending: f64,
    pending_n: u32,
}

#[derive(Debug)]
struct HistSeries {
    upper_bounds: Vec<f64>,
    last_counts: Vec<u64>,
    fine: VecDeque<(u64, Vec<u64>)>,
    coarse: VecDeque<(u64, Vec<u64>)>,
    pending: Vec<u64>,
    pending_n: u32,
}

#[derive(Debug, Default)]
struct StoreInner {
    scalars: BTreeMap<SeriesKey, ScalarSeries>,
    hists: BTreeMap<SeriesKey, HistSeries>,
    scrapes: u64,
    counter_resets: u64,
    series_dropped: u64,
    last_ingest_ms: u64,
}

/// One scalar series read out of the store: merged coarse + fine points.
#[derive(Debug, Clone)]
pub struct ScalarPoints {
    pub labels: Vec<(String, String)>,
    pub kind: MetricKind,
    /// `(timestamp_ms, value)`; counters carry per-interval increments,
    /// gauges carry sampled values. Sorted by timestamp.
    pub points: Vec<(u64, f64)>,
}

/// One histogram series read out of the store: merged coarse + fine points.
#[derive(Debug, Clone)]
pub struct HistPoints {
    pub labels: Vec<(String, String)>,
    pub upper_bounds: Vec<f64>,
    /// `(timestamp_ms, per-bucket increments)`. Sorted by timestamp.
    pub points: Vec<(u64, Vec<u64>)>,
}

/// Bounded, thread-safe metrics history store. See module docs.
#[derive(Debug)]
pub struct TimeSeriesStore {
    inner: Mutex<StoreInner>,
}

impl Default for TimeSeriesStore {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeSeriesStore {
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(StoreInner::default()),
        }
    }

    /// The store's state, whatever poisoned the lock. Every update
    /// leaves it valid: a panic mid-ingest leaves some series one point
    /// behind, and the next ingest diffs each series against its own
    /// last raw value.
    fn lock(&self) -> MutexGuard<'_, StoreInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Diff `snap` against the previous scrape and append one point per
    /// series. `now_ms` is the scrape timestamp (wall-clock millis); tests
    /// may use synthetic clocks.
    pub fn ingest(&self, snap: &MetricsSnapshot, now_ms: u64) {
        let mut inner = self.lock();
        inner.scrapes += 1;
        inner.last_ingest_ms = inner.last_ingest_ms.max(now_ms);

        for metric in &snap.metrics {
            // The store's own health families would self-reference (the
            // snapshot embeds them); skip to keep the diff stable.
            if metric.name.starts_with("ttlg_tsdb_") {
                continue;
            }
            for sample in &metric.samples {
                if !sample.value.is_finite() {
                    continue;
                }
                let key = SeriesKey {
                    name: metric.name.clone(),
                    labels: sample.labels.clone(),
                };
                let at_cap = !inner.scalars.contains_key(&key)
                    && inner.scalars.len() + inner.hists.len() >= MAX_SERIES;
                if at_cap {
                    inner.series_dropped += 1;
                    continue;
                }
                let mut resets = 0u64;
                let series = inner.scalars.entry(key).or_insert_with(|| ScalarSeries {
                    kind: metric.kind,
                    last_raw: 0.0,
                    fine: VecDeque::new(),
                    coarse: VecDeque::new(),
                    pending: 0.0,
                    pending_n: 0,
                });
                let value = match metric.kind {
                    MetricKind::Counter => {
                        let inc = if sample.value + 1e-9 < series.last_raw {
                            resets += 1;
                            sample.value
                        } else {
                            sample.value - series.last_raw
                        };
                        series.last_raw = sample.value;
                        inc
                    }
                    MetricKind::Gauge => {
                        series.last_raw = sample.value;
                        sample.value
                    }
                };
                push_scalar(series, now_ms, value);
                inner.counter_resets += resets;
            }
        }

        for hist in &snap.histograms {
            let key = SeriesKey {
                name: hist.name.clone(),
                labels: hist.labels.clone(),
            };
            let at_cap = !inner.hists.contains_key(&key)
                && inner.scalars.len() + inner.hists.len() >= MAX_SERIES;
            if at_cap {
                inner.series_dropped += 1;
                continue;
            }
            let mut resets = 0u64;
            let n_buckets = hist.counts.len();
            let series = inner.hists.entry(key).or_insert_with(|| HistSeries {
                upper_bounds: hist.upper_bounds.clone(),
                last_counts: vec![0; n_buckets],
                fine: VecDeque::new(),
                coarse: VecDeque::new(),
                pending: vec![0; n_buckets],
                pending_n: 0,
            });
            if series.last_counts.len() != n_buckets {
                // Bucket layout changed (shouldn't happen); restart series.
                series.last_counts = vec![0; n_buckets];
                series.pending = vec![0; n_buckets];
                series.upper_bounds = hist.upper_bounds.clone();
            }
            let reset = hist
                .counts
                .iter()
                .zip(&series.last_counts)
                .any(|(now, prev)| now < prev);
            let deltas: Vec<u64> = if reset {
                resets += 1;
                hist.counts.clone()
            } else {
                hist.counts
                    .iter()
                    .zip(&series.last_counts)
                    .map(|(now, prev)| now - prev)
                    .collect()
            };
            series.last_counts.copy_from_slice(&hist.counts);
            push_hist(series, now_ms, deltas);
            inner.counter_resets += resets;
        }
    }

    /// Timestamp of the most recent ingest, or `None` before the first.
    pub fn last_ingest_ms(&self) -> Option<u64> {
        let inner = self.lock();
        (inner.scrapes > 0).then_some(inner.last_ingest_ms)
    }

    pub fn scrapes(&self) -> u64 {
        self.lock().scrapes
    }

    /// Number of distinct series currently tracked (scalar + histogram).
    pub fn series_count(&self) -> usize {
        let inner = self.lock();
        inner.scalars.len() + inner.hists.len()
    }

    /// Total retained points across every ring.
    pub fn point_count(&self) -> usize {
        let inner = self.lock();
        inner
            .scalars
            .values()
            .map(|s| s.fine.len() + s.coarse.len())
            .sum::<usize>()
            + inner
                .hists
                .values()
                .map(|s| s.fine.len() + s.coarse.len())
                .sum::<usize>()
    }

    /// All scalar series of family `name`, each as merged coarse+fine
    /// points (coarse points older than the fine window, then fine).
    pub fn scalar_data(&self, name: &str) -> Vec<ScalarPoints> {
        let inner = self.lock();
        inner
            .scalars
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(k, s)| ScalarPoints {
                labels: k.labels.clone(),
                kind: s.kind,
                points: merge_rings(&s.coarse, &s.fine, |v| *v),
            })
            .collect()
    }

    /// All histogram series of family `name`, merged like [`Self::scalar_data`].
    pub fn hist_data(&self, name: &str) -> Vec<HistPoints> {
        let inner = self.lock();
        inner
            .hists
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(k, s)| HistPoints {
                labels: k.labels.clone(),
                upper_bounds: s.upper_bounds.clone(),
                points: merge_rings(&s.coarse, &s.fine, |v| v.clone()),
            })
            .collect()
    }

    /// Family names with at least one retained series, sorted.
    pub fn family_names(&self) -> Vec<String> {
        let inner = self.lock();
        let mut names: Vec<String> = inner
            .scalars
            .keys()
            .chain(inner.hists.keys())
            .map(|k| k.name.clone())
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// Append the store's own health gauges/counters to a snapshot.
    pub fn export_into(&self, snap: &mut MetricsSnapshot) {
        let inner = self.lock();
        let points = inner
            .scalars
            .values()
            .map(|s| s.fine.len() + s.coarse.len())
            .sum::<usize>()
            + inner
                .hists
                .values()
                .map(|s| s.fine.len() + s.coarse.len())
                .sum::<usize>();
        let series = inner.scalars.len() + inner.hists.len();
        snap.push_metric(
            "ttlg_tsdb_scrapes_total",
            "Snapshots ingested into the metrics history store.",
            MetricKind::Counter,
            vec![Sample::plain(inner.scrapes as f64)],
        );
        snap.push_metric(
            "ttlg_tsdb_series",
            "Distinct series retained in the metrics history store.",
            MetricKind::Gauge,
            vec![Sample::plain(series as f64)],
        );
        snap.push_metric(
            "ttlg_tsdb_points",
            "Total points retained across all history rings.",
            MetricKind::Gauge,
            vec![Sample::plain(points as f64)],
        );
        snap.push_metric(
            "ttlg_tsdb_counter_resets_total",
            "Counter resets detected while diffing snapshots.",
            MetricKind::Counter,
            vec![Sample::plain(inner.counter_resets as f64)],
        );
        snap.push_metric(
            "ttlg_tsdb_series_dropped_total",
            "Series rejected because the store hit its series cap.",
            MetricKind::Counter,
            vec![Sample::plain(inner.series_dropped as f64)],
        );
    }

    /// Serialise the full store state to the `ttlg-tsdb 1` text format.
    pub fn save(&self) -> String {
        let inner = self.lock();
        let mut out = String::new();
        out.push_str("ttlg-tsdb 1\n");
        out.push_str(&format!(
            "meta {} {} {} {}\n",
            inner.scrapes, inner.counter_resets, inner.series_dropped, inner.last_ingest_ms
        ));
        for (k, s) in &inner.scalars {
            let kind = match s.kind {
                MetricKind::Counter => 'c',
                MetricKind::Gauge => 'g',
            };
            out.push_str(&format!(
                "S {kind}|{}|{}|{}|{}|{}\n",
                k.name,
                render_labels(&k.labels),
                s.last_raw,
                s.pending,
                s.pending_n
            ));
            out.push_str(&format!("SF {}\n", render_scalar_ring(&s.fine)));
            out.push_str(&format!("SC {}\n", render_scalar_ring(&s.coarse)));
        }
        for (k, s) in &inner.hists {
            out.push_str(&format!(
                "H {}|{}|{}\n",
                k.name,
                render_labels(&k.labels),
                s.pending_n
            ));
            out.push_str(&format!("HB {}\n", join_f64(&s.upper_bounds)));
            out.push_str(&format!("HL {}\n", join_u64(&s.last_counts)));
            out.push_str(&format!("HP {}\n", join_u64(&s.pending)));
            out.push_str(&format!("HF {}\n", render_hist_ring(&s.fine)));
            out.push_str(&format!("HC {}\n", render_hist_ring(&s.coarse)));
        }
        out
    }

    /// Replace the store's contents from a [`Self::save`] dump. Rings are
    /// truncated (oldest first) to this store's configured capacities.
    /// A dump always comes from an earlier process, whose counters the
    /// next one restarts from zero, so every series' raw state (a
    /// counter's last value, a histogram's last bucket counts) starts at
    /// zero: the new process's first ingest records its whole count.
    /// Returns the number of series restored.
    pub fn hydrate(&self, text: &str) -> Result<usize, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty history file")?;
        if header.trim() != "ttlg-tsdb 1" {
            return Err(format!("unsupported history format: {header:?}"));
        }
        let mut loaded = StoreInner::default();
        let mut restored = 0usize;
        let mut pending_scalar: Option<SeriesKey> = None;
        let mut pending_hist: Option<SeriesKey> = None;
        for (idx, line) in lines.enumerate() {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let err = |msg: &str| format!("history line {}: {msg}", idx + 2);
            if let Some(rest) = line.strip_prefix("meta ") {
                let parts: Vec<&str> = rest.split_whitespace().collect();
                if parts.len() != 4 {
                    return Err(err("malformed meta"));
                }
                loaded.scrapes = parts[0].parse().map_err(|_| err("bad scrapes"))?;
                loaded.counter_resets = parts[1].parse().map_err(|_| err("bad resets"))?;
                loaded.series_dropped = parts[2].parse().map_err(|_| err("bad dropped"))?;
                loaded.last_ingest_ms = parts[3].parse().map_err(|_| err("bad last_ms"))?;
            } else if let Some(rest) = line.strip_prefix("S ") {
                let parts: Vec<&str> = rest.split('|').collect();
                if parts.len() != 6 {
                    return Err(err("malformed scalar record"));
                }
                let kind = match parts[0] {
                    "c" => MetricKind::Counter,
                    "g" => MetricKind::Gauge,
                    _ => return Err(err("bad scalar kind")),
                };
                let key = SeriesKey {
                    name: parts[1].to_string(),
                    labels: parse_labels(parts[2]).ok_or_else(|| err("bad labels"))?,
                };
                parts[3].parse::<f64>().map_err(|_| err("bad last_raw"))?;
                loaded.scalars.insert(
                    key.clone(),
                    ScalarSeries {
                        kind,
                        last_raw: 0.0,
                        fine: VecDeque::new(),
                        coarse: VecDeque::new(),
                        pending: parts[4].parse().map_err(|_| err("bad pending"))?,
                        pending_n: parts[5].parse().map_err(|_| err("bad pending_n"))?,
                    },
                );
                pending_scalar = Some(key);
                pending_hist = None;
                restored += 1;
            } else if let Some(rest) = tagged(line, "SF") {
                let key = pending_scalar.as_ref().ok_or_else(|| err("orphan SF"))?;
                let s = loaded.scalars.get_mut(key).unwrap();
                s.fine = parse_scalar_ring(rest).ok_or_else(|| err("bad SF ring"))?;
                truncate_front(&mut s.fine, FINE_CAPACITY);
            } else if let Some(rest) = tagged(line, "SC") {
                let key = pending_scalar.as_ref().ok_or_else(|| err("orphan SC"))?;
                let s = loaded.scalars.get_mut(key).unwrap();
                s.coarse = parse_scalar_ring(rest).ok_or_else(|| err("bad SC ring"))?;
                truncate_front(&mut s.coarse, COARSE_CAPACITY);
            } else if let Some(rest) = line.strip_prefix("H ") {
                let parts: Vec<&str> = rest.split('|').collect();
                if parts.len() != 3 {
                    return Err(err("malformed hist record"));
                }
                let key = SeriesKey {
                    name: parts[0].to_string(),
                    labels: parse_labels(parts[1]).ok_or_else(|| err("bad labels"))?,
                };
                loaded.hists.insert(
                    key.clone(),
                    HistSeries {
                        upper_bounds: Vec::new(),
                        last_counts: Vec::new(),
                        fine: VecDeque::new(),
                        coarse: VecDeque::new(),
                        pending: Vec::new(),
                        pending_n: parts[2].parse().map_err(|_| err("bad pending_n"))?,
                    },
                );
                pending_hist = Some(key);
                pending_scalar = None;
                restored += 1;
            } else if let Some(rest) = tagged(line, "HB") {
                let key = pending_hist.as_ref().ok_or_else(|| err("orphan HB"))?;
                loaded.hists.get_mut(key).unwrap().upper_bounds =
                    parse_f64_list(rest).ok_or_else(|| err("bad bounds"))?;
            } else if let Some(rest) = tagged(line, "HL") {
                let key = pending_hist.as_ref().ok_or_else(|| err("orphan HL"))?;
                let last = parse_u64_list(rest).ok_or_else(|| err("bad last counts"))?;
                loaded.hists.get_mut(key).unwrap().last_counts = vec![0; last.len()];
            } else if let Some(rest) = tagged(line, "HP") {
                let key = pending_hist.as_ref().ok_or_else(|| err("orphan HP"))?;
                loaded.hists.get_mut(key).unwrap().pending =
                    parse_u64_list(rest).ok_or_else(|| err("bad pending counts"))?;
            } else if let Some(rest) = tagged(line, "HF") {
                let key = pending_hist.as_ref().ok_or_else(|| err("orphan HF"))?;
                let s = loaded.hists.get_mut(key).unwrap();
                s.fine = parse_hist_ring(rest).ok_or_else(|| err("bad HF ring"))?;
                truncate_front(&mut s.fine, FINE_CAPACITY);
            } else if let Some(rest) = tagged(line, "HC") {
                let key = pending_hist.as_ref().ok_or_else(|| err("orphan HC"))?;
                let s = loaded.hists.get_mut(key).unwrap();
                s.coarse = parse_hist_ring(rest).ok_or_else(|| err("bad HC ring"))?;
                truncate_front(&mut s.coarse, COARSE_CAPACITY);
            } else {
                return Err(err("unrecognised record"));
            }
        }
        *self.lock() = loaded;
        Ok(restored)
    }
}

/// Split a `TAG payload` line; an empty payload may omit the space
/// (`save` writes `TAG ` but editors/trims may drop the trailing blank).
fn tagged<'a>(line: &'a str, tag: &str) -> Option<&'a str> {
    let rest = line.strip_prefix(tag)?;
    if rest.is_empty() {
        Some("")
    } else {
        rest.strip_prefix(' ')
    }
}

fn push_scalar(series: &mut ScalarSeries, now_ms: u64, value: f64) {
    series.fine.push_back((now_ms, value));
    truncate_front(&mut series.fine, FINE_CAPACITY);
    series.pending += value;
    series.pending_n += 1;
    if series.pending_n >= COARSE_FACTOR {
        let folded = match series.kind {
            MetricKind::Counter => series.pending,
            MetricKind::Gauge => series.pending / series.pending_n as f64,
        };
        series.coarse.push_back((now_ms, folded));
        truncate_front(&mut series.coarse, COARSE_CAPACITY);
        series.pending = 0.0;
        series.pending_n = 0;
    }
}

fn push_hist(series: &mut HistSeries, now_ms: u64, deltas: Vec<u64>) {
    if series.pending.len() != deltas.len() {
        series.pending = vec![0; deltas.len()];
        series.pending_n = 0;
    }
    for (acc, d) in series.pending.iter_mut().zip(&deltas) {
        *acc += d;
    }
    series.pending_n += 1;
    series.fine.push_back((now_ms, deltas));
    truncate_front(&mut series.fine, FINE_CAPACITY);
    if series.pending_n >= COARSE_FACTOR {
        let folded = std::mem::replace(&mut series.pending, vec![0; series.last_counts.len()]);
        series.coarse.push_back((now_ms, folded));
        truncate_front(&mut series.coarse, COARSE_CAPACITY);
        series.pending_n = 0;
    }
}

fn truncate_front<T>(ring: &mut VecDeque<T>, cap: usize) {
    while ring.len() > cap.max(1) {
        ring.pop_front();
    }
}

/// Merge a coarse and a fine ring into one sorted point list. Coarse
/// points strictly older than the fine window come first; the one coarse
/// fold that *straddles* the fine-window boundary (its interval covers
/// scrapes already evicted from the fine ring *and* the oldest retained
/// fine points) is included too, with the fine points it covers skipped.
/// Every ingest is therefore represented exactly once — counter
/// increments sum to the true total across the whole retained span.
fn merge_rings<T, U, F>(
    coarse: &VecDeque<(u64, T)>,
    fine: &VecDeque<(u64, T)>,
    f: F,
) -> Vec<(u64, U)>
where
    F: Fn(&T) -> U,
{
    let cutoff = fine.front().map(|(t, _)| *t).unwrap_or(u64::MAX);
    let mut out: Vec<(u64, U)> = coarse
        .iter()
        .filter(|(t, _)| *t < cutoff)
        .map(|(t, v)| (*t, f(v)))
        .collect();
    // A fold at `t >= cutoff` whose predecessor is older than the fine
    // window covers evicted scrapes; take the first such fold whole and
    // start the fine points after it.
    let straddler = coarse.iter().find(|(t, _)| *t >= cutoff);
    let fine_start = match straddler {
        Some((t, v)) => {
            out.push((*t, f(v)));
            *t
        }
        None => 0,
    };
    out.extend(
        fine.iter()
            .filter(|(t, _)| *t > fine_start)
            .map(|(t, v)| (*t, f(v))),
    );
    out
}

fn render_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return "-".to_string();
    }
    labels
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(";")
}

fn parse_labels(text: &str) -> Option<Vec<(String, String)>> {
    if text == "-" {
        return Some(Vec::new());
    }
    text.split(';')
        .map(|pair| {
            pair.split_once('=')
                .map(|(k, v)| (k.to_string(), v.to_string()))
        })
        .collect()
}

fn render_scalar_ring(ring: &VecDeque<(u64, f64)>) -> String {
    ring.iter()
        .map(|(t, v)| format!("{t}:{v}"))
        .collect::<Vec<_>>()
        .join(",")
}

fn parse_scalar_ring(text: &str) -> Option<VecDeque<(u64, f64)>> {
    if text.trim().is_empty() {
        return Some(VecDeque::new());
    }
    text.split(',')
        .map(|p| {
            let (t, v) = p.split_once(':')?;
            Some((t.parse().ok()?, v.parse().ok()?))
        })
        .collect()
}

fn render_hist_ring(ring: &VecDeque<(u64, Vec<u64>)>) -> String {
    ring.iter()
        .map(|(t, counts)| format!("{t}:{}", join_u64_sep(counts, '|')))
        .collect::<Vec<_>>()
        .join(",")
}

fn parse_hist_ring(text: &str) -> Option<VecDeque<(u64, Vec<u64>)>> {
    if text.trim().is_empty() {
        return Some(VecDeque::new());
    }
    text.split(',')
        .map(|p| {
            let (t, counts) = p.split_once(':')?;
            let counts: Option<Vec<u64>> = counts.split('|').map(|c| c.parse().ok()).collect();
            Some((t.parse().ok()?, counts?))
        })
        .collect()
}

fn join_f64(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

fn join_u64(values: &[u64]) -> String {
    join_u64_sep(values, ',')
}

fn join_u64_sep(values: &[u64], sep: char) -> String {
    let mut out = String::new();
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(sep);
        }
        out.push_str(&v.to_string());
    }
    out
}

fn parse_f64_list(text: &str) -> Option<Vec<f64>> {
    if text.trim().is_empty() {
        return Some(Vec::new());
    }
    text.split(',').map(|v| v.parse().ok()).collect()
}

fn parse_u64_list(text: &str) -> Option<Vec<u64>> {
    if text.trim().is_empty() {
        return Some(Vec::new());
    }
    text.split(',').map(|v| v.parse().ok()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter_snap(name: &str, value: f64) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        snap.push_metric(
            name,
            "test",
            MetricKind::Counter,
            vec![Sample::plain(value)],
        );
        snap
    }

    fn gauge_snap(name: &str, value: f64) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        snap.push_metric(name, "test", MetricKind::Gauge, vec![Sample::plain(value)]);
        snap
    }

    #[test]
    fn counters_become_increments_and_gauges_last_value() {
        let store = TimeSeriesStore::default();
        store.ingest(&counter_snap("ttlg_x_total", 5.0), 1_000);
        store.ingest(&counter_snap("ttlg_x_total", 12.0), 2_000);
        store.ingest(&counter_snap("ttlg_x_total", 12.0), 3_000);
        let data = store.scalar_data("ttlg_x_total");
        assert_eq!(data.len(), 1);
        assert_eq!(
            data[0].points,
            vec![(1_000, 5.0), (2_000, 7.0), (3_000, 0.0)]
        );

        store.ingest(&gauge_snap("ttlg_depth", 3.0), 4_000);
        store.ingest(&gauge_snap("ttlg_depth", 9.0), 5_000);
        let data = store.scalar_data("ttlg_depth");
        assert_eq!(data[0].points, vec![(4_000, 3.0), (5_000, 9.0)]);
    }

    #[test]
    fn counter_reset_is_detected_and_counted() {
        let store = TimeSeriesStore::default();
        store.ingest(&counter_snap("ttlg_x_total", 100.0), 1_000);
        // Process restart: raw value goes backwards. The new value is the
        // increase since the restart, not a negative delta.
        store.ingest(&counter_snap("ttlg_x_total", 4.0), 2_000);
        let data = store.scalar_data("ttlg_x_total");
        assert_eq!(data[0].points, vec![(1_000, 100.0), (2_000, 4.0)]);
        let mut snap = MetricsSnapshot::new();
        store.export_into(&mut snap);
        let resets = snap
            .metrics
            .iter()
            .find(|m| m.name == "ttlg_tsdb_counter_resets_total")
            .unwrap();
        assert_eq!(resets.samples[0].value, 1.0);
    }

    #[test]
    fn rings_stay_bounded_under_flood() {
        // Past 480 folds of 30 ingests, both rings sit at their caps.
        let store = TimeSeriesStore::new();
        let n = (COARSE_CAPACITY as u64 + 20) * COARSE_FACTOR as u64;
        for i in 0..n {
            let mut snap = counter_snap("ttlg_x_total", i as f64);
            snap.push_histogram(
                "ttlg_lat_us",
                "test",
                Vec::new(),
                vec![1.0, 2.0],
                vec![i, i / 2, i / 4],
                i as f64,
            );
            store.ingest(&snap, i * 7);
        }
        assert_eq!(store.scrapes(), n);
        let inner = store.inner.lock().unwrap();
        assert_eq!(inner.scalars.len() + inner.hists.len(), 2);
        for s in inner.scalars.values() {
            assert_eq!(s.fine.len(), 600, "fine ring at its cap");
            assert_eq!(s.coarse.len(), 480, "coarse ring at its cap");
        }
        for h in inner.hists.values() {
            assert_eq!(h.fine.len(), 600);
            assert_eq!(h.coarse.len(), 480);
        }
    }

    #[test]
    fn series_cap_drops_excess_series() {
        let store = TimeSeriesStore::new();
        let mut snap = MetricsSnapshot::new();
        for i in 0..2_049 {
            snap.push_metric(
                &format!("ttlg_fam_{i:04}"),
                "test",
                MetricKind::Gauge,
                vec![Sample::plain(1.0)],
            );
        }
        store.ingest(&snap, 1_000);
        assert_eq!(store.series_count(), 2_048);
        assert!(store.scalar_data("ttlg_fam_2048").is_empty());
        let mut out = MetricsSnapshot::new();
        store.export_into(&mut out);
        let dropped = out
            .metrics
            .iter()
            .find(|m| m.name == "ttlg_tsdb_series_dropped_total")
            .unwrap();
        assert_eq!(dropped.samples[0].value, 1.0);
    }

    #[test]
    fn downsampling_sums_counters_and_averages_gauges() {
        let store = TimeSeriesStore::new();
        // 60 scrapes: counter +1 each, gauge value = scrape index.
        for i in 0..60u64 {
            let mut snap = counter_snap("ttlg_c_total", (i + 1) as f64);
            snap.push_metric(
                "ttlg_g",
                "test",
                MetricKind::Gauge,
                vec![Sample::plain(i as f64)],
            );
            store.ingest(&snap, (i + 1) * 1_000);
        }
        let inner = store.inner.lock().unwrap();
        let c = inner
            .scalars
            .get(&SeriesKey {
                name: "ttlg_c_total".into(),
                labels: Vec::new(),
            })
            .unwrap();
        // Each fold covers 30 scrapes: the first increment is the raw
        // value (1.0, no prior baseline), the others +1 each.
        assert_eq!(
            c.coarse.iter().copied().collect::<Vec<_>>(),
            vec![(30_000, 30.0), (60_000, 30.0)]
        );
        let g = inner
            .scalars
            .get(&SeriesKey {
                name: "ttlg_g".into(),
                labels: Vec::new(),
            })
            .unwrap();
        // Gauge folds average: (0+..+29)/30 = 14.5, (30+..+59)/30 = 44.5.
        assert_eq!(
            g.coarse.iter().map(|(_, v)| *v).collect::<Vec<_>>(),
            vec![14.5, 44.5]
        );
    }

    #[test]
    fn merged_read_spans_coarse_and_fine_without_double_counting() {
        let store = TimeSeriesStore::new();
        // 1 215 scrapes of +1 increments at 1s cadence. Fine keeps the
        // last 600 (616-1215); coarse holds folds of 30 up to 1200, so the
        // fold of 601-630 straddles the seam.
        for i in 0..1_215u64 {
            store.ingest(
                &counter_snap("ttlg_c_total", (i + 1) as f64),
                (i + 1) * 1_000,
            );
        }
        let data = store.scalar_data("ttlg_c_total");
        let total: f64 = data[0].points.iter().map(|(_, v)| v).sum();
        // Every unit of the raw counter is represented exactly once.
        assert_eq!(total, 1_215.0);
        // The merged timeline spans back past the fine window.
        assert!(data[0].points.first().unwrap().0 < 616_000);
    }

    #[test]
    fn ten_minutes_of_history_is_queryable_at_fine_resolution() {
        let store = TimeSeriesStore::default();
        // 1s × 600 fine points. 700 scrapes → the oldest 100
        // intervals live only in the coarse ring.
        for i in 0..700u64 {
            store.ingest(
                &counter_snap("ttlg_c_total", (i + 1) as f64),
                (i + 1) * 1_000,
            );
        }
        let data = store.scalar_data("ttlg_c_total");
        let span = data[0].points.last().unwrap().0 - data[0].points.first().unwrap().0;
        assert!(span >= 600_000, "retained span {span}ms < 10 min");
        let total: f64 = data[0].points.iter().map(|(_, v)| v).sum();
        assert_eq!(total, 700.0);
    }

    #[test]
    fn save_and_hydrate_round_trip() {
        let store = TimeSeriesStore::default();
        for i in 0..50u64 {
            let mut snap = counter_snap("ttlg_c_total", (i * 3) as f64);
            snap.push_metric(
                "ttlg_g",
                "test",
                MetricKind::Gauge,
                vec![Sample::labelled("schema", "f64-3d", i as f64)],
            );
            snap.push_histogram(
                "ttlg_lat_us",
                "test",
                Vec::new(),
                vec![2.0, 4.0, 8.0],
                vec![i, i / 2, i / 3, i / 5],
                i as f64,
            );
            store.ingest(&snap, 10_000 + i * 1_000);
        }
        let dump = store.save();
        let restored = TimeSeriesStore::default();
        let n = restored.hydrate(&dump).expect("hydrate");
        assert_eq!(n, 3);
        // Everything but the raw state round-trips; that restarts at 0.
        let zeroed: String = dump
            .lines()
            .map(|l| match l.split_once(' ') {
                Some(("S", rest)) => {
                    let mut f: Vec<&str> = rest.split('|').collect();
                    f[3] = "0";
                    format!("S {}\n", f.join("|"))
                }
                Some(("HL", rest)) => {
                    format!(
                        "HL {}\n",
                        rest.split(',').map(|_| "0").collect::<Vec<_>>().join(",")
                    )
                }
                _ => format!("{l}\n"),
            })
            .collect();
        assert_eq!(restored.save(), zeroed);
        assert_eq!(restored.last_ingest_ms(), store.last_ingest_ms());
        assert_eq!(
            restored.scalar_data("ttlg_c_total")[0].points,
            store.scalar_data("ttlg_c_total")[0].points
        );
        assert_eq!(
            restored.hist_data("ttlg_lat_us")[0].points,
            store.hist_data("ttlg_lat_us")[0].points
        );
        // The next process's counters count from zero.
        restored.ingest(&counter_snap("ttlg_c_total", 5.0), 70_000);
        let pts = restored.scalar_data("ttlg_c_total");
        assert_eq!(pts[0].points.last(), Some(&(70_000, 5.0)));
    }

    /// A store hydrated from a process whose counter last read 5 records
    /// a fresh process's 10 as an increment of 10, not 5, and the same
    /// for a histogram bucket; no reset is counted.
    #[test]
    fn hydrated_counters_restart_from_zero() {
        let snap = |v: u64| {
            let mut snap = counter_snap("ttlg_c_total", v as f64);
            snap.push_histogram(
                "ttlg_lat_us",
                "test",
                Vec::new(),
                vec![2.0],
                vec![v, 0],
                0.0,
            );
            snap
        };
        let old = TimeSeriesStore::default();
        old.ingest(&snap(5), 1_000);
        let store = TimeSeriesStore::default();
        store.hydrate(&old.save()).expect("hydrate");
        store.ingest(&snap(10), 2_000);
        let counter = &store.scalar_data("ttlg_c_total")[0].points;
        assert_eq!(counter.last(), Some(&(2_000, 10.0)));
        let hist = &store.hist_data("ttlg_lat_us")[0].points;
        assert_eq!(hist.last(), Some(&(2_000, vec![10, 0])));
        // Two scrapes, no counter reset.
        assert!(store.save().contains("\nmeta 2 0 "), "{}", store.save());
    }

    #[test]
    fn hydrate_rejects_garbage() {
        let store = TimeSeriesStore::default();
        assert!(store.hydrate("").is_err());
        assert!(store.hydrate("not-a-history\n").is_err());
        assert!(store.hydrate("ttlg-tsdb 1\nS c|x|-|nope|0|0\n").is_err());
    }

    /// A thread that panicked holding the lock leaves the store usable.
    #[test]
    fn a_poisoned_store_still_ingests_queries_and_saves() {
        let store = TimeSeriesStore::default();
        store.ingest(&counter_snap("ttlg_x_total", 5.0), 1_000);
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _held = store.inner.lock().unwrap();
                panic!("poison the history store");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(store.inner.is_poisoned());
        store.ingest(&counter_snap("ttlg_x_total", 12.0), 2_000);
        assert_eq!(
            store.scalar_data("ttlg_x_total")[0].points,
            vec![(1_000, 5.0), (2_000, 7.0)]
        );
        let r = crate::query::eval_range(&store, "increase(ttlg_x_total)", 2_000, 2_000, 2_000)
            .expect("query");
        assert_eq!(r.series[0].points, vec![(2_000, 12.0)]);
        let restored = TimeSeriesStore::default();
        assert_eq!(restored.hydrate(&store.save()), Ok(1));
        assert_eq!(restored.scrapes(), 2);
    }

    #[test]
    fn tsdb_families_are_not_self_ingested() {
        let store = TimeSeriesStore::default();
        let mut snap = MetricsSnapshot::new();
        store.export_into(&mut snap);
        store.ingest(&snap, 1_000);
        assert!(store.family_names().is_empty());
    }
}
