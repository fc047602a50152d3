//! In-memory spans around the calls the benchmark makes, written out as
//! JSON when the run ends.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept per run; later ones are counted as dropped, so a long
/// traced run cannot grow memory or `trace.json` without bound.
const MAX_SPANS: usize = 200_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    /// The benchmark's operation number the span belongs to.
    pub request: u64,
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The spans of one run, recorded by the single thread that drives it.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }
}

impl Tracer {
    /// Record a finished span and return its id (0 if it was dropped).
    pub fn record(
        &mut self,
        parent: u64,
        request: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Each span's duration minus the part of it its children cover, in
/// the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// The `trace-<workload>.json` document: every kept span with its self
/// time, plus per-name totals.
pub fn render(workload: &str, seed: u64, tracer: &Tracer) -> String {
    let spans = tracer.spans();
    let selfs = self_times(spans);
    let mut summary: Vec<(&str, u64, u64, u64)> = Vec::new();
    for (s, &self_ns) in spans.iter().zip(&selfs) {
        let dur = s.end_ns - s.start_ns;
        match summary.iter_mut().find(|e| e.0 == s.name) {
            Some(e) => {
                e.1 += 1;
                e.2 += dur;
                e.3 += self_ns;
            }
            None => summary.push((s.name, 1, dur, self_ns)),
        }
    }
    let mut out = format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans_dropped\":{},\"summary\":[",
        tracer.dropped()
    );
    for (i, (name, count, total, self_ns)) in summary.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(
            out,
            "{sep}{{\"name\":\"{name}\",\"count\":{count},\"total_ns\":{total},\"self_ns\":{self_ns}}}"
        )
        .expect("writing to a String");
    }
    out.push_str("],\"spans\":[");
    for (i, (s, self_ns)) in spans.iter().zip(&selfs).enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(
            out,
            "{sep}\n{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        )
        .expect("writing to a String");
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_once() {
        let span = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            request: 1,
            name: "x",
            start_ns,
            end_ns,
        };
        // Parent 0..100 with children 10..40 and 30..60 (overlapping) and
        // 90..120 (clipped at the parent's end): 50 + 10 ns covered.
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 60),
            span(4, 1, 90, 120),
        ];
        assert_eq!(self_times(&spans), vec![40, 30, 30, 30]);
    }

    #[test]
    fn spans_link_and_render() {
        let mut t = Tracer::default();
        let a = Instant::now();
        let root = t.record(0, 7, "op", a, a + Duration::from_micros(5));
        t.record(root, 7, "plan", a, a + Duration::from_micros(2));
        let doc = render("w", 1, &t);
        let parsed = ttlg_serve::json::parse(doc.as_bytes()).expect("valid JSON");
        assert_eq!(
            parsed
                .get("spans")
                .map(|s| matches!(s, ttlg_serve::json::Json::Arr(v) if v.len() == 2)),
            Some(true)
        );
        assert_eq!(t.spans()[1].parent, t.spans()[0].id);
    }
}
