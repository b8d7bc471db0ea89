//! Spans around the benchmark's own calls into each layer, kept in
//! memory and written at exit as Chrome trace-event JSON, plus the
//! per-layer table (calls, total, self time, share of wall time).
//!
//! A span's self time is its duration minus the part its child spans
//! cover. The measured phase is one root span, so the self times of all
//! spans under it sum to its wall time.

use crate::metrics::{percentile, Metrics};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The request the call served (0 for calls serving no single one).
    pub request: u64,
}

/// Records spans when on; when off, [`Tracer::span`] only runs the call.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span that stays open until [`Tracer::end`]; spans opened
    /// meanwhile become its children.
    pub fn begin(&mut self, name: &'static str, request: u64) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let idx = self.open.pop().expect("end matches a begin");
        self.spans[idx].end_ns = end_ns;
    }

    /// Runs `call` inside a span named after the layer entry it calls.
    pub fn span<R>(&mut self, name: &'static str, request: u64, call: impl FnOnce() -> R) -> R {
        self.begin(name, request);
        let out = call();
        self.end();
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event JSON (opens in Perfetto or chrome://tracing).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("", |p| self.spans[p].name);
            let _ = write!(
                out,
                "{}{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"request\": {}, \"parent\": \"{}\"}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.request,
                parent,
            );
        }
        out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
        out
    }

    /// Per-layer rows, by span name.
    pub fn layers(&self) -> Vec<LayerRow> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut rows: BTreeMap<&'static str, (u64, u64, Vec<f64>)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let row = rows.entry(s.name).or_default();
            row.0 += dur;
            row.1 += dur - child.min(dur);
            row.2.push(dur as f64 / 1e6);
        }
        rows.into_iter()
            .map(|(name, (total_ns, self_ns, mut durs_ms))| {
                durs_ms.sort_by(f64::total_cmp);
                LayerRow {
                    name,
                    calls: durs_ms.len() as u64,
                    total_s: total_ns as f64 / 1e9,
                    self_s: self_ns as f64 / 1e9,
                    p50_ms: percentile(&durs_ms, 50.0),
                    p99_ms: percentile(&durs_ms, 99.0),
                }
            })
            .collect()
    }
}

/// One layer entry's traced calls.
#[derive(Debug)]
pub struct LayerRow {
    pub name: &'static str,
    pub calls: u64,
    pub total_s: f64,
    pub self_s: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
}

/// Per-layer metrics of a traced run whose measured phase took `wall_s`.
pub fn layer_metrics(rows: &[LayerRow], wall_s: f64) -> Metrics {
    let mut m = Metrics::default();
    for r in rows {
        m.push(format!("{}.calls", r.name), r.calls as f64, "count");
        m.push(format!("{}.total_s", r.name), r.total_s, "s");
        m.push(format!("{}.self_frac", r.name), r.self_s / wall_s, "frac");
        m.push(format!("{}.p50_ms", r.name), r.p50_ms, "ms");
        m.push(format!("{}.p99_ms", r.name), r.p99_ms, "ms");
    }
    m
}

/// The per-layer table as printed text.
pub fn layer_table(rows: &[LayerRow], wall_s: f64) -> String {
    let mut out = format!(
        "{:<40} {:>9} {:>10} {:>10} {:>7} {:>10} {:>10}\n",
        "layer entry", "calls", "total_s", "self_s", "share", "p50_ms", "p99_ms"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<40} {:>9} {:>10.4} {:>10.4} {:>6.2}% {:>10.4} {:>10.4}",
            r.name,
            r.calls,
            r.total_s,
            r.self_s,
            100.0 * r.self_s / wall_s,
            r.p50_ms,
            r.p99_ms
        );
    }
    let self_sum: f64 = rows.iter().map(|r| r.self_s).sum();
    let _ = writeln!(
        out,
        "self times sum to {self_sum:.4} s of {wall_s:.4} s measured wall ({:.2}%)",
        100.0 * self_sum / wall_s
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_root() {
        let mut t = Tracer::new(true);
        t.begin("bench", 0);
        t.span("a", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("b", 2, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        t.end();
        let rows = t.layers();
        let root = t.spans()[0].end_ns - t.spans()[0].start_ns;
        let self_sum: f64 = rows.iter().map(|r| r.self_s).sum();
        assert!((self_sum - root as f64 / 1e9).abs() < 1e-9);
        assert_eq!(rows.iter().map(|r| r.calls).sum::<u64>(), 3);
        let json = t.chrome_json();
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 3);
        assert!(json.contains("\"parent\": \"bench\""));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin("bench", 0);
        assert_eq!(t.span("a", 1, || 7), 7);
        t.end();
        assert!(t.spans().is_empty());
    }
}
