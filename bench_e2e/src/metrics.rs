//! Metric records, percentiles, host memory readings and the counter
//! deltas the program already exposes, flattened into named metrics.

use crate::speed::{Reading, REFERENCE_US};
use pinatubo_mem::MemStats;
use std::time::Duration;

/// One named measurement.
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in the order they were measured; names are unique.
#[derive(Debug, Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Records a metric, replacing an earlier value of the same name.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(m) => {
                m.value = value;
                m.unit = unit;
            }
            None => self.0.push(Metric { name, value, unit }),
        }
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }
}

/// Nearest-rank percentile of ascending `sorted` samples (`p` in 0..=100);
/// 0 for no samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// Completed requests in completion order: each one's latency and its
/// completion time, in seconds since the measured phase began.
#[derive(Debug, Default)]
pub struct Completions {
    latency_ms: Vec<f64>,
    /// The part of each latency that is not host work (an open loop's
    /// wait for its time slot); it is never scaled.
    fixed_ms: Vec<f64>,
    done_s: Vec<f64>,
}

/// Throughput and latency percentiles of one run.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub throughput_rps: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub p99_ms: f64,
}

impl Completions {
    pub fn push(&mut self, latency_ms: f64, done_s: f64) {
        self.push_with_fixed(latency_ms, 0.0, done_s);
    }

    pub fn push_with_fixed(&mut self, latency_ms: f64, fixed_ms: f64, done_s: f64) {
        self.latency_ms.push(latency_ms);
        self.fixed_ms.push(fixed_ms);
        self.done_s.push(done_s);
    }

    pub fn len(&self) -> usize {
        self.latency_ms.len()
    }

    /// The same completions at the reference host speed (see
    /// [`crate::speed`]): each latency's host part is scaled by the
    /// speed factor around it. With `scale_clock` (a closed loop, where
    /// the host sets the pace) the gaps between completions are scaled
    /// too, after taking out the probe's own time; an open loop keeps
    /// the wall clock, since its arrivals set the pace.
    pub fn at_reference_speed(&self, readings: &[Reading], scale_clock: bool) -> Completions {
        let factor = |t: f64| speed_factor(readings, t);
        let mut out = Completions::default();
        let (mut prev, mut clock, mut r) = (0.0, 0.0, 0);
        for i in 0..self.len() {
            let (l, f, done) = (self.latency_ms[i], self.fixed_ms[i], self.done_s[i]);
            if scale_clock {
                let mut gap = done - prev;
                while r < readings.len() && readings[r].at_s < done {
                    gap -= readings[r].us / 1e6;
                    r += 1;
                }
                clock += gap.max(0.0) * factor((prev + done) / 2.0);
                prev = done;
            } else {
                clock = done;
            }
            out.push_with_fixed(f + (l - f) * factor(done - l / 2e3), f, clock);
        }
        out
    }

    /// Completions per second of the run's clock, and nearest-rank
    /// latency percentiles over every completion.
    pub fn summary(&self) -> Summary {
        let mut lat = self.latency_ms.clone();
        lat.sort_by(f64::total_cmp);
        let end_s = self.done_s.last().copied().unwrap_or(0.0);
        Summary {
            throughput_rps: if end_s > 0.0 {
                self.len() as f64 / end_s
            } else {
                0.0
            },
            p50_ms: percentile(&lat, 50.0),
            p90_ms: percentile(&lat, 90.0),
            p99_ms: percentile(&lat, 99.0),
        }
    }
}

/// Readings on each side of a moment that its speed factor uses.
const NEAREST: usize = 3;

/// Reference duration over the median of the probe readings nearest to
/// `t` (1 without readings).
fn speed_factor(readings: &[Reading], t: f64) -> f64 {
    if readings.is_empty() {
        return 1.0;
    }
    let j = readings.partition_point(|r| r.at_s < t);
    let lo = j.saturating_sub(NEAREST);
    let hi = (j + NEAREST).min(readings.len()).max(lo + 1);
    let near: Vec<f64> = readings[lo..hi].iter().map(|r| r.us).collect();
    REFERENCE_US / median(&near)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A `/proc/self/status` field in MB (`VmHWM` is peak resident memory,
/// `VmRSS` the current one). 0 where the file does not exist.
pub fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn frac(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The `mem.controller`, `nvm.fault` and `mem.secded` layers: modeled
/// event counts, the modeled time and energy split by mechanism (as
/// shares of the total), and the fault/recovery ledger of `delta`.
pub fn memory_layers(m: &mut Metrics, delta: &MemStats) {
    let e = &delta.events;
    for (name, v) in [
        ("activates", e.activates),
        ("multi_activates", e.multi_activates),
        ("rows_activated", e.rows_activated),
        ("sense_passes", e.sense_passes),
        ("row_writes", e.row_writes),
        ("bus_bits", e.bus_bits),
        ("mode_sets", e.mode_sets),
        ("row_buffer_hits", e.row_buffer_hits),
    ] {
        m.push(format!("mem.controller.events.{name}"), v as f64, "count");
    }
    m.push(
        "mem.controller.row_pages_copied",
        delta.row_pages_copied as f64,
        "count",
    );
    let t = &delta.time;
    for (name, v) in [
        ("activate", t.activate_ns),
        ("sense", t.sense_ns),
        ("write", t.write_ns),
        ("gdl", t.gdl_ns),
        ("bus", t.bus_ns),
        ("mrs", t.mrs_ns),
        ("ecc", t.ecc_ns),
        ("stall", t.stall_ns),
        ("precharge", t.precharge_ns),
    ] {
        m.push(
            format!("mem.controller.time.{name}_frac"),
            frac(v, delta.time_ns),
            "frac",
        );
    }
    let en = &delta.energy;
    for (name, v) in [
        ("activate", en.activate_pj),
        ("sense", en.sense_pj),
        ("write", en.write_pj),
        ("bus", en.bus_pj),
        ("gdl", en.gdl_pj),
        ("logic", en.logic_pj),
        ("ecc", en.ecc_pj),
    ] {
        m.push(
            format!("mem.controller.energy.{name}_frac"),
            frac(v, en.total_pj()),
            "frac",
        );
    }
    let r = &delta.reliability;
    for (name, v) in [
        ("nvm.fault.injected_bit_errors", r.injected_bit_errors),
        ("nvm.fault.injected_write_faults", r.injected_write_faults),
        ("nvm.fault.physical_senses", r.physical_senses),
        ("nvm.fault.physical_writes", r.physical_writes),
        ("mem.secded.ecc_corrected_bits", r.ecc_corrected_bits),
        ("mem.secded.ecc_detected_double", r.ecc_detected_double),
        ("mem.secded.sense_retries", r.sense_retries),
        ("mem.secded.write_retries", r.write_retries),
        ("mem.secded.fan_in_splits", r.fan_in_splits),
        ("mem.secded.rmw_fallbacks", r.rmw_fallbacks),
        ("mem.secded.uncorrectable_errors", r.uncorrectable_errors),
        ("mem.secded.silent_wrong_bits", r.silent_wrong_bits),
    ] {
        m.push(name, v as f64, "count");
    }
    // Useful senses over attempted ones: every retry is a wasted sense.
    let first_try = if r.physical_senses == 0 {
        1.0
    } else {
        frac(
            r.physical_senses.saturating_sub(r.sense_retries) as f64,
            r.physical_senses as f64,
        )
    };
    m.push("mem.secded.first_try_sense_frac", first_try, "frac");
}

/// Whether two runs' statistics agree the way serial replay must: event
/// counters and the reliability ledger exactly, time and energy within a
/// relative 1e-6 (summation order differs between executors).
pub fn stats_match(a: &MemStats, b: &MemStats) -> Result<(), String> {
    let close = |x: f64, y: f64| (x - y).abs() <= 1e-6 * x.abs().max(y.abs()).max(1.0);
    if a.events != b.events {
        return Err(format!(
            "event counters differ: {:?} vs {:?}",
            a.events, b.events
        ));
    }
    if a.reliability != b.reliability {
        return Err(format!(
            "reliability ledgers differ: {:?} vs {:?}",
            a.reliability, b.reliability
        ));
    }
    if !close(a.time_ns, b.time_ns) {
        return Err(format!("time_ns differs: {} vs {}", a.time_ns, b.time_ns));
    }
    if !close(a.energy.total_pj(), b.energy.total_pj()) {
        return Err(format!(
            "energy differs: {} vs {} pJ",
            a.energy.total_pj(),
            b.energy.total_pj()
        ));
    }
    Ok(())
}

/// The number following `"<key>": {"value": ` in a JSON text this
/// benchmark wrote.
pub fn json_value(text: &str, key: &str) -> Option<f64> {
    let start = text.find(&format!("\"{key}\": {{\"value\": "))? + key.len() + 14;
    let rest = &text[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// A JSON number; non-finite values (never expected) become 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}` over the given metrics.
pub fn json_object<'a>(metrics: impl Iterator<Item = &'a Metric>) -> String {
    let body: Vec<String> = metrics
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn a_slow_host_is_scaled_back_to_reference_speed() {
        // The probe reads twice its reference time throughout: the host
        // ran at half speed.
        let readings: Vec<Reading> = (0..10)
            .map(|i| Reading {
                at_s: f64::from(i) * 0.01,
                us: 2.0 * REFERENCE_US,
            })
            .collect();
        let mut closed = Completions::default();
        for i in 1..=100 {
            closed.push(1.0, f64::from(i) * 1e-3);
        }
        let raw = closed.summary();
        let scaled = closed.at_reference_speed(&readings, true).summary();
        assert_eq!(raw.p50_ms, 1.0);
        assert!((scaled.p50_ms - 0.5).abs() < 1e-12);
        // Probe time comes out of the clock before it is scaled.
        let probe_s = 10.0 * 2.0 * REFERENCE_US / 1e6;
        let want = 100.0 / ((0.1 - probe_s) / 2.0);
        assert!((scaled.throughput_rps - want).abs() < 1e-6 * want);

        // An open loop keeps its slot wait and its clock.
        let mut open = Completions::default();
        open.push_with_fixed(3.0, 1.0, 0.05);
        let scaled = open.at_reference_speed(&readings, false).summary();
        assert!((scaled.p50_ms - 2.0).abs() < 1e-12);
        assert!((scaled.throughput_rps - 20.0).abs() < 1e-9);
        assert_eq!(Completions::default().summary().throughput_rps, 0.0);
    }

    #[test]
    fn json_round_trip() {
        let mut m = Metrics::default();
        m.push("a.b", 1.25, "ms");
        m.push("c", -3e-7, "count");
        let text = json_object(m.iter());
        assert_eq!(json_value(&text, "a.b"), Some(1.25));
        assert_eq!(json_value(&text, "c"), Some(-3e-7));
        assert_eq!(json_value(&text, "d"), None);
    }
}
