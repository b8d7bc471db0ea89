//! Host speed, measured beside the work.
//!
//! The vCPUs of a shared host run up to half as fast for tens of seconds
//! at a time, so raw wall-clock figures of two runs can differ by more
//! than most changes worth measuring. The probe is a fixed kernel owned
//! by the benchmark and timed between requests: eight independent
//! SplitMix64 streams, the throughput-bound integer hashing the fault
//! path's counter-based draws do. It keeps its state in registers, so it
//! leaves the workload's caches alone. A host time scaled by
//! `REFERENCE_US / probe_us` around it is that time at the probe's
//! reference speed. No program code runs inside the probe, so a change
//! to the program cannot move it.

use std::time::Instant;

/// The probe's duration on an unloaded 2-core host; a scaled time is a
/// time on that host.
pub const REFERENCE_US: f64 = 100.0;
const LANES: usize = 8;
const STEPS: usize = 8192;

/// One probe reading.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    /// When it started, in seconds since the measured phase began.
    pub at_s: f64,
    pub us: f64,
}

pub struct SpeedProbe {
    pass: u64,
    origin: Instant,
    readings: Vec<Reading>,
}

impl SpeedProbe {
    pub fn new() -> Self {
        SpeedProbe {
            pass: 0,
            origin: Instant::now(),
            readings: Vec::new(),
        }
    }

    /// Times one pass of the kernel, in µs.
    pub fn read(&mut self) -> f64 {
        self.pass += 1;
        let t = Instant::now();
        let mut lanes = [0u64; LANES];
        for (k, lane) in lanes.iter_mut().enumerate() {
            *lane = self.pass << 8 | k as u64;
        }
        for _ in 0..STEPS {
            for lane in &mut lanes {
                *lane = lane.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = *lane;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                *lane ^= z ^ (z >> 31);
            }
        }
        std::hint::black_box(lanes);
        t.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `work` between two readings; returns its result, its wall
    /// time and that time at the reference speed, in seconds.
    pub fn timed<R>(&mut self, work: impl FnOnce() -> R) -> (R, f64, f64) {
        let before = self.read();
        let t = Instant::now();
        let out = work();
        let raw_s = t.elapsed().as_secs_f64();
        let after = self.read();
        (out, raw_s, raw_s * REFERENCE_US * 2.0 / (before + after))
    }

    /// Starts the measured phase: later readings are timed from `origin`.
    pub fn start(&mut self, origin: Instant) {
        self.origin = origin;
        self.readings.clear();
    }

    /// Records one reading of the measured phase.
    pub fn sample(&mut self) {
        let at_s = self.origin.elapsed().as_secs_f64();
        let us = self.read();
        self.readings.push(Reading { at_s, us });
    }

    pub fn readings(&self) -> &[Reading] {
        &self.readings
    }
}
