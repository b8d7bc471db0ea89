//! Time/energy/event accounting.
//!
//! Every command the controller executes deposits its cost here. The
//! figure harnesses read these tallies to compute throughput, speedup and
//! energy-saving ratios.

use std::ops::{Add, AddAssign, Sub};

/// Energy spent, broken down by physical mechanism (picojoules).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Row activation (word lines + cell currents).
    pub activate_pj: f64,
    /// Analog sensing in the SAs.
    pub sense_pj: f64,
    /// Array writes.
    pub write_pj: f64,
    /// Off-chip DDR bus.
    pub bus_pj: f64,
    /// Chip-internal global data lines.
    pub gdl_pj: f64,
    /// Digital buffer logic (inter-subarray / inter-bank / AC-PIM).
    pub logic_pj: f64,
    /// Bit-line precharge.
    pub precharge_pj: f64,
    /// SEC-DED overhead: check-bit sensing/writing (the code's 12.5 %
    /// storage overhead) plus the syndrome/encode XOR trees. Zero unless
    /// `ProtectionMode::SecDed` is active.
    pub ecc_pj: f64,
}

impl EnergyBreakdown {
    /// Total energy across all mechanisms.
    #[must_use]
    pub fn total_pj(&self) -> f64 {
        self.activate_pj
            + self.sense_pj
            + self.write_pj
            + self.bus_pj
            + self.gdl_pj
            + self.logic_pj
            + self.precharge_pj
            + self.ecc_pj
    }
}

impl Add for EnergyBreakdown {
    type Output = EnergyBreakdown;
    fn add(self, rhs: EnergyBreakdown) -> EnergyBreakdown {
        EnergyBreakdown {
            activate_pj: self.activate_pj + rhs.activate_pj,
            sense_pj: self.sense_pj + rhs.sense_pj,
            write_pj: self.write_pj + rhs.write_pj,
            bus_pj: self.bus_pj + rhs.bus_pj,
            gdl_pj: self.gdl_pj + rhs.gdl_pj,
            logic_pj: self.logic_pj + rhs.logic_pj,
            precharge_pj: self.precharge_pj + rhs.precharge_pj,
            ecc_pj: self.ecc_pj + rhs.ecc_pj,
        }
    }
}

impl AddAssign for EnergyBreakdown {
    fn add_assign(&mut self, rhs: EnergyBreakdown) {
        *self = *self + rhs;
    }
}

impl Sub for EnergyBreakdown {
    type Output = EnergyBreakdown;
    fn sub(self, rhs: EnergyBreakdown) -> EnergyBreakdown {
        EnergyBreakdown {
            activate_pj: self.activate_pj - rhs.activate_pj,
            sense_pj: self.sense_pj - rhs.sense_pj,
            write_pj: self.write_pj - rhs.write_pj,
            bus_pj: self.bus_pj - rhs.bus_pj,
            gdl_pj: self.gdl_pj - rhs.gdl_pj,
            logic_pj: self.logic_pj - rhs.logic_pj,
            precharge_pj: self.precharge_pj - rhs.precharge_pj,
            ecc_pj: self.ecc_pj - rhs.ecc_pj,
        }
    }
}

/// Event counters, for sanity checks and per-layer reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventCounters {
    /// Single-row activations issued.
    pub activates: u64,
    /// Multi-row activations issued (one per group).
    pub multi_activates: u64,
    /// Total rows opened (by either kind of activation).
    pub rows_activated: u64,
    /// Sense passes through the SA mux.
    pub sense_passes: u64,
    /// Row writes.
    pub row_writes: u64,
    /// DDR bus bursts.
    pub bus_bursts: u64,
    /// Bits moved over the DDR bus.
    pub bus_bits: u64,
    /// GDL transfers (row ↔ global buffer).
    pub gdl_transfers: u64,
    /// Digital buffer-logic passes.
    pub logic_passes: u64,
    /// Mode-register sets (PIM reconfiguration).
    pub mode_sets: u64,
    /// Precharges.
    pub precharges: u64,
    /// Row-buffer hits. Always 0: the controller is closed-page, so every
    /// activation precharges. Kept because `bench_e2e` reports it.
    pub row_buffer_hits: u64,
}

impl Add for EventCounters {
    type Output = EventCounters;
    fn add(self, rhs: EventCounters) -> EventCounters {
        EventCounters {
            activates: self.activates + rhs.activates,
            multi_activates: self.multi_activates + rhs.multi_activates,
            rows_activated: self.rows_activated + rhs.rows_activated,
            sense_passes: self.sense_passes + rhs.sense_passes,
            row_writes: self.row_writes + rhs.row_writes,
            bus_bursts: self.bus_bursts + rhs.bus_bursts,
            bus_bits: self.bus_bits + rhs.bus_bits,
            gdl_transfers: self.gdl_transfers + rhs.gdl_transfers,
            logic_passes: self.logic_passes + rhs.logic_passes,
            mode_sets: self.mode_sets + rhs.mode_sets,
            precharges: self.precharges + rhs.precharges,
            row_buffer_hits: self.row_buffer_hits + rhs.row_buffer_hits,
        }
    }
}

impl AddAssign for EventCounters {
    fn add_assign(&mut self, rhs: EventCounters) {
        *self = *self + rhs;
    }
}

impl Sub for EventCounters {
    type Output = EventCounters;
    fn sub(self, rhs: EventCounters) -> EventCounters {
        EventCounters {
            activates: self.activates - rhs.activates,
            multi_activates: self.multi_activates - rhs.multi_activates,
            rows_activated: self.rows_activated - rhs.rows_activated,
            sense_passes: self.sense_passes - rhs.sense_passes,
            row_writes: self.row_writes - rhs.row_writes,
            bus_bursts: self.bus_bursts - rhs.bus_bursts,
            bus_bits: self.bus_bits - rhs.bus_bits,
            gdl_transfers: self.gdl_transfers - rhs.gdl_transfers,
            logic_passes: self.logic_passes - rhs.logic_passes,
            mode_sets: self.mode_sets - rhs.mode_sets,
            precharges: self.precharges - rhs.precharges,
            row_buffer_hits: self.row_buffer_hits - rhs.row_buffer_hits,
        }
    }
}

/// Reliability bookkeeping under fault injection: what went wrong, what
/// was caught, and what the recovery ladder did about it.
///
/// Invariants (asserted by [`ReliabilityStats::is_consistent`]):
/// every detection event is eventually either corrected or reported
/// uncorrectable, and retries only happen where something was detected.
/// All counters stay zero when the fault model is
/// `FaultModel::none()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReliabilityStats {
    /// Wrong bits produced by the sense path before any detection ran
    /// (summed over every sense evaluation, including retries).
    pub injected_bit_errors: u64,
    /// Faulty bits encountered on the write path (stuck cells or missed
    /// programming pulses), before verify-after-write ran.
    pub injected_write_faults: u64,
    /// Detection events: an operation where duplicate sensing, SEC-DED, or
    /// write verification flagged a mismatch at least once.
    pub detected_errors: u64,
    /// Detection events resolved by the recovery ladder.
    pub corrected_errors: u64,
    /// Wrong bits accepted without detection — the silent data corruption
    /// the reliability machinery exists to prevent.
    pub silent_wrong_bits: u64,
    /// Sense retries issued (re-sense after re-calibrating the reference).
    pub sense_retries: u64,
    /// Write retries issued by program-and-verify.
    pub write_retries: u64,
    /// Multi-row activations split into narrower groups because the
    /// requested fan-in exceeded the reliable limit.
    pub fan_in_splits: u64,
    /// PIM operations that fell back to the read-modify-write path after
    /// sensing kept failing.
    pub rmw_fallbacks: u64,
    /// Detection events the ladder could not resolve (surfaced to the
    /// caller as explicit errors).
    pub uncorrectable_errors: u64,
    /// Physical (fault-injected) sense events evaluated, including
    /// duplicate senses and retries. Counts *events*, not per-column
    /// work, so the packed and reference fault paths tally identically.
    pub physical_senses: u64,
    /// Physical (fault-injected) write events evaluated, including
    /// program-and-verify retries.
    pub physical_writes: u64,
    /// Data bits flipped back in place by SEC-DED single-bit correction
    /// (no retry-ladder involvement; the enclosing read counts one
    /// detected + one corrected event).
    pub ecc_corrected_bits: u64,
    /// Reads on which SEC-DED flagged an uncorrectable double-bit word
    /// and fell through to the re-calibrated retry ladder.
    pub ecc_detected_double: u64,
}

impl ReliabilityStats {
    /// Whether the counters satisfy their bookkeeping invariants:
    /// `detected == corrected + uncorrectable`, and no retries, splits or
    /// fallbacks went unaccounted.
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        self.detected_errors == self.corrected_errors + self.uncorrectable_errors
    }

    /// Whether any fault was injected or any recovery action ran.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        *self == ReliabilityStats::default()
    }
}

impl Add for ReliabilityStats {
    type Output = ReliabilityStats;
    fn add(self, rhs: ReliabilityStats) -> ReliabilityStats {
        ReliabilityStats {
            injected_bit_errors: self.injected_bit_errors + rhs.injected_bit_errors,
            injected_write_faults: self.injected_write_faults + rhs.injected_write_faults,
            detected_errors: self.detected_errors + rhs.detected_errors,
            corrected_errors: self.corrected_errors + rhs.corrected_errors,
            silent_wrong_bits: self.silent_wrong_bits + rhs.silent_wrong_bits,
            sense_retries: self.sense_retries + rhs.sense_retries,
            write_retries: self.write_retries + rhs.write_retries,
            fan_in_splits: self.fan_in_splits + rhs.fan_in_splits,
            rmw_fallbacks: self.rmw_fallbacks + rhs.rmw_fallbacks,
            uncorrectable_errors: self.uncorrectable_errors + rhs.uncorrectable_errors,
            physical_senses: self.physical_senses + rhs.physical_senses,
            physical_writes: self.physical_writes + rhs.physical_writes,
            ecc_corrected_bits: self.ecc_corrected_bits + rhs.ecc_corrected_bits,
            ecc_detected_double: self.ecc_detected_double + rhs.ecc_detected_double,
        }
    }
}

impl AddAssign for ReliabilityStats {
    fn add_assign(&mut self, rhs: ReliabilityStats) {
        *self = *self + rhs;
    }
}

impl Sub for ReliabilityStats {
    type Output = ReliabilityStats;
    fn sub(self, rhs: ReliabilityStats) -> ReliabilityStats {
        ReliabilityStats {
            injected_bit_errors: self.injected_bit_errors - rhs.injected_bit_errors,
            injected_write_faults: self.injected_write_faults - rhs.injected_write_faults,
            detected_errors: self.detected_errors - rhs.detected_errors,
            corrected_errors: self.corrected_errors - rhs.corrected_errors,
            silent_wrong_bits: self.silent_wrong_bits - rhs.silent_wrong_bits,
            sense_retries: self.sense_retries - rhs.sense_retries,
            write_retries: self.write_retries - rhs.write_retries,
            fan_in_splits: self.fan_in_splits - rhs.fan_in_splits,
            rmw_fallbacks: self.rmw_fallbacks - rhs.rmw_fallbacks,
            uncorrectable_errors: self.uncorrectable_errors - rhs.uncorrectable_errors,
            physical_senses: self.physical_senses - rhs.physical_senses,
            physical_writes: self.physical_writes - rhs.physical_writes,
            ecc_corrected_bits: self.ecc_corrected_bits - rhs.ecc_corrected_bits,
            ecc_detected_double: self.ecc_detected_double - rhs.ecc_detected_double,
        }
    }
}

/// Time spent, broken down by mechanism (nanoseconds). The components sum
/// to [`MemStats::time_ns`].
///
/// The split matters for batch scheduling: [`TimeBreakdown::shared_ns`]
/// (DDR bus bursts + mode-register sets) occupies the channel's shared
/// command/data bus and can never overlap within a channel, while
/// [`TimeBreakdown::lane_ns`] (activation, sensing, writes, GDL hops,
/// precharge) happens inside a bank and may overlap with other banks'
/// work, subject to tRRD/tFAW.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TimeBreakdown {
    /// Row activation (single- and multi-row), tRCD + extra-ACT streaming.
    pub activate_ns: f64,
    /// Column accesses / sense passes (tCL).
    pub sense_ns: f64,
    /// Array writes (tWR).
    pub write_ns: f64,
    /// Chip-internal global-data-line transfers.
    pub gdl_ns: f64,
    /// Bit-line precharges (tRP).
    pub precharge_ns: f64,
    /// Waits on tRRD/tFAW activation windows. Nothing charges it: the
    /// serial controller never waits on a window, and
    /// [`crate::ChannelTimeline`] keeps its activation waits in its own
    /// placements. Kept because the repository benchmark reports its share
    /// as `mem.controller.time.stall_frac`.
    pub stall_ns: f64,
    /// SEC-DED syndrome/encode passes (zero unless
    /// `ProtectionMode::SecDed` is active). Bank-local: the XOR tree
    /// sits beside the SA strip / write drivers.
    pub ecc_ns: f64,
    /// Off-chip DDR bus bursts.
    pub bus_ns: f64,
    /// Mode-register sets (PIM reconfiguration).
    pub mrs_ns: f64,
}

impl TimeBreakdown {
    /// Total time across all mechanisms.
    #[must_use]
    pub fn total_ns(&self) -> f64 {
        self.lane_ns() + self.shared_ns()
    }

    /// Bank-local time: may overlap with other banks of the same channel.
    #[must_use]
    pub fn lane_ns(&self) -> f64 {
        self.activate_ns
            + self.sense_ns
            + self.write_ns
            + self.gdl_ns
            + self.precharge_ns
            + self.stall_ns
            + self.ecc_ns
    }

    /// Channel-serialized time: bus bursts and mode-register sets hold the
    /// shared command/data bus and never overlap within a channel.
    #[must_use]
    pub fn shared_ns(&self) -> f64 {
        self.bus_ns + self.mrs_ns
    }
}

impl Add for TimeBreakdown {
    type Output = TimeBreakdown;
    fn add(self, rhs: TimeBreakdown) -> TimeBreakdown {
        TimeBreakdown {
            activate_ns: self.activate_ns + rhs.activate_ns,
            sense_ns: self.sense_ns + rhs.sense_ns,
            write_ns: self.write_ns + rhs.write_ns,
            gdl_ns: self.gdl_ns + rhs.gdl_ns,
            precharge_ns: self.precharge_ns + rhs.precharge_ns,
            stall_ns: self.stall_ns + rhs.stall_ns,
            ecc_ns: self.ecc_ns + rhs.ecc_ns,
            bus_ns: self.bus_ns + rhs.bus_ns,
            mrs_ns: self.mrs_ns + rhs.mrs_ns,
        }
    }
}

impl AddAssign for TimeBreakdown {
    fn add_assign(&mut self, rhs: TimeBreakdown) {
        *self = *self + rhs;
    }
}

impl Sub for TimeBreakdown {
    type Output = TimeBreakdown;
    fn sub(self, rhs: TimeBreakdown) -> TimeBreakdown {
        TimeBreakdown {
            activate_ns: self.activate_ns - rhs.activate_ns,
            sense_ns: self.sense_ns - rhs.sense_ns,
            write_ns: self.write_ns - rhs.write_ns,
            gdl_ns: self.gdl_ns - rhs.gdl_ns,
            precharge_ns: self.precharge_ns - rhs.precharge_ns,
            stall_ns: self.stall_ns - rhs.stall_ns,
            ecc_ns: self.ecc_ns - rhs.ecc_ns,
            bus_ns: self.bus_ns - rhs.bus_ns,
            mrs_ns: self.mrs_ns - rhs.mrs_ns,
        }
    }
}

/// Per-row write-wear summary (NVM endurance is finite — PCM cells take
/// ~10^8 writes — so the write concentration of accumulator patterns
/// matters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WearReport {
    /// Row writes across the whole memory.
    pub total_row_writes: u64,
    /// Distinct rows ever written.
    pub rows_written: u64,
    /// Writes to the most-written row.
    pub max_row_writes: u64,
}

impl WearReport {
    /// Ratio of the hottest row's writes to the mean over written rows —
    /// 1.0 is perfectly level, large values mean concentrated wear.
    #[must_use]
    pub fn imbalance(&self) -> f64 {
        if self.rows_written == 0 {
            1.0
        } else {
            self.max_row_writes as f64 / (self.total_row_writes as f64 / self.rows_written as f64)
        }
    }
}

/// Aggregate statistics of one memory (or one executor run).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MemStats {
    /// Simulated time spent, in nanoseconds.
    pub time_ns: f64,
    /// The same time, by mechanism (`time.total_ns() == time_ns`).
    pub time: TimeBreakdown,
    /// Energy spent, by mechanism.
    pub energy: EnergyBreakdown,
    /// Event counts.
    pub events: EventCounters,
    /// Fault-injection and recovery bookkeeping (all zero without faults).
    pub reliability: ReliabilityStats,
    /// Always zero: rows are shared by reference and a write replaces
    /// the writer's reference, so nothing is copied to be written. Kept
    /// only because the repository benchmark still reports it as
    /// `mem.controller.row_pages_copied`; it goes when that report does.
    pub row_pages_copied: u64,
}

impl MemStats {
    /// An empty tally.
    #[must_use]
    pub fn new() -> Self {
        MemStats::default()
    }

    /// Total energy in picojoules.
    #[must_use]
    pub fn total_energy_pj(&self) -> f64 {
        self.energy.total_pj()
    }

    /// Resets all tallies to zero.
    pub fn reset(&mut self) {
        *self = MemStats::default();
    }
}

impl Add for MemStats {
    type Output = MemStats;
    fn add(self, rhs: MemStats) -> MemStats {
        MemStats {
            time_ns: self.time_ns + rhs.time_ns,
            time: self.time + rhs.time,
            energy: self.energy + rhs.energy,
            events: self.events + rhs.events,
            reliability: self.reliability + rhs.reliability,
            row_pages_copied: self.row_pages_copied + rhs.row_pages_copied,
        }
    }
}

impl AddAssign for MemStats {
    fn add_assign(&mut self, rhs: MemStats) {
        *self = *self + rhs;
    }
}

impl Sub for MemStats {
    type Output = MemStats;
    fn sub(self, rhs: MemStats) -> MemStats {
        MemStats {
            time_ns: self.time_ns - rhs.time_ns,
            time: self.time - rhs.time,
            energy: self.energy - rhs.energy,
            events: self.events - rhs.events,
            reliability: self.reliability - rhs.reliability,
            row_pages_copied: self.row_pages_copied - rhs.row_pages_copied,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_total_sums_components() {
        let e = EnergyBreakdown {
            activate_pj: 1.0,
            sense_pj: 2.0,
            write_pj: 3.0,
            bus_pj: 4.0,
            gdl_pj: 5.0,
            logic_pj: 6.0,
            precharge_pj: 7.0,
            ecc_pj: 8.0,
        };
        assert!((e.total_pj() - 36.0).abs() < 1e-12);
    }

    #[test]
    fn stats_add_componentwise() {
        let mut a = MemStats::new();
        a.time_ns = 10.0;
        a.energy.sense_pj = 5.0;
        a.events.sense_passes = 3;
        let mut b = MemStats::new();
        b.time_ns = 2.5;
        b.energy.sense_pj = 1.0;
        b.events.sense_passes = 1;

        let c = a + b;
        assert!((c.time_ns - 12.5).abs() < 1e-12);
        assert!((c.energy.sense_pj - 6.0).abs() < 1e-12);
        assert_eq!(c.events.sense_passes, 4);

        a += b;
        assert_eq!(a, c);
    }

    #[test]
    fn time_breakdown_splits_lane_and_shared() {
        let t = TimeBreakdown {
            activate_ns: 1.0,
            sense_ns: 2.0,
            write_ns: 3.0,
            gdl_ns: 4.0,
            precharge_ns: 5.0,
            stall_ns: 6.0,
            ecc_ns: 9.0,
            bus_ns: 7.0,
            mrs_ns: 8.0,
        };
        assert!((t.lane_ns() - 30.0).abs() < 1e-12);
        assert!((t.shared_ns() - 15.0).abs() < 1e-12);
        assert!((t.total_ns() - 45.0).abs() < 1e-12);

        let doubled = t + t;
        assert!((doubled.total_ns() - 90.0).abs() < 1e-12);
        let back = doubled - t;
        assert_eq!(back, t);
        let mut acc = TimeBreakdown::default();
        acc += t;
        assert_eq!(acc, t);
    }

    #[test]
    fn reliability_stats_add_sub_and_consistency() {
        let mut a = ReliabilityStats::default();
        assert!(a.is_zero());
        assert!(a.is_consistent());
        a.injected_bit_errors = 10;
        a.detected_errors = 4;
        a.corrected_errors = 3;
        a.uncorrectable_errors = 1;
        a.sense_retries = 5;
        assert!(a.is_consistent());
        a.corrected_errors = 2;
        assert!(!a.is_consistent());
        a.corrected_errors = 3;

        let doubled = a + a;
        assert_eq!(doubled.injected_bit_errors, 20);
        assert_eq!(doubled - a, a);
        let mut acc = ReliabilityStats::default();
        acc += a;
        assert_eq!(acc, a);

        let mut s = MemStats::new();
        s.reliability = a;
        let sum = s + s;
        assert_eq!(sum.reliability.sense_retries, 10);
        assert_eq!((sum - s).reliability, a);
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut s = MemStats::new();
        s.time_ns = 1.0;
        s.events.activates = 7;
        s.reset();
        assert_eq!(s, MemStats::default());
    }
}
