//! Command-level timing parameters.
//!
//! These play the role CACTI-3DD and the DDR datasheets play in the paper's
//! methodology (§6.1): every architectural event in the simulator is charged
//! from this table. The PCM preset uses the exact tRCD–tCL–tWR the paper
//! quotes for its 1T1R PCM main memory (18.3–8.9–151.1 ns, from CACTI-3DD
//! \[9\]); the DRAM preset is a stock DDR3-1600 part.

/// Nanoseconds, the time unit used throughout the simulator.
pub type Nanos = f64;

/// Timing parameters of one memory technology + interface.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingParams {
    /// Row activation: address decode + word line up + cells settled on the
    /// bit lines (tRCD).
    pub t_rcd_ns: Nanos,
    /// Each *additional* latched activation of a multi-row op. The LWL
    /// latch holds earlier rows, so later activations only pay the command
    /// issue + decode latency, which is bounded by the DDR command rate.
    pub t_extra_act_ns: Nanos,
    /// Column access / one sense pass through the SA mux (tCL).
    pub t_cl_ns: Nanos,
    /// Row write (tWR) — the dominant cost on PCM.
    pub t_wr_ns: Nanos,
    /// Precharge / bit-line restore before the next activation (tRP).
    pub t_rp_ns: Nanos,
    /// Mode-register set (used to switch the SA reference / PIM config).
    pub t_mrs_ns: Nanos,
    /// One transfer cycle on the chip-internal global data lines.
    pub t_gdl_cycle_ns: Nanos,
    /// One data beat on the DDR bus.
    pub t_bus_beat_ns: Nanos,
    /// Bus width in bits (64 for a DDR3 channel).
    pub bus_width_bits: u32,
    /// Beats per burst (8 for DDR3).
    pub burst_beats: u32,
    /// Minimum gap between activations to *different banks* of one rank
    /// (tRRD). Limits how tightly bank-parallel PIM requests can launch.
    /// Only the command-interleaved channel model enforces it, per ACT
    /// command: each activation slots into the rank's ledger, possibly
    /// *between* earlier requests' activations. The serial controller
    /// charges no wait for it, whatever its value.
    pub t_rrd_ns: Nanos,
    /// Four-activation rolling window per rank (tFAW): any four
    /// activations to one rank must span at least this long, bounding the
    /// rank's peak activation current draw. Like tRRD, enforced only by
    /// the command-interleaved channel model, at command granularity: the
    /// window spans activations from *all* requests on the rank, whatever
    /// order they were dispatched in.
    pub t_faw_ns: Nanos,
    /// One SEC-DED syndrome/encode pass through the per-bank ECC XOR
    /// tree (a few gate levels wide, pipelined with the column path —
    /// roughly two command-bus clocks). Charged only when the controller
    /// runs with SEC-DED protection.
    pub t_ecc_ns: Nanos,
}

impl TimingParams {
    /// The paper's 1T1R PCM main memory on a DDR3-1600 interface.
    #[must_use]
    pub fn pcm_ddr3_1600() -> Self {
        TimingParams {
            t_rcd_ns: 18.3,
            // Four command-bus clocks at 1.25 ns: the rate at which extra
            // row addresses can be streamed into the LWL latches.
            t_extra_act_ns: 5.0,
            t_cl_ns: 8.9,
            t_wr_ns: 151.1,
            t_rp_ns: 7.8,
            t_mrs_ns: 11.25,
            t_gdl_cycle_ns: 1.25,
            t_bus_beat_ns: 0.625,
            bus_width_bits: 64,
            burst_beats: 8,
            t_rrd_ns: 7.5,
            t_faw_ns: 30.0,
            t_ecc_ns: 2.5,
        }
    }

    /// A stock DDR3-1600 DRAM channel (11-11-11-ish part).
    #[must_use]
    pub fn ddr3_1600() -> Self {
        TimingParams {
            t_rcd_ns: 13.75,
            t_extra_act_ns: 5.0,
            t_cl_ns: 13.75,
            t_wr_ns: 15.0,
            t_rp_ns: 13.75,
            t_mrs_ns: 11.25,
            t_gdl_cycle_ns: 1.25,
            t_bus_beat_ns: 0.625,
            bus_width_bits: 64,
            burst_beats: 8,
            t_rrd_ns: 7.5,
            t_faw_ns: 30.0,
            t_ecc_ns: 2.5,
        }
    }

    /// Duration of one full burst on the bus.
    #[must_use]
    pub fn burst_ns(&self) -> Nanos {
        f64::from(self.burst_beats) * self.t_bus_beat_ns
    }

    /// Bits moved per burst.
    #[must_use]
    pub fn burst_bits(&self) -> u64 {
        u64::from(self.burst_beats) * u64::from(self.bus_width_bits)
    }

    /// Peak bus bandwidth in gigabytes per second.
    #[must_use]
    pub fn bus_bandwidth_gbps(&self) -> f64 {
        let bytes_per_beat = f64::from(self.bus_width_bits) / 8.0;
        bytes_per_beat / self.t_bus_beat_ns
    }

    /// Time to stream `bits` over the bus at peak rate, in whole bursts.
    #[must_use]
    pub fn bus_transfer_ns(&self, bits: u64) -> Nanos {
        let bursts = bits.div_ceil(self.burst_bits());
        bursts as f64 * self.burst_ns()
    }

    /// Time for a multi-row activation of `rows` rows: one full tRCD plus
    /// command-rate-limited extra activations (paper Fig. 7's accumulate
    /// protocol).
    ///
    /// # Panics
    ///
    /// Panics if `rows` is zero.
    #[must_use]
    pub fn multi_activate_ns(&self, rows: usize) -> Nanos {
        assert!(rows > 0, "activation of zero rows is meaningless");
        self.t_rcd_ns + (rows - 1) as f64 * self.t_extra_act_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcm_matches_paper_timings() {
        let t = TimingParams::pcm_ddr3_1600();
        assert!((t.t_rcd_ns - 18.3).abs() < 1e-9);
        assert!((t.t_cl_ns - 8.9).abs() < 1e-9);
        assert!((t.t_wr_ns - 151.1).abs() < 1e-9);
    }

    #[test]
    fn ddr3_bus_is_12_8_gbps() {
        let t = TimingParams::ddr3_1600();
        assert!((t.bus_bandwidth_gbps() - 12.8).abs() < 1e-9);
    }

    #[test]
    fn burst_moves_64_bytes() {
        let t = TimingParams::ddr3_1600();
        assert_eq!(t.burst_bits(), 512);
        assert!((t.burst_ns() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn bus_transfer_rounds_up_to_bursts() {
        let t = TimingParams::ddr3_1600();
        assert!((t.bus_transfer_ns(1) - 5.0).abs() < 1e-9);
        assert!((t.bus_transfer_ns(512) - 5.0).abs() < 1e-9);
        assert!((t.bus_transfer_ns(513) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn multi_activation_is_cheaper_than_serial_activations() {
        let t = TimingParams::pcm_ddr3_1600();
        let multi = t.multi_activate_ns(128);
        let serial = 128.0 * (t.t_rcd_ns + t.t_rp_ns);
        assert!(multi < serial / 2.0);
        // Single-row multi-activation degenerates to a plain tRCD.
        assert!((t.multi_activate_ns(1) - t.t_rcd_ns).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "zero rows")]
    fn zero_row_activation_panics() {
        let _ = TimingParams::pcm_ddr3_1600().multi_activate_ns(0);
    }

    #[test]
    fn inter_activation_constraints_never_bind_a_serial_stream() {
        // A serial command stream spaces activations by at least one full
        // activate+sense+precharge, so tRRD/tFAW must be smaller than that
        // for both presets: the serial controller charges no activation
        // wait, and only overlapped bank lanes can meet these windows.
        for t in [TimingParams::pcm_ddr3_1600(), TimingParams::ddr3_1600()] {
            let serial_gap = t.t_rcd_ns + t.t_cl_ns + t.t_rp_ns;
            assert!(t.t_rrd_ns > 0.0 && t.t_rrd_ns < serial_gap);
            assert!(t.t_faw_ns < 4.0 * serial_gap);
            assert!(t.t_faw_ns >= 2.0 * t.t_rrd_ns);
        }
    }
}
