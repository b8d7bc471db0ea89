//! The executors the paper evaluates Pinatubo against (§6.1).
//!
//! Every executor prices the same abstract [`BulkOp`] trace, so comparisons
//! hold the *work* constant and vary only the hardware:
//!
//! * [`simd::SimdCpu`] — a 4-core, 3.3 GHz out-of-order processor with
//!   128-bit SSE/AVX units and a 32 KB / 256 KB / 6 MB cache hierarchy,
//!   attached to DRAM or PCM main memory (the paper's Sniper-simulated
//!   baseline);
//! * [`sdram::SdramExecutor`] — in-DRAM charge-sharing bitwise ops
//!   (Seshadri et al. \[22\]): operands must first be *copied* to a compute
//!   row group (DRAM reads are destructive), then a triple-row activation
//!   produces a 2-row AND/OR; XOR and INV fall back to the CPU;
//! * [`acpim::AcPimExecutor`] — an accelerator-in-memory that computes
//!   every operation with digital gates at the buffers (Fig. 8b applied
//!   pervasively);
//! * [`pinatubo_exec::PinatuboExecutor`] — Pinatubo itself, priced by
//!   replaying the trace on the real [`pinatubo_core::PinatuboEngine`];
//! * [`ideal::IdealExecutor`] — zero-cost bitwise ops (the "Ideal" series
//!   of Fig. 12).
//!
//! # Example
//!
//! ```
//! use pinatubo_baselines::{BitwiseExecutor, ExecReport};
//! use pinatubo_baselines::pinatubo_exec::PinatuboExecutor;
//! use pinatubo_baselines::simd::SimdCpu;
//! use pinatubo_core::{BitwiseOp, BulkOp};
//!
//! let op = BulkOp::intra(BitwiseOp::Or, 128, 1 << 19);
//! let mut pim = PinatuboExecutor::multi_row();
//! let mut cpu = SimdCpu::with_pcm();
//! let speedup = cpu.execute(&op).time_ns / pim.execute(&op).time_ns;
//! assert!(speedup > 100.0, "multi-row OR should win by orders of magnitude");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod acpim;
pub mod ideal;
pub mod pinatubo_exec;
pub mod sdram;
pub mod simd;

pub use acpim::AcPimExecutor;
pub use ideal::IdealExecutor;
pub use pinatubo_exec::PinatuboExecutor;
pub use sdram::SdramExecutor;
pub use simd::SimdCpu;

use pinatubo_core::BulkOp;
use std::ops::{Add, AddAssign};

/// The cost of executing some work on one executor.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ExecReport {
    /// Simulated time, nanoseconds.
    pub time_ns: f64,
    /// Energy, picojoules.
    pub energy_pj: f64,
}

impl ExecReport {
    /// A zero-cost report.
    #[must_use]
    pub fn zero() -> Self {
        ExecReport::default()
    }

    /// Throughput in gigabytes per second for `bits` of work done in this
    /// report's time (the paper's Fig. 9 metric counts *operand* bits).
    ///
    /// Returns infinity for zero-time reports (the ideal executor).
    #[must_use]
    pub fn throughput_gbps(&self, bits: u64) -> f64 {
        let bytes = bits as f64 / 8.0;
        bytes / self.time_ns
    }
}

impl Add for ExecReport {
    type Output = ExecReport;
    fn add(self, rhs: ExecReport) -> ExecReport {
        ExecReport {
            time_ns: self.time_ns + rhs.time_ns,
            energy_pj: self.energy_pj + rhs.energy_pj,
        }
    }
}

impl AddAssign for ExecReport {
    fn add_assign(&mut self, rhs: ExecReport) {
        *self = *self + rhs;
    }
}

/// Anything that can execute a bulk bitwise operation and report its cost.
///
/// Implementations are stateful (Pinatubo's executor owns a memory whose
/// mode register caches across ops), hence `&mut self`.
pub trait BitwiseExecutor {
    /// Display name used in figure output ("SIMD", "S-DRAM", …).
    fn name(&self) -> &str;

    /// Prices one bulk operation.
    fn execute(&mut self, op: &BulkOp) -> ExecReport;

    /// Prices a whole trace (sum of per-op reports).
    fn execute_trace(&mut self, trace: &[BulkOp]) -> ExecReport {
        trace
            .iter()
            .fold(ExecReport::zero(), |acc, op| acc + self.execute(op))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_add() {
        let a = ExecReport {
            time_ns: 1.0,
            energy_pj: 2.0,
        };
        let b = ExecReport {
            time_ns: 3.0,
            energy_pj: 4.0,
        };
        let c = a + b;
        assert!((c.time_ns - 4.0).abs() < 1e-12);
        assert!((c.energy_pj - 6.0).abs() < 1e-12);
    }

    #[test]
    fn throughput_counts_operand_bytes() {
        let r = ExecReport {
            time_ns: 100.0,
            energy_pj: 0.0,
        };
        // 8000 bits = 1000 bytes in 100 ns = 10 GB/s.
        assert!((r.throughput_gbps(8000) - 10.0).abs() < 1e-12);
    }
}
