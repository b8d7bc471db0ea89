//! Pinatubo as a trace executor.
//!
//! Unlike the analytic baselines, this executor *replays* each abstract
//! [`BulkOp`] on the real [`PinatuboEngine`]: it synthesizes a row
//! placement matching the op's recorded locality class, issues the bulk
//! operation, and reports the engine's measured time/energy delta. Costs
//! therefore come from the same command-level accounting the rest of the
//! simulator uses — there is no separate Pinatubo cost model to drift out
//! of sync.

use crate::{BitwiseExecutor, ExecReport};
use pinatubo_core::{BitwiseOp, BulkOp, OpClass, PinatuboConfig, PinatuboEngine};
use pinatubo_mem::{MemConfig, RowAddr};

/// The Pinatubo executor.
#[derive(Debug)]
pub struct PinatuboExecutor {
    engine: PinatuboEngine,
    name: String,
}

impl PinatuboExecutor {
    /// Full multi-row Pinatubo on PCM (the paper's "Pinatubo-128" — the
    /// 128 emerges from the PCM sense margin).
    #[must_use]
    pub fn multi_row() -> Self {
        PinatuboExecutor::with_config(
            "Pinatubo-128",
            MemConfig::pcm_default(),
            PinatuboConfig::multi_row(),
        )
    }

    /// Two-row Pinatubo on PCM (the paper's "Pinatubo-2").
    #[must_use]
    pub fn two_row() -> Self {
        PinatuboExecutor::with_config(
            "Pinatubo-2",
            MemConfig::pcm_default(),
            PinatuboConfig::two_row(),
        )
    }

    /// A specific fan-in cap on the default PCM memory (the Fig. 9 sweep).
    #[must_use]
    pub fn with_fan_in(fan_in: usize) -> Self {
        PinatuboExecutor::with_config(
            &format!("Pinatubo-{fan_in}"),
            MemConfig::pcm_default(),
            PinatuboConfig::with_fan_in(fan_in),
        )
    }

    /// Fully custom memory + engine configuration (technology ablations).
    #[must_use]
    pub fn with_config(name: &str, mem: MemConfig, config: PinatuboConfig) -> Self {
        PinatuboExecutor {
            engine: PinatuboEngine::new(mem, config),
            name: name.to_owned(),
        }
    }

    /// The wrapped engine (e.g. to inspect its memory's statistics after a
    /// trace).
    #[must_use]
    pub fn engine(&self) -> &PinatuboEngine {
        &self.engine
    }

    /// Synthesizes operand/destination rows matching a locality class.
    ///
    /// Costs in the engine are data-independent, so the rows' contents do
    /// not matter — only their placement does.
    fn placement(&self, locality: OpClass, operand_count: usize) -> (Vec<RowAddr>, RowAddr) {
        let g = self.engine.memory().geometry();
        let rows_per_sub = g.rows_per_subarray;
        let place = |i: u32| -> RowAddr {
            match locality {
                OpClass::IntraSubarray => RowAddr::new(0, 0, 0, 0, i % (rows_per_sub - 1)),
                OpClass::InterSubarray => RowAddr::new(
                    0,
                    0,
                    0,
                    i % g.subarrays_per_bank,
                    (i / g.subarrays_per_bank) % rows_per_sub,
                ),
                OpClass::InterBank => RowAddr::new(
                    0,
                    0,
                    i % g.banks_per_chip,
                    (i / g.banks_per_chip) % g.subarrays_per_bank,
                    0,
                ),
                OpClass::HostFallback => RowAddr::new(
                    i % g.channels,
                    (i / g.channels) % g.ranks_per_channel,
                    0,
                    0,
                    (i / (g.channels * g.ranks_per_channel)) % rows_per_sub,
                ),
            }
        };
        let operands: Vec<RowAddr> = (0..operand_count as u32).map(place).collect();
        // Destination placed to *preserve* the class: in the same subarray
        // for intra ops, in a different unit otherwise.
        let dst = match locality {
            OpClass::IntraSubarray => RowAddr::new(0, 0, 0, 0, rows_per_sub - 1),
            OpClass::InterSubarray => {
                RowAddr::new(0, 0, 0, g.subarrays_per_bank - 1, rows_per_sub - 1)
            }
            OpClass::InterBank => RowAddr::new(
                0,
                0,
                g.banks_per_chip - 1,
                g.subarrays_per_bank - 1,
                rows_per_sub - 1,
            ),
            OpClass::HostFallback => RowAddr::new(
                g.channels - 1,
                g.ranks_per_channel - 1,
                g.banks_per_chip - 1,
                g.subarrays_per_bank - 1,
                rows_per_sub - 1,
            ),
        };
        (operands, dst)
    }
}

impl BitwiseExecutor for PinatuboExecutor {
    fn name(&self) -> &str {
        &self.name
    }

    fn execute(&mut self, op: &BulkOp) -> ExecReport {
        let row_bits = self.engine.memory().geometry().logical_row_bits();
        let operand_count = if op.op == BitwiseOp::Not {
            1
        } else {
            op.operand_count.max(2)
        };
        let (operands, dst) = self.placement(op.locality, operand_count);

        // Vectors longer than a row span rank-serial segments (Fig. 9's
        // turning point B): same command sequence per segment, summed.
        let mut report = ExecReport::zero();
        let mut remaining = op.bits;
        while remaining > 0 {
            let cols = remaining.min(row_bits);
            let outcome = self
                .engine
                .bulk_op(op.op, &operands, dst, cols)
                .expect("synthesized placement is always valid");
            report.time_ns += outcome.time_ns();
            report.energy_pj += outcome.energy_pj();
            remaining -= cols;
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_row_beats_two_row_on_wide_ors() {
        let op = BulkOp::intra(BitwiseOp::Or, 128, 1 << 19);
        let multi = PinatuboExecutor::multi_row().execute(&op);
        let two = PinatuboExecutor::two_row().execute(&op);
        assert!(multi.time_ns < two.time_ns / 4.0);
        assert!(multi.energy_pj < two.energy_pj);
    }

    #[test]
    fn replay_honours_locality() {
        let mut x = PinatuboExecutor::multi_row();
        let intra = BulkOp::intra(BitwiseOp::Or, 4, 1 << 14);
        let mut host = intra;
        host.locality = OpClass::HostFallback;
        let r_intra = x.execute(&intra);
        let r_host = x.execute(&host);
        assert!(r_host.time_ns > r_intra.time_ns);
        assert!(r_host.energy_pj > r_intra.energy_pj);
        for class in [OpClass::IntraSubarray, OpClass::HostFallback] {
            let (mut rows, dst) = x.placement(class, 4);
            rows.push(dst);
            assert_eq!(OpClass::classify(&rows), class);
        }
    }

    #[test]
    fn long_vectors_cost_per_segment() {
        let mut x = PinatuboExecutor::multi_row();
        let one = x.execute(&BulkOp::intra(BitwiseOp::Or, 2, 1 << 19));
        let four = x.execute(&BulkOp::intra(BitwiseOp::Or, 2, 4 << 19));
        assert!(four.time_ns > 3.5 * one.time_ns);
    }

    #[test]
    fn not_executes_with_one_operand() {
        let mut x = PinatuboExecutor::multi_row();
        let r = x.execute(&BulkOp::intra(BitwiseOp::Not, 1, 1 << 10));
        assert!(r.time_ns > 0.0);
    }

    #[test]
    fn names_reflect_configuration() {
        assert_eq!(PinatuboExecutor::multi_row().name(), "Pinatubo-128");
        assert_eq!(PinatuboExecutor::two_row().name(), "Pinatubo-2");
        assert_eq!(PinatuboExecutor::with_fan_in(16).name(), "Pinatubo-16");
    }
}
