//! The bulk-bitwise-operation engine.
//!
//! [`PinatuboEngine::bulk_op`] classifies an n-operand operation's whole
//! row set (operands plus destination) once (see [`crate::classify`]) and
//! decomposes it into hardware *primitives* on the path that placement
//! allows: in one subarray, multi-row OR groups up to the sense-margin
//! fan-in, 2-row AND senses and XOR micro-step pairs; anywhere else, one
//! buffer-logic pass over every operand; and INV on any path. Chaining
//! across groups reuses the destination row as an accumulator, exactly
//! what the in-place write-back path of the modified write drivers makes
//! free.

use crate::classify::OpClass;
use crate::config::PinatuboConfig;
use crate::op::BitwiseOp;
use crate::PimError;
use pinatubo_mem::{MainMemory, MemConfig, MemError, MemStats, PimConfig, RowAddr, RowData};
use pinatubo_nvm::sense_amp::SenseMode;
use pinatubo_nvm::NvmError;

/// What one bulk operation cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpOutcome {
    /// The op's placement class: every primitive of the op runs on it.
    pub class: OpClass,
    /// Time/energy/event delta attributable to this op.
    pub stats: MemStats,
    /// Hardware primitives the op decomposed into.
    pub primitives: u64,
}

impl OpOutcome {
    /// Simulated time of this op, nanoseconds.
    #[must_use]
    pub fn time_ns(&self) -> f64 {
        self.stats.time_ns
    }

    /// Energy of this op, picojoules.
    #[must_use]
    pub fn energy_pj(&self) -> f64 {
        self.stats.total_energy_pj()
    }
}

/// The Pinatubo engine: an NVM main memory plus the extended controller
/// that drives PIM operations on it.
///
/// See the crate-level example for typical use.
#[derive(Debug)]
pub struct PinatuboEngine {
    mem: MainMemory,
    config: PinatuboConfig,
}

impl PinatuboEngine {
    /// Builds an engine over a fresh memory.
    #[must_use]
    pub fn new(mem_config: MemConfig, config: PinatuboConfig) -> Self {
        PinatuboEngine {
            mem: MainMemory::new(mem_config),
            config,
        }
    }

    /// The underlying memory.
    #[must_use]
    pub fn memory(&self) -> &MainMemory {
        &self.mem
    }

    /// Mutable access to the underlying memory (workload setup).
    pub fn memory_mut(&mut self) -> &mut MainMemory {
        &mut self.mem
    }

    /// The engine configuration.
    #[must_use]
    pub fn config(&self) -> &PinatuboConfig {
        &self.config
    }

    /// Clones a per-channel engine shard for an execution session (see
    /// [`MainMemory::clone_channel`]): the engine configuration is shared,
    /// this engine keeps a stale mirror of the channel and is brought up
    /// to date with [`pinatubo_mem::ChannelDelta`]s, and the shard's
    /// memory statistics start at zero.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is outside the memory geometry.
    #[must_use]
    pub fn clone_channel(&self, channel: u32) -> PinatuboEngine {
        PinatuboEngine {
            mem: self.mem.clone_channel(channel),
            config: self.config.clone(),
        }
    }

    /// Rows one analog OR sense may combine: the configured cap clipped by
    /// the technology's sense margin.
    #[must_use]
    pub fn effective_fan_in(&self) -> usize {
        self.config.max_fan_in.min(self.mem.max_or_fan_in())
    }

    /// Executes one bulk bitwise operation: `dst = op(operands…)` over the
    /// first `cols` bits of each row.
    ///
    /// # Errors
    ///
    /// * [`PimError::EmptyOperands`] / [`PimError::NotTakesOneOperand`] /
    ///   [`PimError::NeedTwoOperands`] on arity violations;
    /// * [`PimError::FanInCapTooSmall`] when OR is requested but neither
    ///   the configuration nor the technology allows even a 2-row sense
    ///   (e.g. the engine was built over DRAM);
    /// * [`PimError::Mem`] for address/geometry/circuit failures.
    pub fn bulk_op(
        &mut self,
        op: BitwiseOp,
        operands: &[RowAddr],
        dst: RowAddr,
        cols: u64,
    ) -> Result<OpOutcome, PimError> {
        if operands.is_empty() {
            return Err(PimError::EmptyOperands);
        }
        match op {
            BitwiseOp::Not if operands.len() != 1 => {
                return Err(PimError::NotTakesOneOperand {
                    got: operands.len(),
                })
            }
            BitwiseOp::Or | BitwiseOp::And | BitwiseOp::Xor if operands.len() < 2 => {
                return Err(PimError::NeedTwoOperands {
                    got: operands.len(),
                })
            }
            _ => {}
        }

        // The placement of the whole operand set (plus dst) decides the
        // decomposition: intra-subarray sets use analog multi-row sensing
        // (chunked by the sense-margin fan-in), everything else streams
        // once through the combining buffer, which has no fan-in limit.
        let mut all = operands.to_vec();
        all.push(dst);
        let class = OpClass::classify(&all);

        // Chained decompositions accumulate through `dst`; if `dst` is also
        // an operand its original value would be clobbered before being
        // read, so the driver rejects the aliasing (single-pass executions
        // read every operand before the write and are safe).
        let chains = class == OpClass::IntraSubarray
            && match op {
                BitwiseOp::Or => operands.len() > self.effective_fan_in().max(2),
                BitwiseOp::And | BitwiseOp::Xor => operands.len() > 2,
                BitwiseOp::Not => false,
            };
        if chains && operands.contains(&dst) {
            return Err(PimError::DstAliasesOperands);
        }

        let before = *self.mem.stats();
        let primitives = match op {
            BitwiseOp::Not => {
                // INV: the row leaves through the sense amp's inverting
                // output on the class's path.
                self.mem.set_pim_config(PimConfig::Inv);
                self.transfer(class, operands[0], dst, cols, true)?;
                1
            }
            _ if class != OpClass::IntraSubarray => {
                // Buffer-logic path: one streaming pass over all operands,
                // one write-back, regardless of operand count.
                self.buffered_combine(op.pim_config(), operands, dst, cols, class)?;
                1
            }
            BitwiseOp::Or => {
                let fan = self.effective_fan_in();
                if fan < 2 {
                    return Err(PimError::FanInCapTooSmall { cap: fan });
                }
                // The first group takes up to `fan` operands straight into
                // dst; each later group accumulates onto dst, which
                // occupies one of the fan-in slots.
                let (first, rest) = operands.split_at(operands.len().min(fan));
                self.sense_into(PimConfig::Or, SenseMode::or, first, dst, cols)?;
                let mut group = Vec::with_capacity(fan);
                for chunk in rest.chunks(fan - 1) {
                    group.clear();
                    group.push(dst);
                    group.extend_from_slice(chunk);
                    self.sense_into(PimConfig::Or, SenseMode::or, &group, dst, cols)?;
                }
                1 + rest.len().div_ceil(fan - 1) as u64
            }
            BitwiseOp::And | BitwiseOp::Xor => {
                // k - 1 pairs, each after the first accumulating onto dst.
                let mut a = operands[0];
                for &b in &operands[1..] {
                    if op == BitwiseOp::And {
                        self.sense_into(PimConfig::And, SenseMode::and, &[a, b], dst, cols)?;
                    } else {
                        // Two micro-steps: operand A sampled onto Ch,
                        // operand B into the latch; the add-on transistors
                        // output the XOR (Fig. 6).
                        self.mem.set_pim_config(PimConfig::Xor);
                        let mut sampled = self.mem.activate_read(a, cols)?;
                        let latched = self.mem.activate_read(b, cols)?;
                        sampled.xor_assign(&latched);
                        self.write_back_local(dst, sampled)?;
                    }
                    a = dst;
                }
                operands.len() as u64 - 1
            }
        };

        let delta = subtract_stats(*self.mem.stats(), before);
        Ok(OpOutcome {
            class,
            stats: delta,
            primitives,
        })
    }

    /// Copies one row to another (`dst = src`), on the cheapest path the
    /// placement allows. Useful as a data-movement utility and as the
    /// materialization step applications need around scratch registers.
    ///
    /// # Errors
    ///
    /// [`PimError::Mem`] for address/geometry failures.
    pub fn copy_row(
        &mut self,
        src: RowAddr,
        dst: RowAddr,
        cols: u64,
    ) -> Result<OpOutcome, PimError> {
        let before = *self.mem.stats();
        let class = OpClass::classify(&[src, dst]);
        self.transfer(class, src, dst, cols, false)?;
        Ok(OpOutcome {
            class,
            stats: subtract_stats(*self.mem.stats(), before),
            primitives: 1,
        })
    }

    /// Reads `row` onto the path of `class`: the local sense amps, the
    /// bank's global row buffer, the I/O buffer, or the DDR bus.
    fn read_via(&mut self, class: OpClass, row: RowAddr, cols: u64) -> Result<RowData, MemError> {
        match class {
            OpClass::IntraSubarray => self.mem.activate_read(row, cols),
            OpClass::InterSubarray => self.mem.read_row_to_buffer(row, cols),
            OpClass::InterBank => self.mem.read_row_to_io_buffer(row, cols),
            OpClass::HostFallback => self.mem.read_row_over_bus(row, cols),
        }
    }

    /// Writes `data` to `dst` from wherever [`Self::read_via`] left it for
    /// the same `class`.
    fn write_via(&mut self, class: OpClass, dst: RowAddr, data: RowData) -> Result<(), MemError> {
        match class {
            OpClass::IntraSubarray => self.write_back_local(dst, data),
            OpClass::InterSubarray => self.mem.write_row_from_buffer(dst, data),
            OpClass::InterBank => self.mem.write_row_from_io_buffer(dst, data),
            OpClass::HostFallback => self.mem.write_row_over_bus(dst, data),
        }
    }

    /// Moves one row to `dst` on the path of `class`, through the sense
    /// amp's inverting output when `invert` is set (INV, §4.2).
    fn transfer(
        &mut self,
        class: OpClass,
        src: RowAddr,
        dst: RowAddr,
        cols: u64,
        invert: bool,
    ) -> Result<(), MemError> {
        let mut data = self.read_via(class, src, cols)?;
        if invert {
            data = self.mem.invert_in_sense_amp(data);
        }
        self.write_via(class, dst, data)
    }

    /// Writes an intra-subarray result back: through the modified local
    /// write drivers when the configuration has the Fig. 8a path, or
    /// exported over GDL + bus and written conventionally when it does
    /// not.
    fn write_back_local(&mut self, dst: RowAddr, data: RowData) -> Result<(), MemError> {
        if self.config.in_place_write_back {
            self.mem.write_row_local(dst, data)
        } else {
            self.mem.charge_result_export(data.len_bits());
            self.mem.write_row_over_bus(dst, data)
        }
    }

    /// One analog multi-row sense of `rows` into `dst` — an OR group or
    /// an AND pair, all in one subarray — with `sense` building the
    /// sense-amp mode for the group size.
    ///
    /// When the protected sense stays unstable even after re-calibration
    /// retries, the last rung of the recovery ladder recomputes the
    /// primitive the processor-centric way: protection-checked single-row
    /// reads, a digital combine and a local write-back. Slower, but immune
    /// to multi-row sense-margin faults. Nothing on the sense path moves
    /// the mode register off `cfg`, so the rung's mode set is free.
    fn sense_into(
        &mut self,
        cfg: PimConfig,
        sense: fn(usize) -> Result<SenseMode, NvmError>,
        rows: &[RowAddr],
        dst: RowAddr,
        cols: u64,
    ) -> Result<(), MemError> {
        self.mem.set_pim_config(cfg);
        let mode = sense(rows.len())?;
        match self.mem.multi_activate_sense_protected(rows, mode, cols) {
            Ok(result) => self.write_back_local(dst, result),
            Err(MemError::SenseUnstable { .. }) => {
                self.mem.note_rmw_fallback();
                let recomputed =
                    self.buffered_combine(cfg, rows, dst, cols, OpClass::IntraSubarray);
                if recomputed.is_ok() {
                    self.mem.note_recovery_resolved();
                } else {
                    self.mem.note_recovery_failed();
                }
                recomputed
            }
            Err(e) => Err(e),
        }
    }

    /// The buffer-logic path: stream `rows` through the path of `class`
    /// into the combining buffer, apply the digital logic, write the
    /// result to `dst` the same way.
    fn buffered_combine(
        &mut self,
        cfg: PimConfig,
        rows: &[RowAddr],
        dst: RowAddr,
        cols: u64,
        class: OpClass,
    ) -> Result<(), MemError> {
        self.mem.set_pim_config(cfg);
        let mut acc: Option<RowData> = None;
        for &row in rows {
            let data = self.read_via(class, row, cols)?;
            match &mut acc {
                None => acc = Some(data),
                Some(acc) => self.mem.buffer_logic(cfg, acc, &data, cols)?,
            }
        }
        let acc = acc.expect("rows is non-empty by construction");
        self.write_via(class, dst, acc)
    }
}

/// Componentwise `after - before` for stats deltas.
fn subtract_stats(after: MemStats, before: MemStats) -> MemStats {
    after - before
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> PinatuboEngine {
        PinatuboEngine::new(MemConfig::pcm_default(), PinatuboConfig::default())
    }

    fn addr(subarray: u32, row: u32) -> RowAddr {
        RowAddr::new(0, 0, 0, subarray, row)
    }

    fn bank_addr(bank: u32, subarray: u32, row: u32) -> RowAddr {
        RowAddr::new(0, 0, bank, subarray, row)
    }

    /// Reference model: apply `op` across operand bit-vectors.
    fn reference(op: BitwiseOp, rows: &[Vec<bool>]) -> Vec<bool> {
        let cols = rows[0].len();
        (0..cols)
            .map(|c| {
                let mut acc = rows[0][c];
                if op == BitwiseOp::Not {
                    return !acc;
                }
                for row in &rows[1..] {
                    acc = op.apply(acc, row[c]);
                }
                acc
            })
            .collect()
    }

    fn load(engine: &mut PinatuboEngine, addrs: &[RowAddr], rows: &[Vec<bool>]) {
        for (a, bits) in addrs.iter().zip(rows) {
            engine
                .memory_mut()
                .poke_row(*a, &RowData::from_bits(bits))
                .expect("poke");
        }
    }

    #[test]
    fn or_128_rows_is_one_primitive() {
        let mut e = engine();
        let rows: Vec<RowAddr> = (0..128).map(|r| addr(0, r)).collect();
        let dst = addr(0, 200);
        let data: Vec<Vec<bool>> = (0..128).map(|i| vec![i == 77, false, i % 2 == 0]).collect();
        load(&mut e, &rows, &data);
        let outcome = e.bulk_op(BitwiseOp::Or, &rows, dst, 3).expect("128-row OR");
        assert_eq!(outcome.class, OpClass::IntraSubarray);
        assert_eq!(outcome.primitives, 1);
        assert_eq!(
            e.memory().peek_row(dst).expect("dst written").bits(3),
            reference(BitwiseOp::Or, &data)
        );
    }

    #[test]
    fn or_beyond_fan_in_chains_through_dst() {
        let mut e = engine();
        // 200 operands with a 128 fan-in: group of 128, then 72 + dst.
        let rows: Vec<RowAddr> = (0..200).map(|r| addr(0, r)).collect();
        let dst = addr(0, 300);
        let data: Vec<Vec<bool>> = (0..200).map(|i| vec![i == 199]).collect();
        load(&mut e, &rows, &data);
        let outcome = e.bulk_op(BitwiseOp::Or, &rows, dst, 1).expect("200-row OR");
        assert_eq!(outcome.primitives, 2);
        assert!(e.memory().peek_row(dst).expect("dst").get(0));
    }

    #[test]
    fn two_row_config_decomposes_or() {
        let mut e = PinatuboEngine::new(MemConfig::pcm_default(), PinatuboConfig::two_row());
        assert_eq!(e.effective_fan_in(), 2);
        let rows: Vec<RowAddr> = (0..8).map(|r| addr(0, r)).collect();
        let dst = addr(0, 100);
        let data: Vec<Vec<bool>> = (0..8).map(|i| vec![i == 5]).collect();
        load(&mut e, &rows, &data);
        // 2 + accumulate 1-at-a-time: 1 + 6 = 7 primitives.
        let outcome = e.bulk_op(BitwiseOp::Or, &rows, dst, 1).expect("chained OR");
        assert_eq!(outcome.primitives, 7);
        assert!(e.memory().peek_row(dst).expect("dst").get(0));
    }

    #[test]
    fn and_chains_pairwise() {
        let mut e = engine();
        let rows: Vec<RowAddr> = (0..3).map(|r| addr(0, r)).collect();
        let dst = addr(0, 50);
        let data = vec![
            vec![true, true, false],
            vec![true, true, true],
            vec![true, false, true],
        ];
        load(&mut e, &rows, &data);
        let outcome = e.bulk_op(BitwiseOp::And, &rows, dst, 3).expect("3-way AND");
        assert_eq!(outcome.primitives, 2);
        assert_eq!(
            e.memory().peek_row(dst).expect("dst").bits(3),
            reference(BitwiseOp::And, &data)
        );
    }

    #[test]
    fn xor_uses_two_reads_per_pair() {
        let mut e = engine();
        let rows = [addr(0, 0), addr(0, 1)];
        let dst = addr(0, 9);
        let data = vec![vec![true, false, true], vec![true, true, false]];
        load(&mut e, &rows, &data);
        let outcome = e.bulk_op(BitwiseOp::Xor, &rows, dst, 3).expect("XOR");
        assert_eq!(outcome.stats.events.activates, 2);
        assert_eq!(outcome.stats.events.row_writes, 1);
        assert_eq!(
            e.memory().peek_row(dst).expect("dst").bits(3),
            reference(BitwiseOp::Xor, &data)
        );
    }

    #[test]
    fn not_inverts_in_place_path() {
        let mut e = engine();
        let src = addr(0, 0);
        let dst = addr(0, 1);
        let data = vec![vec![true, false, true]];
        load(&mut e, &[src], &data);
        e.bulk_op(BitwiseOp::Not, &[src], dst, 3).expect("NOT");
        assert_eq!(
            e.memory().peek_row(dst).expect("dst").bits(3),
            vec![false, true, false]
        );
    }

    #[test]
    fn inter_subarray_operands_use_buffer_logic() {
        let mut e = engine();
        let a = addr(0, 0);
        let b = addr(1, 0); // different subarray, same bank
        let dst = addr(0, 5);
        let data = vec![vec![true, false], vec![false, true]];
        load(&mut e, &[a, b], &data);
        let outcome = e
            .bulk_op(BitwiseOp::Or, &[a, b], dst, 2)
            .expect("inter-sub OR");
        assert_eq!(outcome.class, OpClass::InterSubarray);
        assert!(outcome.stats.events.logic_passes >= 1);
        assert!(outcome.stats.events.gdl_transfers >= 2);
        assert_eq!(outcome.stats.events.bus_bits, 0, "no DDR bus traffic");
        assert_eq!(
            e.memory().peek_row(dst).expect("dst").bits(2),
            vec![true, true]
        );
    }

    #[test]
    fn inter_bank_operands_classify_and_compute() {
        let mut e = engine();
        let a = bank_addr(0, 0, 0);
        let b = bank_addr(3, 0, 0);
        let dst = bank_addr(0, 0, 5);
        let data = vec![vec![true, true], vec![true, false]];
        load(&mut e, &[a, b], &data);
        let outcome = e
            .bulk_op(BitwiseOp::And, &[a, b], dst, 2)
            .expect("inter-bank AND");
        assert_eq!(outcome.class, OpClass::InterBank);
        assert_eq!(
            e.memory().peek_row(dst).expect("dst").bits(2),
            vec![true, false]
        );
    }

    #[test]
    fn cross_rank_operands_fall_back_to_host() {
        let mut e = engine();
        let a = RowAddr::new(0, 0, 0, 0, 0);
        let b = RowAddr::new(0, 1, 0, 0, 0);
        let dst = RowAddr::new(0, 0, 0, 0, 5);
        let data = vec![vec![true, false], vec![false, true]];
        load(&mut e, &[a, b], &data);
        let outcome = e
            .bulk_op(BitwiseOp::Xor, &[a, b], dst, 2)
            .expect("host XOR");
        assert_eq!(outcome.class, OpClass::HostFallback);
        assert!(
            outcome.stats.events.bus_bits > 0,
            "operands crossed the bus"
        );
        assert_eq!(
            e.memory().peek_row(dst).expect("dst").bits(2),
            vec![true, true]
        );
    }

    #[test]
    fn intra_is_faster_and_cheaper_than_host_fallback() {
        let make = || engine();
        let data = vec![vec![true; 64], vec![false; 64]];

        let mut intra = make();
        let (a, b, d) = (addr(0, 0), addr(0, 1), addr(0, 2));
        load(&mut intra, &[a, b], &data);
        let intra_out = intra.bulk_op(BitwiseOp::Or, &[a, b], d, 64).expect("intra");

        let mut host = make();
        let (a2, b2) = (RowAddr::new(0, 0, 0, 0, 0), RowAddr::new(1, 0, 0, 0, 0));
        load(&mut host, &[a2, b2], &data);
        let host_out = host.bulk_op(BitwiseOp::Or, &[a2, b2], d, 64).expect("host");

        assert!(intra_out.time_ns() < host_out.time_ns());
        assert!(intra_out.energy_pj() < host_out.energy_pj());
    }

    #[test]
    fn arity_violations_are_rejected() {
        let mut e = engine();
        assert_eq!(
            e.bulk_op(BitwiseOp::Or, &[], addr(0, 0), 1),
            Err(PimError::EmptyOperands)
        );
        assert_eq!(
            e.bulk_op(BitwiseOp::Or, &[addr(0, 0)], addr(0, 1), 1),
            Err(PimError::NeedTwoOperands { got: 1 })
        );
        assert_eq!(
            e.bulk_op(BitwiseOp::Not, &[addr(0, 0), addr(0, 1)], addr(0, 2), 1),
            Err(PimError::NotTakesOneOperand { got: 2 })
        );
    }

    #[test]
    fn or_on_dram_memory_is_rejected() {
        let mut e = PinatuboEngine::new(MemConfig::dram_default(), PinatuboConfig::default());
        let err = e
            .bulk_op(BitwiseOp::Or, &[addr(0, 0), addr(0, 1)], addr(0, 2), 1)
            .expect_err("DRAM cannot multi-row OR");
        assert_eq!(err, PimError::FanInCapTooSmall { cap: 1 });
    }

    #[test]
    fn multi_row_or_beats_two_row_in_time() {
        let rows: Vec<RowAddr> = (0..64).map(|r| addr(0, r)).collect();
        let dst = addr(0, 100);
        let cols = 1 << 14;

        let mut multi = engine();
        let t_multi = multi
            .bulk_op(BitwiseOp::Or, &rows, dst, cols)
            .expect("multi")
            .time_ns();

        let mut two = PinatuboEngine::new(MemConfig::pcm_default(), PinatuboConfig::two_row());
        let t_two = two
            .bulk_op(BitwiseOp::Or, &rows, dst, cols)
            .expect("two-row")
            .time_ns();

        assert!(
            t_multi < t_two / 4.0,
            "multi-row {t_multi} ns should be far below chained {t_two} ns"
        );
    }

    #[test]
    fn outcome_stats_are_deltas() {
        let mut e = engine();
        let rows = [addr(0, 0), addr(0, 1)];
        let dst = addr(0, 2);
        let first = e.bulk_op(BitwiseOp::Or, &rows, dst, 8).expect("first");
        let second = e.bulk_op(BitwiseOp::Or, &rows, dst, 8).expect("second");
        // The second op includes no MRS (mode cached), so it is no more
        // expensive than the first.
        assert!(second.time_ns() <= first.time_ns());
        assert!(second.time_ns() > 0.0);
    }

    #[test]
    fn chained_alias_of_dst_is_rejected() {
        let mut e = engine();
        let rows: Vec<RowAddr> = (0..4).map(|r| addr(0, r)).collect();
        // XOR over 4 operands chains through dst; dst aliasing an operand
        // would read a clobbered value.
        assert_eq!(
            e.bulk_op(BitwiseOp::Xor, &rows, rows[2], 4),
            Err(PimError::DstAliasesOperands)
        );
        // A single-group OR reads every operand before writing: aliasing
        // is safe and produces the correct result.
        let data = vec![vec![true, false], vec![false, false]];
        load(&mut e, &rows[..2], &data);
        e.bulk_op(BitwiseOp::Or, &rows[..2], rows[1], 2)
            .expect("single-group alias is fine");
        assert_eq!(
            e.memory().peek_row(rows[1]).expect("dst").bits(2),
            vec![true, false]
        );
    }

    #[test]
    fn copy_row_moves_data_on_every_path() {
        let mut e = engine();
        let data = vec![vec![true, false, true]];
        let cases = [
            (addr(0, 0), addr(0, 5), OpClass::IntraSubarray),
            (addr(0, 1), addr(3, 5), OpClass::InterSubarray),
            (bank_addr(0, 0, 2), bank_addr(5, 0, 2), OpClass::InterBank),
            (
                RowAddr::new(0, 0, 0, 0, 3),
                RowAddr::new(2, 0, 0, 0, 3),
                OpClass::HostFallback,
            ),
        ];
        for (src, dst, expect_class) in cases {
            load(&mut e, &[src], &data);
            let outcome = e.copy_row(src, dst, 3).expect("copy");
            assert_eq!(outcome.class, expect_class);
            assert_eq!(
                e.memory().peek_row(dst).expect("copied").bits(3),
                data[0],
                "{expect_class:?}"
            );
        }
    }

    #[test]
    fn inter_bank_costs_more_than_inter_subarray() {
        let cols = 1 << 14;
        let mut inter_sub = engine();
        let s = inter_sub
            .bulk_op(BitwiseOp::Or, &[addr(0, 0), addr(1, 0)], addr(0, 5), cols)
            .expect("inter-sub");
        let mut inter_bank = engine();
        let b = inter_bank
            .bulk_op(
                BitwiseOp::Or,
                &[bank_addr(0, 0, 0), bank_addr(1, 0, 0)],
                bank_addr(0, 0, 5),
                cols,
            )
            .expect("inter-bank");
        assert_eq!(s.class, OpClass::InterSubarray);
        assert_eq!(b.class, OpClass::InterBank);
        assert!(
            b.time_ns() > s.time_ns(),
            "the extra GDL hop to the I/O buffer must cost time ({} vs {})",
            b.time_ns(),
            s.time_ns()
        );
        assert!(b.energy_pj() > s.energy_pj());
    }

    #[test]
    fn disabling_in_place_write_back_costs_bus_traffic() {
        let rows: Vec<RowAddr> = (0..8).map(|r| addr(0, r)).collect();
        let dst = addr(0, 100);
        let cols = 1 << 14;

        let mut with = engine();
        let fast = with
            .bulk_op(BitwiseOp::Or, &rows, dst, cols)
            .expect("in-place");
        assert_eq!(fast.stats.events.bus_bits, 0);

        let mut without = PinatuboEngine::new(
            MemConfig::pcm_default(),
            PinatuboConfig::multi_row().without_in_place_write_back(),
        );
        let slow = without
            .bulk_op(BitwiseOp::Or, &rows, dst, cols)
            .expect("exported");
        assert!(
            slow.stats.events.bus_bits > 0,
            "result crossed the bus twice"
        );
        assert!(slow.time_ns() > fast.time_ns());
        assert!(slow.energy_pj() > fast.energy_pj());
        // Functional result identical either way.
        assert_eq!(
            with.memory().peek_row(dst).expect("a").count_ones(),
            without.memory().peek_row(dst).expect("b").count_ones()
        );
    }

    #[test]
    fn unstable_and_pairs_fall_back_to_read_modify_write() {
        // A transient rate of 0.5 on every two-row AND sense keeps the
        // duplicate senses disagreeing through every retry, so each pair
        // of the chain takes the read-modify-write rung.
        let mut mem = MemConfig::pcm_default();
        mem.fault_model =
            pinatubo_nvm::FaultModel::with_seed(0xA11D).with_transients(0.0, 0.0, 0.5);
        mem.reliability = pinatubo_mem::ReliabilityConfig::protected_secded();
        let mut e = PinatuboEngine::new(mem, PinatuboConfig::default());
        let rows: Vec<RowAddr> = (0..4).map(|r| addr(0, r)).collect();
        let dst = addr(0, 10);
        let data: Vec<Vec<bool>> = (0..4)
            .map(|r| (0..256).map(|c| (c * 7 + r * 3) % 5 != 0).collect())
            .collect();
        load(&mut e, &rows, &data);
        let outcome = e.bulk_op(BitwiseOp::And, &rows, dst, 256).expect("AND");
        assert_eq!(
            e.memory().peek_row(dst).expect("dst").bits(256),
            reference(BitwiseOp::And, &data)
        );
        let r = outcome.stats.reliability;
        assert!(r.is_consistent(), "ledger must close: {r:?}");
        assert_eq!(r.silent_wrong_bits, 0);
        assert_eq!(outcome.primitives, 3);
        // Pinned fixed-seed snapshot of the ladder and its cost.
        assert_eq!(r.rmw_fallbacks, 3, "pinned: {r:?}");
        assert_eq!(r.sense_retries, 9, "pinned: {r:?}");
        assert_eq!(r.physical_senses, 30, "pinned: {r:?}");
        let close = |label: &str, a: f64, b: f64| {
            assert!(
                (a - b).abs() <= 1e-6 * a.abs().max(b.abs()),
                "{label}: {a} vs {b}"
            );
        };
        close("time_ns", outcome.time_ns(), 1_411.8);
        close("energy_pj", outcome.energy_pj(), 205_891.2);
    }
}
