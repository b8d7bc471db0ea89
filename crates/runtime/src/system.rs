//! The `pim_op` driver: the facade applications program against.

use crate::alloc::PimAllocator;
use crate::bitvec::PimBitVec;
use crate::mapping::MappingPolicy;
use crate::RuntimeError;
use pinatubo_core::{
    BitwiseOp, BulkOp, OpClass, OpOutcome, PimError, PinatuboConfig, PinatuboEngine,
};
use pinatubo_mem::{MemConfig, MemStats, ReliabilityStats, RowData, TimeBreakdown};

/// A complete Pinatubo system: engine + allocator + driver.
///
/// See the crate-level example for typical use.
#[derive(Debug)]
pub struct PimSystem {
    engine: PinatuboEngine,
    allocator: PimAllocator,
    trace: Vec<BulkOp>,
}

impl PimSystem {
    /// A system over the paper's PCM memory with full multi-row operation.
    #[must_use]
    pub fn pcm_default(policy: MappingPolicy) -> Self {
        PimSystem::new(MemConfig::pcm_default(), PinatuboConfig::default(), policy)
    }

    /// A fully configured system.
    #[must_use]
    pub fn new(mem: MemConfig, config: PinatuboConfig, policy: MappingPolicy) -> Self {
        let geometry = mem.geometry.clone();
        PimSystem {
            engine: PinatuboEngine::new(mem, config),
            allocator: PimAllocator::new(geometry, policy),
            trace: Vec::new(),
        }
    }

    /// The engine (inspection).
    #[must_use]
    pub fn engine(&self) -> &PinatuboEngine {
        &self.engine
    }

    /// The allocator (inspection).
    #[must_use]
    pub fn allocator(&self) -> &PimAllocator {
        &self.allocator
    }

    /// Accumulated memory statistics (time, energy, commands).
    #[must_use]
    pub fn stats(&self) -> &MemStats {
        self.engine.memory().stats()
    }

    /// Resets and returns the accumulated memory statistics.
    pub fn take_stats(&mut self) -> MemStats {
        self.engine.memory_mut().take_stats()
    }

    /// The abstract operation trace recorded so far.
    #[must_use]
    pub fn trace(&self) -> &[BulkOp] {
        &self.trace
    }

    /// Removes and returns the recorded trace.
    pub fn take_trace(&mut self) -> Vec<BulkOp> {
        std::mem::take(&mut self.trace)
    }

    /// Allocates a bit-vector (`pim_malloc`).
    ///
    /// # Errors
    ///
    /// See [`PimAllocator::alloc`].
    pub fn alloc(&mut self, len_bits: u64) -> Result<PimBitVec, RuntimeError> {
        self.allocator.alloc(len_bits)
    }

    /// Allocates a group of co-operated bit-vectors placed for
    /// intra-subarray operation (see [`PimAllocator::alloc_group`]).
    ///
    /// # Errors
    ///
    /// See [`PimAllocator::alloc_group`].
    pub fn alloc_group(
        &mut self,
        count: usize,
        len_bits: u64,
    ) -> Result<Vec<PimBitVec>, RuntimeError> {
        self.allocator.alloc_group(count, len_bits)
    }

    /// [`PimSystem::alloc_group`] steered to one channel: parks the
    /// `ChannelRotate` cursor on `channel` first (see
    /// [`PimAllocator::set_next_channel`]), so a caller can place a group
    /// beside the vectors it will be operated with — the serving layer's
    /// home channels and `microcode::compile`'s scratch. Under
    /// non-channel-addressed policies the steering is a no-op and this is
    /// plain [`PimSystem::alloc_group`].
    ///
    /// # Errors
    ///
    /// See [`PimAllocator::alloc_group`].
    pub fn alloc_group_on_channel(
        &mut self,
        channel: u32,
        count: usize,
        len_bits: u64,
    ) -> Result<Vec<PimBitVec>, RuntimeError> {
        self.allocator.set_next_channel(channel);
        self.allocator.alloc_group(count, len_bits)
    }

    /// Charged row writes summed per channel, straight from the wear
    /// ledger (see [`pinatubo_mem::MainMemory::channel_wear_totals`]).
    #[must_use]
    pub fn channel_wear(&self) -> Vec<u64> {
        self.engine.memory().channel_wear_totals()
    }

    /// [`PimSystem::alloc_transposed`] steered to one channel, like
    /// [`PimSystem::alloc_group_on_channel`]: the planes place as one
    /// group on `channel` under `ChannelRotate` (no-op steering under
    /// other policies).
    ///
    /// # Errors
    ///
    /// See [`PimAllocator::alloc_transposed`].
    pub fn alloc_transposed_on_channel(
        &mut self,
        channel: u32,
        lanes: u64,
        width_bits: u32,
    ) -> Result<crate::microcode::TransposedVec, RuntimeError> {
        self.allocator.set_next_channel(channel);
        self.alloc_transposed(lanes, width_bits)
    }

    /// Releases vectors' rows back to the allocation pool (`pim_free`) —
    /// see [`PimAllocator::release_rows`]. Applications use this on error
    /// paths (a half-initialized structure must not leak placement) and
    /// for transient masks/scratch; `runtime::microcode` uses it to
    /// recycle a compiled batch's scratch planes.
    ///
    /// Returns how many rows were released.
    pub fn release_vecs<'a, I>(&mut self, vecs: I) -> usize
    where
        I: IntoIterator<Item = &'a PimBitVec>,
    {
        let rows: Vec<pinatubo_mem::RowAddr> = vecs
            .into_iter()
            .flat_map(|v| v.rows().iter().copied())
            .collect();
        self.allocator.release_rows(&rows)
    }

    /// Allocates the bit-transposed layout for `runtime::microcode`:
    /// `width_bits` aligned planes of `lanes` bits each (see
    /// [`PimAllocator::alloc_transposed`]), returned as raw planes; the
    /// microcode module wraps them into its `TransposedVec`.
    ///
    /// # Errors
    ///
    /// See [`PimAllocator::alloc_transposed`].
    pub fn alloc_transposed_planes(
        &mut self,
        lanes: u64,
        width_bits: u32,
    ) -> Result<Vec<PimBitVec>, RuntimeError> {
        self.allocator.alloc_transposed(lanes, width_bits)
    }

    /// Stores bits into a vector. Setup traffic: charged to nobody, like
    /// the paper's workload initialization (the measured region is the
    /// operations, not the data load).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::StoreTooLong`] if more bits are offered than the
    /// vector holds.
    pub fn store(&mut self, vec: &PimBitVec, bits: &[bool]) -> Result<(), RuntimeError> {
        self.store_packed(vec, &RowData::from_bits(bits))
    }

    /// [`PimSystem::store`] from packed bits, the one store path: the
    /// first `bits.len_bits()` bits of `vec` take `bits`, one copy per
    /// row segment. A store shorter than the vector leaves the segments
    /// past its end untouched and zero-fills the rest of the segment it
    /// ends in.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::StoreTooLong`] if more bits are offered than the
    /// vector holds.
    pub fn store_packed(&mut self, vec: &PimBitVec, bits: &RowData) -> Result<(), RuntimeError> {
        let len = bits.len_bits();
        if len > vec.len_bits() {
            return Err(RuntimeError::StoreTooLong {
                capacity_bits: vec.len_bits(),
                got_bits: len,
            });
        }
        let row_bits = self.row_bits();
        for (i, row, seg_bits) in vec.segments(row_bits) {
            let start = i as u64 * row_bits;
            if start >= len {
                break;
            }
            let segment = bit_range(bits, start, seg_bits.min(len - start));
            self.engine.memory_mut().poke_row_owned(row, segment)?;
        }
        Ok(())
    }

    /// Reads a vector's bits back (verification; uncharged, like a
    /// simulator state dump). A row stored shorter than its segment
    /// reads zero-extended, as the memory reads it.
    #[must_use]
    pub fn load(&self, vec: &PimBitVec) -> Vec<bool> {
        let row_bits = self.row_bits();
        let mut out = Vec::with_capacity(vec.len_bits() as usize);
        for (_, row, seg_bits) in vec.segments(row_bits) {
            let end = out.len() + seg_bits as usize;
            if let Some(data) = self.engine.memory().peek_row(row) {
                out.extend(data.bits(seg_bits.min(data.len_bits())));
            }
            out.resize(end, false);
        }
        out
    }

    /// Population count of a vector (uncharged verification helper).
    #[must_use]
    pub fn count_ones(&self, vec: &PimBitVec) -> u64 {
        let row_bits = self.row_bits();
        vec.segments(row_bits)
            .map(
                |(_, row, seg_bits)| match self.engine.memory().peek_row(row) {
                    Some(data) => data.count_ones_prefix(seg_bits),
                    None => 0,
                },
            )
            .sum()
    }

    /// Executes `dst = op(operands…)` (`pim_op`). Splits the vectors into
    /// row segments, issues one engine bulk-op per segment, and records a
    /// single abstract [`BulkOp`] (with the worst observed locality) in the
    /// trace.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::LengthMismatch`] if operand/destination lengths
    ///   differ;
    /// * engine and memory errors pass through.
    pub fn bitwise(
        &mut self,
        op: BitwiseOp,
        operands: &[&PimBitVec],
        dst: &PimBitVec,
    ) -> Result<OpSummary, RuntimeError> {
        let row_bits = self.row_bits();
        let (summary, record) = bitwise_on_engine(&mut self.engine, row_bits, op, operands, dst)?;
        self.trace.push(record);
        Ok(summary)
    }

    /// Mutable engine access for execution sessions (channel clones,
    /// delta sync, straddling requests on the unified memory).
    pub(crate) fn engine_mut(&mut self) -> &mut PinatuboEngine {
        &mut self.engine
    }

    /// Records an abstract op in the trace (batch scheduler replay).
    pub(crate) fn push_trace(&mut self, record: BulkOp) {
        self.trace.push(record);
    }

    /// `dst = a | b | …` over any number of operands.
    ///
    /// # Errors
    ///
    /// See [`PimSystem::bitwise`].
    pub fn or_many(
        &mut self,
        operands: &[&PimBitVec],
        dst: &PimBitVec,
    ) -> Result<OpSummary, RuntimeError> {
        self.bitwise(BitwiseOp::Or, operands, dst)
    }

    /// `dst = !src`.
    ///
    /// # Errors
    ///
    /// See [`PimSystem::bitwise`].
    pub fn not(&mut self, src: &PimBitVec, dst: &PimBitVec) -> Result<OpSummary, RuntimeError> {
        self.bitwise(BitwiseOp::Not, &[src], dst)
    }

    /// `dst = src` (in-memory row copies, segment by segment).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::LengthMismatch`] if the lengths differ; engine
    /// errors pass through.
    pub fn copy(&mut self, src: &PimBitVec, dst: &PimBitVec) -> Result<OpSummary, RuntimeError> {
        check_lengths(&[src], dst)?;
        let row_bits = self.row_bits();
        let mut summary = OpSummary::default();
        for ((_, src_row, seg_bits), (_, dst_row, _)) in src
            .segments(row_bits)
            .collect::<Vec<_>>()
            .into_iter()
            .zip(dst.segments(row_bits).collect::<Vec<_>>())
        {
            summary.add_segment(&self.engine.copy_row(src_row, dst_row, seg_bits)?);
        }
        Ok(summary)
    }

    /// Endurance management: retires every row whose charged write count
    /// has reached `write_limit` from the allocation pool, so future
    /// allocations avoid worn cells. Returns how many rows were newly
    /// retired. (Vectors already placed on worn rows keep working — NVM
    /// wear-out is gradual — but no new data lands there.)
    pub fn retire_worn_rows(&mut self, write_limit: u64) -> usize {
        let worn = self.engine.memory().worn_rows(write_limit);
        self.allocator.retire_rows(&worn)
    }

    pub(crate) fn row_bits(&self) -> u64 {
        self.engine.memory().geometry().logical_row_bits()
    }
}

/// Bits `start..start + len` of `bits` as a row of their own: one copy
/// of the words, shifted into place when `start` is not word-aligned.
fn bit_range(bits: &RowData, start: u64, len: u64) -> RowData {
    let words = bits.as_words();
    let first = (start / 64) as usize;
    let span = first..first + len.div_ceil(64) as usize;
    let shift = start % 64;
    let out = if shift == 0 {
        words[span].to_vec()
    } else {
        span.map(|w| words[w] >> shift | words.get(w + 1).map_or(0, |&hi| hi << (64 - shift)))
            .collect()
    };
    RowData::from_words(out, len)
}

/// The body of [`PimSystem::bitwise`] against an explicit engine, so the
/// batch scheduler can run requests on per-channel engine shards. Returns
/// the cost summary plus the abstract trace record (not yet pushed
/// anywhere — the caller owns trace ordering).
///
/// # Errors
///
/// See [`PimSystem::bitwise`].
pub(crate) fn bitwise_on_engine(
    engine: &mut PinatuboEngine,
    row_bits: u64,
    op: BitwiseOp,
    operands: &[&PimBitVec],
    dst: &PimBitVec,
) -> Result<(OpSummary, BulkOp), RuntimeError> {
    let len = check_lengths(operands, dst)?;
    let mut summary = OpSummary::default();
    // One operand-row buffer reused across the segments: the per-segment
    // `collect()` here used to be the hottest allocation in batch runs.
    let mut rows = Vec::with_capacity(operands.len());
    for (i, dst_row, seg_bits) in dst.segments(row_bits) {
        rows.clear();
        rows.extend(operands.iter().map(|v| v.rows()[i]));
        summary.add_segment(&engine.bulk_op(op, &rows, dst_row, seg_bits)?);
    }
    let record = BulkOp {
        op,
        operand_count: operands.len(),
        bits: len,
        locality: summary.class,
    };
    Ok((summary, record))
}

/// The one operand-length check, shared by [`bitwise_on_engine`],
/// [`PimSystem::copy`] and the execution session's submit-time
/// validation: at least one operand, and every further operand and the
/// destination as long as the first. Returns that length.
///
/// # Errors
///
/// [`PimError::EmptyOperands`] (wrapped) without operands, else
/// [`RuntimeError::LengthMismatch`] for the first length that differs.
pub(crate) fn check_lengths(operands: &[&PimBitVec], dst: &PimBitVec) -> Result<u64, RuntimeError> {
    let Some(first) = operands.first() else {
        return Err(RuntimeError::Pim(PimError::EmptyOperands));
    };
    let len = first.len_bits();
    let others = operands[1..].iter().map(|v| v.len_bits());
    match others.chain([dst.len_bits()]).find(|&got| got != len) {
        Some(got_bits) => Err(RuntimeError::LengthMismatch {
            expected_bits: len,
            got_bits,
        }),
        None => Ok(len),
    }
}

/// What one `pim_op` cost across its row segments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpSummary {
    /// Total simulated time, nanoseconds.
    pub time_ns: f64,
    /// Channel-serialized portion of `time_ns`: DDR-bus bursts and
    /// mode-register sets hold the channel's shared command/data bus and
    /// cannot overlap with other requests on the same channel.
    pub shared_ns: f64,
    /// Activation groups the op issued (multi-row and single-row), for
    /// the scheduler's tRRD/tFAW accounting.
    pub activations: u64,
    /// Total energy, picojoules.
    pub energy_pj: f64,
    /// Worst locality class among the segments.
    pub class: OpClass,
    /// Row segments executed.
    pub segments: u64,
    /// Fault-injection and recovery counters accumulated over the
    /// segments (all zero when the memory runs fault-free).
    pub reliability: ReliabilityStats,
    /// Per-mechanism breakdown of `time_ns` (activate, sense, write, GDL,
    /// precharge, ECC, bus, MRS; its stall share is always zero), summed
    /// over the segments. The scheduler expands this into a command stream
    /// ([`pinatubo_mem::RequestStream`]) to interleave requests at
    /// command granularity, which is where tRRD/tFAW waits arise;
    /// `time.total_ns() == time_ns` always.
    pub time: TimeBreakdown,
}

impl OpSummary {
    /// Folds one row segment's outcome into the summary (the statement
    /// order fixes the float sums, so every caller folds identically).
    fn add_segment(&mut self, outcome: &OpOutcome) {
        self.time_ns += outcome.time_ns();
        self.shared_ns += outcome.stats.time.shared_ns();
        self.activations += outcome.stats.events.activates + outcome.stats.events.multi_activates;
        self.energy_pj += outcome.energy_pj();
        self.class = self.class.max(outcome.class);
        self.segments += 1;
        self.reliability += outcome.stats.reliability;
        self.time += outcome.stats.time;
    }

    /// Bank-local portion of `time_ns` (activation, sensing, writes, GDL,
    /// precharge): overlappable with other banks' work in a batch.
    #[must_use]
    pub fn lane_ns(&self) -> f64 {
        self.time_ns - self.shared_ns
    }
}

impl Default for OpSummary {
    fn default() -> Self {
        OpSummary {
            time_ns: 0.0,
            shared_ns: 0.0,
            activations: 0,
            energy_pj: 0.0,
            class: OpClass::IntraSubarray,
            segments: 0,
            reliability: ReliabilityStats::default(),
            time: TimeBreakdown::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> PimSystem {
        PimSystem::pcm_default(MappingPolicy::SubarrayFirst)
    }

    #[test]
    fn end_to_end_or_is_correct() {
        let mut s = sys();
        let a = s.alloc(100).expect("a");
        let b = s.alloc(100).expect("b");
        let dst = s.alloc(100).expect("dst");
        let mut av = vec![false; 100];
        let mut bv = vec![false; 100];
        av[3] = true;
        bv[97] = true;
        s.store(&a, &av).expect("store a");
        s.store(&b, &bv).expect("store b");
        let summary = s.or_many(&[&a, &b], &dst).expect("or");
        assert_eq!(summary.class, OpClass::IntraSubarray);
        let out = s.load(&dst);
        assert!(out[3] && out[97]);
        assert_eq!(s.count_ones(&dst), 2);
    }

    #[test]
    fn subarray_first_policy_yields_intra_ops() {
        let mut s = sys();
        let vecs: Vec<_> = (0..64).map(|_| s.alloc(4096).expect("alloc")).collect();
        let dst = s.alloc(4096).expect("dst");
        let refs: Vec<&PimBitVec> = vecs.iter().collect();
        let summary = s.or_many(&refs, &dst).expect("64-row or");
        assert_eq!(summary.class, OpClass::IntraSubarray);
    }

    #[test]
    fn random_policy_degrades_locality() {
        let mut s = PimSystem::pcm_default(MappingPolicy::random());
        let vecs: Vec<_> = (0..16).map(|_| s.alloc(64).expect("alloc")).collect();
        let dst = s.alloc(64).expect("dst");
        let refs: Vec<&PimBitVec> = vecs.iter().collect();
        let summary = s.or_many(&refs, &dst).expect("or");
        assert!(
            summary.class > OpClass::IntraSubarray,
            "random placement should not stay intra-subarray"
        );
    }

    #[test]
    fn multi_segment_vectors_work() {
        let mut s = sys();
        let row_bits = s.row_bits();
        let len = row_bits * 2 + 17;
        let a = s.alloc(len).expect("a");
        let b = s.alloc(len).expect("b");
        let dst = s.alloc(len).expect("dst");
        // Set one bit in the final partial segment of `a`.
        let mut bits = vec![false; len as usize];
        bits[len as usize - 1] = true;
        s.store(&a, &bits).expect("store");
        let summary = s.bitwise(BitwiseOp::Or, &[&a, &b], &dst).expect("or");
        assert_eq!(summary.segments, 3);
        assert_eq!(s.count_ones(&dst), 1);
    }

    #[test]
    fn mismatched_lengths_are_rejected() {
        let mut s = sys();
        let a = s.alloc(100).expect("a");
        let b = s.alloc(200).expect("b");
        let dst = s.alloc(100).expect("dst");
        assert!(matches!(
            s.bitwise(BitwiseOp::Or, &[&a, &b], &dst),
            Err(RuntimeError::LengthMismatch { .. })
        ));
        let dst_short = s.alloc(50).expect("short dst");
        assert!(matches!(
            s.bitwise(BitwiseOp::Or, &[&a, &a], &dst_short),
            Err(RuntimeError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn store_packed_slices_segments_like_store() {
        let mut s = sys();
        let row_bits = s.row_bits();
        let len = row_bits * 2 + 17;
        let bits: Vec<bool> = (0..len).map(|i| i % 3 == 0 || i % 7 == 0).collect();
        let packed = s.alloc(len).expect("packed");
        let plain = s.alloc(len).expect("plain");
        assert_eq!(packed.rows().len(), 3);
        s.store_packed(&packed, &RowData::from_bits(&bits))
            .expect("store_packed");
        s.store(&plain, &bits).expect("store");
        assert_eq!(s.load(&packed), bits);
        assert_eq!(s.load(&plain), bits);

        // A shorter store ending mid-segment: the segment it ends in is
        // zero-filled past its end, the segment after it keeps its bits.
        let short: Vec<bool> = bits[..(row_bits + 40) as usize]
            .iter()
            .map(|b| !b)
            .collect();
        let mut want = short.clone();
        want.resize((row_bits * 2) as usize, false);
        want.extend_from_slice(&bits[(row_bits * 2) as usize..]);
        s.store_packed(&packed, &RowData::from_bits(&short))
            .expect("short store_packed");
        s.store(&plain, &short).expect("short store");
        assert_eq!(s.load(&packed), want);
        assert_eq!(s.load(&plain), want);

        let long = RowData::zeros(len + 1);
        assert_eq!(
            s.store_packed(&packed, &long),
            Err(RuntimeError::StoreTooLong {
                capacity_bits: len,
                got_bits: len + 1
            })
        );
        assert_eq!(s.load(&packed), want, "a rejected store writes nothing");
    }

    #[test]
    fn bit_range_shifts_unaligned_starts() {
        let bits: Vec<bool> = (0..300).map(|i| i % 5 == 0 || i % 11 == 0).collect();
        let row = RowData::from_bits(&bits);
        for (start, len) in [(0, 300), (64, 100), (70, 100), (63, 1), (130, 170)] {
            let got = bit_range(&row, start, len);
            assert_eq!(got.len_bits(), len);
            assert_eq!(
                got.bits(len),
                bits[start as usize..(start + len) as usize],
                "bits {start}..{}",
                start + len
            );
        }
    }

    #[test]
    fn store_too_long_is_rejected() {
        let mut s = sys();
        let a = s.alloc(10).expect("a");
        assert!(matches!(
            s.store(&a, &[true; 11]),
            Err(RuntimeError::StoreTooLong { .. })
        ));
    }

    #[test]
    fn trace_records_ops() {
        let mut s = sys();
        let a = s.alloc(64).expect("a");
        let b = s.alloc(64).expect("b");
        let dst = s.alloc(64).expect("dst");
        s.bitwise(BitwiseOp::Xor, &[&a, &b], &dst).expect("xor");
        s.not(&dst, &dst).expect("not");
        let trace = s.trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].op, BitwiseOp::Xor);
        assert_eq!(trace[1].op, BitwiseOp::Not);
        assert_eq!(trace[0].bits, 64);
    }

    #[test]
    fn worn_rows_are_retired_from_allocation() {
        let mut s = sys();
        let a = s.alloc(64).expect("a");
        let dst = s.alloc(64).expect("dst");
        // Hammer the destination row with writes.
        for _ in 0..10 {
            s.or_many(&[&a, &a], &dst).expect("or");
        }
        assert_eq!(s.engine().memory().row_wear(dst.rows()[0]), 10);

        let retired = s.retire_worn_rows(10);
        assert_eq!(retired, 1, "only the hammered dst row is worn");
        assert_eq!(s.allocator().retired_rows(), 1);
        // A second call retires nothing new.
        assert_eq!(s.retire_worn_rows(10), 0);
        // Fresh allocations proceed and never land on the retired row.
        let fresh = s.alloc(64).expect("fresh allocation still works");
        assert_ne!(fresh.rows()[0], dst.rows()[0]);
    }

    #[test]
    fn copy_through_the_stack() {
        let mut s = sys();
        let src = s.alloc(300).expect("src");
        let dst = s.alloc(300).expect("dst");
        let bits: Vec<bool> = (0..300).map(|i| i % 3 == 0).collect();
        s.store(&src, &bits).expect("store");
        let summary = s.copy(&src, &dst).expect("copy");
        assert_eq!(summary.segments, 1);
        assert_eq!(s.load(&dst), bits);

        let short = s.alloc(100).expect("short");
        assert!(matches!(
            s.copy(&src, &short),
            Err(RuntimeError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn not_through_the_stack() {
        let mut s = sys();
        let a = s.alloc(8).expect("a");
        let dst = s.alloc(8).expect("dst");
        s.store(&a, &[true, false, true, false, true, false, true, false])
            .expect("store");
        s.not(&a, &dst).expect("not");
        assert_eq!(
            s.load(&dst),
            vec![false, true, false, true, false, true, false, true]
        );
    }
}
