//! `pim_malloc`: row-granular bit-vector allocation.
//!
//! The paper's modified C runtime "ensures that different bit-vectors are
//! allocated to different memory rows, since Pinatubo is only able to
//! process inter-row operations" (§5). The allocator therefore hands out
//! whole rows; a vector longer than one row gets a sequence of rows
//! (segments) that the driver operates on serially.
//!
//! `pim_free` means reuse: releasing rows moves the placement cursor back
//! to the lowest row freed, so a workload that allocates and frees
//! transient masks and scratch keeps landing on the same few rows (and
//! the same subarray as its operands) instead of walking across the
//! device. A group that fits a subarray takes the first run of free rows
//! at or after the cursor that holds it whole inside one subarray.

use crate::bitvec::PimBitVec;
use crate::mapping::MappingPolicy;
use crate::RuntimeError;
use pinatubo_core::rng::SimRng;
use pinatubo_mem::{MemGeometry, RowAddr};
use std::collections::HashSet;

/// Transposed bit-planes start on a row index divisible by this. Row
/// placement is part of every seeded result (the fault model keys its
/// draws on row addresses), so the rule stays fixed.
const PLANE_ALIGN_ROWS: u64 = 4;

/// The PIM-aware allocator.
#[derive(Debug)]
pub struct PimAllocator {
    geometry: MemGeometry,
    policy: MappingPolicy,
    /// Rows handed out so far (row-linear indices).
    used: HashSet<u64>,
    /// Rows retired for endurance reasons (subset of `used`).
    retired: HashSet<u64>,
    /// `used` rows per channel (channel `c` owns linear rows
    /// `c * per_channel..(c + 1) * per_channel`), so `ChannelRotate` can
    /// tell whether a group fits a channel without scanning it.
    channel_used: Vec<u64>,
    /// Next candidate for the deterministic policies.
    cursor: u64,
    /// Per-channel next candidates (`ChannelRotate` only; empty otherwise).
    channel_cursors: Vec<u64>,
    /// Which channel the next `ChannelRotate` allocation group lands on.
    rotate_channel: usize,
    rng: SimRng,
    next_id: u64,
}

impl PimAllocator {
    /// An allocator over `geometry` using `policy`.
    #[must_use]
    pub fn new(geometry: MemGeometry, policy: MappingPolicy) -> Self {
        let seed = match policy {
            MappingPolicy::Random { seed } => seed,
            _ => 0,
        };
        let channel_cursors = match policy {
            MappingPolicy::ChannelRotate => {
                let per_channel = geometry.total_rows() / u64::from(geometry.channels);
                (0..u64::from(geometry.channels))
                    .map(|c| c * per_channel)
                    .collect()
            }
            _ => Vec::new(),
        };
        PimAllocator {
            channel_used: vec![0; geometry.channels as usize],
            geometry,
            policy,
            used: HashSet::new(),
            retired: HashSet::new(),
            cursor: 0,
            channel_cursors,
            rotate_channel: 0,
            rng: SimRng::seed_from_u64(seed),
            next_id: 0,
        }
    }

    /// The mapping policy in force.
    #[must_use]
    pub fn policy(&self) -> MappingPolicy {
        self.policy
    }

    /// Steers the next [`PimAllocator::alloc_group`] to `channel` under
    /// the `ChannelRotate` policy: the rotation cursor is parked on that
    /// channel, the group lands there whole (or, if the channel lacks the
    /// free rows, whole on the next channel in rotation order that has
    /// them), and rotation resumes from the following channel as usual.
    /// Callers use it to keep an op's operands on one channel: the
    /// serving layer steers every allocation of a tenant to its home
    /// channel, and `microcode::compile` puts scratch beside the
    /// operands. No-op under the other policies, whose placement is not
    /// channel-addressed.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is outside the geometry.
    pub fn set_next_channel(&mut self, channel: u32) {
        assert!(
            channel < self.geometry.channels,
            "channel {channel} out of range ({} channels)",
            self.geometry.channels
        );
        if matches!(self.policy, MappingPolicy::ChannelRotate) {
            self.rotate_channel = channel as usize;
        }
    }

    /// Rows not yet allocated.
    #[must_use]
    pub fn free_rows(&self) -> u64 {
        self.geometry.total_rows() - self.used.len() as u64
    }

    /// Rows in one channel's linear range.
    fn rows_per_channel(&self) -> u64 {
        self.geometry.total_rows() / u64::from(self.geometry.channels)
    }

    /// Adds a row to `used`, keeping the per-channel count.
    fn mark_used(&mut self, linear: u64) {
        if self.used.insert(linear) {
            let c = (linear / self.rows_per_channel()) as usize;
            self.channel_used[c] += 1;
        }
    }

    /// Removes a row from `used`, keeping the per-channel count; returns
    /// whether it was in use.
    fn mark_free(&mut self, linear: u64) -> bool {
        let was_used = self.used.remove(&linear);
        if was_used {
            let c = (linear / self.rows_per_channel()) as usize;
            self.channel_used[c] -= 1;
        }
        was_used
    }

    /// `ChannelRotate`: parks the rotation cursor on the first channel,
    /// in rotation order from the current one, with `rows` free rows, so
    /// a group lands whole on one channel. Leaves the cursor where it is
    /// when no channel has room; `next_row` then spills the group row by
    /// row.
    fn rotate_to_fit(&mut self, rows: u64) {
        let channels = self.channel_used.len();
        let per_channel = self.rows_per_channel();
        if let Some(c) = (0..channels)
            .map(|k| (self.rotate_channel + k) % channels)
            .find(|&c| per_channel - self.channel_used[c] >= rows)
        {
            self.rotate_channel = c;
        }
    }

    /// Permanently removes rows from the allocation pool (endurance
    /// management: worn or faulty rows are never handed out again).
    /// Rows currently holding data keep working — wear-out is gradual —
    /// but the allocator will never place new data there.
    ///
    /// Returns how many rows were newly retired.
    pub fn retire_rows(&mut self, rows: &[RowAddr]) -> usize {
        let mut newly = 0;
        for row in rows {
            if !row.is_valid(&self.geometry) {
                continue;
            }
            let linear = row.to_linear(&self.geometry);
            if self.retired.insert(linear) {
                newly += 1;
                self.mark_used(linear);
            }
        }
        newly
    }

    /// Rows retired so far.
    #[must_use]
    pub fn retired_rows(&self) -> u64 {
        self.retired.len() as u64
    }

    /// Returns rows to the free pool (`pim_free`): scratch released by a
    /// µ-program batch or an application error path becomes allocatable
    /// again, so [`PimAllocator::free_rows`] round-trips. Freed rows are
    /// reused first: the placement cursor moves back to the lowest row
    /// freed (under `ChannelRotate`, that row's channel cursor), so the
    /// next allocation takes it again. Rows retired for endurance stay
    /// retired — release never resurrects them.
    ///
    /// Returns how many rows were actually released.
    pub fn release_rows(&mut self, rows: &[RowAddr]) -> usize {
        let mut released = 0;
        for row in rows {
            if !row.is_valid(&self.geometry) {
                continue;
            }
            let linear = row.to_linear(&self.geometry);
            if !self.retired.contains(&linear) && self.mark_free(linear) {
                released += 1;
                self.rewind_to(linear);
            }
        }
        released
    }

    /// Moves the cursor that would place `linear` back to it, if it is
    /// past it. `Random` redraws freed rows anyway.
    fn rewind_to(&mut self, linear: u64) {
        let cursor = match self.policy {
            MappingPolicy::SubarrayFirst | MappingPolicy::BankInterleave => &mut self.cursor,
            MappingPolicy::ChannelRotate => {
                let c = (linear / self.rows_per_channel()) as usize;
                &mut self.channel_cursors[c]
            }
            MappingPolicy::Random { .. } => return,
        };
        *cursor = (*cursor).min(linear);
    }

    /// Allocates a bit-vector of `len_bits` (the `pim_malloc` entry point).
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::EmptyAllocation`] for zero-length requests;
    /// * [`RuntimeError::OutOfMemory`] when not enough rows remain.
    pub fn alloc(&mut self, len_bits: u64) -> Result<PimBitVec, RuntimeError> {
        if len_bits == 0 {
            return Err(RuntimeError::EmptyAllocation);
        }
        let rows_needed = len_bits.div_ceil(self.geometry.logical_row_bits());
        if rows_needed > self.free_rows() {
            return Err(RuntimeError::OutOfMemory {
                requested_rows: rows_needed,
                free_rows: self.free_rows(),
            });
        }
        let rows: Vec<RowAddr> = (0..rows_needed).map(|_| self.next_row()).collect();
        let id = self.next_id;
        self.next_id += 1;
        Ok(PimBitVec::new(id, len_bits, rows))
    }

    /// Allocates `count` bit-vectors of `len_bits` placed *together*: when
    /// the whole group fits in one subarray, every vector lands in the
    /// same subarray, so operations across the group are intra-subarray.
    ///
    /// This is the paper's PIM-aware OS placement (§5: memory management
    /// "maximizes the opportunity for calling intra-subarray operations").
    /// Under `SubarrayFirst` and `ChannelRotate` the group takes the first
    /// run of free rows at or after the cursor that holds it whole inside
    /// one subarray, so rows released below the cursor are refilled
    /// without splitting the group. Groups bigger than a subarray, or
    /// other policies, degrade gracefully to per-vector allocation.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PimAllocator::alloc`].
    pub fn alloc_group(
        &mut self,
        count: usize,
        len_bits: u64,
    ) -> Result<Vec<PimBitVec>, RuntimeError> {
        self.place_group(count, len_bits, 1)
    }

    /// [`PimAllocator::alloc_group`] with the group's first row on a
    /// multiple of `step` rows (within the contiguous-cursor policies).
    fn place_group(
        &mut self,
        count: usize,
        len_bits: u64,
        step: u64,
    ) -> Result<Vec<PimBitVec>, RuntimeError> {
        if len_bits == 0 {
            return Err(RuntimeError::EmptyAllocation);
        }
        let group_rows = len_bits.div_ceil(self.geometry.logical_row_bits()) * count as u64;
        match self.policy {
            MappingPolicy::SubarrayFirst => {
                let total = self.geometry.total_rows();
                if let Some(start) = self.find_run(0, total, self.cursor, group_rows, step) {
                    self.cursor = start;
                }
                self.alloc_many(count, len_bits)
            }
            MappingPolicy::ChannelRotate => {
                // A group that straddles channels would send every op over
                // it across the DDR bus, so it moves whole to a channel
                // with room.
                self.rotate_to_fit(group_rows);
                let c = self.rotate_channel;
                let per_channel = self.rows_per_channel();
                let base = c as u64 * per_channel;
                if let Some(start) =
                    self.find_run(base, per_channel, self.channel_cursors[c], group_rows, step)
                {
                    self.channel_cursors[c] = start;
                }
                let group = self.alloc_many(count, len_bits);
                // The next group lands on the next channel, so independent
                // batch requests spread across channels.
                self.rotate_channel = (self.rotate_channel + 1) % self.geometry.channels as usize;
                group
            }
            _ => self.alloc_many(count, len_bits),
        }
    }

    /// Where a group of `rows` rows starts inside the row range
    /// `base..base + span` (a whole number of subarrays): the first row at
    /// or after `from`, wrapping once past the end of the range, that
    /// begins a run of `rows` free rows inside one subarray, on a
    /// multiple of `step`. A group bigger than a subarray cannot fit one
    /// and takes the first free (aligned) row. `None` when no such run
    /// exists; the cursor then stays put and the group fills free rows
    /// one by one.
    fn find_run(&self, base: u64, span: u64, from: u64, rows: u64, step: u64) -> Option<u64> {
        let sub_rows = u64::from(self.geometry.rows_per_subarray);
        let (need, whole) = if rows <= sub_rows {
            (rows, true)
        } else {
            (1, false)
        };
        // Candidate starts in `lo..hi`, range-relative. A subarray is a
        // whole number of steps, so a jump to the next subarray keeps the
        // alignment.
        let scan = |lo: u64, hi: u64| {
            let mut p = lo.div_ceil(step) * step;
            while p < hi && p + need <= span {
                if whole && p % sub_rows + need > sub_rows {
                    p = (p / sub_rows + 1) * sub_rows;
                    continue;
                }
                match (p..p + need)
                    .rev()
                    .find(|&r| self.used.contains(&(base + r)))
                {
                    Some(r) => p = (r + 1).div_ceil(step) * step,
                    None => return Some(base + p),
                }
            }
            None
        };
        let from = from - base;
        scan(from, span).or_else(|| scan(0, from))
    }

    /// Allocates `width_bits` bit-planes of `lanes` bits each — the
    /// bit-transposed layout for `runtime::microcode`: plane `k` holds bit
    /// `k` (LSB first) of every lane. The planes are one placement group
    /// whose first row index is divisible by four.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PimAllocator::alloc`]; a partial failure
    /// releases the planes already placed.
    pub fn alloc_transposed(
        &mut self,
        lanes: u64,
        width_bits: u32,
    ) -> Result<Vec<PimBitVec>, RuntimeError> {
        if lanes == 0 || width_bits == 0 {
            return Err(RuntimeError::EmptyAllocation);
        }
        self.place_group(width_bits as usize, lanes, PLANE_ALIGN_ROWS)
    }

    /// `count` sequential [`PimAllocator::alloc`] calls that roll back on
    /// failure: a half-allocated group releases its rows before the error
    /// propagates, so callers never leak placement on early returns.
    fn alloc_many(&mut self, count: usize, len_bits: u64) -> Result<Vec<PimBitVec>, RuntimeError> {
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            match self.alloc(len_bits) {
                Ok(v) => out.push(v),
                Err(e) => {
                    let rows: Vec<RowAddr> =
                        out.iter().flat_map(|v| v.rows().iter().copied()).collect();
                    self.release_rows(&rows);
                    return Err(e);
                }
            }
        }
        Ok(out)
    }

    /// Picks the next free row under the policy.
    fn next_row(&mut self) -> RowAddr {
        let total = self.geometry.total_rows();
        let linear = match self.policy {
            MappingPolicy::SubarrayFirst => {
                // Canonical linear order keeps each subarray's rows
                // contiguous, so a simple cursor fills subarrays in turn.
                let mut idx = self.cursor;
                while self.used.contains(&idx) {
                    idx = (idx + 1) % total;
                }
                self.cursor = (idx + 1) % total;
                idx
            }
            MappingPolicy::BankInterleave => {
                // Stride by one subarray's rows so consecutive allocations
                // rotate across subarrays and banks.
                let stride = u64::from(self.geometry.rows_per_subarray);
                let mut idx = self.cursor;
                while self.used.contains(&idx) {
                    idx = (idx + stride + 1) % total;
                }
                self.cursor = (idx + stride + 1) % total;
                idx
            }
            MappingPolicy::Random { .. } => loop {
                let idx = self.rng.gen_range_u64(0, total);
                if !self.used.contains(&idx) {
                    break idx;
                }
            },
            MappingPolicy::ChannelRotate => {
                // Subarray-first scan inside the current channel's row
                // range; spill to the next channel when one fills up.
                let channels = self.geometry.channels as usize;
                let per_channel = self.rows_per_channel();
                let mut pick = None;
                'channels: for attempt in 0..channels {
                    let c = (self.rotate_channel + attempt) % channels;
                    let base = c as u64 * per_channel;
                    let mut idx = self.channel_cursors[c];
                    let mut steps = 0;
                    while self.used.contains(&idx) {
                        idx = base + ((idx - base + 1) % per_channel);
                        steps += 1;
                        if steps >= per_channel {
                            continue 'channels;
                        }
                    }
                    self.channel_cursors[c] = base + ((idx - base + 1) % per_channel);
                    if attempt > 0 {
                        self.rotate_channel = c;
                    }
                    pick = Some(idx);
                    break;
                }
                pick.expect("alloc() checks free_rows before calling next_row")
            }
        };
        self.mark_used(linear);
        RowAddr::from_linear(&self.geometry, linear)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc(policy: MappingPolicy) -> PimAllocator {
        PimAllocator::new(MemGeometry::pcm_default(), policy)
    }

    #[test]
    fn subarray_first_packs_one_subarray() {
        let mut a = alloc(MappingPolicy::SubarrayFirst);
        let vectors: Vec<PimBitVec> = (0..10).map(|_| a.alloc(4096).expect("allocates")).collect();
        let first = vectors[0].rows()[0];
        for v in &vectors {
            assert!(
                v.rows()[0].same_subarray(&first),
                "co-allocated vectors should share a subarray"
            );
        }
    }

    #[test]
    fn bank_interleave_scatters_across_subarrays() {
        let mut a = alloc(MappingPolicy::BankInterleave);
        let v1 = a.alloc(64).expect("first");
        let v2 = a.alloc(64).expect("second");
        assert!(!v1.rows()[0].same_subarray(&v2.rows()[0]));
    }

    #[test]
    fn random_is_reproducible() {
        let mut a = alloc(MappingPolicy::Random { seed: 7 });
        let mut b = alloc(MappingPolicy::Random { seed: 7 });
        for _ in 0..20 {
            assert_eq!(
                a.alloc(64).expect("a").rows(),
                b.alloc(64).expect("b").rows()
            );
        }
    }

    #[test]
    fn a_live_row_is_never_handed_out_twice() {
        let mut a = alloc(MappingPolicy::random());
        let mut seen = HashSet::new();
        for _ in 0..1000 {
            let v = a.alloc(64).expect("allocates");
            for r in v.rows() {
                assert!(seen.insert(*r), "row {r} handed out twice");
            }
        }
    }

    #[test]
    fn long_vectors_get_multiple_rows() {
        let mut a = alloc(MappingPolicy::SubarrayFirst);
        let row_bits = MemGeometry::pcm_default().logical_row_bits();
        let v = a.alloc(row_bits * 3 + 1).expect("allocates");
        assert_eq!(v.rows().len(), 4);
    }

    #[test]
    fn zero_length_is_rejected() {
        let mut a = alloc(MappingPolicy::SubarrayFirst);
        assert_eq!(a.alloc(0), Err(RuntimeError::EmptyAllocation));
    }

    #[test]
    fn exhaustion_reports_out_of_memory() {
        // A tiny geometry so the test terminates quickly.
        let mut g = MemGeometry::pcm_default();
        g.channels = 1;
        g.ranks_per_channel = 1;
        g.banks_per_chip = 1;
        g.subarrays_per_bank = 1;
        g.rows_per_subarray = 4;
        let mut a = PimAllocator::new(g, MappingPolicy::SubarrayFirst);
        for _ in 0..4 {
            a.alloc(64).expect("allocates while rows remain");
        }
        assert!(matches!(
            a.alloc(64),
            Err(RuntimeError::OutOfMemory { free_rows: 0, .. })
        ));
    }

    #[test]
    fn groups_never_straddle_subarrays() {
        let mut a = alloc(MappingPolicy::SubarrayFirst);
        // 90 groups of 12 rows: 1024/12 = 85 groups per subarray, so a
        // naive cursor would straddle the boundary at group 86.
        for _ in 0..90 {
            let group = a.alloc_group(12, 64).expect("group allocates");
            let first = group[0].rows()[0];
            for v in &group {
                assert!(
                    v.rows()[0].same_subarray(&first),
                    "group must stay in one subarray"
                );
            }
        }
    }

    #[test]
    fn oversized_groups_still_allocate() {
        let mut a = alloc(MappingPolicy::SubarrayFirst);
        let group = a.alloc_group(2000, 64).expect("bigger than a subarray");
        assert_eq!(group.len(), 2000);
    }

    #[test]
    fn channel_rotate_spreads_groups_across_channels() {
        let mut a = alloc(MappingPolicy::ChannelRotate);
        let channels = MemGeometry::pcm_default().channels;
        let groups: Vec<Vec<PimBitVec>> = (0..8)
            .map(|_| a.alloc_group(3, 4096).expect("group"))
            .collect();
        for (g, group) in groups.iter().enumerate() {
            let first = group[0].rows()[0];
            assert_eq!(
                first.channel,
                g as u32 % channels,
                "group {g} should land on channel {}",
                g as u32 % channels
            );
            for v in group {
                assert!(
                    v.rows()[0].same_subarray(&first),
                    "a rotated group must still share one subarray"
                );
            }
        }
    }

    #[test]
    fn channel_rotate_groups_never_straddle_subarrays() {
        let mut a = alloc(MappingPolicy::ChannelRotate);
        for _ in 0..400 {
            let group = a.alloc_group(12, 64).expect("group allocates");
            let first = group[0].rows()[0];
            for v in &group {
                assert!(v.rows()[0].same_subarray(&first));
            }
        }
    }

    #[test]
    fn channel_rotate_spills_when_a_channel_fills() {
        let mut g = MemGeometry::pcm_default();
        g.channels = 2;
        g.ranks_per_channel = 1;
        g.banks_per_chip = 1;
        g.subarrays_per_bank = 1;
        g.rows_per_subarray = 4;
        let mut a = PimAllocator::new(g, MappingPolicy::ChannelRotate);
        // 8 rows total. Groups of 3 rotate channels; after filling, plain
        // allocs spill rather than spin.
        let g0 = a.alloc_group(3, 64).expect("group 0");
        let g1 = a.alloc_group(3, 64).expect("group 1");
        assert_eq!(g0[0].rows()[0].channel, 0);
        assert_eq!(g1[0].rows()[0].channel, 1);
        let spill: Vec<PimBitVec> = (0..2).map(|_| a.alloc(64).expect("spill")).collect();
        assert_eq!(spill.len(), 2);
        assert!(matches!(
            a.alloc(64),
            Err(RuntimeError::OutOfMemory { free_rows: 0, .. })
        ));
    }

    #[test]
    fn channel_rotate_moves_a_group_whole_to_a_channel_with_room() {
        let mut g = MemGeometry::pcm_default();
        g.channels = 2;
        g.ranks_per_channel = 1;
        g.banks_per_chip = 1;
        g.subarrays_per_bank = 1;
        g.rows_per_subarray = 4;
        let mut a = PimAllocator::new(g, MappingPolicy::ChannelRotate);
        // Channel 0 keeps one free row; a two-row group steered there
        // must not straddle the channels.
        let filler = a.alloc_group(3, 64).expect("filler");
        assert!(filler.iter().all(|v| v.rows()[0].channel == 0));
        a.set_next_channel(0);
        let group = a.alloc_group(2, 64).expect("group");
        let channels: Vec<u32> = group.iter().map(|v| v.rows()[0].channel).collect();
        assert_eq!(channels, vec![1, 1], "the group moves whole to channel 1");
        // Rotation resumes after the channel the group landed on, and a
        // group no channel can hold still spills row by row.
        let spill = a.alloc_group(3, 64).expect("spill");
        let channels: Vec<u32> = spill.iter().map(|v| v.rows()[0].channel).collect();
        assert_eq!(channels, vec![0, 1, 1]);
        assert_eq!(a.free_rows(), 0);
        // Released rows count as room again.
        a.release_rows(group[0].rows());
        a.release_rows(filler[0].rows());
        a.set_next_channel(0);
        let one = a.alloc_group(1, 64).expect("one");
        assert_eq!(one[0].rows()[0].channel, 0);
    }

    #[test]
    fn release_rows_round_trips_free_rows() {
        let mut a = alloc(MappingPolicy::SubarrayFirst);
        let before = a.free_rows();
        let v = a.alloc(64).expect("allocates");
        assert_eq!(a.free_rows(), before - 1);
        assert_eq!(a.release_rows(v.rows()), 1);
        assert_eq!(a.free_rows(), before, "release must round-trip free_rows");
        // Double release is a no-op.
        assert_eq!(a.release_rows(v.rows()), 0);
        assert_eq!(a.free_rows(), before);
    }

    #[test]
    fn release_and_realloc_cycles_never_raise_the_highest_row() {
        let g = MemGeometry::pcm_default();
        for policy in [
            MappingPolicy::SubarrayFirst,
            MappingPolicy::BankInterleave,
            MappingPolicy::ChannelRotate,
        ] {
            let mut a = alloc(policy);
            let free = a.free_rows();
            // `ChannelRotate` moves each group to the next channel, so the
            // first rotation sets the bound.
            let warm_up = g.channels as usize;
            let mut highest = 0;
            for cycle in 0..1000 {
                let v = a.alloc(64).expect("vector");
                let group = a.alloc_group(3, 64).expect("group");
                let top = group
                    .iter()
                    .chain([&v])
                    .flat_map(|x| x.rows())
                    .map(|r| r.to_linear(&g))
                    .max()
                    .expect("rows");
                if cycle < warm_up {
                    highest = highest.max(top);
                } else {
                    assert!(
                        top <= highest,
                        "cycle {cycle} under {policy:?} reached row {top}, past {highest}"
                    );
                }
                a.release_rows(v.rows());
                for x in &group {
                    a.release_rows(x.rows());
                }
                assert_eq!(a.free_rows(), free, "free_rows must round-trip");
            }
        }
    }

    #[test]
    fn a_group_skips_a_released_hole_too_small_for_it() {
        // `BankInterleave` scatters a group's vectors by design, so only
        // the co-locating policies are checked.
        for policy in [MappingPolicy::SubarrayFirst, MappingPolicy::ChannelRotate] {
            let mut a = alloc(policy);
            let sub_rows = u64::from(MemGeometry::pcm_default().rows_per_subarray);
            // Fill the first subarray up to its last row, then free one
            // row near its start: the cursor moves back to that hole.
            let filler: Vec<PimBitVec> = (0..sub_rows - 1)
                .map(|_| a.alloc(64).expect("filler"))
                .collect();
            assert_eq!(a.release_rows(filler[5].rows()), 1);
            a.set_next_channel(0);
            let group = a.alloc_group(3, 64).expect("group");
            let first = group[0].rows()[0];
            for v in &group {
                assert!(
                    v.rows()[0].same_subarray(&first),
                    "a group under {policy:?} must not split across the hole"
                );
            }
            assert!(!first.same_subarray(&filler[0].rows()[0]));
            // A one-row vector still fits the hole.
            assert_eq!(a.release_rows(filler[6].rows()), 1);
            a.set_next_channel(0);
            assert_eq!(a.alloc(64).expect("refill").rows(), filler[6].rows());
        }
    }

    #[test]
    fn release_never_resurrects_retired_rows() {
        let mut a = alloc(MappingPolicy::SubarrayFirst);
        let v = a.alloc(64).expect("allocates");
        let before = a.free_rows();
        assert_eq!(a.retire_rows(v.rows()), 1);
        assert_eq!(a.release_rows(v.rows()), 0, "retired rows stay retired");
        assert_eq!(a.free_rows(), before);
    }

    #[test]
    fn failed_group_allocation_rolls_back() {
        let mut g = MemGeometry::pcm_default();
        g.channels = 1;
        g.ranks_per_channel = 1;
        g.banks_per_chip = 1;
        g.subarrays_per_bank = 1;
        g.rows_per_subarray = 8;
        let mut a = PimAllocator::new(g, MappingPolicy::SubarrayFirst);
        assert!(matches!(
            a.alloc_group(12, 64),
            Err(RuntimeError::OutOfMemory { .. })
        ));
        assert_eq!(
            a.free_rows(),
            8,
            "a half-allocated group must release its rows"
        );
        // The freed rows are immediately usable.
        assert_eq!(a.alloc_group(8, 64).expect("fits exactly").len(), 8);
    }

    #[test]
    fn transposed_planes_are_page_aligned_groups() {
        let g = MemGeometry::pcm_default();
        let mut a = alloc(MappingPolicy::SubarrayFirst);
        a.alloc(64).expect("misalign the cursor");
        let planes = a.alloc_transposed(4096, 8).expect("transposed");
        assert_eq!(planes.len(), 8);
        let first = planes[0].rows()[0].to_linear(&g);
        assert_eq!(
            first % PLANE_ALIGN_ROWS,
            0,
            "planes start on an aligned row"
        );
        for (k, p) in planes.iter().enumerate() {
            assert_eq!(p.len_bits(), 4096);
            assert_eq!(p.rows()[0].to_linear(&g), first + k as u64);
        }
        assert_eq!(a.alloc_transposed(0, 8), Err(RuntimeError::EmptyAllocation));
        assert_eq!(
            a.alloc_transposed(64, 0),
            Err(RuntimeError::EmptyAllocation)
        );
    }

    #[test]
    fn ids_are_unique() {
        let mut a = alloc(MappingPolicy::SubarrayFirst);
        let v1 = a.alloc(64).expect("v1");
        let v2 = a.alloc(64).expect("v2");
        assert_ne!(v1.id(), v2.id());
    }
}
