//! The physical fault path: fault-injected sensing and writing.
//!
//! Every physical sense or write is one counter-keyed event on its
//! channel's draw stream, resolved by the word-packed fast path (the
//! default) or the per-cell reference path it is pinned against
//! (`MemConfig::reference_fault_path`). The packed sense reads operand
//! words in place, where the page table stores them; only a row with a
//! fault site among the sensed columns is copied and patched. Per-row
//! fault sites are cached, and neither packed path consults the cache
//! when the model cannot create a site ([`FaultModel::has_fault_sites`]).

use super::MainMemory;
use crate::address::RowAddr;
use crate::array::RowData;
use pinatubo_nvm::fault::{CellHealth, CellId, EventKey, FaultModel};
use pinatubo_nvm::resistance::Ohms;
use pinatubo_nvm::sense_amp::SenseMode;
use pinatubo_nvm::write_driver::{WriteDriver, WriteSource};
use std::collections::HashMap;

/// One cached [`FaultModel::row_fault_sites`] result: the ascending
/// `(bit, held value)` fault sites of a row at a given wear level, over
/// the first `cols` columns.
#[derive(Debug, Clone)]
pub(super) struct CachedRowSites {
    writes: u64,
    cols: u64,
    sites: Vec<(u64, bool)>,
}

/// The ascending fault sites (stuck + endurance-dead cells) of one row
/// over its first `cols` columns, as a slice of the cache. A cached entry
/// is reused when its wear level matches and it covers at least `cols`
/// columns; otherwise it is regenerated from the model. Takes the cache
/// field alone, so the caller may read the page table while it holds
/// the slice.
fn row_sites<'c>(
    cache: &'c mut HashMap<u64, CachedRowSites>,
    model: &FaultModel,
    row_key: u64,
    writes: u64,
    cols: u64,
) -> &'c [(u64, bool)] {
    let fresh = || CachedRowSites {
        writes,
        cols,
        sites: model.row_fault_sites(row_key, writes, cols),
    };
    let cached = cache.entry(row_key).or_insert_with(fresh);
    if cached.writes != writes || cached.cols < cols {
        *cached = fresh();
    }
    let below = cached.sites.partition_point(|&(bit, _)| bit < cols);
    &cached.sites[..below]
}

impl MainMemory {
    /// Physical sensing with faults injected, as one counter-keyed event:
    /// claims the channel's next [`EventKey`] and dispatches to the
    /// word-packed fast path (the default) or the per-cell reference path
    /// (`MemConfig::reference_fault_path`). The two are bit-identical for
    /// the same event. Bits differing from the word-wise `truth` are
    /// tallied as injected.
    pub(super) fn sense_physical(
        &mut self,
        operands: &[RowAddr],
        mode: SenseMode,
        cols: u64,
        truth: &RowData,
    ) -> RowData {
        // All operands share a subarray (validated by the caller), so the
        // first one names the owning channel's draw stream.
        let channel = operands[0].channel;
        self.dirty.fault.insert(channel);
        let state = self
            .fault
            .get_mut(&channel)
            .expect("fault injection enabled");
        let model = *state.model();
        let event = state.next_event();
        let out = if self.config.reference_fault_path {
            self.sense_physical_reference(operands, mode, cols, &model, &event)
        } else {
            self.sense_physical_packed(operands, mode, cols, &model, &event)
        };
        self.stats.reliability.physical_senses += 1;
        self.stats.reliability.injected_bit_errors += out.count_diff(truth);
        out
    }

    /// The first `cols` effective bits of `addr` when a fault site falls
    /// among them: the stored row zero-extended or cut to `cols`, then
    /// patched at its sites. `None` when the stored bits are already the
    /// effective ones, so the caller reads them in place.
    fn patched_row(&mut self, addr: RowAddr, model: &FaultModel, cols: u64) -> Option<RowData> {
        let key = addr.to_linear(&self.config.geometry);
        let writes = self.row_wear(addr);
        let sites = row_sites(&mut self.fault_sites, model, key, writes, cols);
        if sites.is_empty() {
            return None;
        }
        let mut row = self.rows.get(addr).cloned().unwrap_or_default();
        row.resize(cols);
        for &(bit, value) in sites {
            row.set(bit, value);
        }
        Some(row)
    }

    /// The O(words + fault sites) sense path. Operand words are read in
    /// place from the page table: a stored row narrower than `cols` reads
    /// as zero-extended, a wider one is cut at `cols`. Only a row with a
    /// fault site below `cols` is copied and patched to hold its
    /// *effective* bits. Whole ones-count classes are then classified as
    /// certainly-0 / certainly-1 through conservative bit-line resistance
    /// intervals (every residual / drift draw is bounded), over the
    /// bit-sliced "at least `j` ones" planes the event's classes need;
    /// the output is one of those planes, moved out. Only columns in a
    /// class straddling the reference are evaluated through the exact
    /// per-column model — the same evaluator the reference path uses, so
    /// even their floating-point rounding agrees. The transient-flip chain
    /// lands word-wise on top.
    fn sense_physical_packed(
        &mut self,
        operands: &[RowAddr],
        mode: SenseMode,
        cols: u64,
        model: &FaultModel,
        event: &EventKey,
    ) -> RowData {
        // The only mutation: fill the site cache and patch copies of the
        // rows that have sites. Everything after reads `self` in place.
        let patched: Vec<Option<RowData>> = if model.has_fault_sites() {
            operands
                .iter()
                .map(|&a| self.patched_row(a, model, cols))
                .collect()
        } else {
            Vec::new()
        };
        let rows: Vec<&[u64]> = operands
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                let row = patched.get(i).and_then(Option::as_ref);
                row.or_else(|| self.peek_row(a))
                    .map_or(&[][..], RowData::as_words)
            })
            .collect();
        let sa = self.sense_amp.as_ref().expect("resistive technology");
        let tech = &self.config.technology;
        let margin = sa.margin(mode);
        let global = model.event_global(tech, event);

        // Conservative per-class intervals: a cell storing `b` contributes
        // a resistance inside `[r_min(b), r_max(b)]` for *every* possible
        // residual and drift draw, so the bit line of a column with `k`
        // effective ones lies inside an interval depending only on `k`.
        let fan_in = rows.len();
        let (res_lo, res_hi) = model.residual_bounds(tech);
        let drift = 1.0 + model.drift_spread.max(0.0);
        let r_on = tech.cell_resistance(true).get() * global;
        let r_off = tech.cell_resistance(false).get() * global;
        let (r1_min, r1_max) = (r_on * res_lo, r_on * res_hi * drift);
        let (r0_min, r0_max) = (r_off * res_lo / drift, r_off * res_hi);
        let verdict = |ones: usize| -> Option<bool> {
            let zeros = (fan_in - ones) as f64;
            let ones = ones as f64;
            let g_min = ones / r1_max + zeros / r0_max;
            let g_max = ones / r1_min + zeros / r0_min;
            margin.classify_interval(Ohms::new(1.0 / g_max), Ohms::new(1.0 / g_min))
        };
        // `k1`: counts >= k1 certainly sense 1; counts < k0_excl certainly
        // sense 0; counts between are ambiguous. Derived from contiguous
        // runs at the extremes so no monotonicity assumption is needed.
        let mut k1 = fan_in + 1;
        for k in (0..=fan_in).rev() {
            if verdict(k) == Some(true) {
                k1 = k;
            } else {
                break;
            }
        }
        let mut k0_excl = 0;
        for k in 0..k1 {
            if verdict(k) == Some(false) {
                k0_excl = k + 1;
            } else {
                break;
            }
        }

        // Bit-sliced ones counting: planes[j - 1] marks the columns whose
        // effective ones count is at least j, for j in 1..=jcap (k1 and
        // the band's lower edge are the only classes read; "at least 0"
        // is every column and needs no plane). Each update is one
        // word-wise pass over a plane, so it vectorizes; the zip ends at
        // the plane's last word, so a narrower row adds nothing past its
        // own. A wider row carries bits past `cols` into the last word;
        // masking them off keeps each plane a valid `cols`-bit row.
        let nw = cols.div_ceil(64) as usize;
        let tail = match cols % 64 {
            0 => u64::MAX,
            r => (1u64 << r) - 1,
        };
        let jcap = k1.min(fan_in);
        let mut planes: Vec<RowData> = (0..jcap).map(|_| RowData::zeros(cols)).collect();
        for (i, &row) in rows.iter().enumerate() {
            for p in (1..jcap.min(i + 1)).rev() {
                let (lo, hi) = planes.split_at_mut(p);
                let prev = lo[p - 1].as_words();
                for ((cur, &prev), &word) in hi[0].as_words_mut().iter_mut().zip(prev).zip(row) {
                    *cur |= prev & word;
                }
            }
            if let Some(first) = planes.first_mut() {
                for (cur, &word) in first.as_words_mut().iter_mut().zip(row) {
                    *cur |= word;
                }
            }
        }
        for plane in &mut planes {
            if let Some(last) = plane.as_words_mut().last_mut() {
                *last &= tail;
            }
        }
        let mut out = match k1 {
            0 => {
                let mut all = RowData::zeros(cols);
                all.invert();
                all
            }
            k if k <= fan_in => planes.pop().expect("jcap == k1 planes were built"),
            _ => RowData::zeros(cols),
        };
        let words = out.as_words_mut();

        // Exact evaluation of the (rare) ambiguous columns: the band
        // "at least k0_excl ones, not certainly 1", word by word.
        if k0_excl < k1 && k0_excl <= fan_in {
            let geometry = &self.config.geometry;
            let mut cells: Vec<(u64, bool)> = operands
                .iter()
                .map(|a| (a.to_linear(geometry), false))
                .collect();
            for (w, out_word) in words.iter_mut().enumerate() {
                let at_least = match k0_excl {
                    0 if w + 1 == nw => tail,
                    0 => u64::MAX,
                    j => planes[j - 1].as_words()[w],
                };
                let mut m = at_least & !*out_word;
                while m != 0 {
                    let bit = m.trailing_zeros();
                    m &= m - 1;
                    for (slot, row) in cells.iter_mut().zip(&rows) {
                        slot.1 = row.get(w).is_some_and(|&word| word >> bit & 1 == 1);
                    }
                    let col = w as u64 * 64 + u64::from(bit);
                    if sa.sense_column_physical(&margin, model, event, global, &cells, col) {
                        *out_word |= 1 << bit;
                    }
                }
            }
        }

        // Transient latch flips, straight from the event's geometric chain.
        let p = model.transient_flip_probability(mode);
        for col in event.transient_flips(p, cols) {
            words[(col / 64) as usize] ^= 1 << (col % 64);
        }
        out
    }

    /// The per-cell reference sense path, the oracle the packed path is
    /// pinned against: every column resolves each operand cell's health by
    /// point query, runs the shared column evaluator, and walks the
    /// transient-flip chain in column lockstep. O(cols × fan-in).
    fn sense_physical_reference(
        &self,
        operands: &[RowAddr],
        mode: SenseMode,
        cols: u64,
        model: &FaultModel,
        event: &EventKey,
    ) -> RowData {
        let geometry = &self.config.geometry;
        let rows: Vec<(u64, RowData, u64)> = operands
            .iter()
            .map(|&a| (a.to_linear(geometry), self.load(a, cols), self.row_wear(a)))
            .collect();
        let sa = self.sense_amp.as_ref().expect("resistive technology");
        let tech = &self.config.technology;
        let margin = sa.margin(mode);
        let global = model.event_global(tech, event);
        let p = model.transient_flip_probability(mode);
        let mut flips = event.transient_flips(p, cols).peekable();
        let mut cells = Vec::with_capacity(rows.len());
        (0..cols)
            .map(|bit| {
                cells.clear();
                for (key, row, wear) in &rows {
                    let effective = match model.cell_health(CellId::new(*key, bit), *wear) {
                        CellHealth::StuckAt(v) => v,
                        CellHealth::Healthy => row.get(bit),
                    };
                    cells.push((*key, effective));
                }
                let sensed = sa.sense_column_physical(&margin, model, event, global, &cells, bit);
                sensed != flips.next_if(|&f| f == bit).is_some()
            })
            .collect()
    }

    /// Fires the write drivers against the real (possibly defective)
    /// cells as one counter-keyed write event, stores what the cells
    /// actually hold, and returns how many bits landed wrong. Dispatches
    /// to the packed or reference commit like [`MainMemory::sense_physical`].
    pub(super) fn store_physical(
        &mut self,
        addr: RowAddr,
        data: &RowData,
        source: WriteSource,
    ) -> u64 {
        self.dirty.fault.insert(addr.channel);
        let state = self
            .fault
            .get_mut(&addr.channel)
            .expect("fault injection enabled");
        let model = *state.model();
        let event = state.next_event();
        let stored = if self.config.reference_fault_path {
            let key = addr.to_linear(&self.config.geometry);
            let writes = self.pulse_wear(addr);
            self.store_physical_reference(key, data, source, &model, &event, writes)
        } else {
            self.store_physical_packed(addr, data, &model, &event)
        };
        self.stats.reliability.physical_writes += 1;
        let bad = stored.count_diff(data);
        self.store(addr, stored);
        bad
    }

    /// The wear a write's cells see: the pulse in flight stresses them on
    /// top of the writes charged so far (row-level wear stands in for
    /// per-cell counts).
    fn pulse_wear(&self, addr: RowAddr) -> u64 {
        self.row_wear(addr) + 1
    }

    /// Packed write commit: the whole row is `data XOR write-flip chain`,
    /// then the sparse fault sites override their columns (stuck cells
    /// ignore the pulse entirely). O(words + flips + fault sites); the
    /// site cache is not consulted when the model cannot create a site.
    fn store_physical_packed(
        &mut self,
        addr: RowAddr,
        data: &RowData,
        model: &FaultModel,
        event: &EventKey,
    ) -> RowData {
        let bits = data.len_bits();
        let mut stored = data.clone();
        let words = stored.as_words_mut();
        for col in event.write_flips(model.write_flip, bits) {
            words[(col / 64) as usize] ^= 1 << (col % 64);
        }
        if model.has_fault_sites() {
            let key = addr.to_linear(&self.config.geometry);
            let writes = self.pulse_wear(addr);
            for &(bit, value) in row_sites(&mut self.fault_sites, model, key, writes, bits) {
                stored.set(bit, value);
            }
        }
        stored
    }

    /// Per-cell reference write commit: each column drives its bit,
    /// resolves the cell's health by point query, and commits through
    /// [`pinatubo_nvm::write_driver::DrivenBit::committed`] with the same
    /// flip chain walked in column lockstep.
    fn store_physical_reference(
        &self,
        key: u64,
        data: &RowData,
        source: WriteSource,
        model: &FaultModel,
        event: &EventKey,
        writes: u64,
    ) -> RowData {
        let driver = WriteDriver::new(&self.config.technology);
        let bits = data.len_bits();
        let mut flips = event.write_flips(model.write_flip, bits).peekable();
        (0..bits)
            .map(|bit| {
                let flipped = flips.next_if(|&f| f == bit).is_some();
                let driven = driver.drive(source, data.get(bit));
                match model.cell_health(CellId::new(key, bit), writes) {
                    CellHealth::StuckAt(v) => v,
                    CellHealth::Healthy => driven.committed(flipped),
                }
            })
            .collect()
    }
}
