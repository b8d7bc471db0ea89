//! The physical fault path: fault-injected sensing and writing.
//!
//! Every physical sense or write is one counter-keyed event on its
//! channel's draw stream, resolved by the word-packed fast path (the
//! default) or the per-cell reference path it is pinned against
//! (`MemConfig::reference_fault_path`). Per-row fault sites are cached
//! for the packed path.

use super::MainMemory;
use crate::address::RowAddr;
use crate::array::RowData;
use pinatubo_nvm::fault::{CellHealth, CellId, EventKey, FaultModel};
use pinatubo_nvm::resistance::Ohms;
use pinatubo_nvm::sense_amp::SenseMode;
use pinatubo_nvm::write_driver::{WriteDriver, WriteSource};

/// One cached [`FaultModel::row_fault_sites`] result: the ascending
/// `(bit, held value)` fault sites of a row at a given wear level, over
/// the first `cols` columns.
#[derive(Debug, Clone)]
pub(super) struct CachedRowSites {
    writes: u64,
    cols: u64,
    sites: Vec<(u64, bool)>,
}

impl MainMemory {
    /// The ascending fault sites (stuck + endurance-dead cells) of one row
    /// over its first `cols` columns, cached per row. A cached entry is
    /// reused when its wear level matches and it covers at least `cols`
    /// columns; otherwise it is regenerated from the model.
    fn row_sites(
        &mut self,
        model: &FaultModel,
        row_key: u64,
        writes: u64,
        cols: u64,
    ) -> Vec<(u64, bool)> {
        match self.fault_sites.get(&row_key) {
            Some(c) if c.writes == writes && c.cols >= cols => {}
            _ => {
                let sites = model.row_fault_sites(row_key, writes, cols);
                self.fault_sites.insert(
                    row_key,
                    CachedRowSites {
                        writes,
                        cols,
                        sites,
                    },
                );
            }
        }
        self.fault_sites[&row_key]
            .sites
            .iter()
            .copied()
            .take_while(|&(bit, _)| bit < cols)
            .collect()
    }

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

    /// The O(words + fault sites) sense path. The stored operand words are
    /// patched at their sparse fault sites so they hold the per-cell
    /// *effective* bits, then whole ones-count classes are classified as
    /// certainly-0 / certainly-1 through conservative bit-line resistance
    /// intervals (every residual / drift draw is bounded); only columns in
    /// a class straddling the reference are evaluated through the exact
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
        let mut patched: Vec<(u64, RowData)> = Vec::with_capacity(operands.len());
        for &a in operands {
            let key = a.to_linear(&self.config.geometry);
            let mut row = self.load(a, cols);
            for (bit, value) in self.row_sites(model, key, self.row_wear(a), cols) {
                row.set(bit, value);
            }
            patched.push((key, row));
        }
        let sa = self.sense_amp.as_ref().expect("resistive technology");
        let tech = &self.config.technology;
        let margin = sa.margin(mode);
        let global = model.event_global(tech, event);

        // Conservative per-class intervals: a cell storing `b` contributes
        // a resistance inside `[r_min(b), r_max(b)]` for *every* possible
        // residual and drift draw, so the bit line of a column with `k`
        // effective ones lies inside an interval depending only on `k`.
        let fan_in = patched.len();
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

        // Bit-sliced ones counting: ge[j] marks the columns whose patched
        // ones count is at least j, built word-wise over the operand rows.
        let nw = cols.div_ceil(64) as usize;
        let mut all = vec![u64::MAX; nw];
        if cols % 64 != 0 {
            all[nw - 1] = (1u64 << (cols % 64)) - 1;
        }
        let jcap = k1.min(fan_in);
        let mut ge: Vec<Vec<u64>> = Vec::with_capacity(jcap + 1);
        ge.push(all);
        ge.extend(std::iter::repeat_with(|| vec![0u64; nw]).take(jcap));
        for (i, (_, row)) in patched.iter().enumerate() {
            let rw = row.as_words();
            for j in (1..=jcap.min(i + 1)).rev() {
                let (lo, hi) = ge.split_at_mut(j);
                for ((cur, &prev), &word) in hi[0].iter_mut().zip(&lo[j - 1]).zip(rw) {
                    *cur |= prev & word;
                }
            }
        }
        let mut out = if k1 <= fan_in {
            ge[k1].clone()
        } else {
            vec![0u64; nw]
        };
        let ambiguous: Vec<u64> = if k0_excl < k1 && k0_excl <= fan_in {
            ge[k0_excl]
                .iter()
                .zip(&out)
                .map(|(&a, &b)| a & !b)
                .collect()
        } else {
            vec![0u64; nw]
        };

        // Exact evaluation of the (rare) ambiguous columns.
        let mut cells: Vec<(u64, bool)> = patched.iter().map(|&(key, _)| (key, false)).collect();
        for (w, &mask) in ambiguous.iter().enumerate() {
            let mut m = mask;
            while m != 0 {
                let col = w as u64 * 64 + u64::from(m.trailing_zeros());
                m &= m - 1;
                for (slot, (_, row)) in cells.iter_mut().zip(&patched) {
                    slot.1 = row.get(col);
                }
                if sa.sense_column_physical(&margin, model, event, global, &cells, col) {
                    out[w] |= 1 << (col % 64);
                }
            }
        }

        // Transient latch flips, straight from the event's geometric chain.
        let p = model.transient_flip_probability(mode);
        for col in event.transient_flips(p, cols) {
            out[(col / 64) as usize] ^= 1 << (col % 64);
        }
        RowData::from_words(out, cols)
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
        let key = addr.to_linear(&self.config.geometry);
        // The pulse in flight stresses the cells on top of the wear
        // charged so far (row-level wear stands in for per-cell counts).
        let writes = self.row_wear(addr) + 1;
        let stored = if self.config.reference_fault_path {
            self.store_physical_reference(key, data, source, &model, &event, writes)
        } else {
            self.store_physical_packed(key, data, &model, &event, writes)
        };
        self.stats.reliability.physical_writes += 1;
        let bad = stored.count_diff(data);
        self.store(addr, stored);
        bad
    }

    /// Packed write commit: the whole row is `data XOR write-flip chain`,
    /// then the sparse fault sites override their columns (stuck cells
    /// ignore the pulse entirely). O(words + flips + fault sites).
    fn store_physical_packed(
        &mut self,
        key: u64,
        data: &RowData,
        model: &FaultModel,
        event: &EventKey,
        writes: u64,
    ) -> RowData {
        let bits = data.len_bits();
        let mut stored = data.clone();
        let words = stored.as_words_mut();
        for col in event.write_flips(model.write_flip, bits) {
            words[(col / 64) as usize] ^= 1 << (col % 64);
        }
        for (bit, value) in self.row_sites(model, key, writes, bits) {
            stored.set(bit, value);
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
