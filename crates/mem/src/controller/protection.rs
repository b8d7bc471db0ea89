//! Read-path protection: the SEC-DED check-byte store and its costs.
//!
//! Under [`ProtectionMode::SecDed`] every write stores the check bytes of
//! the *intended* data, and every single-row read syndrome-checks the
//! sensed words against them: single-bit errors are corrected in place,
//! double-bit errors go to the retry ladder. Wrong bits a read accepts are
//! charged to the silent-corruption ledger, and the encoder and checker
//! are charged their time and energy.

use super::{MainMemory, ProtectionMode};
use crate::address::RowAddr;
use crate::array::RowData;
use crate::MemError;
use pinatubo_nvm::sense_amp::SenseMode;

/// Whole-row verdict of one SEC-DED syndrome pass
/// ([`MainMemory::secded_scan`]).
#[derive(Debug, PartialEq, Eq)]
enum SecdedScan {
    /// Every checkable word decoded clean.
    Clean,
    /// Some words carried single-bit errors, all corrected in place.
    Corrected {
        /// Data bits flipped back.
        bits: u64,
        /// Ascending indices of the corrected words (their divergence
        /// from the functional truth is repair, not silent corruption).
        words: Vec<usize>,
    },
    /// At least one word decoded as an uncorrectable double-bit error.
    Double,
}

impl MainMemory {
    /// The SEC-DED read path: syndrome-check (and correct) the sensed
    /// data against the row's stored check bytes. Single-bit-per-word
    /// errors are fixed in place without any retry-ladder involvement; a
    /// double-bit word sends the whole read through the re-calibrated
    /// retry loop (a *transient* double may sense clean next time), and
    /// only a persistently uncorrectable row surfaces as an error.
    pub(super) fn secded_read(
        &mut self,
        addr: RowAddr,
        cols: u64,
        mut data: RowData,
        truth: &RowData,
    ) -> Result<RowData, MemError> {
        match self.secded_scan(addr, &mut data) {
            SecdedScan::Clean => {
                self.note_accepted(truth, &data);
                Ok(data)
            }
            SecdedScan::Corrected { bits, words } => {
                self.stats.reliability.detected_errors += 1;
                self.stats.reliability.corrected_errors += 1;
                self.stats.reliability.ecc_corrected_bits += bits;
                self.note_accepted_outside(truth, &data, &words);
                Ok(data)
            }
            SecdedScan::Double => {
                self.stats.reliability.detected_errors += 1;
                self.stats.reliability.ecc_detected_double += 1;
                for _ in 0..self.config.reliability.max_sense_retries {
                    self.stats.reliability.sense_retries += 1;
                    self.charge_recalibration();
                    let operands = [addr];
                    let mut again = self.multi_activate_sense(&operands, SenseMode::Read, cols)?;
                    self.charge_ecc_check(cols);
                    match self.secded_scan(addr, &mut again) {
                        SecdedScan::Clean => {
                            self.stats.reliability.corrected_errors += 1;
                            self.note_accepted(truth, &again);
                            return Ok(again);
                        }
                        SecdedScan::Corrected { bits, words } => {
                            self.stats.reliability.corrected_errors += 1;
                            self.stats.reliability.ecc_corrected_bits += bits;
                            self.note_accepted_outside(truth, &again, &words);
                            return Ok(again);
                        }
                        SecdedScan::Double => {}
                    }
                }
                self.stats.reliability.uncorrectable_errors += 1;
                Err(MemError::UncorrectableRead { addr })
            }
        }
    }

    /// [`MainMemory::note_accepted`] restricted to the words *outside*
    /// `skip_words` (ascending indices). After a SEC-DED correction the
    /// corrected words match the intended data by construction — any
    /// divergence from the functional `truth` there is repaired storage
    /// corruption, not a silent escape — so only words the syndrome
    /// called clean can hide aliased wrong bits.
    fn note_accepted_outside(&mut self, truth: &RowData, out: &RowData, skip_words: &[usize]) {
        let diff: u64 = out
            .as_words()
            .iter()
            .zip(truth.as_words())
            .enumerate()
            .filter(|(w, _)| skip_words.binary_search(w).is_err())
            .map(|(_, (a, b))| u64::from((a ^ b).count_ones()))
            .sum();
        self.stats.reliability.silent_wrong_bits += diff;
    }

    /// One packed SEC-DED check byte per 64-bit data word: word `i`'s
    /// byte sits at byte `i % 8` of metadata word `i / 8`.
    fn secded_check_bytes(data: &RowData) -> Vec<u64> {
        let words = data.as_words();
        let mut out = vec![0u64; words.len().div_ceil(8)];
        for (i, &w) in words.iter().enumerate() {
            out[i / 8] |= u64::from(crate::secded::encode(w)) << ((i % 8) * 8);
        }
        out
    }

    /// Accounts the wrong bits an unverified (or verify-accepted-anyway)
    /// store left behind, by modeling what a later noise-free read would
    /// accept. With no protection every bad bit is silent. With SEC-DED,
    /// single-bit words are corrected back to the intended data (nothing
    /// silent), a double-bit word makes the whole row fail explicitly at
    /// read time (nothing silent), and only ≥3-flip words that alias or
    /// miscorrect the code charge their residual wrong bits.
    pub(super) fn note_unverified_store(&mut self, addr: RowAddr, intended: &RowData, bad: u64) {
        if bad == 0 {
            return;
        }
        let silent = match self.config.reliability.protection {
            ProtectionMode::None => Some(bad),
            ProtectionMode::SecDed => self
                .peek_row(addr)
                .and_then(|actual| Self::secded_escape_bits(intended, actual)),
        };
        if let Some(bits) = silent {
            self.stats.reliability.silent_wrong_bits += bits;
        }
    }

    /// The wrong bits a noise-free SEC-DED read of `actual` (decoded
    /// against the check bytes of `intended`) would silently accept, or
    /// `None` when some word decodes as a double-bit error — then the
    /// read deterministically fails explicit instead, and nothing is
    /// silent.
    fn secded_escape_bits(intended: &RowData, actual: &RowData) -> Option<u64> {
        let mut wrong = 0u64;
        for (&want, &have) in intended.as_words().iter().zip(actual.as_words()) {
            if want == have {
                continue;
            }
            let mut accepted = have;
            match crate::secded::decode(have, crate::secded::encode(want)) {
                crate::secded::Decode::Double => return None,
                verdict => {
                    let _ = crate::secded::correct(&mut accepted, verdict);
                }
            }
            wrong += u64::from((accepted ^ want).count_ones());
        }
        Some(wrong)
    }

    /// Stores the protection metadata of the *intended* data alongside a
    /// write (SEC-DED check bytes, see [`ProtectionMode`]), so a later
    /// read of cells that silently failed to program sees a syndrome. The
    /// metadata array itself is modeled as reliable (a real design would
    /// protect it with stronger coding).
    pub(super) fn record_protection(&mut self, addr: RowAddr, data: &RowData) {
        let meta = match self.config.reliability.protection {
            ProtectionMode::None => return,
            ProtectionMode::SecDed => Self::secded_check_bytes(data),
        };
        self.dirty.protect.insert(addr);
        self.protect.insert(addr, (data.len_bits(), meta));
    }

    /// How many leading words of a sensed row are fully determined on
    /// both sides of a protection check: all stored words when the read
    /// covers the whole row (sensing zero-extends, matching the
    /// zero-padded stored tail), otherwise only the complete words read.
    fn checkable_words(stored_bits: u64, cols: u64) -> u64 {
        if cols >= stored_bits {
            stored_bits.div_ceil(64)
        } else {
            cols / 64
        }
    }

    /// Syndrome-checks (and corrects) sensed data in place against the
    /// row's stored SEC-DED check bytes. Any word decoding as a
    /// double-bit error fails the whole row — corrections applied to
    /// earlier words are irrelevant then, the caller discards the buffer
    /// and re-senses. Rows never written have no metadata and pass
    /// vacuously. A corrected bit beyond the sensed width (only reachable
    /// through a ≥3-flip miscorrection naming a zero-padded tail column)
    /// is a no-op on the nonexistent column, exactly as the hardware's
    /// column mux would treat it.
    fn secded_scan(&self, addr: RowAddr, data: &mut RowData) -> SecdedScan {
        let Some((stored_bits, check_bytes)) = self.protect.get(&addr) else {
            return SecdedScan::Clean;
        };
        let cols = data.len_bits();
        let checkable = Self::checkable_words(*stored_bits, cols) as usize;
        let mut bits = 0u64;
        let mut corrected = Vec::new();
        let words = data.as_words_mut();
        for (w, word) in words.iter_mut().enumerate().take(checkable) {
            let check = (check_bytes.get(w / 8).copied().unwrap_or(0) >> ((w % 8) * 8)) as u8;
            match crate::secded::decode(*word, check) {
                crate::secded::Decode::Clean => {}
                crate::secded::Decode::Double => return SecdedScan::Double,
                crate::secded::Decode::Single(bit) => {
                    if let Some(bit) = bit {
                        if (w as u64) * 64 + u64::from(bit) < cols {
                            *word ^= 1u64 << bit;
                            bits += 1;
                        }
                    }
                    corrected.push(w);
                }
            }
        }
        if corrected.is_empty() {
            SecdedScan::Clean
        } else {
            SecdedScan::Corrected {
                bits,
                words: corrected,
            }
        }
    }

    /// One SEC-DED syndrome pass over a sensed row: the stored check
    /// bytes are sensed through the column path (12.5 % more bits —
    /// `CHECK_BITS_PER_WORD` per 64 data bits, the code's real storage
    /// overhead) and the syndrome XOR tree evaluates. Charged into the
    /// dedicated ECC time/energy buckets so the ladder-vs-ECC comparison
    /// can read the overhead directly.
    pub(super) fn charge_ecc_check(&mut self, bits: u64) {
        let t = self.config.timing.t_ecc_ns;
        self.stats.time_ns += t;
        self.stats.time.ecc_ns += t;
        let check_bits = bits.div_ceil(64) * crate::secded::CHECK_BITS_PER_WORD;
        self.stats.energy.ecc_pj +=
            self.config.energy.sense_pj(check_bits) + self.config.energy.ecc_pj(bits);
    }

    /// Encoding rides every charged SEC-DED write: the XOR tree computes
    /// the check bytes and the write drivers program the extra 12.5 % of
    /// cells holding them.
    pub(super) fn charge_ecc_encode(&mut self, bits: u64) {
        let t = self.config.timing.t_ecc_ns;
        self.stats.time_ns += t;
        self.stats.time.ecc_ns += t;
        let check_bits = bits.div_ceil(64) * crate::secded::CHECK_BITS_PER_WORD;
        self.stats.energy.ecc_pj +=
            self.config.energy.write_pj(check_bits) + self.config.energy.ecc_pj(bits);
    }
}
