//! Read-path protection: the SEC-DED check, escape accounting and ECC
//! charges.
//!
//! Under [`ProtectionMode::SecDed`] every single-row read syndrome-checks
//! the sensed words against the check bytes of the *intended* data:
//! single-bit errors are corrected in place, double-bit errors go to the
//! retry ladder. Wrong bits a read accepts are charged to the
//! silent-corruption ledger, and the encoder and checker are charged
//! their time and energy on every write and read.
//!
//! The check bytes themselves are never stored. They are a function of
//! the intended words, and for almost every row the intended data is the
//! stored row: a write that left every cell as driven stores exactly
//! what it was asked to. Only a write that left cells differing from the
//! data (an unverified store or poke with wrong bits, or a write that ran
//! out of retries) keeps the intended image, in `MainMemory::protect`. A
//! read compares each sensed word with its intended word and decodes only
//! the words that differ, against `secded::encode` of the intended word:
//! an equal word decodes clean (`encode(w) ^ encode(w) == 0`), so this
//! gives exactly the verdicts and corrections of decoding every word
//! against stored check bytes.

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
    /// data against the check bytes of the row's intended data.
    /// Single-bit-per-word errors are fixed in place without any
    /// retry-ladder involvement; a double-bit word sends the whole read
    /// through the re-calibrated retry loop (a *transient* double may
    /// sense clean next time), and only a persistently uncorrectable row
    /// surfaces as an error.
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
                    let mut again = self.reactivate_sense(&[addr], SenseMode::Read, cols, truth)?;
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
    /// `skip_words` (distinct indices). After a SEC-DED correction the
    /// corrected words match the intended data by construction — any
    /// divergence from the functional `truth` there is repaired storage
    /// corruption, not a silent escape — so only words the syndrome
    /// called clean can hide aliased wrong bits. Counted as the whole-row
    /// diff less the skipped words' share.
    fn note_accepted_outside(&mut self, truth: &RowData, out: &RowData, skip_words: &[usize]) {
        let word = |row: &RowData, w: usize| row.as_words().get(w).copied().unwrap_or(0);
        let repaired: u64 = skip_words
            .iter()
            .map(|&w| u64::from((word(out, w) ^ word(truth, w)).count_ones()))
            .sum();
        self.stats.reliability.silent_wrong_bits += out.count_diff(truth) - repaired;
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

    /// Records what a write that left `bad` cells differing from the
    /// intended `data` means for later checks, after the write has
    /// stored its cells. A write with wrong bits keeps `data` as the
    /// row's intended image, so a later read of the cells that silently
    /// failed to program sees a syndrome. A clean write stored exactly
    /// `data`, which is then the intended image itself: it only drops an
    /// image an earlier write kept. Nothing is encoded here (the modeled
    /// encoder is charged by the write), and the kept images are modeled
    /// as reliable, as a real design would protect its check-bit store
    /// with stronger coding.
    pub(super) fn record_protection(&mut self, addr: RowAddr, data: &RowData, bad: u64) {
        if self.config.reliability.protection == ProtectionMode::None {
            return;
        }
        if bad > 0 {
            self.protect.insert(addr, data.clone());
            self.dirty.protect.insert(addr);
            return;
        }
        debug_assert!(
            self.peek_row(addr) == Some(data),
            "a row kept without an intended image must hold exactly the bits just written"
        );
        if self.protect.remove(&addr).is_some() {
            self.dirty.protect.insert(addr);
        }
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
    /// check bytes of the row's intended data: its kept image if a write
    /// left wrong bits, else the stored row. Only sensed words that differ
    /// from their intended word are decoded, against `secded::encode` of
    /// that word; an equal word decodes clean. Any word decoding as a
    /// double-bit error fails the whole row — corrections applied to
    /// earlier words are irrelevant then, the caller discards the buffer
    /// and re-senses. Rows never written pass vacuously. A corrected bit
    /// beyond the sensed width (only reachable through a ≥3-flip
    /// miscorrection naming a zero-padded tail column) is a no-op on the
    /// nonexistent column, exactly as the hardware's column mux would
    /// treat it.
    fn secded_scan(&self, addr: RowAddr, data: &mut RowData) -> SecdedScan {
        let Some(intended) = self.protect.get(&addr).or_else(|| self.peek_row(addr)) else {
            return SecdedScan::Clean;
        };
        let cols = data.len_bits();
        let checkable = Self::checkable_words(intended.len_bits(), cols) as usize;
        let mut bits = 0u64;
        let mut corrected = Vec::new();
        let words = data.as_words_mut().iter_mut().zip(intended.as_words());
        for (w, (word, &want)) in words.enumerate().take(checkable) {
            if *word == want {
                continue;
            }
            match crate::secded::decode(*word, crate::secded::encode(want)) {
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
