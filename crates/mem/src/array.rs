//! Packed bit storage for rows.
//!
//! The circuit layer reasons about single cells; the architecture layer
//! needs whole 2^19-bit rows. [`RowData`] packs bits into `u64` words so
//! the functional part of a bulk operation is a word-wise loop: the
//! controller builds a multi-row sense in one blocked pass over the stored
//! words, and a popcount uses the host's AVX2 and POPCNT instructions
//! where it has them (detected at run time). Cross-checking tests in the
//! controller module pin the word-wise results against per-cell sensing
//! and a per-bit combine; a test here pins both popcount paths against a
//! per-bit count.

use std::fmt;

/// The contents of one logical row: a packed little-endian bit vector.
///
/// Bit `i` lives in word `i / 64`, position `i % 64`. A `RowData` tracks
/// its own length in bits; the memory controller zero-extends or truncates
/// against the geometry's row width at the array boundary.
///
/// # Example
///
/// ```
/// use pinatubo_mem::RowData;
///
/// let mut a = RowData::from_bits(&[true, false, true, true]);
/// let b = RowData::from_bits(&[true, true, false, true]);
/// a.or_assign(&b);
/// assert_eq!(a.bits(4), vec![true, true, true, true]);
/// assert_eq!(a.count_ones(), 4);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct RowData {
    words: Vec<u64>,
    len_bits: u64,
}

impl RowData {
    /// An all-zero row of `len_bits` bits.
    #[must_use]
    pub fn zeros(len_bits: u64) -> Self {
        RowData {
            words: vec![0; len_bits.div_ceil(64) as usize],
            len_bits,
        }
    }

    /// A row built from individual bits, packed a word at a time.
    #[must_use]
    pub fn from_bits(bits: &[bool]) -> Self {
        let words = bits
            .chunks(64)
            .map(|chunk| {
                chunk
                    .iter()
                    .enumerate()
                    .fold(0u64, |w, (i, &b)| w | (u64::from(b) << i))
            })
            .collect();
        RowData {
            words,
            len_bits: bits.len() as u64,
        }
    }

    /// A row built from pre-packed words; `len_bits` may be shorter than
    /// the words provide, in which case trailing bits are masked off.
    ///
    /// # Panics
    ///
    /// Panics if the words hold fewer than `len_bits` bits.
    #[must_use]
    pub fn from_words(words: Vec<u64>, len_bits: u64) -> Self {
        assert!(
            words.len() as u64 * 64 >= len_bits,
            "{} words cannot hold {len_bits} bits",
            words.len()
        );
        let mut row = RowData { words, len_bits };
        row.words.truncate(len_bits.div_ceil(64) as usize);
        row.mask_tail();
        row
    }

    /// Length in bits.
    #[must_use]
    pub fn len_bits(&self) -> u64 {
        self.len_bits
    }

    /// Whether the row has zero length.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len_bits == 0
    }

    /// The packed words.
    #[must_use]
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable access to the packed words, for sparse in-place patching
    /// (fault sites, flip chains). Callers must not set bits beyond
    /// `len_bits` — the tail mask is their contract to preserve.
    pub(crate) fn as_words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn get(&self, i: u64) -> bool {
        assert!(
            i < self.len_bits,
            "bit {i} out of bounds ({})",
            self.len_bits
        );
        self.words[(i / 64) as usize] >> (i % 64) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn set(&mut self, i: u64, value: bool) {
        assert!(
            i < self.len_bits,
            "bit {i} out of bounds ({})",
            self.len_bits
        );
        let word = &mut self.words[(i / 64) as usize];
        if value {
            *word |= 1 << (i % 64);
        } else {
            *word &= !(1 << (i % 64));
        }
    }

    /// The first `n` bits as booleans (for tests and small examples),
    /// unpacked a word at a time.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the length.
    #[must_use]
    pub fn bits(&self, n: u64) -> Vec<bool> {
        assert!(n <= self.len_bits, "{n} bits out of {}", self.len_bits);
        let mut out = Vec::with_capacity(n as usize);
        for &word in &self.words {
            if out.len() as u64 >= n {
                break;
            }
            let take = (n - out.len() as u64).min(64);
            out.extend((0..take).map(|i| word >> i & 1 == 1));
        }
        out
    }

    /// Population count.
    #[must_use]
    pub fn count_ones(&self) -> u64 {
        popcount(&self.words)
    }

    /// Population count of the first `n` bits (the row zero-extended if
    /// shorter than `n`). Word-wise, so counting a prefix of a stored row
    /// needs neither a clone nor a resize.
    #[must_use]
    pub fn count_ones_prefix(&self, n: u64) -> u64 {
        if n >= self.len_bits {
            return self.count_ones();
        }
        let full = (n / 64) as usize;
        let mut out = popcount(&self.words[..full]);
        if n % 64 != 0 {
            let mask = (1u64 << (n % 64)) - 1;
            out += u64::from((self.words[full] & mask).count_ones());
        }
        out
    }

    /// The number of bit positions where `self` and `other` differ, the
    /// shorter row treated as zero-extended. Word-wise over the shared
    /// words, then the longer row's tail; equal words, the common case
    /// for a sensed row against its truth, cost one compare.
    #[must_use]
    pub fn count_diff(&self, other: &RowData) -> u64 {
        let (long, short) = if self.words.len() >= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        let (head, tail) = long.split_at(short.len());
        let shared: u64 = head
            .iter()
            .zip(short)
            .filter(|(a, b)| a != b)
            .map(|(a, b)| u64::from((a ^ b).count_ones()))
            .sum();
        shared + tail.iter().map(|w| u64::from(w.count_ones())).sum::<u64>()
    }

    /// Grows or shrinks to `len_bits`, zero-filling new bits.
    pub fn resize(&mut self, len_bits: u64) {
        self.words.resize(len_bits.div_ceil(64) as usize, 0);
        self.len_bits = len_bits;
        self.mask_tail();
    }

    /// `self |= other`, over the shorter of the two lengths.
    pub fn or_assign(&mut self, other: &RowData) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
        self.mask_tail();
    }

    /// `self &= other`, over the shorter of the two lengths. Bits beyond
    /// `other`'s length are cleared (an AND with absent data is 0).
    pub fn and_assign(&mut self, other: &RowData) {
        let shared = self.words.len().min(other.words.len());
        for (a, b) in self.words[..shared].iter_mut().zip(&other.words) {
            *a &= b;
        }
        for a in &mut self.words[shared..] {
            *a = 0;
        }
        self.mask_tail();
    }

    /// `self ^= other`, over the shorter of the two lengths.
    pub fn xor_assign(&mut self, other: &RowData) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= b;
        }
        self.mask_tail();
    }

    /// Inverts every bit in place.
    pub fn invert(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_tail();
    }

    /// Clears bits beyond `len_bits` in the last word so that equality,
    /// popcount and inversion behave as if the row were exactly
    /// `len_bits` long.
    fn mask_tail(&mut self) {
        let tail = self.len_bits % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

/// The population count of a word slice, through the host's AVX2 and
/// POPCNT instructions where it has both, else the portable loop. The
/// features are detected at run time, so a build for the default target
/// still uses them.
fn popcount(words: &[u64]) -> u64 {
    popcount_simd(words).unwrap_or_else(|| popcount_portable(words))
}

/// The portable word-wise population count. Always inlined, so that the
/// copy in [`popcount_simd`] compiles the loop for the features it
/// enables.
#[inline(always)]
fn popcount_portable(words: &[u64]) -> u64 {
    words.iter().map(|w| u64::from(w.count_ones())).sum()
}

/// [`popcount_portable`] compiled for AVX2 and POPCNT, or `None` where the
/// host lacks either. The crate's one `unsafe` block is the call here.
#[allow(unsafe_code)]
fn popcount_simd(words: &[u64]) -> Option<u64> {
    #[cfg(target_arch = "x86_64")]
    {
        /// # Safety
        ///
        /// The host must support AVX2 and POPCNT.
        #[target_feature(enable = "avx2,popcnt")]
        unsafe fn avx2_popcnt(words: &[u64]) -> u64 {
            popcount_portable(words)
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("popcnt") {
            // SAFETY: `avx2_popcnt` needs only the two target features it
            // enables, and the host was just checked to have both.
            return Some(unsafe { avx2_popcnt(words) });
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = words;
    None
}

impl fmt::Debug for RowData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // A full row is half a megabit; print a digest instead.
        write!(
            f,
            "RowData {{ len_bits: {}, ones: {} }}",
            self.len_bits,
            self.count_ones()
        )
    }
}

impl FromIterator<bool> for RowData {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut words = Vec::new();
        let mut current = 0u64;
        let mut len_bits = 0u64;
        for b in iter {
            current |= u64::from(b) << (len_bits % 64);
            len_bits += 1;
            if len_bits % 64 == 0 {
                words.push(current);
                current = 0;
            }
        }
        if len_bits % 64 != 0 {
            words.push(current);
        }
        RowData { words, len_bits }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_are_empty_of_ones() {
        let r = RowData::zeros(1000);
        assert_eq!(r.len_bits(), 1000);
        assert_eq!(r.count_ones(), 0);
        assert!(!r.is_empty());
        assert!(RowData::zeros(0).is_empty());
    }

    #[test]
    fn set_get_round_trip_across_word_boundaries() {
        let mut r = RowData::zeros(130);
        for i in [0, 63, 64, 65, 127, 128, 129] {
            r.set(i, true);
            assert!(r.get(i), "bit {i}");
        }
        assert_eq!(r.count_ones(), 7);
        r.set(64, false);
        assert!(!r.get(64));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_past_end_panics() {
        let _ = RowData::zeros(10).get(10);
    }

    #[test]
    fn bitwise_ops_match_scalar_semantics() {
        let a_bits = [true, true, false, false, true];
        let b_bits = [true, false, true, false, false];
        let make = |bits: &[bool]| RowData::from_bits(bits);

        let mut or = make(&a_bits);
        or.or_assign(&make(&b_bits));
        let mut and = make(&a_bits);
        and.and_assign(&make(&b_bits));
        let mut xor = make(&a_bits);
        xor.xor_assign(&make(&b_bits));

        for i in 0..5u64 {
            let (a, b) = (a_bits[i as usize], b_bits[i as usize]);
            assert_eq!(or.get(i), a | b);
            assert_eq!(and.get(i), a & b);
            assert_eq!(xor.get(i), a ^ b);
        }
    }

    #[test]
    fn invert_respects_length_mask() {
        let mut r = RowData::zeros(70);
        r.invert();
        assert_eq!(r.count_ones(), 70);
        // Double inversion restores.
        r.invert();
        assert_eq!(r.count_ones(), 0);
    }

    #[test]
    fn and_with_shorter_row_clears_tail() {
        let mut long = RowData::from_bits(&[true; 100]);
        let short = RowData::from_bits(&[true; 64]);
        long.and_assign(&short);
        assert_eq!(long.count_ones(), 64);
        assert!(!long.get(99));
    }

    #[test]
    fn from_words_masks_excess_bits() {
        let r = RowData::from_words(vec![u64::MAX], 3);
        assert_eq!(r.count_ones(), 3);
        assert_eq!(r.len_bits(), 3);
    }

    #[test]
    fn resize_zero_fills() {
        let mut r = RowData::from_bits(&[true, true]);
        r.resize(100);
        assert_eq!(r.count_ones(), 2);
        r.resize(1);
        assert_eq!(r.count_ones(), 1);
    }

    #[test]
    fn collects_from_iterator() {
        let r: RowData = [true, false, true].into_iter().collect();
        assert_eq!(r.bits(3), vec![true, false, true]);
    }

    #[test]
    fn word_wise_construction_matches_per_bit_semantics() {
        // Non-multiple-of-64 length crossing two word boundaries.
        let pattern: Vec<bool> = (0..150u64).map(|i| i % 3 == 0 || i % 7 == 0).collect();
        let from_slice = RowData::from_bits(&pattern);
        let from_iter: RowData = pattern.iter().copied().collect();
        assert_eq!(from_slice, from_iter);
        assert_eq!(from_slice.len_bits(), 150);
        for (i, &b) in pattern.iter().enumerate() {
            assert_eq!(from_slice.get(i as u64), b, "bit {i}");
        }
        assert_eq!(from_slice.bits(150), pattern);
        assert_eq!(from_slice.bits(70), pattern[..70]);
    }

    #[test]
    fn count_diff_is_the_xor_popcount() {
        let a = RowData::from_bits(&[true, false, true, false, true]);
        let b = RowData::from_bits(&[true, true, true, true, false]);
        assert_eq!(a.count_diff(&b), 3);
        assert_eq!(a.count_diff(&a), 0);
        // Shorter row zero-extends.
        let long = RowData::from_bits(&[true; 100]);
        let short = RowData::from_bits(&[true; 64]);
        assert_eq!(long.count_diff(&short), 36);
        assert_eq!(short.count_diff(&long), 36);
    }

    #[test]
    fn count_diff_matches_a_per_bit_count_on_random_rows() {
        let mut rng = pinatubo_nvm::rng::SimRng::seed_from_u64(0xD1FF);
        // Unequal lengths, neither a multiple of 64.
        let len = |rng: &mut pinatubo_nvm::rng::SimRng| {
            64 * rng.gen_range_u64(0, 12) + rng.gen_range_u64(1, 64)
        };
        for case in 0..400 {
            let (la, lb) = (len(&mut rng), len(&mut rng));
            if la == lb {
                continue;
            }
            let a: RowData = (0..la).map(|_| rng.gen_bit()).collect();
            // Half the pairs are a near-copy (mostly equal words, a few
            // flips), as a sensed row is of its truth.
            let b: RowData = if case % 2 == 0 {
                let mut b = a.clone();
                b.resize(lb);
                for _ in 0..rng.gen_range_u64(0, 4) {
                    let bit = rng.gen_range_u64(0, lb);
                    b.set(bit, !b.get(bit));
                }
                b
            } else {
                (0..lb).map(|_| rng.gen_bit()).collect()
            };
            let bit = |r: &RowData, i: u64| i < r.len_bits() && r.get(i);
            let per_bit = (0..la.max(lb))
                .filter(|&i| bit(&a, i) != bit(&b, i))
                .count() as u64;
            assert_eq!(a.count_diff(&b), per_bit, "lengths {la}/{lb}");
            assert_eq!(b.count_diff(&a), per_bit, "lengths {lb}/{la}");
        }
    }

    #[test]
    fn popcount_paths_match_a_per_bit_count() {
        let mut rng = pinatubo_nvm::rng::SimRng::seed_from_u64(0x9C0B);
        for len in (0..=300).chain([1 << 19]) {
            let row: RowData = (0..len).map(|_| rng.gen_bit()).collect();
            let per_bit = (0..len).filter(|&i| row.get(i)).count() as u64;
            assert_eq!(row.count_ones(), per_bit, "{len} bits");
            assert_eq!(popcount_portable(row.as_words()), per_bit, "{len} bits");
            // Both paths directly, where the host has the features.
            if let Some(simd) = popcount_simd(row.as_words()) {
                assert_eq!(simd, per_bit, "{len} bits");
            }
        }
        let row: RowData = (0..200).map(|_| rng.gen_bit()).collect();
        for n in 0..=200 {
            let per_bit = (0..n).filter(|&i| row.get(i)).count() as u64;
            assert_eq!(row.count_ones_prefix(n), per_bit, "prefix {n}");
        }
    }

    #[test]
    fn debug_is_a_digest() {
        let r = RowData::from_bits(&[true, true, false]);
        assert_eq!(format!("{r:?}"), "RowData { len_bits: 3, ones: 2 }");
    }
}
