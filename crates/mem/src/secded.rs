//! (72,64) Hamming SEC-DED code, one check byte per 64-bit data word.
//!
//! Classic extended-Hamming construction: codeword positions `1..=71`
//! carry the 64 data bits at the non-power-of-two positions and seven
//! Hamming check bits at positions `1, 2, 4, …, 64`; an eighth overall
//! parity bit extends the minimum distance to 4, so every single-bit
//! error is *correctable* (the syndrome names its codeword position) and
//! every double-bit error is *detectable* (non-zero syndrome with even
//! overall parity). Three or more flips can alias a single- or zero-error
//! syndrome — the code's own blind spot, far narrower than parity's
//! (any even number of flips).
//!
//! The packed encoder works word-at-a-time: check bit `j` is the parity
//! of the data word ANDed with a precomputed coverage mask, so encoding
//! a word costs seven AND+popcount pairs instead of 64 per-bit loop
//! iterations — the same bit-sliced idiom as the PR 4 fault path. A
//! naive per-bit implementation ([`encode_reference`] /
//! [`decode_reference`]) is kept as the oracle the property tests pin
//! the packed path against.

/// Number of check bits stored per 64-bit data word (7 Hamming + 1
/// overall parity): the code's 12.5 % storage overhead.
pub const CHECK_BITS_PER_WORD: u64 = 8;

/// Codeword position of data bit `i`: the `(i+1)`-th position in
/// `1..=71` that is not a power of two.
const fn data_positions() -> [u8; 64] {
    let mut out = [0u8; 64];
    let mut pos: u8 = 1;
    let mut i = 0;
    while i < 64 {
        if !pos.is_power_of_two() {
            out[i] = pos;
            i += 1;
        }
        pos += 1;
    }
    out
}

/// Inverse of [`data_positions`]: data bit index at codeword position
/// `p`, or `-1` for check-bit and invalid positions.
const fn position_data_bits() -> [i8; 128] {
    let mut out = [-1i8; 128];
    let positions = data_positions();
    let mut i = 0;
    while i < 64 {
        out[positions[i] as usize] = i as i8;
        i += 1;
    }
    out
}

/// Coverage mask for Hamming check bit `j`: bit `i` is set iff data bit
/// `i`'s codeword position has bit `j` set.
const fn coverage_masks() -> [u64; 7] {
    let mut masks = [0u64; 7];
    let positions = data_positions();
    let mut i = 0;
    while i < 64 {
        let mut j = 0;
        while j < 7 {
            if positions[i] & (1 << j) != 0 {
                masks[j] |= 1u64 << i;
            }
            j += 1;
        }
        i += 1;
    }
    masks
}

const DATA_POS: [u8; 64] = data_positions();
const POS_DATA: [i8; 128] = position_data_bits();
const MASKS: [u64; 7] = coverage_masks();

/// What the decoder concluded about one sensed word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decode {
    /// Syndrome clean: the word is accepted as sensed.
    Clean,
    /// Single-bit error. `Some(i)` names the data bit to flip;
    /// `None` means the error sits in a stored check bit (the data
    /// word is already correct).
    Single(Option<u8>),
    /// Double-bit (or syndrome-invalid multi-bit) error: detected but
    /// not correctable — the caller falls back to the retry ladder.
    Double,
}

/// Packed encoder: the check byte for one data word (Hamming bits
/// `c0..=c6` in bits 0–6, overall parity in bit 7). Seven masked
/// popcounts plus one overall popcount — O(1) per word.
#[must_use]
pub fn encode(word: u64) -> u8 {
    let mut check: u8 = 0;
    for (j, mask) in MASKS.iter().enumerate() {
        check |= (((word & mask).count_ones() as u8) & 1) << j;
    }
    // The overall bit covers the data word *and* the seven check bits.
    let overall = (word.count_ones() as u8 + check.count_ones() as u8) & 1;
    check | (overall << 7)
}

/// Decodes a sensed word against its stored check byte.
///
/// The syndrome is the XOR of the recomputed and stored Hamming bits; a
/// mismatching overall parity marks an odd number of flips. With the
/// check store modeled reliable (as the controller models it), data
/// errors always produce a valid data-bit syndrome; the check-bit and
/// invalid-position cases are still classified faithfully so the codec
/// stands on its own.
#[must_use]
pub fn decode(sensed: u64, check: u8) -> Decode {
    let mut syndrome: u8 = 0;
    for (j, mask) in MASKS.iter().enumerate() {
        let recomputed = ((sensed & mask).count_ones() as u8) & 1;
        syndrome |= (recomputed ^ (check >> j & 1)) << j;
    }
    // Stored overall covers data + c0..=c6, so sensed-data parity XOR
    // the parity of the whole stored byte is the overall mismatch.
    let overall = (sensed.count_ones() as u8 + check.count_ones() as u8) & 1 == 1;
    classify(syndrome, overall)
}

/// Shared syndrome classification for the packed and reference decoders.
fn classify(syndrome: u8, overall: bool) -> Decode {
    match (syndrome, overall) {
        (0, false) => Decode::Clean,
        (0, true) => Decode::Single(None), // overall-parity bit itself
        (s, true) => match POS_DATA.get(s as usize) {
            Some(&d) if d >= 0 => Decode::Single(Some(d as u8)),
            _ if s.is_power_of_two() && s <= 64 => Decode::Single(None), // a check bit
            _ => Decode::Double, // invalid position: >= 3 flips detected
        },
        (_, false) => Decode::Double,
    }
}

/// Applies a decode verdict to the sensed word: flips the named data
/// bit on a correctable single, leaves everything else untouched.
/// Returns the number of data bits changed (0 or 1).
#[must_use]
pub fn correct(sensed: &mut u64, verdict: Decode) -> u64 {
    match verdict {
        Decode::Single(Some(bit)) => {
            *sensed ^= 1u64 << bit;
            1
        }
        _ => 0,
    }
}

/// Per-bit reference encoder: builds the 72-position codeword cell by
/// cell, exactly as a per-cell datapath would. Pinned equal to
/// [`encode`] by the property tests; not used on any hot path.
#[must_use]
pub fn encode_reference(word: u64) -> u8 {
    let mut check: u8 = 0;
    for j in 0..7u8 {
        let mut parity = 0u8;
        for (i, &pos) in DATA_POS.iter().enumerate() {
            if pos & (1 << j) != 0 {
                parity ^= (word >> i & 1) as u8;
            }
        }
        check |= parity << j;
    }
    let mut overall = 0u8;
    for i in 0..64 {
        overall ^= (word >> i & 1) as u8;
    }
    for j in 0..7 {
        overall ^= check >> j & 1;
    }
    check | (overall << 7)
}

/// Per-bit reference decoder: walks every codeword position,
/// accumulating the syndrome as the XOR of the positions whose parity
/// group fails — the textbook per-cell formulation. Pinned equal to
/// [`decode`] by the property tests.
#[must_use]
pub fn decode_reference(sensed: u64, check: u8) -> Decode {
    // XOR of the positions of all set codeword bits is 0 for a valid
    // codeword (each syndrome bit j is group j's parity), so folding
    // set-bit positions yields the error syndrome directly.
    let mut syndrome: u8 = 0;
    let mut ones: u8 = 0;
    for (i, &pos) in DATA_POS.iter().enumerate() {
        if sensed >> i & 1 == 1 {
            syndrome ^= pos;
            ones ^= 1;
        }
    }
    for j in 0..7u8 {
        if check >> j & 1 == 1 {
            syndrome ^= 1 << j;
            ones ^= 1;
        }
    }
    let overall = ones ^ (check >> 7) == 1;
    classify(syndrome, overall)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64 — a throwaway deterministic word generator for the
    /// exhaustive-ish sweeps (the workspace PRNG lives upstream in
    /// `pinatubo_core`, which depends on this crate).
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn sample_words() -> Vec<u64> {
        let mut words = vec![0, u64::MAX, 1, 1 << 63, 0xAAAA_AAAA_AAAA_AAAA];
        let mut s = 0x5EED;
        words.extend((0..64).map(|_| splitmix(&mut s)));
        words
    }

    #[test]
    fn tables_are_a_valid_hamming_layout() {
        // 64 distinct non-power-of-two positions in 1..=71, invertible.
        for (i, &pos) in DATA_POS.iter().enumerate() {
            assert!((3..=71).contains(&pos) && !pos.is_power_of_two());
            assert_eq!(POS_DATA[pos as usize], i as i8);
        }
        for p in [1usize, 2, 4, 8, 16, 32, 64, 0, 72, 127] {
            assert_eq!(POS_DATA[p], -1);
        }
    }

    #[test]
    fn packed_encode_matches_reference() {
        for word in sample_words() {
            assert_eq!(encode(word), encode_reference(word), "word {word:#x}");
        }
    }

    #[test]
    fn clean_words_decode_clean() {
        for word in sample_words() {
            let check = encode(word);
            assert_eq!(decode(word, check), Decode::Clean);
            assert_eq!(decode_reference(word, check), Decode::Clean);
        }
    }

    #[test]
    fn every_single_flip_is_corrected() {
        for word in sample_words() {
            let check = encode(word);
            for bit in 0..64 {
                let mut sensed = word ^ (1u64 << bit);
                let verdict = decode(sensed, check);
                assert_eq!(verdict, Decode::Single(Some(bit as u8)));
                assert_eq!(decode_reference(sensed, check), verdict);
                assert_eq!(correct(&mut sensed, verdict), 1);
                assert_eq!(sensed, word);
            }
        }
    }

    #[test]
    fn every_double_flip_is_detected() {
        for word in [0u64, u64::MAX, 0x0123_4567_89AB_CDEF] {
            let check = encode(word);
            for a in 0..64 {
                for b in (a + 1)..64 {
                    let sensed = word ^ (1u64 << a) ^ (1u64 << b);
                    assert_eq!(decode(sensed, check), Decode::Double, "flips {a},{b}");
                    assert_eq!(decode_reference(sensed, check), Decode::Double);
                }
            }
        }
    }

    #[test]
    fn check_bit_errors_leave_data_untouched() {
        let word = 0xDEAD_BEEF_CAFE_F00D;
        let check = encode(word);
        for j in 0..8 {
            let verdict = decode(word, check ^ (1 << j));
            assert_eq!(verdict, Decode::Single(None), "check bit {j}");
            assert_eq!(decode_reference(word, check ^ (1 << j)), verdict);
            let mut sensed = word;
            assert_eq!(correct(&mut sensed, verdict), 0);
            assert_eq!(sensed, word);
        }
    }

    #[test]
    fn even_parity_aliasing_flips_do_not_alias_secded() {
        // Double flips inside one word keep per-word parity happy — the
        // documented parity blind spot — but always raise Double here.
        let mut s = 0xA11A5;
        for _ in 0..256 {
            let word = splitmix(&mut s);
            let a = (splitmix(&mut s) % 64) as u32;
            let b = (splitmix(&mut s) % 64) as u32;
            if a == b {
                continue;
            }
            let sensed = word ^ (1u64 << a) ^ (1u64 << b);
            assert_eq!(sensed.count_ones() & 1, word.count_ones() & 1);
            assert_eq!(decode(sensed, encode(word)), Decode::Double);
        }
    }
}
