//! CRC-32 (IEEE 802.3) over bytes and frame words.
//!
//! One checksum primitive shared by the whole stack: the VBS binary format
//! appends it as a stream footer (format version 2), and the runtime's
//! integrity sidecar keeps one per configuration-memory frame so a readback
//! verify can detect corrupted writes. Verify moved onto the scrub path, so
//! throughput now matters: byte folding runs slice-by-8 (eight table
//! lookups per 64-bit chunk instead of one per byte), and word folding
//! dispatches through [`crate::Kernels`] — slice-by-8 portably, PCLMULQDQ
//! folding where the host has carry-less multiply. Every path is pinned,
//! at every length, against a bitwise CRC-32 that shares no table with this
//! module (`tests/oracle/mod.rs`, used by `tests/kernels_diff.rs`).

use crate::kernels::Kernels;

/// Slice-by-8 lookup tables for the reflected IEEE polynomial
/// (`0xEDB88320`), generated at compile time. `TABLES[0]` is the classic
/// byte-at-a-time table; `TABLES[k]` advances a byte `k` extra positions.
const TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][(t[k - 1][i] & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// Folds one little-endian 64-bit chunk into the raw CRC state with eight
/// parallel table lookups.
#[inline]
fn fold_chunk(crc: u32, chunk: u64) -> u32 {
    let x = chunk ^ crc as u64;
    TABLES[7][(x & 0xff) as usize]
        ^ TABLES[6][((x >> 8) & 0xff) as usize]
        ^ TABLES[5][((x >> 16) & 0xff) as usize]
        ^ TABLES[4][((x >> 24) & 0xff) as usize]
        ^ TABLES[3][((x >> 32) & 0xff) as usize]
        ^ TABLES[2][((x >> 40) & 0xff) as usize]
        ^ TABLES[1][((x >> 48) & 0xff) as usize]
        ^ TABLES[0][((x >> 56) & 0xff) as usize]
}

#[inline]
fn fold_byte(crc: u32, byte: u8) -> u32 {
    (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xff) as usize]
}

/// Slice-by-8 fold of a byte slice into a raw (inverted) CRC state.
pub(crate) fn crc32_bytes_slice8(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        // The try_into cannot fail on an exact 8-byte chunk.
        crc = fold_chunk(crc, u64::from_le_bytes(chunk.try_into().unwrap()));
    }
    for &byte in chunks.remainder() {
        crc = fold_byte(crc, byte);
    }
    crc
}

/// Slice-by-8 fold of a word slice (little-endian byte order) into a raw
/// (inverted) CRC state. This is the portable word kernel; the SIMD CRC
/// paths also use it for short inputs and ragged tails.
pub(crate) fn crc32_words_slice8(mut crc: u32, words: &[u64]) -> u32 {
    for &word in words {
        crc = fold_chunk(crc, word);
    }
    crc
}

/// A streaming CRC-32 accumulator (IEEE polynomial, reflected).
#[derive(Debug, Clone, Copy)]
struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Starts a fresh checksum.
    const fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Folds a byte slice into the checksum.
    fn update(&mut self, bytes: &[u8]) {
        self.state = crc32_bytes_slice8(self.state, bytes);
    }

    /// Folds a word slice in (little-endian byte order, so the digest is
    /// platform independent).
    fn update_words(&mut self, words: &[u64]) {
        self.state = Kernels::active().crc32_words(self.state, words);
    }

    /// The final checksum value.
    const fn finish(&self) -> u32 {
        !self.state
    }
}

/// CRC-32 of a byte slice in one call.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// CRC-32 of a word slice (little-endian bytes) in one call.
pub fn crc32_words(words: &[u64]) -> u32 {
    let mut crc = Crc32::new();
    crc.update_words(words);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_ieee_check_value() {
        // The canonical CRC-32 check: crc32(b"123456789") == 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input_is_zero() {
        assert_eq!(crc32(&[]), 0);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data: Vec<u8> = (0..=255).collect();
        let mut streaming = Crc32::new();
        streaming.update(&data[..100]);
        streaming.update(&data[100..]);
        assert_eq!(streaming.finish(), crc32(&data));
    }

    #[test]
    fn words_digest_is_byte_order_defined() {
        let words = [0x0123_4567_89ab_cdefu64, 0xfeed_face_dead_beef];
        let mut bytes = Vec::new();
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        assert_eq!(crc32_words(&words), crc32(&bytes));
    }

    #[test]
    fn single_bit_flips_change_the_digest() {
        let base = crc32(b"virtual bit-stream");
        for i in 0..8 {
            let mut mutated = b"virtual bit-stream".to_vec();
            mutated[3] ^= 1 << i;
            assert_ne!(crc32(&mutated), base, "bit {i} flip went undetected");
        }
    }
}
