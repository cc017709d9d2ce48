//! Differential suite for the runtime-dispatched CRC word kernel.
//!
//! Every backend [`vbs_bitstream::Kernels`] can select (the host-detected
//! PCLMULQDQ table and the portable slice-by-8 table) must be bit-identical
//! to the obvious scalar loops on *every* input shape: empty slices, sub-16-word
//! buffers that never reach the unrolled loops, ragged tails past the last
//! full vector, and misaligned offsets into a larger arena (the frame arena
//! hands kernels unaligned interior runs, never whole allocations). Every
//! CRC path — byte slice-by-8, the word kernels, the PCLMULQDQ folding
//! schedule on hosts that have it — is pinned against the bitwise,
//! table-free [`oracle::crc32_scalar`].

mod oracle;

use oracle::{crc32_scalar, crc32_words_scalar};
use proptest::prelude::*;
use vbs_bitstream::{crc32, crc32_words, Kernels};

/// Deterministic splitmix-style word stream.
fn words(seed: u64, len: usize) -> Vec<u64> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(0x243f_6a88_85a3_08d3);
            state ^ (state >> 31)
        })
        .collect()
}

/// The two real backends plus the scalar reference loops, run over the same
/// misaligned window of a larger buffer.
fn backends() -> [&'static Kernels; 2] {
    [Kernels::detected(), Kernels::portable()]
}

proptest! {
    // Lengths deliberately cross every code-path boundary: 0, sub-vector
    // (<4), sub-unroll (<16), and several full 64-byte CRC stripes (>=8).
    #[test]
    fn crc_kernels_match_the_byte_oracle_on_any_window(
        len in 0usize..200,
        off in 0usize..7,
        seed in 0u64..u64::MAX,
    ) {
        let buf = words(seed, off + len);
        let run = &buf[off..];
        let expect = crc32_words_scalar(run);
        for k in backends() {
            prop_assert_eq!(
                !k.crc32_words(!0, run),
                expect,
                "crc32_words diverged on {} at {} words",
                k.name(),
                len
            );
        }
    }

    // Streaming splits must land on the same digest as one shot — the scrub
    // path folds a frame run in stride-sized pieces.
    #[test]
    fn crc_kernels_compose_across_arbitrary_splits(
        len in 0usize..120,
        cut in 0usize..120,
        seed in 0u64..u64::MAX,
    ) {
        let buf = words(seed, len);
        let cut = cut.min(len);
        for k in backends() {
            let one_shot = k.crc32_words(!0, &buf);
            let split = k.crc32_words(k.crc32_words(!0, &buf[..cut]), &buf[cut..]);
            prop_assert_eq!(one_shot, split, "split fold diverged on {}", k.name());
        }
    }
}

#[test]
fn slice8_matches_the_byte_oracle_at_every_length() {
    // The oracle itself is pinned to the canonical CRC-32 check value.
    assert_eq!(crc32_scalar(b"123456789"), 0xCBF4_3926);
    let data: Vec<u8> = (0..64u32)
        .map(|i| (i.wrapping_mul(167).wrapping_add(13) & 0xff) as u8)
        .collect();
    for len in 0..data.len() {
        assert_eq!(
            crc32(&data[..len]),
            crc32_scalar(&data[..len]),
            "slice-by-8 diverged at byte length {len}"
        );
    }
}

#[test]
fn word_fold_matches_the_byte_oracle_at_every_length() {
    let words: Vec<u64> = (0..48u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (i << 23))
        .collect();
    for len in 0..words.len() {
        assert_eq!(
            crc32_words(&words[..len]),
            crc32_words_scalar(&words[..len]),
            "word fold diverged at word length {len}"
        );
    }
}
