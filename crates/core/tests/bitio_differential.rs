//! The word-wise `BitWriter` / `BitReader` against the per-bit originals
//! they replaced (`oracle::bitio`), byte for byte and error for error.
//!
//! Every case writes a list of fields of mixed widths 0..=64 behind a
//! prefix of every length 0..64 — so each field starts at every bit offset
//! of a word — then reads the fields back and keeps reading past the end.
//! The proptest shim does not shrink: a failure names the case's offset and
//! fields.

mod oracle;

use oracle::bitio as per_bit;
use proptest::prelude::*;
use vbs_core::bitio::{BitReader, BitWriter, PackedBits};

/// The low `width` bits of `value`.
fn fit(value: u64, width: u32) -> u64 {
    value & u64::MAX.checked_shr(64 - width).unwrap_or(0)
}

/// A reader result, comparable across the two implementations.
fn outcome<T>(result: Result<T, vbs_core::VbsError>) -> Result<T, String> {
    result.map_err(|e| e.to_string())
}

fn check(offset: u32, fields: &[(u32, u64)], payload: &[bool]) {
    let label = format!("offset {offset}, fields {fields:?}, payload {payload:?}");
    let prefix = fit(0x9e37_79b9_7f4a_7c15, offset);

    let mut words = BitWriter::new();
    let mut bits = per_bit::BitWriter::default();
    words.write_bits(prefix, offset);
    bits.write_bits(prefix, offset);
    for &(width, value) in fields {
        words.write_bits(fit(value, width), width);
        bits.write_bits(fit(value, width), width);
        assert_eq!(words.bit_len(), bits.bit_len(), "{label}");
    }
    let packed: PackedBits = payload.iter().copied().collect();
    words.write_range(packed.as_range());
    for &bit in payload {
        bits.write_bool(bit);
    }
    assert_eq!(words.bit_len(), bits.bit_len(), "{label}");
    let bytes = words.into_bytes();
    assert_eq!(bytes, bits.into_bytes(), "{label}");

    let mut words = BitReader::new(&bytes);
    let mut bits = per_bit::BitReader::new(&bytes);
    assert_eq!(
        outcome(words.read_bits(offset)),
        outcome(bits.read_bits(offset))
    );
    // The fields, then the payload as one range, then everything again:
    // the second pass runs off the end at some field.
    for pass in 0..2 {
        for &(width, _) in fields {
            assert_eq!(
                outcome(words.read_bits(width)),
                outcome(bits.read_bits(width)),
                "{label}: pass {pass}, width {width}"
            );
            assert_eq!(words.remaining(), bits.remaining(), "{label}");
        }
        let range = words.read_range(payload.len());
        assert_eq!(
            outcome(range.map(|r| r.iter().collect::<Vec<_>>())),
            outcome(bits.read_bools(payload.len())),
            "{label}: pass {pass}, payload"
        );
        assert_eq!(
            outcome(words.read_bool()),
            outcome(bits.read_bool()),
            "{label}: pass {pass}, one bit"
        );
    }
    // Only the zero padding of the last byte can be left.
    assert!(words.remaining() < 8, "{label}");
    assert_eq!(outcome(words.read_bits(64)), outcome(bits.read_bits(64)));
}

proptest! {
    #[test]
    fn word_wise_fields_match_the_per_bit_originals(
        fields in collection::vec((0u32..=64, 0u64..u64::MAX), 0..24),
        payload in collection::vec(any::<bool>(), 0..200),
    ) {
        for offset in 0..64 {
            check(offset, &fields, &payload);
        }
    }
}

/// Full-width fields and all-ones values, where a shift or mask by 64 would
/// go wrong.
#[test]
fn full_width_fields_match_the_per_bit_originals() {
    let fields = [
        (64, u64::MAX),
        (0, 0),
        (64, 1 << 63),
        (1, 1),
        (63, u64::MAX),
    ];
    for offset in 0..64 {
        check(offset, &fields, &[true; 130]);
    }
}
