//! Bit-granular serialization used by the VBS binary format.
//!
//! The VBS packs fields of arbitrary widths back to back (Table I of the
//! paper), LSB-first into bytes. Every helper here moves up to 64 bits per
//! step: a field is one unaligned little-endian word load or store, and a
//! payload ([`BitRange`], [`PackedBits`]) is copied a word at a time. The
//! per-bit originals live on as the test oracle in
//! `crates/core/tests/oracle/`.

use crate::error::VbsError;
use serde::{Deserialize, Serialize};

/// The low `width` bits set (`width` ≤ 64).
fn mask(width: u32) -> u64 {
    u64::MAX.checked_shr(64 - width).unwrap_or(0)
}

/// The `width` (≤ 64) bits of `bytes` starting at bit `at`, LSB-first.
/// Bits past the end of `bytes` read as zero, so no position panics.
fn read_word(bytes: &[u8], at: usize, width: u32) -> u64 {
    let byte = at / 8;
    let shift = (at % 8) as u32;
    let rest = bytes.get(byte..).unwrap_or_default();
    // A field spans at most nine bytes: one word load, plus the spill of
    // an unaligned field into the ninth byte.
    let low = match rest.first_chunk::<8>() {
        Some(word) => u64::from_le_bytes(*word),
        None => {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            u64::from_le_bytes(word)
        }
    };
    let mut value = low >> shift;
    if shift + width > 64 {
        value |= u64::from(rest.get(8).copied().unwrap_or(0)) << (64 - shift);
    }
    value & mask(width)
}

/// A borrowed run of bits inside an LSB-first byte string: a payload of a
/// serialized stream ([`crate::VbsView`]) or of an owned record
/// ([`PackedBits::as_range`]). Copy it out a word at a time through
/// [`PackedBits::from`], or inspect it with [`BitRange::iter`].
#[derive(Debug, Clone, Copy)]
pub struct BitRange<'a> {
    bytes: &'a [u8],
    start: usize,
    len: usize,
}

impl<'a> BitRange<'a> {
    /// Number of bits in the range.
    pub const fn len(&self) -> usize {
        self.len
    }

    /// Whether the range holds no bit.
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bits of the range, in stream order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + 'a {
        let range = *self;
        (0..range.len).map(move |i| range.word(i, 1) == 1)
    }

    /// The `width` (≤ 64) bits at offset `at` of the range, LSB-first.
    /// Callers keep `at + width <= len()`; bits the underlying bytes do not
    /// hold read as zero.
    pub(crate) fn word(&self, at: usize, width: u32) -> u64 {
        read_word(self.bytes, self.start + at, width)
    }

    /// The `len` bits at offset `start` of this range.
    pub(crate) fn slice(&self, start: usize, len: usize) -> BitRange<'a> {
        BitRange {
            bytes: self.bytes,
            start: self.start + start,
            len,
        }
    }

    /// The range in steps of up to 64 bits: `(offset, width, bits)`.
    pub(crate) fn words(&self) -> impl Iterator<Item = (usize, u32, u64)> + 'a {
        let range = *self;
        (0..range.len).step_by(64).map(move |at| {
            let width = (range.len - at).min(64) as u32;
            (at, width, range.word(at, width))
        })
    }
}

/// An owned bit string packed LSB-first into bytes, in stream order — the
/// logic and raw-routing payloads of a [`crate::ClusterRecord`]. The bits
/// past [`PackedBits::len`] in the last byte are always zero, so equal bit
/// strings compare equal.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PackedBits {
    bytes: Vec<u8>,
    len: usize,
}

impl PackedBits {
    /// `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        PackedBits {
            bytes: vec![0; len.div_ceil(8)],
            len,
        }
    }

    /// Number of bits.
    pub const fn len(&self) -> usize {
        self.len
    }

    /// Whether the string holds no bit.
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn get(&self, index: usize) -> bool {
        assert!(index < self.len, "bit {index} out of range");
        (self.bytes[index / 8] >> (index % 8)) & 1 == 1
    }

    /// Writes bit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn set(&mut self, index: usize, value: bool) {
        assert!(index < self.len, "bit {index} out of range");
        let bit = 1 << (index % 8);
        if value {
            self.bytes[index / 8] |= bit;
        } else {
            self.bytes[index / 8] &= !bit;
        }
    }

    /// The whole string as a borrowed range.
    pub fn as_range(&self) -> BitRange<'_> {
        BitRange {
            bytes: &self.bytes,
            start: 0,
            len: self.len,
        }
    }
}

impl From<BitRange<'_>> for PackedBits {
    /// Copies the range a word at a time.
    fn from(range: BitRange<'_>) -> Self {
        let mut writer = BitWriter::new();
        writer.write_range(range);
        PackedBits {
            bytes: writer.into_bytes(),
            len: range.len(),
        }
    }
}

impl FromIterator<bool> for PackedBits {
    fn from_iter<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let mut writer = BitWriter::new();
        for bit in bits {
            writer.write_bits(u64::from(bit), 1);
        }
        let len = writer.bit_len();
        PackedBits {
            bytes: writer.into_bytes(),
            len,
        }
    }
}

/// Writes variable-width bit fields into a growing byte buffer, LSB-first,
/// through a 64-bit accumulator that is flushed a word at a time.
///
/// ```
/// use vbs_core::bitio::{BitReader, BitWriter};
/// # fn main() -> Result<(), vbs_core::VbsError> {
/// let mut w = BitWriter::new();
/// w.write_bits(0b101, 3);
/// w.write_bits(0x2a, 7);
/// let bytes = w.into_bytes();
/// let mut r = BitReader::new(&bytes);
/// assert_eq!(r.read_bits(3)?, 0b101);
/// assert_eq!(r.read_bits(7)?, 0x2a);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    /// Whole flushed words.
    bytes: Vec<u8>,
    /// The bits not yet flushed, `pending_bits < 64` of them.
    pending: u64,
    pending_bits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8 + self.pending_bits as usize
    }

    /// Appends the `width` low-order bits of `value` (LSB first).
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or if `value` does not fit in `width` bits.
    pub fn write_bits(&mut self, value: u64, width: u32) {
        assert!(width <= 64, "field width {width} too large");
        assert!(
            value & !mask(width) == 0,
            "value {value} does not fit in {width} bits"
        );
        if width == 0 {
            return;
        }
        self.pending |= value << self.pending_bits;
        let filled = self.pending_bits + width;
        if filled < 64 {
            self.pending_bits = filled;
            return;
        }
        self.bytes.extend_from_slice(&self.pending.to_le_bytes());
        // The high bits of `value` the flushed word had no room for.
        self.pending = value.checked_shr(64 - self.pending_bits).unwrap_or(0);
        self.pending_bits = filled - 64;
    }

    /// Appends the bits of `range`, a word at a time.
    pub fn write_range(&mut self, range: BitRange<'_>) {
        for (_, width, bits) in range.words() {
            self.write_bits(bits, width);
        }
    }

    /// Finishes writing and returns the packed bytes (the last byte is
    /// zero-padded).
    pub fn into_bytes(mut self) -> Vec<u8> {
        let tail = self.pending_bits.div_ceil(8) as usize;
        self.bytes
            .extend_from_slice(&self.pending.to_le_bytes()[..tail]);
        self.bytes
    }
}

/// Reads variable-width bit fields from a byte slice, LSB-first, one
/// unaligned word load per field.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    cursor: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, cursor: 0 }
    }

    /// A reader over `bytes` whose next field starts at bit `cursor`.
    pub(crate) fn at(bytes: &'a [u8], cursor: usize) -> Self {
        BitReader { bytes, cursor }
    }

    /// Number of bits remaining.
    pub fn remaining(&self) -> usize {
        (self.bytes.len() * 8).saturating_sub(self.cursor)
    }

    /// Number of bits read so far.
    pub fn position(&self) -> usize {
        self.cursor
    }

    fn end_of_stream(&self, wanted: usize) -> VbsError {
        VbsError::Malformed {
            reason: format!(
                "unexpected end of stream: wanted {wanted} bits, {} remain",
                self.remaining()
            ),
        }
    }

    /// Reads a `width`-bit field.
    ///
    /// # Errors
    ///
    /// Returns [`VbsError::Malformed`] when fewer than `width` bits remain.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`.
    pub fn read_bits(&mut self, width: u32) -> Result<u64, VbsError> {
        assert!(width <= 64, "field width {width} too large");
        if width as usize > self.remaining() {
            return Err(self.end_of_stream(width as usize));
        }
        let value = read_word(self.bytes, self.cursor, width);
        self.cursor += width as usize;
        Ok(value)
    }

    /// Reads a single bit.
    ///
    /// # Errors
    ///
    /// Returns [`VbsError::Malformed`] at end of stream.
    pub fn read_bool(&mut self) -> Result<bool, VbsError> {
        if self.remaining() == 0 {
            return Err(VbsError::Malformed {
                reason: "unexpected end of stream".into(),
            });
        }
        Ok(self.read_bits(1)? == 1)
    }

    /// Takes the next `count` bits as a borrowed range, without reading
    /// them.
    ///
    /// # Errors
    ///
    /// Returns [`VbsError::Malformed`] when fewer than `count` bits remain.
    pub fn read_range(&mut self, count: usize) -> Result<BitRange<'a>, VbsError> {
        if count > self.remaining() {
            return Err(self.end_of_stream(count));
        }
        let range = BitRange {
            bytes: self.bytes,
            start: self.cursor,
            len: count,
        };
        self.cursor += count;
        Ok(range)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        let fields: [(u64, u32); 6] = [(5, 3), (0, 1), (1023, 10), (1, 1), (77, 7), (123456, 17)];
        for (v, width) in fields {
            w.write_bits(v, width);
        }
        assert_eq!(w.bit_len(), 39);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for (v, width) in fields {
            assert_eq!(r.read_bits(width).unwrap(), v);
        }
    }

    #[test]
    fn bools_roundtrip() {
        let pattern: Vec<bool> = (0..150).map(|i| i % 3 == 0).collect();
        let packed: PackedBits = pattern.iter().copied().collect();
        assert_eq!(packed.len(), 150);
        let mut w = BitWriter::new();
        w.write_bits(0b10, 2);
        w.write_range(packed.as_range());
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(2).unwrap(), 0b10);
        let range = r.read_range(150).unwrap();
        assert!(range.iter().eq(pattern.iter().copied()));
        assert_eq!(PackedBits::from(range), packed);
        assert!(r.read_range(8).is_err(), "only padding is left");
    }

    #[test]
    fn reading_past_the_end_is_an_error() {
        let mut w = BitWriter::new();
        w.write_bits(3, 2);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        r.read_bits(2).unwrap();
        // The padding bits of the final byte are still readable; beyond the
        // byte boundary it must fail.
        assert!(r.read_bits(7).is_err());
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_values_panic() {
        let mut w = BitWriter::new();
        w.write_bits(8, 3);
    }

    #[test]
    fn zero_width_field_is_a_no_op() {
        let mut w = BitWriter::new();
        w.write_bits(0, 0);
        assert_eq!(w.bit_len(), 0);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(0).unwrap(), 0);
    }
}
