//! Bit-granular serialization used by the VBS binary format.
//!
//! The VBS packs fields of arbitrary widths back to back (Table I of the
//! paper); these helpers write and read such fields LSB-first into a byte
//! vector.

use crate::error::VbsError;

/// Writes variable-width bit fields into a growing byte buffer, LSB-first.
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
    bytes: Vec<u8>,
    bit_len: usize,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bit_len
    }

    /// Appends the `width` low-order bits of `value` (LSB first).
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or if `value` does not fit in `width` bits.
    pub fn write_bits(&mut self, value: u64, width: u32) {
        assert!(width <= 64, "field width {width} too large");
        if width < 64 {
            assert!(
                value < (1u64 << width),
                "value {value} does not fit in {width} bits"
            );
        }
        for i in 0..width {
            let bit = (value >> i) & 1 == 1;
            self.write_bool(bit);
        }
    }

    /// Appends a single bit.
    pub fn write_bool(&mut self, bit: bool) {
        if self.bit_len.is_multiple_of(8) {
            self.bytes.push(0);
        }
        if bit {
            let idx = self.bit_len / 8;
            self.bytes[idx] |= 1 << (self.bit_len % 8);
        }
        self.bit_len += 1;
    }

    /// Appends a sequence of bits.
    pub fn write_bools(&mut self, bits: impl IntoIterator<Item = bool>) {
        for b in bits {
            self.write_bool(b);
        }
    }

    /// Finishes writing and returns the packed bytes (the last byte is
    /// zero-padded).
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// Reads variable-width bit fields from a byte slice, LSB-first.
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

    /// Number of bits remaining.
    pub fn remaining(&self) -> usize {
        self.bytes.len() * 8 - self.cursor
    }

    /// Reads a `width`-bit field.
    ///
    /// # Errors
    ///
    /// Returns [`VbsError::Malformed`] when fewer than `width` bits remain.
    pub fn read_bits(&mut self, width: u32) -> Result<u64, VbsError> {
        if width as usize > self.remaining() {
            return Err(VbsError::Malformed {
                reason: format!(
                    "unexpected end of stream: wanted {width} bits, {} remain",
                    self.remaining()
                ),
            });
        }
        let mut value = 0u64;
        for i in 0..width {
            if self.read_bool_unchecked() {
                value |= 1 << i;
            }
        }
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
        Ok(self.read_bool_unchecked())
    }

    /// Reads `count` bits into a vector of booleans.
    ///
    /// # Errors
    ///
    /// Returns [`VbsError::Malformed`] when fewer than `count` bits remain.
    pub fn read_bools(&mut self, count: usize) -> Result<Vec<bool>, VbsError> {
        if count > self.remaining() {
            return Err(VbsError::Malformed {
                reason: format!(
                    "unexpected end of stream: wanted {count} bits, {} remain",
                    self.remaining()
                ),
            });
        }
        Ok((0..count).map(|_| self.read_bool_unchecked()).collect())
    }

    fn read_bool_unchecked(&mut self) -> bool {
        let bit = (self.bytes[self.cursor / 8] >> (self.cursor % 8)) & 1 == 1;
        self.cursor += 1;
        bit
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
        let pattern: Vec<bool> = (0..50).map(|i| i % 3 == 0).collect();
        let mut w = BitWriter::new();
        w.write_bools(pattern.iter().copied());
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bools(50).unwrap(), pattern);
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
