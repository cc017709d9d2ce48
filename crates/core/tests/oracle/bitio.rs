//! The per-bit field writer and reader `vbs_core::bitio` used before its
//! word-wise paths: one shift, mask and branch per bit, no word loads.

use vbs_core::VbsError;

/// Appends bits one at a time, LSB-first.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bytes: Vec<u8>,
    bit_len: usize,
}

impl BitWriter {
    pub fn bit_len(&self) -> usize {
        self.bit_len
    }

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
            self.write_bool((value >> i) & 1 == 1);
        }
    }

    pub fn write_bool(&mut self, bit: bool) {
        if self.bit_len.is_multiple_of(8) {
            self.bytes.push(0);
        }
        if bit {
            self.bytes[self.bit_len / 8] |= 1 << (self.bit_len % 8);
        }
        self.bit_len += 1;
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// Reads bits one at a time, LSB-first.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    cursor: usize,
}

impl<'a> BitReader<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, cursor: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.bytes.len() * 8 - self.cursor
    }

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

    pub fn read_bool(&mut self) -> Result<bool, VbsError> {
        if self.remaining() == 0 {
            return Err(VbsError::Malformed {
                reason: "unexpected end of stream".into(),
            });
        }
        Ok(self.read_bool_unchecked())
    }

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
