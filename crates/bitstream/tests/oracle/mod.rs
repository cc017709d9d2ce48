//! Reference implementations the differential suites compare against.
//!
//! Everything here is deliberately naive and shares no code with the paths
//! it checks: the region operations move one bit at a time through the
//! public frame views (so they are blind to the flat word layout), and the
//! CRC shifts one bit at a time with no lookup table (so a wrong entry in
//! the product's slice-by-8 tables cannot hide). The oracles panic on input
//! the product would refuse; the differentials only feed them valid shapes.

// Each test binary compiles its own copy and uses a different subset.
#![allow(dead_code)]

use std::ops::Range;
use vbs_arch::{Coord, Rect};
use vbs_bitstream::{ConfigMemory, FrameMut, TaskBitstream};

/// Per-bit twin of [`FrameMut::set_field`]: one `set_bit` per supplied bit.
pub fn set_bits_scalar(frame: &mut FrameMut<'_>, range: Range<usize>, bits: &[bool]) {
    for (i, &bit) in range.zip(bits) {
        frame.set_bit(i, bit);
    }
}

/// Per-bit twin of [`ConfigMemory::load_task`].
pub fn load_task_scalar(memory: &mut ConfigMemory, task: &TaskBitstream, origin: Coord) {
    memory
        .check_load(task, origin)
        .expect("oracle load fits the device");
    for (local, frame) in task.iter_frames() {
        let at = Coord::new(origin.x + local.x, origin.y + local.y);
        let mut slot = memory.frame_mut(at);
        for i in 0..frame.len() {
            slot.set_bit(i, frame.bit(i));
        }
    }
}

/// Per-bit twin of [`ConfigMemory::clear_region`].
pub fn clear_region_scalar(memory: &mut ConfigMemory, region: Rect) {
    for at in region.iter() {
        let mut frame = memory.frame_mut(at);
        for i in 0..frame.as_ref().len() {
            frame.set_bit(i, false);
        }
    }
}

/// Twin of [`ConfigMemory::copy_region`]: stages the region through an
/// allocated buffer and writes it back bit by bit.
pub fn copy_region_scalar(memory: &mut ConfigMemory, from: Rect, to: Coord) {
    let staged = memory.read_region(from).expect("oracle source in bounds");
    load_task_scalar(memory, &staged, to);
}

/// Twin of [`ConfigMemory::move_region`]: stages the region, clears the
/// source per bit, then writes the staged copy back per bit.
pub fn move_region_scalar(memory: &mut ConfigMemory, from: Rect, to: Coord) {
    let staged = memory.read_region(from).expect("oracle source in bounds");
    clear_region_scalar(memory, from);
    load_task_scalar(memory, &staged, to);
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of a byte slice,
/// eight shifts per byte, no table.
pub fn crc32_scalar(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in bytes {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// [`crc32_scalar`] over the little-endian bytes of a word slice.
pub fn crc32_words_scalar(words: &[u64]) -> u32 {
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    crc32_scalar(&bytes)
}
