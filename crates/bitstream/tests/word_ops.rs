//! Bit-identity differential suite for the word-level region operations.
//!
//! Every hot `ConfigMemory` operation (`load_task`, `clear_region`,
//! `copy_region`, `move_region`) runs as contiguous word-run copies/fills
//! over the flat [`vbs_bitstream::FrameStore`] arena; each has a scalar
//! per-bit twin (`oracle::*_scalar`) that is layout-blind by construction.
//! These properties drive both implementations over random devices, task
//! shapes, frame contents and (overlapping) region pairs and require the
//! resulting configuration memories to be **bit-identical** — the proof
//! that the flat layout is invisible to every consumer.

mod oracle;

use oracle::{
    clear_region_scalar, copy_region_scalar, load_task_scalar, move_region_scalar, set_bits_scalar,
};
use proptest::prelude::*;
use std::sync::Once;
use vbs_arch::{ArchSpec, Coord, Device, Rect};
use vbs_bitstream::{ConfigMemory, TaskBitstream};

/// The two architectures the differential sweep alternates between — the
/// Section II example (284-bit frames, padding-heavy last word) and the
/// evaluation architecture (1004-bit frames).
fn arch(pick: u8) -> ArchSpec {
    if pick.is_multiple_of(2) {
        ArchSpec::paper_example()
    } else {
        ArchSpec::paper_evaluation()
    }
}

/// Builds a `width` × `height` task whose frames carry a seeded pseudo-random
/// bit pattern (every macro gets a few set bits, including the last valid
/// bit so padding handling is exercised).
fn patterned_task(spec: ArchSpec, width: u16, height: u16, seed: u64) -> TaskBitstream {
    let mut task = TaskBitstream::empty(spec, width, height);
    let bits = spec.raw_bits_per_macro();
    let mut state = seed | 1;
    for y in 0..height {
        for x in 0..width {
            let mut frame = task.frame_mut(Coord::new(x, y));
            for _ in 0..8 {
                // splitmix-ish scramble; deterministic per (seed, macro).
                state = state
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(0x243f_6a88_85a3_08d3);
                frame.set_bit((state % bits as u64) as usize, true);
            }
            frame.set_bit(bits - 1, (state >> 13) & 1 == 1);
        }
    }
    task
}

/// A memory pre-soiled with a patterned background task covering the whole
/// device, so region operations must overwrite stale content correctly.
fn soiled_memory(spec: ArchSpec, dev_w: u16, dev_h: u16, seed: u64) -> ConfigMemory {
    let device = Device::new(spec, dev_w, dev_h).expect("device");
    let mut memory = ConfigMemory::new(&device);
    let background = patterned_task(spec, dev_w, dev_h, seed ^ 0xdead_beef);
    memory
        .load_task(&background, Coord::new(0, 0))
        .expect("background load");
    memory
}

/// `FrameMut::set_field` is at most two masked word stores; the per-bit
/// loop is its definition. Exhaustive over every start offset within the
/// first two words and every width 0..=64, on an all-ones and an all-zeros
/// background, with value bits above the width that must not be written.
#[test]
fn set_field_matches_the_per_bit_loop_at_every_offset_and_width() {
    let spec = ArchSpec::paper_example(); // 284 bits: 128 + 64 fits
    let value = 0xd6e8_feb8_6659_fd93u64;
    for start in 0..128usize {
        for width in 0..=64u32 {
            for background in [false, true] {
                let mut word = TaskBitstream::empty(spec, 1, 1);
                let mut frame = word.frame_mut(Coord::new(0, 0));
                for i in 0..frame.as_ref().len() {
                    frame.set_bit(i, background);
                }
                let mut scalar = word.clone();
                word.frame_mut(Coord::new(0, 0))
                    .set_field(start, width, value);
                let bits: Vec<bool> = (0..width).map(|i| (value >> i) & 1 == 1).collect();
                set_bits_scalar(
                    &mut scalar.frame_mut(Coord::new(0, 0)),
                    start..start + width as usize,
                    &bits,
                );
                assert_eq!(word, scalar, "start {start} width {width} on {background}");
            }
        }
    }
}

proptest! {
    #[test]
    fn load_task_matches_scalar(
        pick in 0u8..2,
        dev in 6u16..12,
        tw in 1u16..5,
        th in 1u16..5,
        ox in 0u16..8,
        oy in 0u16..8,
        seed in 0u64..u64::MAX,
    ) {
        prop_assume!(ox + tw <= dev && oy + th <= dev);
        let spec = arch(pick);
        let task = patterned_task(spec, tw, th, seed);
        let mut word = soiled_memory(spec, dev, dev, seed);
        let mut scalar = word.clone();
        word.load_task(&task, Coord::new(ox, oy)).expect("word load");
        load_task_scalar(&mut scalar, &task, Coord::new(ox, oy));
        prop_assert_eq!(&word, &scalar);
        // Read-back round-trips the task verbatim.
        let back = word
            .read_region(Rect::new(Coord::new(ox, oy), tw, th))
            .expect("read back");
        prop_assert_eq!(back.diff_count(&task).expect("same shape"), 0);
    }

    #[test]
    fn clear_region_matches_scalar(
        pick in 0u8..2,
        dev in 6u16..12,
        rw in 1u16..6,
        rh in 1u16..6,
        ox in 0u16..8,
        oy in 0u16..8,
        seed in 0u64..u64::MAX,
    ) {
        prop_assume!(ox + rw <= dev && oy + rh <= dev);
        let spec = arch(pick);
        let region = Rect::new(Coord::new(ox, oy), rw, rh);
        let mut word = soiled_memory(spec, dev, dev, seed);
        let mut scalar = word.clone();
        word.clear_region(region).expect("word clear");
        clear_region_scalar(&mut scalar, region);
        prop_assert_eq!(&word, &scalar);
        let back = word.read_region(region).expect("read back");
        prop_assert_eq!(back.popcount(), 0);
    }

    #[test]
    fn copy_and_move_region_match_scalar_even_overlapping(
        pick in 0u8..2,
        dev in 6u16..12,
        rw in 1u16..5,
        rh in 1u16..5,
        sx in 0u16..8,
        sy in 0u16..8,
        dx in 0u16..8,
        dy in 0u16..8,
        seed in 0u64..u64::MAX,
    ) {
        prop_assume!(sx + rw <= dev && sy + rh <= dev);
        prop_assume!(dx + rw <= dev && dy + rh <= dev);
        let from = Rect::new(Coord::new(sx, sy), rw, rh);
        assert_copy_and_move_match_scalar(arch(pick), dev, from, Coord::new(dx, dy), seed);

        // Fixed inputs, checked once: a 3×2 region shifted by one macro in
        // every direction (each overlaps its source) and along a few
        // diagonals, (4, 4) landing clear of the source.
        static FIXED: Once = Once::new();
        FIXED.call_once(|| {
            let from = Rect::new(Coord::new(3, 3), 3, 2);
            for (dx, dy) in FIXED_SHIFTS {
                let to = Coord::new((3 + dx) as u16, (3 + dy) as u16);
                assert_copy_and_move_match_scalar(ArchSpec::paper_example(), 10, from, to, 7);
            }
        });
    }
}

const FIXED_SHIFTS: [(i32, i32); 8] = [
    (1, 0),
    (-1, 0),
    (0, 1),
    (0, -1),
    (1, 1),
    (1, -1),
    (2, 1),
    (4, 4),
];

/// `copy_region` and `move_region` of `from` to `to` on a soiled `dev`×`dev`
/// memory leave it bit-identical to their per-bit oracles.
fn assert_copy_and_move_match_scalar(spec: ArchSpec, dev: u16, from: Rect, to: Coord, seed: u64) {
    let mut word = soiled_memory(spec, dev, dev, seed);
    let mut scalar = word.clone();
    word.copy_region(from, to).expect("word copy");
    copy_region_scalar(&mut scalar, from, to);
    assert_eq!(word, scalar, "copy_region diverged moving {from} to {to}");

    let mut word = soiled_memory(spec, dev, dev, seed.rotate_left(17));
    let mut scalar = word.clone();
    word.move_region(from, to).expect("word move");
    move_region_scalar(&mut scalar, from, to);
    assert_eq!(word, scalar, "move_region diverged moving {from} to {to}");
}
