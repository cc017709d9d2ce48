//! Borrowed frame views over a [`crate::FrameStore`] word arena.
//!
//! Historically every macro frame owned its own `Vec<u64>` (a `MacroFrame`
//! struct); the flat-arena refactor reduced frames to *views*: a
//! [`FrameRef`] / [`FrameMut`] borrows the `⌈N_raw / 64⌉`-word slice of one
//! macro inside a store and addresses its bits through the bit-exact
//! [`FrameLayout`]. Helpers are provided for the three frame sections
//! (logic block, switch box, connection boxes).

use vbs_arch::{ArchSpec, FrameLayout, SbPair};
use vbs_netlist::TruthTable;

/// A shared view of the `N_raw`-bit configuration frame of a single macro.
///
/// Cheap to copy (an architecture tag plus a word slice); all read accessors
/// live here. Obtain one from a frame container
/// ([`crate::TaskBitstream::frame`], [`crate::ConfigMemory::frame`],
/// [`crate::FrameStore::frame`]).
#[derive(Debug, Clone, Copy)]
pub struct FrameRef<'a> {
    spec: ArchSpec,
    words: &'a [u64],
}

impl<'a> FrameRef<'a> {
    /// Wraps the word slice of one frame. `words` must span exactly
    /// `⌈N_raw / 64⌉` words with zero padding bits past `N_raw`.
    pub(crate) fn new(spec: ArchSpec, words: &'a [u64]) -> Self {
        debug_assert_eq!(words.len(), crate::store::stride_of(&spec));
        FrameRef { spec, words }
    }

    /// The architecture this frame belongs to.
    pub const fn spec(&self) -> &ArchSpec {
        &self.spec
    }

    /// The frame layout used to address bits.
    pub const fn layout(&self) -> FrameLayout {
        FrameLayout::new(self.spec)
    }

    /// Number of bits in the frame (`N_raw`).
    pub const fn len(&self) -> usize {
        self.spec.raw_bits_per_macro()
    }

    /// Whether every bit is zero (the macro is unprogrammed).
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The frame's backing words (LSB-first, zero-padded past `N_raw`).
    pub fn words(&self) -> &'a [u64] {
        self.words
    }

    /// Reads one bit.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn bit(&self, index: usize) -> bool {
        assert!(index < self.len(), "frame bit {index} out of range");
        (self.words[index / 64] >> (index % 64)) & 1 == 1
    }

    /// Number of bits currently set.
    pub fn popcount(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Reads the logic-block section back as `(truth table, registered)`.
    pub fn logic(&self) -> (TruthTable, bool) {
        let layout = self.layout();
        let k = self.spec.lut_size();
        let truth = TruthTable::from_bits(k, layout.lut_table_range().map(|i| self.bit(i)));
        (truth, self.bit(layout.ff_bypass_bit()))
    }

    /// Iterates over the raw logic-data bits (`N_LB` bits) in frame order,
    /// as stored in a VBS macro record.
    pub fn logic_bits(&self) -> impl Iterator<Item = bool> + 'a {
        let copy = *self;
        copy.layout().lb_config_range().map(move |i| copy.bit(i))
    }

    /// Reads a switch-box pass switch.
    pub fn sb(&self, track: u16, pair: SbPair) -> bool {
        self.bit(self.layout().sb_bit(track, pair))
    }

    /// Reads a connection-box switch.
    pub fn crossing(&self, pin: u8, track: u16) -> bool {
        self.bit(self.layout().crossing_bit(pin, track))
    }

    /// Iterates over the bits of the routing sections only (switch box +
    /// connection boxes), used to compare decoded routing against the
    /// original. Allocation-free: yields bits straight off the words.
    pub fn routing_bits(&self) -> impl Iterator<Item = bool> + 'a {
        let copy = *self;
        (copy.layout().lb_config_range().end..copy.len()).map(move |i| copy.bit(i))
    }

    /// CRC-32 of the frame's words (little-endian byte order). Padding bits
    /// past `N_raw` are zero by invariant, so equal frames always digest
    /// equal — this is the per-frame checksum the runtime's integrity
    /// sidecar records and the readback verify recomputes.
    pub fn crc32(&self) -> u32 {
        crate::crc::crc32_words(self.words)
    }

    /// Number of differing bits between two frames — a word-level XOR
    /// popcount (padding bits are zero on both sides by invariant).
    ///
    /// # Panics
    ///
    /// Panics if the two frames have different architectures.
    pub fn diff_count(&self, other: FrameRef<'_>) -> usize {
        assert_eq!(
            self.spec, other.spec,
            "comparing frames of different layouts"
        );
        let pairs = self.words.iter().zip(other.words);
        pairs.map(|(a, b)| (a ^ b).count_ones() as usize).sum()
    }
}

/// An exclusive view of one macro frame inside a [`crate::FrameStore`].
///
/// Holds the write accessors; reads go through [`FrameMut::as_ref`].
#[derive(Debug)]
pub struct FrameMut<'a> {
    spec: ArchSpec,
    words: &'a mut [u64],
}

impl<'a> FrameMut<'a> {
    /// Wraps the word slice of one frame (see [`FrameRef::new`]).
    pub(crate) fn new(spec: ArchSpec, words: &'a mut [u64]) -> Self {
        debug_assert_eq!(words.len(), crate::store::stride_of(&spec));
        FrameMut { spec, words }
    }

    /// Reborrows as a shared view.
    pub fn as_ref(&self) -> FrameRef<'_> {
        FrameRef {
            spec: self.spec,
            words: self.words,
        }
    }

    /// The architecture this frame belongs to.
    pub const fn spec(&self) -> &ArchSpec {
        &self.spec
    }

    /// The frame layout used to address bits.
    pub const fn layout(&self) -> FrameLayout {
        FrameLayout::new(self.spec)
    }

    /// Number of bits in the frame (`N_raw`), the bound of every write.
    pub(crate) const fn len(&self) -> usize {
        self.spec.raw_bits_per_macro()
    }

    /// Writes one bit.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()` — which is also what keeps the padding
    /// bits of the last word permanently zero.
    pub fn set_bit(&mut self, index: usize, value: bool) {
        assert!(index < self.len(), "frame bit {index} out of range");
        let mask = 1u64 << (index % 64);
        if value {
            self.words[index / 64] |= mask;
        } else {
            self.words[index / 64] &= !mask;
        }
    }

    /// Zeroes every bit of the frame.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Copies the contents of `other` into this frame — one word-level
    /// `copy_from_slice`, no allocation.
    ///
    /// # Panics
    ///
    /// Panics if the two frames belong to different architectures (their
    /// strides would disagree).
    pub fn copy_from(&mut self, other: FrameRef<'_>) {
        assert_eq!(
            self.spec,
            *other.spec(),
            "copying between frames of different layouts"
        );
        self.words.copy_from_slice(other.words());
    }

    /// Writes the logic-block section: LUT truth table plus flip-flop bypass.
    pub(crate) fn set_logic(&mut self, truth: &TruthTable, registered: bool) {
        let layout = self.layout();
        let table = truth.widen(self.spec.lut_size());
        for (i, bit) in table.iter().enumerate() {
            self.set_bit(layout.lut_table_range().start + i, bit);
        }
        self.set_bit(layout.ff_bypass_bit(), registered);
    }

    /// Writes the `width` low bits of `value` to bits `at .. at + width`:
    /// at most two masked word stores, whatever the alignment.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or the field reaches past `len()` — which is
    /// also what keeps the padding bits of the last word permanently zero.
    pub fn set_field(&mut self, at: usize, width: u32, value: u64) {
        assert!(
            width <= 64 && at + width as usize <= self.len(),
            "frame bits {at}..{} out of range",
            at + width as usize
        );
        if width == 0 {
            return;
        }
        let mask = u64::MAX >> (64 - width);
        let value = value & mask;
        let (index, shift) = (at / 64, (at % 64) as u32);
        let word = &mut self.words[index];
        *word = (*word & !(mask << shift)) | (value << shift);
        if shift + width > 64 {
            // The high bits that spill into the next word.
            let written = 64 - shift;
            let word = &mut self.words[index + 1];
            *word = (*word & !(mask >> written)) | (value >> written);
        }
    }

    /// Sets (or clears) the switch-box pass switch at `track` between the two
    /// sides of `pair`.
    pub fn set_sb(&mut self, track: u16, pair: SbPair, value: bool) {
        let bit = self.layout().sb_bit(track, pair);
        self.set_bit(bit, value);
    }

    /// Sets (or clears) the connection-box switch linking `pin` to `track` of
    /// its channel.
    pub fn set_crossing(&mut self, pin: u8, track: u16, value: bool) {
        let bit = self.layout().crossing_bit(pin, track);
        self.set_bit(bit, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::FrameStore;

    fn spec() -> ArchSpec {
        ArchSpec::paper_example()
    }

    fn store(frames: usize) -> FrameStore {
        FrameStore::new(spec(), frames)
    }

    #[test]
    fn empty_frame_has_equation_1_bits_and_is_zero() {
        let s = store(1);
        let f = s.frame(0);
        assert_eq!(f.len(), 284);
        assert!(f.is_empty());
        assert_eq!(f.popcount(), 0);
    }

    #[test]
    fn logic_roundtrip() {
        let mut s = store(1);
        let t = TruthTable::from_fn(6, |i| i % 5 == 0);
        s.frame_mut(0).set_logic(&t, true);
        let (back, registered) = s.frame(0).logic();
        assert_eq!(back, t);
        assert!(registered);
        assert!(!s.frame(0).is_empty());
    }

    #[test]
    fn sb_and_crossing_bits_are_independent() {
        let mut s = store(1);
        let mut f = s.frame_mut(0);
        f.set_sb(2, SbPair::EastWest, true);
        f.set_crossing(6, 2, true);
        assert!(f.as_ref().sb(2, SbPair::EastWest));
        assert!(f.as_ref().crossing(6, 2));
        assert!(!f.as_ref().sb(2, SbPair::NorthSouth));
        assert!(!f.as_ref().crossing(6, 3));
        assert_eq!(f.as_ref().popcount(), 2);
        f.set_sb(2, SbPair::EastWest, false);
        assert_eq!(f.as_ref().popcount(), 1);
    }

    #[test]
    fn logic_bits_roundtrip_raw() {
        let mut s = store(2);
        let t = TruthTable::from_fn(6, |i| i & 3 == 1);
        s.frame_mut(0).set_logic(&t, false);
        let bits: Vec<bool> = s.frame(0).logic_bits().collect();
        let mut copy = s.frame_mut(1);
        for (i, bit) in bits.into_iter().enumerate() {
            copy.set_bit(i, bit);
        }
        assert_eq!(s.frame(0).logic(), s.frame(1).logic());
        assert_eq!(s.frame(0).diff_count(s.frame(1)), 0);
    }

    #[test]
    fn diff_count_spots_changes() {
        let mut s = store(2);
        let mut a = s.frame_mut(0);
        a.set_crossing(0, 0, true);
        a.set_sb(4, SbPair::NorthEast, true);
        assert_eq!(s.frame(0).diff_count(s.frame(1)), 2);
    }

    #[test]
    fn clear_and_copy_from_reuse_the_arena() {
        let mut s = store(2);
        let mut a = s.frame_mut(0);
        a.set_sb(1, SbPair::EastWest, true);
        a.set_crossing(2, 3, true);
        let sp = *s.spec();
        let src: Vec<u64> = s.frame(0).words().to_vec();
        s.frame_mut(1).copy_from(FrameRef::new(sp, &src));
        assert_eq!(s.frame(0).diff_count(s.frame(1)), 0);
        let mut b = s.frame_mut(1);
        b.clear();
        assert!(b.as_ref().is_empty());
    }

    #[test]
    fn routing_bits_exclude_logic() {
        let mut s = store(1);
        s.frame_mut(0)
            .set_logic(&TruthTable::from_fn(6, |_| true), true);
        assert!(s.frame(0).routing_bits().all(|b| !b));
        s.frame_mut(0).set_sb(0, SbPair::NorthSouth, true);
        assert_eq!(s.frame(0).routing_bits().filter(|&b| b).count(), 1);
    }
}
