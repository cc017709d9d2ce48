//! The flat word arena backing every frame container.
//!
//! A [`FrameStore`] packs the configuration frames of many macros into **one
//! contiguous `Vec<u64>`** with a fixed per-frame stride derived from the
//! architecture (`stride = ⌈N_raw / 64⌉` words). Frame `i` occupies the word
//! range `i·stride .. (i+1)·stride`; containers that arrange frames
//! row-major (a task rectangle, a whole device) therefore see every *row* of
//! frames as one contiguous word run, which is what turns region operations
//! — task loads, clears, relocation copies — into `copy_from_slice` /
//! `fill` / `copy_within` loops instead of per-frame pointer chasing.
//!
//! Individual frames are borrowed out of the arena as [`FrameRef`] /
//! [`FrameMut`] views; no frame ever owns its own allocation.
//!
//! # Padding invariant
//!
//! `N_raw` is not a multiple of 64 in general, so the last word of each
//! frame has unused high bits. The store keeps them **zero at all times**:
//! bit writes are bounds-checked against `N_raw`, and whole-frame copies
//! only ever copy padding that is itself zero. Word-level comparisons
//! (`popcount`, `diff_count`, `is_empty`) rely on this invariant.

use crate::error::BitstreamError;
use crate::frame::{FrameMut, FrameRef};
use serde::{Deserialize, Serialize};
use vbs_arch::ArchSpec;

/// A contiguous word arena holding `len` fixed-stride configuration frames.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FrameStore {
    spec: ArchSpec,
    stride: usize,
    len: usize,
    words: Vec<u64>,
}

/// Words per frame for `spec`: `⌈N_raw / 64⌉`.
pub(crate) const fn stride_of(spec: &ArchSpec) -> usize {
    spec.raw_bits_per_macro().div_ceil(64)
}

impl FrameStore {
    /// Creates an all-zero store of `len` frames of `spec`.
    pub fn new(spec: ArchSpec, len: usize) -> Self {
        let stride = stride_of(&spec);
        FrameStore {
            spec,
            stride,
            len,
            words: vec![0; len * stride],
        }
    }

    /// Reshapes the store to `len` all-zero frames of `spec` **in place**.
    ///
    /// The word vector is resized, never shrunk below its capacity, so a
    /// store cycled through arbitrary shapes allocates only while the
    /// largest word count seen so far keeps growing — the zero-allocation
    /// guarantee buffer pools rely on, regardless of how the task mix
    /// cycles shapes.
    pub fn reset(&mut self, spec: ArchSpec, len: usize) {
        let stride = stride_of(&spec);
        let words = len * stride;
        self.spec = spec;
        self.stride = stride;
        self.len = len;
        // fill + resize instead of clear + resize: both zero every retained
        // word, but this form keeps the buffer initialized when shrinking.
        let keep = self.words.len().min(words);
        self.words[..keep].fill(0);
        self.words.resize(words, 0);
    }

    /// The architecture every frame of this store belongs to.
    pub const fn spec(&self) -> &ArchSpec {
        &self.spec
    }

    /// Words per frame.
    pub const fn stride(&self) -> usize {
        self.stride
    }

    /// Number of frames.
    pub const fn len(&self) -> usize {
        self.len
    }

    /// Whether the store holds no frames at all.
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Borrows frame `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn frame(&self, index: usize) -> FrameRef<'_> {
        FrameRef::new(
            self.spec,
            &self.words[index * self.stride..(index + 1) * self.stride],
        )
    }

    /// Mutably borrows frame `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn frame_mut(&mut self, index: usize) -> FrameMut<'_> {
        let range = index * self.stride..(index + 1) * self.stride;
        FrameMut::new(self.spec, &mut self.words[range])
    }

    /// Iterates over the frames in arena order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = FrameRef<'_>> {
        self.words
            .chunks_exact(self.stride.max(1))
            .map(move |chunk| FrameRef::new(self.spec, chunk))
    }

    /// The whole arena as words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The contiguous word run of `count` frames starting at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `start + count > len()`.
    pub fn run(&self, start: usize, count: usize) -> &[u64] {
        &self.words[start * self.stride..(start + count) * self.stride]
    }

    /// Mutable word run of `count` frames starting at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `start + count > len()`.
    fn run_mut(&mut self, start: usize, count: usize) -> &mut [u64] {
        &mut self.words[start * self.stride..(start + count) * self.stride]
    }

    /// Checks that the run `start..start + count` lies inside this store.
    fn check_run(&self, start: usize, count: usize) -> Result<(), BitstreamError> {
        match start.checked_add(count) {
            Some(end) if end <= self.len => Ok(()),
            _ => Err(BitstreamError::RunOutOfBounds {
                start,
                count,
                frames: self.len,
            }),
        }
    }

    /// Copies `count` frames from `src`'s run starting at `src_start` into
    /// this store starting at `dst_start` — one bulk kernel sweep no matter
    /// how many frames are covered.
    ///
    /// # Errors
    ///
    /// [`BitstreamError::LayoutMismatch`] when the two stores have different
    /// architectures (a mismatched copy would silently clip or smear frame
    /// boundaries); [`BitstreamError::RunOutOfBounds`] when either run falls
    /// outside its store.
    pub(crate) fn copy_run_from(
        &mut self,
        dst_start: usize,
        src: &FrameStore,
        src_start: usize,
        count: usize,
    ) -> Result<(), BitstreamError> {
        if self.spec != src.spec {
            return Err(BitstreamError::LayoutMismatch);
        }
        debug_assert_eq!(
            self.stride, src.stride,
            "equal specs must derive equal strides"
        );
        self.check_run(dst_start, count)?;
        src.check_run(src_start, count)?;
        let words = count * self.stride;
        let dst = dst_start * self.stride;
        let src_words = src_start * self.stride;
        self.words[dst..dst + words].copy_from_slice(&src.words[src_words..src_words + words]);
        Ok(())
    }

    /// Copies `count` frames from `src_start` to `dst_start` within this
    /// store, with `memmove` semantics (overlap-safe).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range runs.
    pub(crate) fn copy_run_within(&mut self, src_start: usize, dst_start: usize, count: usize) {
        let words = count * self.stride;
        let src = src_start * self.stride;
        let dst = dst_start * self.stride;
        assert!(src + words <= self.words.len() && dst + words <= self.words.len());
        self.words.copy_within(src..src + words, dst);
    }

    /// Zeroes `count` frames starting at `start` — one `fill(0)`.
    ///
    /// # Errors
    ///
    /// [`BitstreamError::RunOutOfBounds`] when the run falls outside the
    /// store.
    pub(crate) fn clear_run(&mut self, start: usize, count: usize) -> Result<(), BitstreamError> {
        self.check_run(start, count)?;
        self.run_mut(start, count).fill(0);
        Ok(())
    }

    /// Number of set bits over the whole store.
    pub fn popcount(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ArchSpec {
        ArchSpec::paper_example()
    }

    #[test]
    fn layout_is_contiguous_with_fixed_stride() {
        let store = FrameStore::new(spec(), 6);
        assert_eq!(store.stride(), 284usize.div_ceil(64));
        assert_eq!(store.len(), 6);
        assert_eq!(store.words().len(), 6 * store.stride());
        assert_eq!(store.run(2, 3).len(), 3 * store.stride());
    }

    #[test]
    fn reset_reuses_capacity_across_shape_cycles() {
        let mut store = FrameStore::new(spec(), 12);
        store.frame_mut(7).set_bit(3, true);
        let capacity = store.words().len();
        store.reset(spec(), 4);
        assert_eq!(store.len(), 4);
        assert_eq!(store.popcount(), 0);
        store.reset(spec(), 12);
        assert_eq!(store.words().len(), capacity);
        assert_eq!(store.popcount(), 0);
        // Architecture change recomputes the stride.
        let other = ArchSpec::paper_evaluation();
        store.reset(other, 2);
        assert_eq!(store.stride(), other.raw_bits_per_macro().div_ceil(64));
        assert_eq!(store.frame(0).len(), other.raw_bits_per_macro());
    }

    #[test]
    fn run_copies_move_whole_frames() {
        let mut a = FrameStore::new(spec(), 4);
        a.frame_mut(0).set_bit(1, true);
        a.frame_mut(1).set_bit(283, true);
        let mut b = FrameStore::new(spec(), 4);
        b.copy_run_from(2, &a, 0, 2).unwrap();
        assert!(b.frame(2).bit(1));
        assert!(b.frame(3).bit(283));
        b.copy_run_within(2, 0, 2);
        assert!(b.frame(0).bit(1));
        assert_eq!(b.popcount(), 4);
        b.clear_run(0, 4).unwrap();
        assert_eq!(b.popcount(), 0);
    }

    #[test]
    fn mismatched_or_out_of_range_runs_are_typed_errors() {
        let mut a = FrameStore::new(spec(), 4);
        let other = FrameStore::new(ArchSpec::paper_evaluation(), 4);
        assert_eq!(
            a.copy_run_from(0, &other, 0, 2),
            Err(BitstreamError::LayoutMismatch)
        );
        let same = FrameStore::new(spec(), 4);
        assert_eq!(
            a.copy_run_from(3, &same, 0, 2),
            Err(BitstreamError::RunOutOfBounds {
                start: 3,
                count: 2,
                frames: 4
            })
        );
        assert_eq!(
            a.copy_run_from(0, &same, 4, 1),
            Err(BitstreamError::RunOutOfBounds {
                start: 4,
                count: 1,
                frames: 4
            })
        );
        assert_eq!(
            a.clear_run(2, usize::MAX),
            Err(BitstreamError::RunOutOfBounds {
                start: 2,
                count: usize::MAX,
                frames: 4
            })
        );
        // A failed copy leaves the destination untouched.
        assert_eq!(a.popcount(), 0);
    }
}
