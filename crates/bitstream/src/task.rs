//! The raw bit-stream of one hardware task.

use crate::error::BitstreamError;
use crate::frame::{FrameMut, FrameRef};
use crate::store::FrameStore;
use bytes::{BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};
use vbs_arch::{ArchSpec, Coord};

/// The raw ("conventional") configuration bit-stream of a hardware task:
/// one frame for every macro of the task's `width` × `height` rectangle, in
/// row-major task-relative order, packed into a single contiguous
/// [`FrameStore`] word arena (no per-frame allocations).
///
/// Its size — the reference every compression ratio of the paper is measured
/// against — is `width · height · N_raw` bits regardless of how much of the
/// fabric the task actually uses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskBitstream {
    width: u16,
    height: u16,
    store: FrameStore,
}

impl TaskBitstream {
    /// Creates an all-empty bit-stream for a `width` × `height` task.
    pub fn empty(spec: ArchSpec, width: u16, height: u16) -> Self {
        TaskBitstream {
            width,
            height,
            store: FrameStore::new(spec, width as usize * height as usize),
        }
    }

    /// Reshapes this bit-stream to an all-empty `width` × `height` task of
    /// `spec` **in place**, reusing the word arena wherever possible.
    ///
    /// This is the buffer-recycling primitive of the zero-allocation decode
    /// path: because the frames live in one flat arena, a pooled
    /// `TaskBitstream` checked out for a new task pays no heap traffic as
    /// long as the new shape's word count fits the arena's capacity — even
    /// when the task mix cycles through different shapes and architectures.
    pub fn reset(&mut self, spec: ArchSpec, width: u16, height: u16) {
        self.width = width;
        self.height = height;
        self.store.reset(spec, width as usize * height as usize);
    }

    /// The architecture of the target fabric.
    pub const fn spec(&self) -> &ArchSpec {
        self.store.spec()
    }

    /// Task width in macros.
    pub const fn width(&self) -> u16 {
        self.width
    }

    /// Task height in macros.
    pub const fn height(&self) -> u16 {
        self.height
    }

    /// Number of macros covered by the task rectangle.
    pub fn macro_count(&self) -> usize {
        self.store.len()
    }

    /// The flat word arena holding the frames (row-major).
    pub fn store(&self) -> &FrameStore {
        &self.store
    }

    /// Mutable access to the word arena — the bulk-copy entry point of the
    /// word-level region operations.
    pub(crate) fn store_mut(&mut self) -> &mut FrameStore {
        &mut self.store
    }

    /// Size of the raw bit-stream in bits: `width · height · N_raw`.
    pub fn size_bits(&self) -> u64 {
        self.store.len() as u64 * self.spec().raw_bits_per_macro() as u64
    }

    /// Resident memory of the decoded word arena, in bytes. This is what a
    /// decoded cache entry actually holds, as opposed to [`Self::size_bits`]
    /// which counts the logical frame bits.
    pub fn size_bytes(&self) -> u64 {
        self.store.words().len() as u64 * 8
    }

    /// The frame of the macro at task-relative coordinates `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies outside the task rectangle; use
    /// [`TaskBitstream::try_frame`] for untrusted coordinates.
    pub fn frame(&self, at: Coord) -> FrameRef<'_> {
        self.store.frame(self.index(at))
    }

    /// Fallible access to a frame.
    ///
    /// # Errors
    ///
    /// Returns [`BitstreamError::OutOfTask`] when `at` is outside the task.
    pub fn try_frame(&self, at: Coord) -> Result<FrameRef<'_>, BitstreamError> {
        if at.x < self.width && at.y < self.height {
            Ok(self
                .store
                .frame(at.y as usize * self.width as usize + at.x as usize))
        } else {
            Err(BitstreamError::OutOfTask { at })
        }
    }

    /// Mutable access to the frame at task-relative coordinates `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies outside the task rectangle.
    pub fn frame_mut(&mut self, at: Coord) -> FrameMut<'_> {
        let idx = self.index(at);
        self.store.frame_mut(idx)
    }

    /// Iterates over `(task-relative coordinate, frame)` pairs, row-major.
    pub fn iter_frames(&self) -> impl Iterator<Item = (Coord, FrameRef<'_>)> {
        let w = self.width;
        self.store.iter().enumerate().map(move |(i, f)| {
            (
                Coord::new((i % w as usize) as u16, (i / w as usize) as u16),
                f,
            )
        })
    }

    /// Number of macros whose frame is not entirely zero.
    pub fn occupied_macros(&self) -> usize {
        self.store.iter().filter(|f| !f.is_empty()).count()
    }

    /// Total number of configured (set) bits over the whole task.
    pub fn popcount(&self) -> usize {
        self.store.popcount()
    }

    /// Number of differing bits with another bit-stream of the same shape —
    /// a single XOR-popcount sweep over the two arenas.
    ///
    /// # Errors
    ///
    /// Returns [`BitstreamError::LayoutMismatch`] when the shapes or
    /// architectures differ.
    pub fn diff_count(&self, other: &TaskBitstream) -> Result<usize, BitstreamError> {
        if self.spec() != other.spec() || self.width != other.width || self.height != other.height {
            return Err(BitstreamError::LayoutMismatch);
        }
        let pairs = self.store.words().iter().zip(other.store.words());
        Ok(pairs.map(|(a, b)| (a ^ b).count_ones() as usize).sum())
    }

    /// Serializes the bit-stream to bytes (frames concatenated LSB-first,
    /// each frame padded to a whole byte).
    pub fn to_bytes(&self) -> Bytes {
        let frame_bytes = self.spec().raw_bits_per_macro().div_ceil(8);
        let mut buf = BytesMut::with_capacity(self.store.len() * frame_bytes);
        for frame in self.store.iter() {
            let mut byte = 0u8;
            for i in 0..frame.len() {
                if frame.bit(i) {
                    byte |= 1 << (i % 8);
                }
                if i % 8 == 7 {
                    buf.put_u8(byte);
                    byte = 0;
                }
            }
            if frame.len() % 8 != 0 {
                buf.put_u8(byte);
            }
        }
        buf.freeze()
    }

    /// Rebuilds a bit-stream from bytes produced by [`TaskBitstream::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`BitstreamError::Truncated`] when the byte count does not
    /// match the expected shape.
    pub fn from_bytes(
        spec: ArchSpec,
        width: u16,
        height: u16,
        bytes: &[u8],
    ) -> Result<Self, BitstreamError> {
        let frame_bytes = spec.raw_bits_per_macro().div_ceil(8);
        let expected = frame_bytes * width as usize * height as usize;
        if bytes.len() != expected {
            return Err(BitstreamError::Truncated {
                expected,
                found: bytes.len(),
            });
        }
        let mut task = TaskBitstream::empty(spec, width, height);
        for (frame_idx, chunk) in bytes.chunks(frame_bytes).enumerate() {
            let mut frame = task.store.frame_mut(frame_idx);
            for i in 0..frame.len() {
                let bit = (chunk[i / 8] >> (i % 8)) & 1 == 1;
                frame.set_bit(i, bit);
            }
        }
        Ok(task)
    }

    fn index(&self, at: Coord) -> usize {
        assert!(
            at.x < self.width && at.y < self.height,
            "coordinate {at} outside task {}x{}",
            self.width,
            self.height
        );
        at.y as usize * self.width as usize + at.x as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbs_arch::SbPair;

    fn spec() -> ArchSpec {
        ArchSpec::paper_example()
    }

    #[test]
    fn size_matches_the_rectangle() {
        let t = TaskBitstream::empty(spec(), 4, 3);
        assert_eq!(t.size_bits(), 12 * 284);
        assert_eq!(t.macro_count(), 12);
        assert_eq!(t.occupied_macros(), 0);
    }

    #[test]
    fn frame_access_and_bounds() {
        let mut t = TaskBitstream::empty(spec(), 4, 3);
        t.frame_mut(Coord::new(2, 1))
            .set_sb(0, SbPair::EastWest, true);
        assert!(t.frame(Coord::new(2, 1)).sb(0, SbPair::EastWest));
        assert_eq!(t.occupied_macros(), 1);
        assert_eq!(t.popcount(), 1);
        assert!(matches!(
            t.try_frame(Coord::new(4, 0)),
            Err(BitstreamError::OutOfTask { .. })
        ));
    }

    #[test]
    fn byte_roundtrip_preserves_every_bit() {
        let mut t = TaskBitstream::empty(spec(), 3, 2);
        t.frame_mut(Coord::new(0, 0)).set_crossing(3, 1, true);
        t.frame_mut(Coord::new(2, 1))
            .set_sb(4, SbPair::NorthWest, true);
        t.frame_mut(Coord::new(1, 0)).set_bit(283, true);
        let bytes = t.to_bytes();
        let back = TaskBitstream::from_bytes(spec(), 3, 2, &bytes).unwrap();
        assert_eq!(t.diff_count(&back).unwrap(), 0);
        assert_eq!(back.popcount(), 3);
    }

    #[test]
    fn from_bytes_rejects_wrong_length() {
        let t = TaskBitstream::empty(spec(), 2, 2);
        let bytes = t.to_bytes();
        assert!(matches!(
            TaskBitstream::from_bytes(spec(), 2, 3, &bytes),
            Err(BitstreamError::Truncated { .. })
        ));
    }

    #[test]
    fn diff_requires_same_shape() {
        let a = TaskBitstream::empty(spec(), 2, 2);
        let b = TaskBitstream::empty(spec(), 2, 3);
        assert!(matches!(
            a.diff_count(&b),
            Err(BitstreamError::LayoutMismatch)
        ));
    }

    #[test]
    fn reset_reshapes_in_place() {
        let mut t = TaskBitstream::empty(spec(), 4, 3);
        t.frame_mut(Coord::new(3, 2)).set_bit(7, true);
        // Same shape: just zeroed.
        t.reset(spec(), 4, 3);
        assert_eq!(t.popcount(), 0);
        assert_eq!(t.macro_count(), 12);
        // Shrink, then grow past the original shape.
        t.frame_mut(Coord::new(0, 0)).set_bit(1, true);
        t.reset(spec(), 2, 2);
        assert_eq!((t.width(), t.height()), (2, 2));
        assert_eq!(t.popcount(), 0);
        t.reset(spec(), 5, 4);
        assert_eq!(t.macro_count(), 20);
        assert_eq!(t.popcount(), 0);
        // Architecture change reshapes every frame.
        let other = vbs_arch::ArchSpec::paper_evaluation();
        t.reset(other, 2, 1);
        assert_eq!(t.spec(), &other);
        assert_eq!(t.frame(Coord::new(0, 0)).len(), other.raw_bits_per_macro());
        assert_eq!(t.popcount(), 0);
    }

    #[test]
    fn iter_frames_is_row_major() {
        let t = TaskBitstream::empty(spec(), 3, 2);
        let coords: Vec<Coord> = t.iter_frames().map(|(c, _)| c).collect();
        assert_eq!(coords[0], Coord::new(0, 0));
        assert_eq!(coords[1], Coord::new(1, 0));
        assert_eq!(coords[3], Coord::new(0, 1));
        assert_eq!(coords.len(), 6);
    }
}
