//! A sized reconfigurable device: a `width` × `height` grid of macros sharing
//! one [`ArchSpec`].

use crate::error::ArchError;
use crate::geometry::{Coord, Rect, Side};
use crate::spec::ArchSpec;
use crate::wires::{WireKind, WireRef};
use serde::{Deserialize, Serialize};

/// A reconfigurable device: a rectangular grid of identical macros.
///
/// The paper treats primary inputs and outputs as part of the heterogeneous
/// fabric itself (Section II-A), so every site of the grid can host either a
/// logic block or an I/O pad; the device model therefore stays homogeneous.
///
/// ```
/// use vbs_arch::{ArchSpec, Device, Coord};
/// # fn main() -> Result<(), vbs_arch::ArchError> {
/// let device = Device::new(ArchSpec::paper_evaluation(), 10, 8)?;
/// assert_eq!(device.macro_count(), 80);
/// assert!(device.contains(Coord::new(9, 7)));
/// assert!(!device.contains(Coord::new(10, 0)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Device {
    spec: ArchSpec,
    width: u16,
    height: u16,
}

impl Device {
    /// Maximum supported device edge length, in macros.
    pub const MAX_EDGE: u16 = 1024;

    /// Creates a device of `width` × `height` macros.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidDeviceSize`] if either dimension is zero or
    /// exceeds [`Device::MAX_EDGE`].
    pub fn new(spec: ArchSpec, width: u16, height: u16) -> Result<Self, ArchError> {
        if width == 0 || height == 0 || width > Self::MAX_EDGE || height > Self::MAX_EDGE {
            return Err(ArchError::InvalidDeviceSize { width, height });
        }
        Ok(Device {
            spec,
            width,
            height,
        })
    }

    /// The architecture parameters of every macro of this device.
    pub const fn spec(&self) -> &ArchSpec {
        &self.spec
    }

    /// Grid width in macros.
    pub const fn width(&self) -> u16 {
        self.width
    }

    /// Grid height in macros.
    pub const fn height(&self) -> u16 {
        self.height
    }

    /// Number of macros in the device.
    pub const fn macro_count(&self) -> u32 {
        self.width as u32 * self.height as u32
    }

    /// The rectangle covering the whole device.
    pub const fn bounds(&self) -> Rect {
        Rect::new(Coord::new(0, 0), self.width, self.height)
    }

    /// Whether `c` is a valid macro coordinate of this device.
    pub fn contains(&self, c: Coord) -> bool {
        c.x < self.width && c.y < self.height
    }

    /// Validates that `c` lies inside the device.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::CoordOutOfBounds`] when it does not.
    #[cfg(test)]
    fn check_coord(&self, c: Coord) -> Result<(), ArchError> {
        if self.contains(c) {
            Ok(())
        } else {
            Err(ArchError::CoordOutOfBounds {
                x: c.x,
                y: c.y,
                width: self.width,
                height: self.height,
            })
        }
    }

    /// Size of the raw configuration bit-stream of the full device, in bits
    /// (`width · height · N_raw`).
    #[cfg(test)]
    fn raw_bitstream_bits(&self) -> u64 {
        self.macro_count() as u64 * self.spec.raw_bits_per_macro() as u64
    }

    /// A dense index for a macro coordinate (row-major).
    ///
    /// # Panics
    ///
    /// Panics if `c` is outside the device; check untrusted input with
    /// [`Device::contains`] first.
    pub(crate) fn macro_index(&self, c: Coord) -> usize {
        assert!(self.contains(c), "coordinate {c} outside device");
        c.y as usize * self.width as usize + c.x as usize
    }

    /// The coordinate corresponding to a dense macro index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= macro_count()`.
    pub(crate) fn macro_at(&self, index: usize) -> Coord {
        assert!(index < self.macro_count() as usize);
        Coord::new(
            (index % self.width as usize) as u16,
            (index / self.width as usize) as u16,
        )
    }

    /// Iterates over every macro coordinate of the device, row-major.
    #[cfg(test)]
    fn iter_coords(&self) -> impl Iterator<Item = Coord> + '_ {
        let w = self.width;
        (0..self.height).flat_map(move |y| (0..w).map(move |x| Coord::new(x, y)))
    }

    /// Whether a wire exists in this device: its owner lies inside the grid
    /// and its track inside the channel.
    pub fn wire_exists(&self, wire: WireRef) -> bool {
        self.contains(wire.owner) && wire.track < self.spec.channel_width()
    }

    /// The wire crossing boundary `side` of macro `at` on `track`, when that
    /// wire exists inside this device.
    pub(crate) fn boundary_wire(&self, at: Coord, side: Side, track: u16) -> Option<WireRef> {
        if !self.contains(at) {
            return None;
        }
        WireRef::from_boundary(at, side, track).filter(|w| self.wire_exists(*w))
    }

    /// The switch box shared by two wires of equal track, if any, together
    /// with the sides the two wires occupy there.
    ///
    /// The switch box of macro `(x, y)` sits at the macro's south-west
    /// corner, so a wire's candidate switch boxes are its owner's and, inside
    /// the device, the one past its far (east or north) end.
    pub(crate) fn shared_switch_box(&self, a: WireRef, b: WireRef) -> Option<(Coord, Side, Side)> {
        if a.track != b.track {
            return None;
        }
        let ends = |w: WireRef| -> [Option<Coord>; 2] {
            let far = match w.kind {
                WireKind::Horizontal => w.owner.neighbor(Side::East),
                WireKind::Vertical => w.owner.neighbor(Side::North),
            };
            [Some(w.owner), far.filter(|c| self.contains(*c))]
        };
        for ea in ends(a).into_iter().flatten() {
            for eb in ends(b).into_iter().flatten() {
                if ea == eb {
                    let side_a = a.boundary_of(ea)?;
                    let side_b = b.boundary_of(ea)?;
                    if side_a != side_b {
                        return Some((ea, side_a, side_b));
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> Device {
        Device::new(ArchSpec::paper_example(), 4, 3).unwrap()
    }

    #[test]
    fn rejects_degenerate_sizes() {
        let spec = ArchSpec::paper_example();
        assert!(Device::new(spec, 0, 5).is_err());
        assert!(Device::new(spec, 5, 0).is_err());
        assert!(Device::new(spec, 2000, 5).is_err());
        assert!(Device::new(spec, 5, 5).is_ok());
    }

    #[test]
    fn macro_index_roundtrip() {
        let d = device();
        for (i, c) in d.iter_coords().enumerate() {
            assert_eq!(d.macro_index(c), i);
            assert_eq!(d.macro_at(i), c);
        }
        assert_eq!(d.iter_coords().count(), d.macro_count() as usize);
    }

    #[test]
    fn raw_bitstream_size_scales_with_area() {
        let spec = ArchSpec::paper_evaluation();
        let d = Device::new(spec, 35, 35).unwrap();
        assert_eq!(
            d.raw_bitstream_bits(),
            35 * 35 * spec.raw_bits_per_macro() as u64
        );
    }

    #[test]
    fn boundary_wires_respect_device_edges() {
        let d = device();
        // South-west corner: no south or west wire.
        assert!(d.boundary_wire(Coord::new(0, 0), Side::West, 0).is_none());
        assert!(d.boundary_wire(Coord::new(0, 0), Side::South, 0).is_none());
        assert!(d.boundary_wire(Coord::new(0, 0), Side::East, 0).is_some());
        // Out-of-range track.
        assert!(d
            .boundary_wire(Coord::new(1, 1), Side::East, d.spec().channel_width())
            .is_none());
        // Interior macro has all four.
        for side in Side::ALL {
            assert!(d.boundary_wire(Coord::new(2, 1), side, 0).is_some());
        }
    }

    #[test]
    fn shared_switch_box_finds_the_common_corner() {
        let d = Device::new(ArchSpec::new(4, 6).unwrap(), 5, 4).unwrap();
        let a = WireRef::horizontal(2, 2, 1); // east wire of (2,2)
        let b = WireRef::vertical(3, 2, 1); // north wire of (3,2)
        let (sb, sa, sb_side) = d
            .shared_switch_box(a, b)
            .expect("adjacent wires share a SB");
        assert_eq!(sb, Coord::new(3, 2));
        assert_eq!(sa, Side::West);
        assert_eq!(sb_side, Side::North);
        // Different tracks never share.
        let c = WireRef::vertical(3, 2, 2);
        assert!(d.shared_switch_box(a, c).is_none());
    }

    #[test]
    fn wire_indices_cover_range() {
        let d = device();
        let mut seen = vec![false; d.wire_count()];
        for c in d.iter_coords() {
            for t in 0..d.spec().channel_width() {
                for kind in [WireKind::Horizontal, WireKind::Vertical] {
                    let wire = WireRef {
                        kind,
                        owner: c,
                        track: t,
                    };
                    let idx = d.wire_index(wire);
                    assert!(!seen[idx]);
                    seen[idx] = true;
                }
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn check_coord_reports_bounds() {
        let d = device();
        assert!(d.check_coord(Coord::new(3, 2)).is_ok());
        assert!(matches!(
            d.check_coord(Coord::new(4, 0)),
            Err(ArchError::CoordOutOfBounds { .. })
        ));
    }
}
