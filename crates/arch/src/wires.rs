//! Global naming of routing wires, shared by the router, the bit-stream
//! generator and the VBS encoder/decoder.
//!
//! All wires are unit-length (they span exactly one macro pitch), matching the
//! mesh network of Section II-A. Each macro tile `(x, y)` *owns* two bundles
//! of `W` wires:
//!
//! * its **horizontal** wires `WireRef::horizontal(x, y, t)`, running from
//!   switch box `(x, y)` towards switch box `(x+1, y)`. Inside macro `(x, y)`
//!   this is the *east* stub; inside macro `(x+1, y)` it is the *west* stub.
//! * its **vertical** wires `WireRef::vertical(x, y, t)`, running from switch
//!   box `(x, y)` towards switch box `(x, y+1)`. Inside macro `(x, y)` this is
//!   the *north* stub; inside macro `(x, y+1)` it is the *south* stub.
//!
//! The wire owned by the last column/row ends at the device edge and is still
//! usable as a connection-box landing site, mirroring perimeter channels of
//! island-style devices.

use crate::geometry::{Coord, Side};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Orientation of a routing wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum WireKind {
    /// A `ChanX` wire (east–west).
    Horizontal,
    /// A `ChanY` wire (north–south).
    Vertical,
}

impl fmt::Display for WireKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireKind::Horizontal => f.write_str("chanx"),
            WireKind::Vertical => f.write_str("chany"),
        }
    }
}

/// A single routing wire of the device, identified by the macro that owns it,
/// its orientation and its track index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct WireRef {
    /// Orientation of the wire.
    pub kind: WireKind,
    /// The macro owning the wire (the wire starts at this macro's switch box).
    pub owner: Coord,
    /// Track index within the channel (`0 .. W`).
    pub track: u16,
}

impl WireRef {
    /// The horizontal wire owned by macro `(x, y)` on `track`.
    pub const fn horizontal(x: u16, y: u16, track: u16) -> Self {
        WireRef {
            kind: WireKind::Horizontal,
            owner: Coord::new(x, y),
            track,
        }
    }

    /// The vertical wire owned by macro `(x, y)` on `track`.
    pub const fn vertical(x: u16, y: u16, track: u16) -> Self {
        WireRef {
            kind: WireKind::Vertical,
            owner: Coord::new(x, y),
            track,
        }
    }

    /// The wire crossing boundary `side` of macro `at` on `track`, if that
    /// wire exists (wires beyond the device's south/west edge do not).
    ///
    /// It answers "which global wire does macro I/O `Boundary { side, track }`
    /// of the macro at `at` refer to?".
    pub fn from_boundary(at: Coord, side: Side, track: u16) -> Option<WireRef> {
        match side {
            Side::East => Some(WireRef::horizontal(at.x, at.y, track)),
            Side::North => Some(WireRef::vertical(at.x, at.y, track)),
            Side::West => {
                at.x.checked_sub(1)
                    .map(|x| WireRef::horizontal(x, at.y, track))
            }
            Side::South => {
                at.y.checked_sub(1)
                    .map(|y| WireRef::vertical(at.x, y, track))
            }
        }
    }

    /// The boundary crossing this wire represents when seen from macro `at`,
    /// or `None` if the wire does not touch that macro.
    ///
    /// Every wire touches exactly two macros (or one, at the device edge):
    /// its owner (as the east/north stub) and the owner's east/north
    /// neighbour (as the west/south stub). Macro `at`'s switch box sits at
    /// its south-west corner, so this is also the side the wire occupies at
    /// that switch box.
    pub(crate) fn boundary_of(&self, at: Coord) -> Option<Side> {
        match self.kind {
            WireKind::Horizontal => {
                if self.owner == at {
                    Some(Side::East)
                } else if self.owner.x + 1 == at.x && self.owner.y == at.y {
                    Some(Side::West)
                } else {
                    None
                }
            }
            WireKind::Vertical => {
                if self.owner == at {
                    Some(Side::North)
                } else if self.owner.x == at.x && self.owner.y + 1 == at.y {
                    Some(Side::South)
                } else {
                    None
                }
            }
        }
    }

    /// The two macros this wire touches: its owner and (if inside the device)
    /// the east or north neighbour of the owner.
    pub fn touching_macros(&self) -> [Coord; 2] {
        let second = match self.kind {
            WireKind::Horizontal => Coord::new(self.owner.x + 1, self.owner.y),
            WireKind::Vertical => Coord::new(self.owner.x, self.owner.y + 1),
        };
        [self.owner, second]
    }

    /// The wire of macro `at` that `pin`'s connection box crosses on
    /// `track`.
    ///
    /// Even pins cross the macro's own horizontal wires (its east stubs), odd
    /// pins its vertical wires (its north stubs). The LUT output (pin `K = 6`,
    /// even) therefore drives horizontal wires, the classic VPR convention of
    /// output pins facing `ChanX`.
    pub(crate) const fn of_pin(at: Coord, pin: u8, track: u16) -> WireRef {
        if pin.is_multiple_of(2) {
            WireRef::horizontal(at.x, at.y, track)
        } else {
            WireRef::vertical(at.x, at.y, track)
        }
    }

    /// Whether this wire can be reached by `pin`'s connection box when the
    /// pin belongs to the logic block of macro `at` ([`WireRef::of_pin`]).
    pub(crate) fn reachable_from_pin(&self, at: Coord, pin: u8) -> bool {
        *self == WireRef::of_pin(at, pin, self.track)
    }
}

impl fmt::Display for WireRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}({},{})[{}]",
            self.kind, self.owner.x, self.owner.y, self.track
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ArchSpec;

    #[test]
    fn boundary_mapping_roundtrip() {
        let at = Coord::new(3, 4);
        for side in Side::ALL {
            for track in [0u16, 2, 7] {
                let wire = WireRef::from_boundary(at, side, track).expect("interior macro");
                assert_eq!(wire.boundary_of(at), Some(side));
                assert_eq!(wire.track, track);
            }
        }
    }

    #[test]
    fn edge_macros_have_no_west_or_south_wire() {
        let at = Coord::new(0, 0);
        assert!(WireRef::from_boundary(at, Side::West, 0).is_none());
        assert!(WireRef::from_boundary(at, Side::South, 0).is_none());
        assert!(WireRef::from_boundary(at, Side::East, 0).is_some());
        assert!(WireRef::from_boundary(at, Side::North, 0).is_some());
    }

    #[test]
    fn shared_wire_is_east_of_owner_and_west_of_neighbor() {
        let wire = WireRef::horizontal(2, 5, 1);
        assert_eq!(wire.boundary_of(Coord::new(2, 5)), Some(Side::East));
        assert_eq!(wire.boundary_of(Coord::new(3, 5)), Some(Side::West));
        assert_eq!(wire.boundary_of(Coord::new(4, 5)), None);

        let wire = WireRef::vertical(2, 5, 1);
        assert_eq!(wire.boundary_of(Coord::new(2, 5)), Some(Side::North));
        assert_eq!(wire.boundary_of(Coord::new(2, 6)), Some(Side::South));
    }

    #[test]
    fn pin_reachability_follows_parity() {
        let at = Coord::new(1, 1);
        let h = WireRef::horizontal(1, 1, 0);
        let v = WireRef::vertical(1, 1, 0);
        assert!(h.reachable_from_pin(at, 0));
        assert!(!h.reachable_from_pin(at, 1));
        assert!(v.reachable_from_pin(at, 1));
        assert!(!v.reachable_from_pin(at, 0));
        // A wire owned by another macro is never pin-reachable.
        assert!(!h.reachable_from_pin(Coord::new(2, 1), 0));
    }

    #[test]
    fn dense_indices_are_unique_and_compact() {
        let spec = ArchSpec::new(4, 6).unwrap();
        let (width, height) = (3u16, 2u16);
        let device = crate::Device::new(spec, width, height).unwrap();
        let total = device.wire_count();
        let mut seen = vec![false; total];
        for y in 0..height {
            for x in 0..width {
                for t in 0..spec.channel_width() {
                    for wire in [WireRef::horizontal(x, y, t), WireRef::vertical(x, y, t)] {
                        let idx = device.wire_index(wire);
                        assert!(idx < total);
                        assert!(!seen[idx], "duplicate dense index {idx}");
                        seen[idx] = true;
                    }
                }
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn touching_macros_are_owner_and_forward_neighbor() {
        let wire = WireRef::horizontal(4, 7, 3);
        assert_eq!(wire.touching_macros(), [Coord::new(4, 7), Coord::new(5, 7)]);
        let wire = WireRef::vertical(4, 7, 3);
        assert_eq!(wire.touching_macros(), [Coord::new(4, 7), Coord::new(4, 8)]);
    }
}
