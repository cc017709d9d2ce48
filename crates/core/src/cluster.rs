//! Cluster geometry and cluster-level I/O numbering.
//!
//! Section IV-B of the paper aggregates square groups of `k × k` macros into
//! one coding unit, pooling their routing resources: wires that stay inside
//! the cluster disappear from the connection lists, only crossings of the
//! cluster boundary and logic-block pins remain. `k = 1` is the finest grain
//! (one macro per record): there [`ClusterIo`] is the paper's macro I/O
//! numbering of Table I, `4W + L + 1` identifiers of
//! `M = ⌈log2(4W + L + 1)⌉` bits, and no other type numbers a macro's I/Os.

use crate::error::VbsError;
use serde::{Deserialize, Serialize};
use std::fmt;
use vbs_arch::{ceil_log2, ArchError, ArchSpec, Coord, Side, WireKind, WireRef};

/// A black-box I/O of a `k × k` cluster of macros.
///
/// Index layout (for channel width `W`, `L` pins per macro and cluster size
/// `k`): `0` is the reserved null identifier, `1 ..= 4kW` are boundary
/// crossings (north, east, south, west, each side holding `kW` crossings
/// ordered by position along the side then track), and the remaining `k²·L`
/// identifiers are logic-block pins ordered by local macro (row-major) then
/// pin number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ClusterIo {
    /// The reserved "unconnected" identifier.
    Null,
    /// A wire crossing the given boundary of the cluster.
    Boundary {
        /// Which cluster boundary is crossed.
        side: Side,
        /// Position along the side: `macro_offset · W + track`, in `0 .. kW`.
        offset: u16,
    },
    /// A logic-block pin of one of the cluster's macros.
    Pin {
        /// Local macro index within the cluster (row-major), `0 .. k²`.
        local: u16,
        /// Pin number, `0 .. L`.
        pin: u8,
    },
}

impl ClusterIo {
    /// Number of distinct identifiers for a cluster of size `k`:
    /// `4kW + k²L + 1`.
    pub fn io_count(spec: &ArchSpec, cluster_size: u16) -> u32 {
        let k = cluster_size as u32;
        4 * k * spec.channel_width() as u32 + k * k * spec.lb_pins() as u32 + 1
    }

    /// Width in bits of one identifier, `⌈log2(4kW + k²L + 1)⌉`
    /// (the generalization of Table I's `M` to clusters).
    pub fn io_bits(spec: &ArchSpec, cluster_size: u16) -> u32 {
        ceil_log2(Self::io_count(spec, cluster_size))
    }

    /// Encodes this I/O as its index.
    ///
    /// # Panics
    ///
    /// Panics if the offset, local index or pin is out of range.
    pub fn index(&self, spec: &ArchSpec, cluster_size: u16) -> u32 {
        self.checked_index(spec, cluster_size)
            .unwrap_or_else(|| panic!("{self} out of range for cluster size {cluster_size}"))
    }

    /// Encodes this I/O as its index, or `None` when the offset, local
    /// index or pin is out of range (only a hand-built record holds such
    /// an I/O).
    pub(crate) fn checked_index(&self, spec: &ArchSpec, cluster_size: u16) -> Option<u32> {
        let k = cluster_size as u32;
        let kw = k * spec.channel_width() as u32;
        match *self {
            ClusterIo::Null => Some(0),
            ClusterIo::Boundary { side, offset } => {
                ((offset as u32) < kw).then(|| 1 + side.index() as u32 * kw + offset as u32)
            }
            ClusterIo::Pin { local, pin } => ((local as u32) < k * k && pin < spec.lb_pins())
                .then(|| 1 + 4 * kw + local as u32 * spec.lb_pins() as u32 + pin as u32),
        }
    }

    /// Decodes an index.
    ///
    /// # Errors
    ///
    /// Returns [`VbsError::InvalidIo`] when the index is out of range.
    pub fn from_index(spec: &ArchSpec, cluster_size: u16, index: u32) -> Result<Self, VbsError> {
        let count = Self::io_count(spec, cluster_size);
        if index >= count {
            return Err(VbsError::InvalidIo {
                index,
                io_count: count,
            });
        }
        if index == 0 {
            return Ok(ClusterIo::Null);
        }
        let k = cluster_size as u32;
        let kw = k * spec.channel_width() as u32;
        let i = index - 1;
        if i < 4 * kw {
            Ok(ClusterIo::Boundary {
                side: Side::ALL[(i / kw) as usize],
                offset: (i % kw) as u16,
            })
        } else {
            let p = i - 4 * kw;
            Ok(ClusterIo::Pin {
                local: (p / spec.lb_pins() as u32) as u16,
                pin: (p % spec.lb_pins() as u32) as u8,
            })
        }
    }
}

impl fmt::Display for ClusterIo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterIo::Null => write!(f, "null"),
            ClusterIo::Boundary { side, offset } => write!(f, "{side}[{offset}]"),
            ClusterIo::Pin { local, pin } => write!(f, "m{local}.pin{pin}"),
        }
    }
}

/// The cluster tiling of a task rectangle.
///
/// All coordinates handled here are **task-relative** (the task's lower-left
/// macro is `(0, 0)`), which is what keeps the Virtual Bit-Stream independent
/// of its final position on the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterGrid {
    spec: ArchSpec,
    cluster_size: u16,
    width: u16,
    height: u16,
}

impl ClusterGrid {
    /// Creates the cluster tiling of a `width` × `height` task.
    ///
    /// # Errors
    ///
    /// Returns [`VbsError::Arch`] ([`vbs_arch::ArchError::InvalidDeviceSize`])
    /// if the task has zero area, and [`VbsError::InvalidClusterSize`] if
    /// `cluster_size` is zero or larger than the task's largest dimension.
    pub fn new(
        spec: ArchSpec,
        cluster_size: u16,
        width: u16,
        height: u16,
    ) -> Result<Self, VbsError> {
        if width == 0 || height == 0 {
            return Err(VbsError::Arch(ArchError::InvalidDeviceSize {
                width,
                height,
            }));
        }
        if cluster_size == 0 || cluster_size > width.max(height) {
            return Err(VbsError::InvalidClusterSize { cluster_size });
        }
        Ok(ClusterGrid {
            spec,
            cluster_size,
            width,
            height,
        })
    }

    /// The architecture parameters.
    pub const fn spec(&self) -> &ArchSpec {
        &self.spec
    }

    /// Cluster edge length `k`, in macros.
    pub const fn cluster_size(&self) -> u16 {
        self.cluster_size
    }

    /// Task width in macros.
    pub const fn width(&self) -> u16 {
        self.width
    }

    /// Task height in macros.
    pub const fn height(&self) -> u16 {
        self.height
    }

    /// Number of cluster columns (`⌈width / k⌉`).
    pub fn cluster_cols(&self) -> u16 {
        self.width.div_ceil(self.cluster_size)
    }

    /// Number of cluster rows (`⌈height / k⌉`).
    pub fn cluster_rows(&self) -> u16 {
        self.height.div_ceil(self.cluster_size)
    }

    /// The cluster containing the macro at task-relative `at`.
    pub fn cluster_of(&self, at: Coord) -> Coord {
        Coord::new(at.x / self.cluster_size, at.y / self.cluster_size)
    }

    /// The local macro index (row-major within the cluster) of `at`.
    fn local_index(&self, at: Coord) -> u16 {
        let lx = at.x % self.cluster_size;
        let ly = at.y % self.cluster_size;
        ly * self.cluster_size + lx
    }

    /// The task-relative macro coordinate of local index `local` within
    /// `cluster`, or `None` if that macro falls outside the task (edge
    /// clusters may be partial).
    pub fn macro_at(&self, cluster: Coord, local: u16) -> Option<Coord> {
        let k = self.cluster_size;
        let lx = local % k;
        let ly = local / k;
        let x = cluster.x * k + lx;
        let y = cluster.y * k + ly;
        (x < self.width && y < self.height).then_some(Coord::new(x, y))
    }

    /// Classifies a wire (task-relative) as seen from `cluster`:
    /// `Some(Boundary { .. })` if it crosses that cluster's boundary,
    /// `None` if it is interior to the cluster or does not touch it.
    pub fn wire_io(&self, cluster: Coord, wire: WireRef) -> Option<ClusterIo> {
        let [owner, fwd] = wire.touching_macros();
        let owner_cluster = self.cluster_of(owner);
        // `fwd` may lie outside the task; its cluster is still well defined
        // for the comparison (it just never equals `cluster` in that case
        // unless it is genuinely inside).
        let fwd_in_task = fwd.x < self.width && fwd.y < self.height;
        let fwd_cluster = self.cluster_of(fwd);
        let k = self.cluster_size;
        if owner_cluster == cluster && (!fwd_in_task || fwd_cluster != cluster) {
            // The wire leaves the cluster through its east/north boundary.
            let (side, offset) = match wire.kind {
                WireKind::Horizontal => (
                    Side::East,
                    (owner.y % k) * self.spec.channel_width() + wire.track,
                ),
                WireKind::Vertical => (
                    Side::North,
                    (owner.x % k) * self.spec.channel_width() + wire.track,
                ),
            };
            Some(ClusterIo::Boundary { side, offset })
        } else if fwd_in_task && fwd_cluster == cluster && owner_cluster != cluster {
            let (side, offset) = match wire.kind {
                WireKind::Horizontal => (
                    Side::West,
                    (fwd.y % k) * self.spec.channel_width() + wire.track,
                ),
                WireKind::Vertical => (
                    Side::South,
                    (fwd.x % k) * self.spec.channel_width() + wire.track,
                ),
            };
            Some(ClusterIo::Boundary { side, offset })
        } else {
            None
        }
    }

    /// Whether a wire (task-relative) touches `cluster` at all, either as an
    /// interior wire or as a boundary crossing.
    pub fn wire_touches(&self, cluster: Coord, wire: WireRef) -> bool {
        let [owner, fwd] = wire.touching_macros();
        let fwd_in_task = fwd.x < self.width && fwd.y < self.height;
        self.cluster_of(owner) == cluster || (fwd_in_task && self.cluster_of(fwd) == cluster)
    }

    /// The task-relative wire corresponding to a boundary I/O of `cluster`.
    ///
    /// # Errors
    ///
    /// Returns [`VbsError::DanglingBoundary`] when the wire would lie outside
    /// the task (e.g. the west boundary of the leftmost cluster column).
    #[cfg(test)]
    pub(crate) fn boundary_wire(
        &self,
        cluster: Coord,
        side: Side,
        offset: u16,
    ) -> Result<WireRef, VbsError> {
        let k = self.cluster_size;
        let w = self.spec.channel_width();
        let along = offset / w;
        let track = offset % w;
        let dangling = || VbsError::DanglingBoundary {
            cluster,
            io: format!("{side}[{offset}]"),
        };
        if along >= k {
            return Err(dangling());
        }
        let wire = match side {
            Side::East => {
                let x = cluster.x * k + (k - 1).min(self.width - 1 - cluster.x * k);
                let y = cluster.y * k + along;
                WireRef::horizontal(x, y, track)
            }
            Side::North => {
                let x = cluster.x * k + along;
                let y = cluster.y * k + (k - 1).min(self.height - 1 - cluster.y * k);
                WireRef::vertical(x, y, track)
            }
            Side::West => {
                let x = (cluster.x * k).checked_sub(1).ok_or_else(dangling)?;
                let y = cluster.y * k + along;
                WireRef::horizontal(x, y, track)
            }
            Side::South => {
                let x = cluster.x * k + along;
                let y = (cluster.y * k).checked_sub(1).ok_or_else(dangling)?;
                WireRef::vertical(x, y, track)
            }
        };
        if wire.owner.x >= self.width || wire.owner.y >= self.height {
            return Err(dangling());
        }
        Ok(wire)
    }

    /// The pin I/O of the macro at task-relative `at`, pin `pin`, as seen
    /// from its own cluster.
    pub fn pin_io(&self, at: Coord, pin: u8) -> ClusterIo {
        ClusterIo::Pin {
            local: self.local_index(at),
            pin,
        }
    }

    /// Iterates over the cluster coordinates of the tiling, row-major.
    pub fn iter_clusters(&self) -> impl Iterator<Item = Coord> + '_ {
        let cols = self.cluster_cols();
        (0..self.cluster_rows()).flat_map(move |cy| (0..cols).map(move |cx| Coord::new(cx, cy)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ArchSpec {
        ArchSpec::paper_example() // W = 5, L = 7
    }

    #[test]
    fn io_count_matches_macroio_for_k1() {
        // Section II-B / Table I: 4W + L + 1 macro I/O identifiers, 28 at
        // W = 5 (M = 5 bits) and 88 at W = 20 (M = 7 bits).
        let s = spec();
        assert_eq!(ClusterIo::io_count(&s, 1), 28);
        assert_eq!(ClusterIo::io_bits(&s, 1), 5);
        let eval = ArchSpec::paper_evaluation();
        assert_eq!(ClusterIo::io_count(&eval, 1), 88);
        assert_eq!(ClusterIo::io_bits(&eval, 1), 7);
    }

    #[test]
    fn io_numbering_layout_matches_documentation() {
        // At k = 1: null, then W tracks per side (north, east, south, west),
        // then the L pins.
        let s = spec();
        let w = u32::from(s.channel_width());
        let index = |io: ClusterIo| io.index(&s, 1);
        let boundary = |side, offset| ClusterIo::Boundary { side, offset };
        assert_eq!(index(ClusterIo::Null), 0);
        assert_eq!(index(boundary(Side::North, 0)), 1);
        assert_eq!(index(boundary(Side::East, 0)), 1 + w);
        assert_eq!(index(boundary(Side::West, s.channel_width() - 1)), 4 * w);
        assert_eq!(index(ClusterIo::Pin { local: 0, pin: 0 }), 4 * w + 1);
        let last_pin = ClusterIo::Pin {
            local: 0,
            pin: s.lb_pins() - 1,
        };
        assert_eq!(index(last_pin), ClusterIo::io_count(&s, 1) - 1);
    }

    #[test]
    fn io_index_roundtrip_for_various_cluster_sizes() {
        let s = spec();
        for k in [1u16, 2, 3, 4] {
            for idx in 0..ClusterIo::io_count(&s, k) {
                let io = ClusterIo::from_index(&s, k, idx).unwrap();
                assert_eq!(io.index(&s, k), idx, "k={k} idx={idx}");
            }
            assert!(ClusterIo::from_index(&s, k, ClusterIo::io_count(&s, k)).is_err());
        }
    }

    #[test]
    fn cluster_of_and_local_index() {
        let g = ClusterGrid::new(spec(), 3, 10, 10).unwrap();
        assert_eq!(g.cluster_of(Coord::new(7, 4)), Coord::new(2, 1));
        assert_eq!(g.local_index(Coord::new(7, 4)), 3 + 1);
        assert_eq!(g.macro_at(Coord::new(2, 1), 4), Some(Coord::new(7, 4)));
        assert_eq!(g.cluster_cols(), 4);
        assert_eq!(g.cluster_rows(), 4);
        // Partial edge cluster: local index 8 of cluster (3, 3) is (11, 11),
        // outside a 10x10 task.
        assert_eq!(g.macro_at(Coord::new(3, 3), 8), None);
    }

    #[test]
    fn invalid_cluster_sizes_are_rejected() {
        assert!(ClusterGrid::new(spec(), 0, 8, 8).is_err());
        assert!(ClusterGrid::new(spec(), 9, 8, 8).is_err());
        assert!(ClusterGrid::new(spec(), 8, 8, 8).is_ok());
    }

    #[test]
    fn wire_io_distinguishes_interior_and_boundary() {
        let g = ClusterGrid::new(spec(), 2, 6, 6).unwrap();
        let c = Coord::new(0, 0); // macros (0..2, 0..2)
                                  // Horizontal wire from (0,0) to (1,0): interior.
        assert_eq!(g.wire_io(c, WireRef::horizontal(0, 0, 1)), None);
        assert!(g.wire_touches(c, WireRef::horizontal(0, 0, 1)));
        // Horizontal wire from (1,1) to (2,1): east boundary, offset = 1*5+3.
        assert_eq!(
            g.wire_io(c, WireRef::horizontal(1, 1, 3)),
            Some(ClusterIo::Boundary {
                side: Side::East,
                offset: 8
            })
        );
        // Same wire seen from cluster (1, 0): west boundary.
        assert_eq!(
            g.wire_io(Coord::new(1, 0), WireRef::horizontal(1, 1, 3)),
            Some(ClusterIo::Boundary {
                side: Side::West,
                offset: 8
            })
        );
        // A wire that does not touch the cluster.
        assert_eq!(g.wire_io(c, WireRef::vertical(4, 4, 0)), None);
        assert!(!g.wire_touches(c, WireRef::vertical(4, 4, 0)));
    }

    #[test]
    fn boundary_wire_roundtrips_with_wire_io() {
        let g = ClusterGrid::new(spec(), 2, 6, 6).unwrap();
        for cluster in g.iter_clusters() {
            for side in Side::ALL {
                for offset in 0..(2 * 5) {
                    match g.boundary_wire(cluster, side, offset) {
                        Ok(wire) => {
                            assert_eq!(
                                g.wire_io(cluster, wire),
                                Some(ClusterIo::Boundary { side, offset }),
                                "cluster {cluster} {side}[{offset}] -> {wire}"
                            );
                        }
                        Err(VbsError::DanglingBoundary { .. }) => {
                            // Only allowed on the task edge.
                            let on_edge = (side == Side::West && cluster.x == 0)
                                || (side == Side::South && cluster.y == 0)
                                || (side == Side::East && cluster.x == g.cluster_cols() - 1)
                                || (side == Side::North && cluster.y == g.cluster_rows() - 1);
                            assert!(on_edge, "unexpected dangling boundary inside the task");
                        }
                        Err(other) => panic!("unexpected error {other}"),
                    }
                }
            }
        }
    }

    #[test]
    fn k1_boundary_wires_match_macro_level_view() {
        let g = ClusterGrid::new(spec(), 1, 4, 4).unwrap();
        let at = Coord::new(2, 1);
        let east = g.boundary_wire(at, Side::East, 3).unwrap();
        assert_eq!(east, WireRef::horizontal(2, 1, 3));
        let west = g.boundary_wire(at, Side::West, 3).unwrap();
        assert_eq!(west, WireRef::horizontal(1, 1, 3));
        let south = g.boundary_wire(at, Side::South, 0).unwrap();
        assert_eq!(south, WireRef::vertical(2, 0, 0));
    }
}
