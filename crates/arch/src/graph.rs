//! The routing-resource graph of a device.
//!
//! Nodes are either routing wires ([`WireRef`]) or logic-block pins at a
//! grid site ([`RrNode`]). Edges are not stored; they are enumerated on
//! demand from the architecture rules:
//!
//! * a **connection box** links pin `p` of a site to the `W` wires of the
//!   channel its parity selects (even pins → the site's horizontal wires,
//!   odd pins → its vertical wires);
//! * a **switch box** (subset topology) links, at each track index `t`, the
//!   four wires meeting at that switch box: its west/east horizontal wires
//!   and its south/north vertical wires.
//!
//! [`Device::neighbors_into`] is the one definition of these edges, and
//! every edge is one programmable switch: [`Device::switch_between`] names
//! the switch joining two nodes (`None` exactly when they are not
//! neighbours) and [`Device::switch_ends`] the two nodes a switch joins.
//! The router, the routing checker, the raw bit-stream generator, the VBS
//! encoder and decoder patterns and the fabric simulator all read the graph
//! here. Nodes carry dense indices ([`Device::node_index`]): every wire
//! first ([`Device::wire_index`]), then every pin.

use crate::device::Device;
use crate::geometry::{Coord, Side};
use crate::macro_model::{SbPair, SwitchSetting};
use crate::wires::{WireKind, WireRef};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A node of the routing-resource graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RrNode {
    /// A routing wire.
    Wire(WireRef),
    /// Logic-block pin `pin` of the macro at `site`.
    Pin {
        /// The macro owning the pin.
        site: Coord,
        /// Pin number (`0 .. L`); pin `K` is the output.
        pin: u8,
    },
}

impl RrNode {
    /// The grid position used by the A* heuristic.
    pub fn position(&self) -> Coord {
        match self {
            RrNode::Wire(w) => w.owner,
            RrNode::Pin { site, .. } => *site,
        }
    }

    /// Whether this node is a routing wire (wires are the only nodes with
    /// finite capacity).
    pub fn is_wire(&self) -> bool {
        matches!(self, RrNode::Wire(_))
    }
}

impl fmt::Display for RrNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RrNode::Wire(w) => write!(f, "{w}"),
            RrNode::Pin { site, pin } => write!(f, "pin{pin}@({},{})", site.x, site.y),
        }
    }
}

impl Device {
    /// Total number of wires in the device.
    pub fn wire_count(&self) -> usize {
        2 * self.spec().channel_width() as usize * self.macro_count() as usize
    }

    /// Dense index of a wire of this device.
    ///
    /// Horizontal wires come first, then vertical ones; within each kind the
    /// order is row-major by owner, then by track.
    ///
    /// # Panics
    ///
    /// Panics if the wire does not belong to this device.
    pub fn wire_index(&self, wire: WireRef) -> usize {
        assert!(self.wire_exists(wire), "wire {wire} outside device");
        let w = self.spec().channel_width() as usize;
        let tile = wire.owner.y as usize * self.width() as usize + wire.owner.x as usize;
        let base = match wire.kind {
            WireKind::Horizontal => 0,
            WireKind::Vertical => self.wire_count() / 2,
        };
        base + tile * w + wire.track as usize
    }

    /// Total number of routing-resource nodes (wires + pins).
    pub fn node_count(&self) -> usize {
        self.wire_count() + self.spec().lb_pins() as usize * self.macro_count() as usize
    }

    /// Dense index of a node: [`Device::wire_index`] for a wire, and after
    /// every wire, the pins row-major by site, then by pin.
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to this device.
    pub fn node_index(&self, node: RrNode) -> usize {
        match node {
            RrNode::Wire(w) => self.wire_index(w),
            RrNode::Pin { site, pin } => {
                let pins = self.spec().lb_pins() as usize;
                assert!((pin as usize) < pins, "pin out of range");
                self.wire_count() + self.macro_index(site) * pins + pin as usize
            }
        }
    }

    /// The node at a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= node_count()`.
    pub fn node_at(&self, index: usize) -> RrNode {
        let wire_nodes = self.wire_count();
        if index < wire_nodes {
            let w = self.spec().channel_width() as usize;
            let tiles = self.macro_count() as usize;
            let (kind, rest) = if index < tiles * w {
                (WireKind::Horizontal, index)
            } else {
                (WireKind::Vertical, index - tiles * w)
            };
            let tile = rest / w;
            let track = (rest % w) as u16;
            let owner = self.macro_at(tile);
            RrNode::Wire(WireRef { kind, owner, track })
        } else {
            let pins = self.spec().lb_pins() as usize;
            let rest = index - wire_nodes;
            let site = self.macro_at(rest / pins);
            let pin = (rest % pins) as u8;
            RrNode::Pin { site, pin }
        }
    }

    /// Appends every neighbour of `node` to `out` (cleared first). A node
    /// outside this device (a wire on a track `>= W` or owned outside the
    /// grid, a pin `>= L` or of a site outside the grid) has none.
    pub fn neighbors_into(&self, node: RrNode, out: &mut Vec<RrNode>) {
        out.clear();
        let spec = self.spec();
        let w = spec.channel_width();
        match node {
            RrNode::Pin { site, pin } if !self.contains(site) || pin >= spec.lb_pins() => {}
            RrNode::Wire(wire) if !self.wire_exists(wire) => {}
            RrNode::Pin { site, pin } => {
                // Connection box: the pin reaches all W wires of its channel.
                for t in 0..w {
                    let wire = WireRef::of_pin(site, pin, t);
                    if self.wire_exists(wire) {
                        out.push(RrNode::Wire(wire));
                    }
                }
            }
            RrNode::Wire(wire) => {
                // Connection boxes: pins of the owner macro with matching
                // parity reach this wire.
                for pin in 0..spec.lb_pins() {
                    if wire.reachable_from_pin(wire.owner, pin) {
                        out.push(RrNode::Pin {
                            site: wire.owner,
                            pin,
                        });
                    }
                }
                // Switch boxes at both ends of the wire.
                let t = wire.track;
                match wire.kind {
                    WireKind::Horizontal => {
                        // Near end: SB at the owner.
                        self.push_sb_wires(wire.owner, t, Side::East, out);
                        // Far end: SB at the east neighbour.
                        if let Some(east) = wire.owner.neighbor(Side::East) {
                            if self.contains(east) {
                                self.push_sb_wires(east, t, Side::West, out);
                            }
                        }
                    }
                    WireKind::Vertical => {
                        self.push_sb_wires(wire.owner, t, Side::North, out);
                        if let Some(north) = wire.owner.neighbor(Side::North) {
                            if self.contains(north) {
                                self.push_sb_wires(north, t, Side::South, out);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Pushes the wires reachable through the switch box at `sb`, excluding
    /// the wire arriving from `from_side` (the side *the arriving wire
    /// occupies* at this switch box). The switch box of macro `sb` sits at
    /// the macro's south-west corner, so the wire on its `side` is the wire
    /// crossing that side of the macro ([`Device::boundary_wire`]).
    fn push_sb_wires(&self, sb: Coord, track: u16, from_side: Side, out: &mut Vec<RrNode>) {
        for side in Side::ALL {
            if side == from_side {
                continue;
            }
            if let Some(wire) = self.boundary_wire(sb, side, track) {
                out.push(RrNode::Wire(wire));
            }
        }
    }

    /// The switch joining `a` and `b`, either way round: the connection-box
    /// crossing of a pin over a wire of its channel, or the switch-box pass
    /// switch between two wires meeting at one switch box.
    ///
    /// Returns `None` exactly when [`Device::neighbors_into`] does not list
    /// `b` among `a`'s neighbours, including when either node lies outside
    /// this device.
    pub fn switch_between(&self, a: RrNode, b: RrNode) -> Option<SwitchSetting> {
        match (a, b) {
            (RrNode::Pin { site, pin }, RrNode::Wire(wire))
            | (RrNode::Wire(wire), RrNode::Pin { site, pin }) => {
                let track = wire.track;
                (pin < self.spec().lb_pins()
                    && self.wire_exists(wire)
                    && wire == WireRef::of_pin(site, pin, track))
                .then_some(SwitchSetting::Crossing { site, pin, track })
            }
            (RrNode::Wire(wa), RrNode::Wire(wb)) => {
                if !(self.wire_exists(wa) && self.wire_exists(wb)) {
                    return None;
                }
                let (site, side_a, side_b) = self.shared_switch_box(wa, wb)?;
                Some(SwitchSetting::SwitchBox {
                    site,
                    track: wa.track,
                    pair: SbPair::between(side_a, side_b)?,
                })
            }
            (RrNode::Pin { .. }, RrNode::Pin { .. }) => None,
        }
    }

    /// The two nodes `switch` joins, the inverse of
    /// [`Device::switch_between`]: the pin then the wire of a crossing, the
    /// wires on the pair's two sides (in the order [`SbPair`]'s name gives
    /// them) of a switch-box pass switch. `None` when either end lies outside this
    /// device.
    pub fn switch_ends(&self, switch: SwitchSetting) -> Option<[RrNode; 2]> {
        match switch {
            SwitchSetting::Crossing { site, pin, track } => {
                let wire = WireRef::of_pin(site, pin, track);
                (pin < self.spec().lb_pins() && self.wire_exists(wire))
                    .then_some([RrNode::Pin { site, pin }, RrNode::Wire(wire)])
            }
            SwitchSetting::SwitchBox { site, track, pair } => {
                let (a, b) = pair.sides();
                Some([
                    RrNode::Wire(self.boundary_wire(site, a, track)?),
                    RrNode::Wire(self.boundary_wire(site, b, track)?),
                ])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ArchSpec;
    use std::collections::HashSet;

    fn device() -> Device {
        Device::new(ArchSpec::new(4, 6).unwrap(), 5, 4).unwrap()
    }

    fn neighbors(device: &Device, node: RrNode) -> Vec<RrNode> {
        let mut out = Vec::new();
        device.neighbors_into(node, &mut out);
        out
    }

    #[test]
    fn node_index_roundtrip() {
        let d = device();
        for i in 0..d.node_count() {
            let node = d.node_at(i);
            assert_eq!(d.node_index(node), i, "roundtrip failed for {node}");
        }
    }

    #[test]
    fn pin_neighbors_follow_parity() {
        let d = device();
        let site = Coord::new(2, 2);
        let even = neighbors(&d, RrNode::Pin { site, pin: 0 });
        assert_eq!(even.len(), 4);
        assert!(even.iter().all(|n| matches!(
            n,
            RrNode::Wire(w) if w.kind == WireKind::Horizontal && w.owner == site
        )));
        let odd = neighbors(&d, RrNode::Pin { site, pin: 1 });
        assert!(odd.iter().all(|n| matches!(
            n,
            RrNode::Wire(w) if w.kind == WireKind::Vertical && w.owner == site
        )));
    }

    #[test]
    fn wire_neighbors_are_symmetric() {
        let d = device();
        for i in 0..d.node_count() {
            let node = d.node_at(i);
            for n in neighbors(&d, node) {
                assert!(
                    neighbors(&d, n).contains(&node),
                    "edge {node} -> {n} is not symmetric"
                );
            }
        }
    }

    #[test]
    fn subset_switch_box_preserves_track() {
        let d = device();
        let wire = WireRef::horizontal(2, 2, 3);
        for n in neighbors(&d, RrNode::Wire(wire)) {
            if let RrNode::Wire(other) = n {
                assert_eq!(other.track, wire.track, "track change through subset SB");
            }
        }
    }

    #[test]
    fn wire_neighbors_include_both_switch_boxes() {
        let d = device();
        // Interior horizontal wire: 3 wires at each of its 2 switch boxes,
        // plus 4 even pins of the owner (pins 0, 2, 4, 6).
        let wire = WireRef::horizontal(2, 2, 0);
        let neighbors = neighbors(&d, RrNode::Wire(wire));
        let wires = neighbors.iter().filter(|n| n.is_wire()).count();
        let pins = neighbors.len() - wires;
        assert_eq!(wires, 6);
        assert_eq!(pins, 4);
    }

    #[test]
    fn edge_wires_have_fewer_neighbors() {
        let d = device();
        // The east wire of the last column dead-ends at the device edge.
        let wire = WireRef::horizontal(4, 1, 0);
        let neighbors = neighbors(&d, RrNode::Wire(wire));
        let wires = neighbors.iter().filter(|n| n.is_wire()).count();
        assert_eq!(wires, 3, "dead-end wire only connects through its near SB");
    }

    /// Every switch bit of every macro: its switch-box pass switches, then
    /// its connection-box crossings.
    fn every_switch(d: &Device) -> Vec<SwitchSetting> {
        let spec = d.spec();
        let mut switches = Vec::new();
        for index in 0..d.macro_count() as usize {
            let site = d.macro_at(index);
            for track in 0..spec.channel_width() {
                for pair in SbPair::ALL {
                    switches.push(SwitchSetting::SwitchBox { site, track, pair });
                }
                for pin in 0..spec.lb_pins() {
                    switches.push(SwitchSetting::Crossing { site, pin, track });
                }
            }
        }
        switches
    }

    #[test]
    fn numbering_neighbours_and_switches_agree_exhaustively() {
        for (w, k) in [(2, 2), (3, 4), (4, 6), (5, 3)] {
            let spec = ArchSpec::new(w, k).unwrap();
            for (width, height) in (1..=4).flat_map(|x| (1..=3).map(move |y| (x, y))) {
                let d = Device::new(spec, width, height).unwrap();
                let at = format!("W = {w}, K = {k}, {width}x{height}");
                let nodes: Vec<RrNode> = (0..d.node_count()).map(|i| d.node_at(i)).collect();
                for (i, &node) in nodes.iter().enumerate() {
                    assert_eq!(d.node_index(node), i, "{at}: {node}");
                }

                // Nodes just outside the device: a track or pin one past the
                // last, an owner or site one past the grid's east / north
                // edge. They list no neighbour and no switch reaches them.
                let outside = (0..width).flat_map(|x| {
                    (0..height).flat_map(move |y| {
                        let wires = [
                            WireRef::horizontal(x, y, w),
                            WireRef::vertical(x, y, w),
                            WireRef::horizontal(width, y, 0),
                            WireRef::vertical(x, height, 0),
                        ];
                        wires.into_iter().map(RrNode::Wire).chain([
                            RrNode::Pin {
                                site: Coord::new(x, y),
                                pin: spec.lb_pins(),
                            },
                            RrNode::Pin {
                                site: Coord::new(width, height),
                                pin: 0,
                            },
                        ])
                    })
                });
                let all: Vec<RrNode> = nodes.iter().copied().chain(outside).collect();
                for &a in &all[nodes.len()..] {
                    assert_eq!(neighbors(&d, a), [], "{at}: {a} lies outside");
                }

                let mut edges = 0;
                for &a in &all {
                    let listed: HashSet<RrNode> = neighbors(&d, a).into_iter().collect();
                    for &b in &all {
                        let switch = d.switch_between(a, b);
                        assert_eq!(switch, d.switch_between(b, a), "{at}: {a} / {b}");
                        if !listed.contains(&b) {
                            assert_eq!(switch, None, "{at}: {a} / {b} are not neighbours");
                            continue;
                        }
                        edges += 1;
                        let s = switch.unwrap_or_else(|| panic!("{at}: no switch for {a} / {b}"));
                        let ends = d.switch_ends(s).expect("a switch between nodes has ends");
                        assert!(
                            ends == [a, b] || ends == [b, a],
                            "{at}: {s:?} joins {ends:?}, not {a} / {b}"
                        );
                    }
                }

                // Every switch whose ends exist joins one edge, and each edge
                // has one switch: a bijection between switches and edges.
                let mut joined = 0;
                for s in every_switch(&d) {
                    if let Some([a, b]) = d.switch_ends(s) {
                        joined += 1;
                        assert_eq!(d.switch_between(a, b), Some(s), "{at}: {s:?}");
                    }
                }
                assert_eq!(2 * joined, edges, "{at}: switches vs. edges");
            }
        }
    }
}
