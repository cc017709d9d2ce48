//! The routing-resource graph.
//!
//! Nodes are either routing wires ([`vbs_arch::WireRef`]) or logic-block pins
//! at a grid site. Edges are not stored; they are enumerated on demand from
//! the architecture rules:
//!
//! * a **connection box** links pin `p` of a site to the `W` wires of the
//!   channel its parity selects (even pins → the site's horizontal wires,
//!   odd pins → its vertical wires);
//! * a **switch box** (subset topology) links, at each track index `t`, the
//!   four wires meeting at that switch box: its west/east horizontal wires
//!   and its south/north vertical wires.
//!
//! [`RrGraph::neighbors_into`] is the one definition of these edges. The
//! decoder's cluster patterns read it, and so does [`crate::route`]: once
//! per call it copies the whole graph into a CSR adjacency over the dense
//! indices of [`RrGraph::index`] (wire neighbours only, plus one position
//! per node) and searches that copy, so no node is rebuilt per expansion.

use serde::{Deserialize, Serialize};
use std::fmt;
use vbs_arch::{Coord, Device, Side, WireKind, WireRef};

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

/// The routing-resource graph of a device.
///
/// The graph is implicit: it stores only the device reference and provides
/// dense node indices plus on-the-fly edge enumeration, which keeps even
/// large devices (hundreds of thousands of nodes) cheap to build.
#[derive(Debug, Clone)]
pub struct RrGraph<'a> {
    device: &'a Device,
    wire_nodes: usize,
    pins_per_site: usize,
}

impl<'a> RrGraph<'a> {
    /// Builds the graph view of a device.
    pub fn new(device: &'a Device) -> Self {
        RrGraph {
            device,
            wire_nodes: device.wire_count(),
            pins_per_site: device.spec().lb_pins() as usize,
        }
    }

    /// The device this graph describes.
    pub fn device(&self) -> &Device {
        self.device
    }

    /// Total number of nodes (wires + pins).
    pub fn node_count(&self) -> usize {
        self.wire_nodes + self.pins_per_site * self.device.macro_count() as usize
    }

    /// Number of wire nodes.
    pub fn wire_count(&self) -> usize {
        self.wire_nodes
    }

    /// Dense index of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to this device.
    pub fn index(&self, node: RrNode) -> usize {
        match node {
            RrNode::Wire(w) => self.device.wire_index(w),
            RrNode::Pin { site, pin } => {
                assert!((pin as usize) < self.pins_per_site, "pin out of range");
                self.wire_nodes + self.device.macro_index(site) * self.pins_per_site + pin as usize
            }
        }
    }

    /// The node at a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= node_count()`.
    pub fn node(&self, index: usize) -> RrNode {
        if index < self.wire_nodes {
            let spec = self.device.spec();
            let w = spec.channel_width() as usize;
            let tiles = self.device.macro_count() as usize;
            let (kind, rest) = if index < tiles * w {
                (WireKind::Horizontal, index)
            } else {
                (WireKind::Vertical, index - tiles * w)
            };
            let tile = rest / w;
            let track = (rest % w) as u16;
            let owner = self.device.macro_at(tile);
            RrNode::Wire(WireRef { kind, owner, track })
        } else {
            let rest = index - self.wire_nodes;
            let site = self.device.macro_at(rest / self.pins_per_site);
            let pin = (rest % self.pins_per_site) as u8;
            RrNode::Pin { site, pin }
        }
    }

    /// Appends every neighbour of `node` to `out` (cleared first).
    pub fn neighbors_into(&self, node: RrNode, out: &mut Vec<RrNode>) {
        out.clear();
        let spec = self.device.spec();
        let w = spec.channel_width();
        match node {
            RrNode::Pin { site, pin } => {
                // Connection box: the pin reaches all W wires of its channel.
                for t in 0..w {
                    let wire = if pin % 2 == 0 {
                        WireRef::horizontal(site.x, site.y, t)
                    } else {
                        WireRef::vertical(site.x, site.y, t)
                    };
                    if self.device.wire_exists(wire) {
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
                            if self.device.contains(east) {
                                self.push_sb_wires(east, t, Side::West, out);
                            }
                        }
                    }
                    WireKind::Vertical => {
                        self.push_sb_wires(wire.owner, t, Side::North, out);
                        if let Some(north) = wire.owner.neighbor(Side::North) {
                            if self.device.contains(north) {
                                self.push_sb_wires(north, t, Side::South, out);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Convenience wrapper returning a fresh vector of neighbours.
    pub fn neighbors(&self, node: RrNode) -> Vec<RrNode> {
        let mut out = Vec::with_capacity(8);
        self.neighbors_into(node, &mut out);
        out
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
            if let Some(wire) = self.device.boundary_wire(sb, side, track) {
                out.push(RrNode::Wire(wire));
            }
        }
    }

    /// Whether two nodes are connected by an architecture edge.
    pub fn are_neighbors(&self, a: RrNode, b: RrNode) -> bool {
        self.neighbors(a).contains(&b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbs_arch::ArchSpec;

    fn device() -> Device {
        Device::new(ArchSpec::new(4, 6).unwrap(), 5, 4).unwrap()
    }

    #[test]
    fn node_index_roundtrip() {
        let d = device();
        let g = RrGraph::new(&d);
        for i in 0..g.node_count() {
            let node = g.node(i);
            assert_eq!(g.index(node), i, "roundtrip failed for {node}");
        }
    }

    #[test]
    fn pin_neighbors_follow_parity() {
        let d = device();
        let g = RrGraph::new(&d);
        let site = Coord::new(2, 2);
        let even = g.neighbors(RrNode::Pin { site, pin: 0 });
        assert_eq!(even.len(), 4);
        assert!(even.iter().all(|n| matches!(
            n,
            RrNode::Wire(w) if w.kind == WireKind::Horizontal && w.owner == site
        )));
        let odd = g.neighbors(RrNode::Pin { site, pin: 1 });
        assert!(odd.iter().all(|n| matches!(
            n,
            RrNode::Wire(w) if w.kind == WireKind::Vertical && w.owner == site
        )));
    }

    #[test]
    fn wire_neighbors_are_symmetric() {
        let d = device();
        let g = RrGraph::new(&d);
        for i in 0..g.node_count() {
            let node = g.node(i);
            for n in g.neighbors(node) {
                assert!(
                    g.neighbors(n).contains(&node),
                    "edge {node} -> {n} is not symmetric"
                );
            }
        }
    }

    #[test]
    fn subset_switch_box_preserves_track() {
        let d = device();
        let g = RrGraph::new(&d);
        let wire = WireRef::horizontal(2, 2, 3);
        for n in g.neighbors(RrNode::Wire(wire)) {
            if let RrNode::Wire(other) = n {
                assert_eq!(other.track, wire.track, "track change through subset SB");
            }
        }
    }

    #[test]
    fn wire_neighbors_include_both_switch_boxes() {
        let d = device();
        let g = RrGraph::new(&d);
        // Interior horizontal wire: 3 wires at each of its 2 switch boxes,
        // plus 4 even pins of the owner (pins 0, 2, 4, 6).
        let wire = WireRef::horizontal(2, 2, 0);
        let neighbors = g.neighbors(RrNode::Wire(wire));
        let wires = neighbors.iter().filter(|n| n.is_wire()).count();
        let pins = neighbors.len() - wires;
        assert_eq!(wires, 6);
        assert_eq!(pins, 4);
    }

    #[test]
    fn edge_wires_have_fewer_neighbors() {
        let d = device();
        let g = RrGraph::new(&d);
        // The east wire of the last column dead-ends at the device edge.
        let wire = WireRef::horizontal(4, 1, 0);
        let neighbors = g.neighbors(RrNode::Wire(wire));
        let wires = neighbors.iter().filter(|n| n.is_wire()).count();
        assert_eq!(wires, 3, "dead-end wire only connects through its near SB");
    }
}
