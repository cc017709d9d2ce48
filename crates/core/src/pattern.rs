//! The routing pattern of one cluster shape.
//!
//! An island-style routing graph is one tile pattern repeated, so the
//! decoder never needs the routing-resource graph of a whole task: every
//! connection of a record is expanded among the nodes that touch the
//! record's own cluster, and those nodes, their edges and the switch each
//! edge programs are the same for every cluster of the same shape, wherever
//! it sits. A [`ClusterPattern`] stores them once, in cluster-local ids,
//! and the decoder translates to task coordinates only when it writes a
//! frame bit.
//!
//! The pattern is *derived*, not re-implemented: it is read off
//! [`Device::neighbors_into`], [`Device::switch_between`] and the
//! [`ClusterGrid`] predicates on a small reference device that holds the
//! cluster at grid position `(1, 1)`, so it cannot disagree with the CAD
//! side about which wires exist or which switch joins them. Only the cluster's neighbourhood
//! is enumerated — its own macros and the column / row just west / south
//! of it, which own every node that can touch it — never the whole
//! reference device, and an edge back to a node whose row is already built
//! takes its switch from there (the edges are symmetric), so
//! [`Device::switch_between`] runs once per pair of nodes. The whole-device
//! derivation lives on as the test oracle. Task-edge effects that depend on
//! where the cluster sits are kept out of it: a cluster cut by the east or
//! north task edge is simply a narrower shape (its own pattern), and the
//! west / south boundary wires a cluster in column / row 0 lacks are
//! flagged so a record can mask them.

use crate::cluster::{ClusterGrid, ClusterIo};
use crate::error::VbsError;
use vbs_arch::{
    ArchSpec, Coord, Device, FrameLayout, RrNode, Side, SwitchSetting, WireKind, WireRef,
};

/// The wire never leaves the cluster: free to route through (cost 1.0
/// unallocated, against 6.0 for a boundary crossing).
pub(crate) const INTERIOR: u8 = 1;
/// The wire crosses the cluster's west boundary; absent in cluster column 0.
pub(crate) const WEST: u8 = 2;
/// The wire crosses the cluster's south boundary; absent in cluster row 0.
pub(crate) const SOUTH: u8 = 4;

/// The frame bit one pattern edge programs, relative to the cluster origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Switch {
    /// Macro holding the switch, as an offset from the cluster's lower-left
    /// macro.
    pub dx: u16,
    pub dy: u16,
    /// Bit index within that macro's frame.
    pub bit: u32,
}

/// The nodes touching one `cols × rows` cluster and the edges among them.
///
/// Local ids sort exactly as [`RrNode`]'s `Ord` sorts the nodes they stand
/// for (wires before pins, then kind, owner `(x, y)`, track) — an order
/// translation preserves, so a search over ids breaks ties as a search over
/// task nodes would. Ids below [`Self::wire_count`] are wires.
#[derive(Debug)]
pub(crate) struct ClusterPattern {
    cols: u16,
    rows: u16,
    channel_width: u32,
    pins: u32,
    /// Id of the first vertical wire.
    vertical_base: u32,
    wire_count: u32,
    /// The nodes in reference coordinates, by id.
    nodes: Vec<RrNode>,
    /// CSR rows: the edges of node `i` are `offsets[i]..offsets[i + 1]`, in
    /// [`Device::neighbors_into`] order.
    offsets: Vec<u32>,
    targets: Vec<u32>,
    /// Per edge: the switch it programs, `None` when the architecture has
    /// none for it or the switch sits outside the cluster.
    switches: Vec<Option<Switch>>,
    /// Per wire: [`INTERIOR`] / [`WEST`] / [`SOUTH`].
    flags: Vec<u8>,
    /// Per I/O index of the cluster size: the node it names, or
    /// [`NO_NODE`] when it names none of this shape.
    io_nodes: Vec<u32>,
}

/// An [`ClusterPattern::io_node`] entry naming no node.
const NO_NODE: u32 = u32::MAX;

/// The frame bit the edge `from → to` of the reference device programs,
/// relative to the cluster's lower-left macro `(k, k)`: `None` when the
/// architecture has no switch for it or the switch lies outside `cluster`.
fn switch_of(
    device: &Device,
    grid: &ClusterGrid,
    layout: &FrameLayout,
    cluster: Coord,
    k: u16,
    from: RrNode,
    to: RrNode,
) -> Option<Switch> {
    device
        .switch_between(from, to)
        .filter(|s| grid.cluster_of(s.site()) == cluster)
        .map(|s| Switch {
            dx: s.site().x - k,
            dy: s.site().y - k,
            bit: match s {
                SwitchSetting::Crossing { pin, track, .. } => layout.crossing_bit(pin, track),
                SwitchSetting::SwitchBox { track, pair, .. } => layout.sb_bit(track, pair),
            } as u32,
        })
}

impl ClusterPattern {
    /// Derives the pattern of a `cols × rows` cluster (`1..=k` each) of a
    /// cluster-size-`k` tiling.
    ///
    /// # Errors
    ///
    /// Returns [`VbsError::Arch`] when the reference device `k + cols` ×
    /// `k + rows` exceeds the device size limit.
    pub(crate) fn build(spec: ArchSpec, k: u16, cols: u16, rows: u16) -> Result<Self, VbsError> {
        // One full cluster column / row west and south of the cluster gives
        // it all four boundaries; the device ends where the cluster does,
        // which is what a cut cluster sees and makes no difference to a
        // complete one (nothing past its east / north wires touches it).
        let (width, height) = (k + cols, k + rows);
        let device = Device::new(spec, width, height)?;
        let grid = ClusterGrid::new(spec, k, width, height)?;
        let cluster = Coord::new(1, 1);
        let layout = FrameLayout::new(spec);

        // A node touching the cluster belongs to one of its macros or, for
        // a wire crossing its west / south side, to the macro just west /
        // south of it: only the macros `[k - 1, k + cols) × [k - 1, k +
        // rows)` are enumerated, through the same predicates, and in node
        // order, so the sort below finds them sorted.
        let w = spec.channel_width();
        let owners = (k - 1..width).flat_map(|x| (k - 1..height).map(move |y| Coord::new(x, y)));
        let mut nodes = Vec::with_capacity(device.node_count());
        let wires = [WireKind::Horizontal, WireKind::Vertical]
            .into_iter()
            .flat_map(|kind| {
                owners
                    .clone()
                    .flat_map(move |owner| (0..w).map(move |track| WireRef { kind, owner, track }))
            })
            .filter(|&wire| device.wire_exists(wire) && grid.wire_touches(cluster, wire));
        nodes.extend(wires.map(RrNode::Wire));
        nodes.extend(
            owners
                .filter(|&site| grid.cluster_of(site) == cluster)
                .flat_map(|site| (0..spec.lb_pins()).map(move |pin| RrNode::Pin { site, pin })),
        );
        nodes.sort_unstable();
        let wire_count = nodes.partition_point(RrNode::is_wire);
        // Reference-graph index → id, for the neighbours met below.
        const OUTSIDE: u32 = u32::MAX;
        let mut ids = vec![OUTSIDE; device.node_count()];
        for (id, &node) in nodes.iter().enumerate() {
            ids[device.node_index(node)] = id as u32;
        }

        // Capacities only (so each array allocates once): a pin reaches the
        // W wires of its channel, a wire at most three others at each end
        // plus the owner's pins of its parity.
        let degree = usize::from(w).max(usize::from(spec.lb_pins()) / 2 + 7);
        let mut offsets = Vec::with_capacity(nodes.len() + 1);
        let mut targets = Vec::with_capacity(nodes.len() * degree);
        let mut switches = Vec::with_capacity(nodes.len() * degree);
        let mut neighbors = Vec::with_capacity(degree);
        for (from, &node) in nodes.iter().enumerate() {
            offsets.push(targets.len() as u32);
            device.neighbors_into(node, &mut neighbors);
            for &next in &neighbors {
                let id = ids[device.node_index(next)];
                if id == OUTSIDE {
                    continue;
                }
                // The edges are symmetric and a switch joins its two nodes
                // either way round: an edge back to a node whose row is
                // built takes the switch found there.
                let back = offsets.get(id as usize + 1).and_then(|&end| {
                    let row = offsets[id as usize] as usize..end as usize;
                    targets[row.clone()]
                        .iter()
                        .position(|&t| t as usize == from)
                        .map(|i| switches[row.start + i])
                });
                targets.push(id);
                switches.push(
                    back.unwrap_or_else(|| {
                        switch_of(&device, &grid, &layout, cluster, k, node, next)
                    }),
                );
            }
        }
        offsets.push(targets.len() as u32);

        let flags = nodes[..wire_count]
            .iter()
            .map(|node| {
                let RrNode::Wire(w) = *node else {
                    unreachable!("wires sort before pins");
                };
                match grid.wire_io(cluster, w) {
                    None => INTERIOR,
                    Some(ClusterIo::Boundary {
                        side: Side::West, ..
                    }) => WEST,
                    Some(ClusterIo::Boundary {
                        side: Side::South, ..
                    }) => SOUTH,
                    Some(_) => 0,
                }
            })
            .collect();

        let w = u32::from(w);
        let mut pattern = ClusterPattern {
            cols,
            rows,
            channel_width: w,
            pins: u32::from(spec.lb_pins()),
            vertical_base: (u32::from(cols) + 1) * u32::from(rows) * w,
            wire_count: wire_count as u32,
            nodes,
            offsets,
            targets,
            switches,
            flags,
            io_nodes: Vec::new(),
        };
        // The I/O table reuses the id table's room: the reference device
        // holds every node a cluster I/O names, so it is at least as long.
        ids.clear();
        ids.extend((0..ClusterIo::io_count(&spec, k)).map(|index| {
            let io = ClusterIo::from_index(&spec, k, index).expect("index below io_count");
            pattern.io_node_of(k, io).map_or(NO_NODE, |id| id as u32)
        }));
        pattern.io_nodes = ids;
        Ok(pattern)
    }

    /// The node `io` names in this shape, if it is one: a boundary wire
    /// along the (possibly cut) side, or a pin of a macro inside the shape.
    fn io_node_of(&self, k: u16, io: ClusterIo) -> Option<usize> {
        let w = self.channel_width as u16;
        match io {
            ClusterIo::Null => None,
            ClusterIo::Boundary { side, offset } => {
                let extent = match side {
                    Side::East | Side::West => self.rows,
                    Side::North | Side::South => self.cols,
                };
                (offset / w < extent).then(|| self.boundary(side, offset / w, offset % w))
            }
            ClusterIo::Pin { local, pin } => {
                let (dx, dy) = (local % k, local / k);
                (dx < self.cols && dy < self.rows).then(|| self.pin(dx, dy, pin))
            }
        }
    }

    /// Cluster extent in macros, `(cols, rows)`.
    pub(crate) fn shape(&self) -> (u16, u16) {
        (self.cols, self.rows)
    }

    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }

    pub(crate) fn wire_count(&self) -> usize {
        self.wire_count as usize
    }

    pub(crate) fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// The edge indices leaving node `id`.
    pub(crate) fn row(&self, id: usize) -> std::ops::Range<usize> {
        self.offsets[id] as usize..self.offsets[id + 1] as usize
    }

    /// The node edge `edge` leads to.
    pub(crate) fn target(&self, edge: usize) -> usize {
        self.targets[edge] as usize
    }

    /// The edge from `from` straight to `to`, if one switch joins them.
    pub(crate) fn edge_between(&self, from: usize, to: usize) -> Option<usize> {
        let row = self.row(from);
        self.targets[row.clone()]
            .iter()
            .position(|&t| t as usize == to)
            .map(|i| row.start + i)
    }

    pub(crate) fn switch(&self, edge: usize) -> Option<Switch> {
        self.switches[edge]
    }

    pub(crate) fn flags(&self, wire: usize) -> u8 {
        self.flags[wire]
    }

    /// Id of the wire crossing `side` at macro `along` of that side
    /// (`along < rows` for east / west, `< cols` for north / south).
    pub(crate) fn boundary(&self, side: Side, along: u16, track: u16) -> usize {
        let (cols, rows) = (u32::from(self.cols), u32::from(self.rows));
        let (along, w) = (u32::from(along), self.channel_width);
        // Horizontal wires are owned by columns `west neighbour, 0 .. cols`,
        // vertical ones by rows `south neighbour, 0 .. rows`; owners order
        // by column first.
        let slot = match side {
            Side::West => along,
            Side::East => cols * rows + along,
            Side::South => along * (rows + 1),
            Side::North => along * (rows + 1) + rows,
        };
        let base = match side {
            Side::West | Side::East => 0,
            Side::South | Side::North => self.vertical_base,
        };
        (base + slot * w + u32::from(track)) as usize
    }

    /// The node I/O index `index` names in this shape: a lookup, no
    /// division. `None` for an index past the I/O count, the null I/O, a
    /// boundary past a cut side and a pin of a macro outside the shape.
    pub(crate) fn io_node(&self, index: u32) -> Option<usize> {
        match self.io_nodes.get(index as usize) {
            Some(&id) if id != NO_NODE => Some(id as usize),
            _ => None,
        }
    }

    /// Id of pin `pin` of the macro at offset `(dx, dy)` from the cluster
    /// origin.
    pub(crate) fn pin(&self, dx: u16, dy: u16, pin: u8) -> usize {
        let tile = u32::from(dx) * u32::from(self.rows) + u32::from(dy);
        (self.wire_count + tile * self.pins + u32::from(pin)) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The derivation [`ClusterPattern::build`] replaced, kept as its
    /// oracle: every node of the reference device is enumerated and
    /// filtered, and every edge's switch is looked up on its own.
    fn whole_device_pattern(spec: ArchSpec, k: u16, cols: u16, rows: u16) -> ClusterPattern {
        let (width, height) = (k + cols, k + rows);
        let device = Device::new(spec, width, height).unwrap();
        let grid = ClusterGrid::new(spec, k, width, height).unwrap();
        let cluster = Coord::new(1, 1);
        let layout = FrameLayout::new(spec);

        let mut nodes: Vec<RrNode> = (0..device.node_count())
            .map(|i| device.node_at(i))
            .filter(|node| match *node {
                RrNode::Wire(w) => grid.wire_touches(cluster, w),
                RrNode::Pin { site, .. } => grid.cluster_of(site) == cluster,
            })
            .collect();
        nodes.sort_unstable();
        let wire_count = nodes.partition_point(RrNode::is_wire);
        let mut ids = vec![u32::MAX; device.node_count()];
        for (id, &node) in nodes.iter().enumerate() {
            ids[device.node_index(node)] = id as u32;
        }
        let (mut offsets, mut targets, mut switches) = (Vec::new(), Vec::new(), Vec::new());
        let mut neighbors = Vec::new();
        for &node in &nodes {
            offsets.push(targets.len() as u32);
            device.neighbors_into(node, &mut neighbors);
            for &next in &neighbors {
                let id = ids[device.node_index(next)];
                if id != u32::MAX {
                    targets.push(id);
                    switches.push(switch_of(&device, &grid, &layout, cluster, k, node, next));
                }
            }
        }
        offsets.push(targets.len() as u32);
        let flags = nodes[..wire_count]
            .iter()
            .map(|node| {
                let RrNode::Wire(w) = *node else {
                    unreachable!("wires sort before pins");
                };
                match grid.wire_io(cluster, w) {
                    None => INTERIOR,
                    Some(ClusterIo::Boundary {
                        side: Side::West, ..
                    }) => WEST,
                    Some(ClusterIo::Boundary {
                        side: Side::South, ..
                    }) => SOUTH,
                    Some(_) => 0,
                }
            })
            .collect();
        let w = u32::from(spec.channel_width());
        let mut pattern = ClusterPattern {
            cols,
            rows,
            channel_width: w,
            pins: u32::from(spec.lb_pins()),
            vertical_base: (u32::from(cols) + 1) * u32::from(rows) * w,
            wire_count: wire_count as u32,
            nodes,
            offsets,
            targets,
            switches,
            flags,
            io_nodes: Vec::new(),
        };
        pattern.io_nodes = (0..ClusterIo::io_count(&spec, k))
            .map(|index| {
                let io = ClusterIo::from_index(&spec, k, index).unwrap();
                pattern.io_node_of(k, io).map_or(NO_NODE, |id| id as u32)
            })
            .collect();
        pattern
    }

    /// The neighbourhood derivation yields the whole-device derivation's
    /// pattern, array for array, for every shape of every cluster size.
    #[test]
    fn patterns_match_the_whole_device_derivation() {
        for spec in [ArchSpec::paper_example(), ArchSpec::new(8, 4).unwrap()] {
            for k in 1u16..=4 {
                for cols in 1..=k {
                    for rows in 1..=k {
                        let p = ClusterPattern::build(spec, k, cols, rows).unwrap();
                        let q = whole_device_pattern(spec, k, cols, rows);
                        let at = format!("k = {k}, {cols}x{rows}");
                        assert_eq!(p.nodes, q.nodes, "{at}");
                        assert_eq!(p.offsets, q.offsets, "{at}");
                        assert_eq!(p.targets, q.targets, "{at}");
                        assert_eq!(p.switches, q.switches, "{at}");
                        assert_eq!(p.flags, q.flags, "{at}");
                        assert_eq!(p.io_nodes, q.io_nodes, "{at}");
                        assert_eq!(
                            (p.channel_width, p.pins, p.vertical_base, p.wire_count),
                            (q.channel_width, q.pins, q.vertical_base, q.wire_count),
                            "{at}"
                        );
                    }
                }
            }
        }
    }

    /// The id arithmetic of `boundary` / `pin` agrees with where the sort
    /// put the node the grid names, and ids order as nodes do, for complete
    /// and cut shapes alike.
    #[test]
    fn id_arithmetic_matches_the_sorted_reference_nodes() {
        for spec in [ArchSpec::paper_example(), ArchSpec::new(8, 4).unwrap()] {
            let w = spec.channel_width();
            for k in 1u16..=4 {
                for cols in 1..=k {
                    for rows in 1..=k {
                        let p = ClusterPattern::build(spec, k, cols, rows).unwrap();
                        assert!(p.nodes.windows(2).all(|n| n[0] < n[1]));
                        let grid = ClusterGrid::new(spec, k, k + cols, k + rows).unwrap();
                        let cluster = Coord::new(1, 1);
                        let mut named = 0;
                        for side in Side::ALL {
                            let extent = match side {
                                Side::East | Side::West => rows,
                                Side::North | Side::South => cols,
                            };
                            for offset in 0..extent * w {
                                let wire = grid.boundary_wire(cluster, side, offset).unwrap();
                                let id = p.boundary(side, offset / w, offset % w);
                                assert_eq!(p.nodes[id], RrNode::Wire(wire), "{k} {cols}x{rows}");
                                let io = ClusterIo::Boundary { side, offset };
                                assert_eq!(p.io_node(io.index(&spec, k)), Some(id));
                                named += 1;
                            }
                            // Past a cut side.
                            for offset in extent * w..k * w {
                                let io = ClusterIo::Boundary { side, offset };
                                assert_eq!(p.io_node(io.index(&spec, k)), None);
                            }
                        }
                        let interior = (0..p.wire_count())
                            .filter(|&i| p.flags(i) & INTERIOR != 0)
                            .count();
                        assert_eq!(named + interior, p.wire_count());
                        for local in 0..k * k {
                            let (dx, dy) = (local % k, local / k);
                            let Some(site) = grid.macro_at(cluster, local) else {
                                assert!(dx >= cols || dy >= rows);
                                let io = ClusterIo::Pin { local, pin: 0 };
                                assert_eq!(p.io_node(io.index(&spec, k)), None);
                                continue;
                            };
                            for pin in 0..spec.lb_pins() {
                                let id = p.pin(dx, dy, pin);
                                assert_eq!(p.nodes[id], RrNode::Pin { site, pin });
                                let io = ClusterIo::Pin { local, pin };
                                assert_eq!(p.io_node(io.index(&spec, k)), Some(id));
                            }
                        }
                        let io_count = ClusterIo::io_count(&spec, k);
                        assert_eq!((p.io_node(0), p.io_node(io_count)), (None, None));
                        assert_eq!(
                            p.node_count(),
                            p.wire_count()
                                + cols as usize * rows as usize * spec.lb_pins() as usize
                        );
                    }
                }
            }
        }
    }

    /// Every edge between two nodes of a cluster programs a switch inside
    /// that cluster, and the CSR is symmetric.
    #[test]
    fn edges_are_symmetric_and_their_switches_sit_inside() {
        let p = ClusterPattern::build(ArchSpec::paper_example(), 2, 2, 2).unwrap();
        for from in 0..p.node_count() {
            for edge in p.row(from) {
                let to = p.target(edge);
                let back = p.edge_between(to, from).expect("symmetric");
                let (a, b) = (p.switch(edge).unwrap(), p.switch(back).unwrap());
                assert_eq!((a.dx, a.dy, a.bit), (b.dx, b.dy, b.bit));
                assert!(a.dx < 2 && a.dy < 2);
            }
        }
    }
}
