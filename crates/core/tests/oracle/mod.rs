//! Reference implementations the differential suites compare against,
//! each the product's earlier code reduced to its definition:
//!
//! * [`decode_record`] — the search the decoder ran before it had cluster
//!   patterns;
//! * [`bitio`] — the per-bit field reader and writer the word-wise ones
//!   replaced;
//! * [`parse`] — the owned parse `VbsView::parse` replaced, which read every
//!   field through that per-bit reader;
//! * [`encode`] — the encoder that rebuilt every route tree as hash maps
//!   and ordered connections by formatted `String`s.
//!
//! # `decode_record`
//!
//! Every connection is a Dijkstra over the routing-resource graph of the
//! *whole task* ([`Device::neighbors_into`] called per expansion, nothing
//! cached), constrained to the wires touching the record's cluster by
//! [`ClusterGrid::wire_touches`]; switches come from
//! [`Device::switch_between`] per path edge, endpoints from [`boundary_wire`] (the inverse of
//! [`ClusterGrid::wire_io`]) / [`ClusterGrid::macro_at`], state lives in
//! hash maps keyed by task nodes and frame bits are written one at a time. Costs (0.1 / 1.0 / 6.0), the
//! `f32::EPSILON` improvement threshold and the `(cost, node)` pop order are
//! the decoder's contract with every stored stream; `decode_differential`
//! holds the pattern decoder to them bit for bit.

// Each test binary compiles its own copy and uses a different subset.
#![allow(dead_code)]

pub mod bitio;
pub mod encode;
pub mod parse;

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use vbs_arch::{Coord, Device, RrNode, Side, SwitchSetting, WireRef};
use vbs_bitstream::TaskBitstream;
use vbs_core::{ClusterGrid, ClusterIo, ClusterRecord, ClusterRoutes, Connection, Vbs, VbsError};

/// Expands `record` of `vbs` into `task` and returns the wires it claimed,
/// sorted and deduplicated (empty for raw records).
pub fn decode_record(
    vbs: &Vbs,
    record: &ClusterRecord,
    task: &mut TaskBitstream,
) -> Result<Vec<WireRef>, VbsError> {
    let cluster = record.position;
    let grid = vbs.grid();
    let spec = vbs.spec();
    let k = grid.cluster_size() as usize;
    let lb_bits = spec.lb_config_bits();
    if record.logic.len() != vbs.header().logic_bits_per_record() {
        return Err(VbsError::Malformed {
            reason: format!(
                "record at {cluster} carries {} logic bits, expected {}",
                record.logic.len(),
                vbs.header().logic_bits_per_record()
            ),
        });
    }
    for local in 0..k * k {
        let Some(site) = grid.macro_at(cluster, local as u16) else {
            continue;
        };
        let mut frame = task.frame_mut(site);
        for i in 0..lb_bits {
            frame.set_bit(i, record.logic.get(local * lb_bits + i));
        }
    }
    match &record.routes {
        ClusterRoutes::Raw(raw) => {
            if raw.len() != vbs.header().raw_routing_bits_per_record() {
                return Err(VbsError::Malformed {
                    reason: format!(
                        "raw record at {cluster} carries {} routing bits, expected {}",
                        raw.len(),
                        vbs.header().raw_routing_bits_per_record()
                    ),
                });
            }
            let per_macro = spec.raw_bits_per_macro() - lb_bits;
            for local in 0..k * k {
                let Some(site) = grid.macro_at(cluster, local as u16) else {
                    continue;
                };
                let mut frame = task.frame_mut(site);
                for i in 0..per_macro {
                    frame.set_bit(lb_bits + i, raw.get(local * per_macro + i));
                }
            }
            Ok(Vec::new())
        }
        ClusterRoutes::Coded(connections) => {
            let geometry = Device::new(*spec, vbs.width().max(1), vbs.height().max(1))?;
            let mut nets = Nets::default();
            for connection in connections {
                route(&grid, &geometry, cluster, connection, &mut nets, task)?;
            }
            let mut claimed: Vec<WireRef> = nets.owner.keys().copied().collect();
            claimed.sort_unstable();
            Ok(claimed)
        }
    }
}

/// Which net group owns each wire / was named at each endpoint, with a
/// plain union-find over groups.
#[derive(Default)]
struct Nets {
    owner: HashMap<WireRef, u32>,
    endpoint: HashMap<RrNode, u32>,
    parent: Vec<u32>,
}

impl Nets {
    fn root(&self, mut g: u32) -> u32 {
        while self.parent[g as usize] != g {
            g = self.parent[g as usize];
        }
        g
    }

    fn known(&self, node: RrNode) -> Option<u32> {
        match node {
            RrNode::Wire(w) => self.owner.get(&w).or_else(|| self.endpoint.get(&node)),
            RrNode::Pin { .. } => self.endpoint.get(&node),
        }
        .copied()
    }

    fn group_of_endpoints(&mut self, source: RrNode, target: RrNode) -> u32 {
        let group = match (self.known(source), self.known(target)) {
            (None, None) => {
                let g = self.parent.len() as u32;
                self.parent.push(g);
                g
            }
            (Some(g), None) | (None, Some(g)) => self.root(g),
            (Some(a), Some(b)) => {
                let (ra, rb) = (self.root(a), self.root(b));
                self.parent[rb as usize] = ra;
                ra
            }
        };
        for node in [source, target] {
            self.endpoint.insert(node, group);
            if let RrNode::Wire(w) = node {
                self.owner.insert(w, group);
            }
        }
        group
    }
}

fn io_node(grid: &ClusterGrid, cluster: Coord, io: ClusterIo) -> Result<RrNode, VbsError> {
    match io {
        ClusterIo::Null => Err(VbsError::Malformed {
            reason: format!("null i/o used as a connection endpoint in cluster {cluster}"),
        }),
        ClusterIo::Boundary { side, offset } => {
            Ok(RrNode::Wire(boundary_wire(grid, cluster, side, offset)?))
        }
        ClusterIo::Pin { local, pin } => {
            let site = grid
                .macro_at(cluster, local)
                .ok_or(VbsError::RecordOutOfTask { cluster })?;
            if pin >= grid.spec().lb_pins() {
                return Err(VbsError::InvalidIo {
                    index: pin as u32,
                    io_count: grid.spec().lb_pins() as u32,
                });
            }
            Ok(RrNode::Pin { site, pin })
        }
    }
}

/// The task-relative wire behind boundary I/O `side[offset]` of `cluster`:
/// the wire crossing `side` of the cluster's macro on that side, `offset / W`
/// macros along it, or `DanglingBoundary` when it would lie outside the task.
fn boundary_wire(
    grid: &ClusterGrid,
    cluster: Coord,
    side: Side,
    offset: u16,
) -> Result<WireRef, VbsError> {
    let k = grid.cluster_size();
    let w = grid.spec().channel_width();
    let (along, track) = (offset / w, offset % w);
    let (x0, y0) = (cluster.x * k, cluster.y * k);
    // The cluster's last column / row, cut at the task edge.
    let last = |start: u16, extent: u16| start + (k - 1).min(extent - 1 - start);
    let at = match side {
        Side::East => Coord::new(last(x0, grid.width()), y0 + along),
        Side::West => Coord::new(x0, y0 + along),
        Side::North => Coord::new(x0 + along, last(y0, grid.height())),
        Side::South => Coord::new(x0 + along, y0),
    };
    WireRef::from_boundary(at, side, track)
        .filter(|wire| along < k && wire.owner.x < grid.width() && wire.owner.y < grid.height())
        .ok_or_else(|| VbsError::DanglingBoundary {
            cluster,
            io: format!("{side}[{offset}]"),
        })
}

fn route(
    grid: &ClusterGrid,
    geometry: &Device,
    cluster: Coord,
    connection: &Connection,
    nets: &mut Nets,
    task: &mut TaskBitstream,
) -> Result<(), VbsError> {
    let source = io_node(grid, cluster, connection.input)?;
    let target = io_node(grid, cluster, connection.output)?;
    let group = nets.group_of_endpoints(source, target);
    if source == target {
        return Ok(());
    }
    let path = search(grid, geometry, cluster, source, target, group, nets).ok_or_else(|| {
        VbsError::DecodeNoPath {
            cluster,
            connection: connection.to_string(),
        }
    })?;
    let conflict = || VbsError::DecodeConflict {
        cluster,
        connection: connection.to_string(),
    };
    for hop in path.windows(2) {
        let switch = geometry
            .switch_between(hop[0], hop[1])
            .ok_or_else(conflict)?;
        if grid.cluster_of(switch.site()) != cluster {
            return Err(conflict());
        }
        let mut frame = task.frame_mut(switch.site());
        match switch {
            SwitchSetting::Crossing { pin, track, .. } => frame.set_crossing(pin, track, true),
            SwitchSetting::SwitchBox { track, pair, .. } => frame.set_sb(track, pair, true),
        }
    }
    for node in path {
        if let RrNode::Wire(w) = node {
            nets.owner.insert(w, group);
        }
    }
    Ok(())
}

#[derive(PartialEq)]
struct Entry {
    cost: f32,
    node: RrNode,
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .cost
            .total_cmp(&self.cost)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

fn search(
    grid: &ClusterGrid,
    geometry: &Device,
    cluster: Coord,
    source: RrNode,
    target: RrNode,
    group: u32,
    nets: &Nets,
) -> Option<Vec<RrNode>> {
    let group_root = nets.root(group);
    let mut cost: HashMap<RrNode, f32> = HashMap::from([(source, 0.0)]);
    let mut parent: HashMap<RrNode, RrNode> = HashMap::new();
    let mut heap = BinaryHeap::from([Entry {
        cost: 0.0,
        node: source,
    }]);
    let mut neighbors = Vec::new();
    while let Some(Entry {
        cost: node_cost,
        node,
    }) = heap.pop()
    {
        if node_cost > cost[&node] {
            continue;
        }
        if node == target {
            let mut path = vec![target];
            let mut cursor = target;
            while cursor != source {
                cursor = parent[&cursor];
                path.push(cursor);
            }
            path.reverse();
            return Some(path);
        }
        if !node.is_wire() && node != source {
            continue;
        }
        geometry.neighbors_into(node, &mut neighbors);
        for &next in &neighbors {
            let step = match next {
                RrNode::Pin { .. } if next == target => 1.0,
                RrNode::Pin { .. } => continue,
                RrNode::Wire(w) if !grid.wire_touches(cluster, w) => continue,
                RrNode::Wire(w) => match nets.owner.get(&w) {
                    Some(&owner) if nets.root(owner) != group_root => continue,
                    Some(_) => 0.1,
                    None if grid.wire_io(cluster, w).is_none() => 1.0,
                    None => 6.0,
                },
            };
            let next_cost = node_cost + step;
            if cost
                .get(&next)
                .is_none_or(|&known| next_cost < known - f32::EPSILON)
            {
                cost.insert(next, next_cost);
                parent.insert(next, node);
                heap.push(Entry {
                    cost: next_cost,
                    node: next,
                });
            }
        }
    }
    None
}
