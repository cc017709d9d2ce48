//! The negotiated-congestion (PathFinder) router.
//!
//! Every net is routed with an A*-directed search over the implicit
//! routing-resource graph; wires that end up shared by several nets become
//! progressively more expensive (present congestion) and keep a memory of
//! past congestion (historical cost), so the nets negotiate until every wire
//! carries at most one net — the classic PathFinder/VPR scheme.
//!
//! Each [`route`] call first flattens the graph into a CSR adjacency over
//! dense `u32` node ids plus one grid position per node, read once from
//! [`Device::neighbors_into`]. Every sink search then runs on ids alone:
//! a packed `(estimate, node)` heap key, one `(stamp, cost)` slot per node,
//! and heap, path and sink-order buffers kept across sinks and nets. No
//! [`RrNode`] is built until a found path joins its net's [`RouteTree`].

use crate::error::RouteError;
use crate::result::{RouteTree, Routing};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use vbs_arch::{Coord, Device, RrNode};
use vbs_netlist::{BlockKind, NetId, Netlist};
use vbs_place::Placement;

/// Router tuning parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouterConfig {
    /// Maximum number of PathFinder iterations before giving up.
    pub max_iterations: usize,
    /// Weight of the A* distance estimate (1.0 = admissible, larger trades
    /// quality for speed, 0 is a plain Dijkstra search). Valid range
    /// `[0, ∞)`: [`route`] refuses a negative, NaN or infinite weight, and
    /// one too large for the search's `f32`.
    pub astar_weight: f64,
}

/// Present-congestion factor of the first iteration.
const INITIAL_PRESENT_FACTOR: f64 = 0.6;
/// Multiplier applied to the present-congestion factor each iteration.
const PRESENT_FACTOR_GROWTH: f64 = 1.8;
/// Weight of the historical congestion added after each iteration.
const HISTORY_FACTOR: f32 = 1.0;
/// Extra margin (in macros) added around each net's bounding box when
/// constraining its search region; the margin also grows with the iteration
/// count so hard nets eventually see the whole device.
const BOUNDING_BOX_MARGIN: u16 = 3;

impl RouterConfig {
    /// Configuration favouring speed, used by tests and quick sweeps.
    pub fn fast() -> Self {
        RouterConfig {
            max_iterations: 30,
            astar_weight: 1.3,
        }
    }
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            max_iterations: 50,
            astar_weight: 1.15,
        }
    }
}

/// Routes every net of `netlist` on `device` under `placement`.
///
/// # Errors
///
/// * [`RouteError::InvalidAstarWeight`] if [`RouterConfig::astar_weight`]
///   is outside `[0, ∞)` (negative, NaN or infinite as an `f32`);
/// * [`RouteError::PlacementIncomplete`] if the placement does not cover the
///   netlist;
/// * [`RouteError::NoPath`] if some sink is unreachable regardless of
///   congestion (should not happen on a well-formed device);
/// * [`RouteError::Unroutable`] if congestion cannot be resolved within
///   [`RouterConfig::max_iterations`] — typically the channel width is too
///   small for the circuit.
pub fn route(
    netlist: &Netlist,
    device: &Device,
    placement: &Placement,
    config: &RouterConfig,
) -> Result<Routing, RouteError> {
    let astar_weight = config.astar_weight as f32;
    if !(astar_weight.is_finite() && astar_weight >= 0.0) {
        return Err(RouteError::InvalidAstarWeight {
            weight: config.astar_weight,
        });
    }
    if placement.placed_blocks() != netlist.block_count() {
        return Err(RouteError::PlacementIncomplete);
    }
    let ids = IdGraph::new(device);
    let wire_count = device.wire_count();

    // Net terminals as node ids: the source, then the sinks.
    let output_pin = device.spec().output_pin();
    let mut terminals: Vec<(u32, Vec<u32>)> = Vec::with_capacity(netlist.net_count());
    let mut trees: Vec<RouteTree> = Vec::with_capacity(netlist.net_count());
    for (_, net) in netlist.iter_nets() {
        let driver_block = netlist.block(net.driver);
        let driver_site = placement.site(net.driver);
        // LUTs and input pads drive through the logic block output pin.
        let source = match driver_block.kind {
            BlockKind::Lut { .. } | BlockKind::InputPad => RrNode::Pin {
                site: driver_site,
                pin: output_pin,
            },
            BlockKind::OutputPad => RrNode::Pin {
                site: driver_site,
                pin: 0,
            },
        };
        let sinks: Vec<u32> = net
            .sinks
            .iter()
            .map(|s| {
                IdGraph::id(device.node_index(RrNode::Pin {
                    site: placement.site(s.block),
                    pin: s.slot,
                }))
            })
            .collect();
        terminals.push((IdGraph::id(device.node_index(source)), sinks));
        trees.push(RouteTree::new(source));
    }

    let mut occupancy: Vec<u16> = vec![0; wire_count];
    let mut history: Vec<f32> = vec![0.0; wire_count];
    let mut search = Search::new(device.node_count());
    let mut present_factor = INITIAL_PRESENT_FACTOR;

    for iteration in 0..config.max_iterations {
        let margin = search_margin(iteration);
        for (net_index, (source, sinks)) in terminals.iter().enumerate() {
            if sinks.is_empty() {
                continue;
            }
            // Rip up the previous tree of this net.
            for wire in trees[net_index].iter_wires() {
                let idx = device.node_index(RrNode::Wire(wire));
                occupancy[idx] = occupancy[idx].saturating_sub(1);
            }
            let costs = WireCosts {
                occupancy: &occupancy,
                history: &history,
                present_factor: present_factor as f32,
            };
            trees[net_index] = route_net(
                device,
                &ids,
                *source,
                sinks,
                &costs,
                astar_weight,
                margin,
                &mut search,
            )
            .map_err(|sink| RouteError::NoPath {
                net: NetId(net_index as u32),
                sink: device.node_at(sink as usize).to_string(),
            })?;
            for &id in &search.tree {
                if (id as usize) < wire_count {
                    occupancy[id as usize] += 1;
                }
            }
        }

        // Congestion accounting.
        let mut overused = 0usize;
        for idx in 0..wire_count {
            if occupancy[idx] > 1 {
                overused += 1;
                history[idx] += HISTORY_FACTOR * (occupancy[idx] - 1) as f32;
            }
        }
        if overused == 0 {
            return Ok(Routing::new(*device.spec(), trees, iteration + 1));
        }
        present_factor *= PRESENT_FACTOR_GROWTH;
    }

    let overused = occupancy.iter().filter(|&&o| o > 1).count();
    Err(RouteError::Unroutable {
        overused_wires: overused,
        iterations: config.max_iterations,
    })
}

/// The routing-resource graph of one [`route`] call over dense `u32` node
/// ids ([`Device::node_index`]): a CSR adjacency read once from
/// [`Device::neighbors_into`], plus every node's grid position.
///
/// A row keeps only the *wire* neighbours of its node. The search never
/// enters a pin other than its sink, and it reaches the sink through
/// [`Search::sink_mark`] instead: since the graph is symmetric, the wires
/// that reach a pin are exactly that pin's own row.
struct IdGraph {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    positions: Vec<Coord>,
}

impl IdGraph {
    fn new(device: &Device) -> Self {
        let node_count = device.node_count();
        let mut offsets = Vec::with_capacity(node_count + 1);
        let mut targets = Vec::new();
        let mut positions = Vec::with_capacity(node_count);
        let mut neighbors = Vec::with_capacity(16);
        offsets.push(0);
        for index in 0..node_count {
            let node = device.node_at(index);
            positions.push(node.position());
            device.neighbors_into(node, &mut neighbors);
            targets.extend(
                neighbors
                    .iter()
                    .filter(|n| n.is_wire())
                    .map(|&n| Self::id(device.node_index(n))),
            );
            offsets.push(Self::id(targets.len()));
        }
        IdGraph {
            offsets,
            targets,
            positions,
        }
    }

    /// A dense index as a node id.
    ///
    /// # Panics
    ///
    /// Panics on a device with more than `u32::MAX` graph nodes or edges.
    fn id(index: usize) -> u32 {
        u32::try_from(index).expect("routing-resource graph exceeds u32 ids")
    }

    /// The wire neighbours of `node`.
    fn row(&self, node: u32) -> &[u32] {
        let node = node as usize;
        &self.targets[self.offsets[node] as usize..self.offsets[node + 1] as usize]
    }

    fn position(&self, node: u32) -> Coord {
        self.positions[node as usize]
    }
}

/// What entering a wire costs during one net's search.
struct WireCosts<'a> {
    occupancy: &'a [u16],
    history: &'a [f32],
    present_factor: f32,
}

impl WireCosts<'_> {
    /// Congestion-aware cost of entering wire `wire`: one net per wire, so
    /// this net would overuse it by its current occupancy.
    fn of(&self, wire: u32) -> f32 {
        let over = self.occupancy[wire as usize] as f32;
        (1.0 + self.history[wire as usize]) * (1.0 + self.present_factor * over)
    }
}

/// Cost of entering the sink pin.
const PIN_COST: f32 = 1.0;

/// Search state reused across every sink and net of one [`route`] call.
struct Search {
    stamp: u32,
    /// Per node: the stamp of the search that last reached it and its best
    /// cost in that search (unreached nodes cost infinity).
    best: Vec<(u32, f32)>,
    came_from: Vec<u32>,
    /// Per node: the stamp of the search whose sink pin it reaches.
    sink_mark: Vec<u32>,
    heap: BinaryHeap<HeapEntry>,
    /// The ids of the net's tree, in [`RouteTree`] order.
    tree: Vec<u32>,
    /// The net's sinks, closest first.
    order: Vec<u32>,
    path: Vec<u32>,
}

impl Search {
    fn new(node_count: usize) -> Self {
        Search {
            stamp: 0,
            best: vec![(0, f32::INFINITY); node_count],
            came_from: vec![u32::MAX; node_count],
            sink_mark: vec![0; node_count],
            heap: BinaryHeap::new(),
            tree: Vec::new(),
            order: Vec::new(),
            path: Vec::new(),
        }
    }

    /// Starts the search for `sink`: forgets every cost and marks the wires
    /// that reach `sink`.
    fn begin(&mut self, ids: &IdGraph, sink: u32) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Stamp wrapped: clear everything once.
            self.best.iter_mut().for_each(|b| b.0 = 0);
            self.sink_mark.iter_mut().for_each(|s| *s = 0);
            self.stamp = 1;
        }
        for &wire in ids.row(sink) {
            self.sink_mark[wire as usize] = self.stamp;
        }
        self.heap.clear();
    }

    fn cost(&self, node: u32) -> f32 {
        match self.best[node as usize] {
            (stamp, cost) if stamp == self.stamp => cost,
            _ => f32::INFINITY,
        }
    }

    fn record(&mut self, node: u32, cost: f32, from: u32) {
        self.best[node as usize] = (self.stamp, cost);
        self.came_from[node as usize] = from;
    }

    /// Records and queues `node` at `cost` if that improves on its best,
    /// `distance` macros from the sink.
    fn relax(&mut self, node: u32, cost: f32, from: u32, astar_weight: f32, distance: u32) {
        if cost < self.cost(node) {
            self.record(node, cost, from);
            let estimate = cost + astar_weight * distance as f32;
            self.heap.push(HeapEntry::new(estimate, node, cost));
        }
    }
}

/// A queued node: the A* estimate and the node id packed into one key,
/// popped smallest first, plus the cost it was queued at. Two entries with
/// equal keys hold the same node and differ at most in cost; the stale
/// check on pop skips all but the cheapest, so their order is irrelevant.
struct HeapEntry {
    key: u64,
    cost: f32,
}

impl HeapEntry {
    fn new(estimate: f32, node: u32, cost: f32) -> Self {
        HeapEntry {
            key: u64::from(total_order_bits(estimate)) << 32 | u64::from(node),
            cost,
        }
    }

    fn node(&self) -> u32 {
        self.key as u32
    }
}

/// `x`'s bits, mapped so that unsigned order is [`f32::total_cmp`] order
/// (a total order over every `f32`, whatever the estimate).
fn total_order_bits(x: f32) -> u32 {
    let bits = x.to_bits();
    if bits >> 31 == 1 {
        !bits
    } else {
        bits | 1 << 31
    }
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse order: BinaryHeap is a max-heap, we want the smallest
        // key on top.
        other.key.cmp(&self.key)
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Routes one net: expands the tree sink by sink (closest sink first),
/// leaving its node ids in `search.tree`.
///
/// Returns `Err(sink)` naming the first unreachable sink.
#[allow(clippy::too_many_arguments)]
fn route_net(
    device: &Device,
    ids: &IdGraph,
    source: u32,
    sinks: &[u32],
    costs: &WireCosts<'_>,
    astar_weight: f32,
    margin: u16,
    search: &mut Search,
) -> Result<RouteTree, u32> {
    let mut tree = RouteTree::new(device.node_at(source as usize));
    search.tree.clear();
    search.tree.push(source);

    // Search region: net bounding box plus a growing margin.
    let source_pos = ids.position(source);
    let sink_positions = sinks.iter().map(|&s| ids.position(s));
    let (lo, hi) = net_region(source_pos, sink_positions, device, margin);

    // Closest sinks first: the tree grows outwards and later sinks can reuse
    // earlier branches.
    search.order.clear();
    search.order.extend_from_slice(sinks);
    search
        .order
        .sort_by_key(|&s| source_pos.manhattan(ids.position(s)));

    for next_sink in 0..search.order.len() {
        let sink = search.order[next_sink];
        if search.tree.contains(&sink) {
            continue;
        }
        search.begin(ids, sink);
        let sink_pos = ids.position(sink);

        // Seed the frontier with the whole current tree at cost zero.
        for tree_idx in 0..search.tree.len() {
            let node = search.tree[tree_idx];
            // came_from encodes "already in tree" as u32::MAX - 1 - tree index.
            search.record(node, 0.0, u32::MAX - 1 - tree_idx as u32);
            let estimate = astar_weight * ids.position(node).manhattan(sink_pos) as f32;
            search.heap.push(HeapEntry::new(estimate, node, 0.0));
        }

        // Only tree pins (cost zero) are expanded: every other pin but the
        // sink is never queued, and popping the sink ends the search.
        let mut found = false;
        while let Some(entry) = search.heap.pop() {
            let node = entry.node();
            if entry.cost > search.cost(node) {
                continue;
            }
            if node == sink {
                found = true;
                break;
            }
            if search.sink_mark[node as usize] == search.stamp {
                search.relax(sink, entry.cost + PIN_COST, node, astar_weight, 0);
            }
            for &next in ids.row(node) {
                let p = ids.position(next);
                if p.x < lo.x || p.y < lo.y || p.x > hi.x || p.y > hi.y {
                    continue;
                }
                let cost = entry.cost + costs.of(next);
                search.relax(next, cost, node, astar_weight, p.manhattan(sink_pos));
            }
        }

        if !found {
            return Err(sink);
        }

        // Trace the path back into the tree.
        search.path.clear();
        let mut cursor = sink;
        let parent_tree_index: usize;
        loop {
            let from = search.came_from[cursor as usize];
            if from >= u32::MAX - 1 - (tree.len() as u32) {
                // Reached a node that was already in the tree.
                parent_tree_index = (u32::MAX - 1 - from) as usize;
                break;
            }
            search.path.push(cursor);
            cursor = from;
        }
        let mut parent = parent_tree_index;
        for &node in search.path.iter().rev() {
            parent = tree.push(device.node_at(node as usize), parent);
            search.tree.push(node);
        }
    }

    Ok(tree)
}

/// The margin around a net's bounding box at PathFinder iteration
/// `iteration`: [`BOUNDING_BOX_MARGIN`] plus two macros per iteration,
/// saturating at `u16::MAX` (more than any device edge).
fn search_margin(iteration: usize) -> u16 {
    let growth = u16::try_from(iteration).map_or(u16::MAX, |i| i.saturating_mul(2));
    BOUNDING_BOX_MARGIN.saturating_add(growth)
}

/// Bounding region of a net's terminal positions (clamped to the device),
/// expanded by `margin`.
fn net_region(
    source: Coord,
    sinks: impl Iterator<Item = Coord>,
    device: &Device,
    margin: u16,
) -> (Coord, Coord) {
    let (mut min_x, mut min_y, mut max_x, mut max_y) = (source.x, source.y, source.x, source.y);
    for p in sinks {
        min_x = min_x.min(p.x);
        min_y = min_y.min(p.y);
        max_x = max_x.max(p.x);
        max_y = max_y.max(p.y);
    }
    let lo = Coord::new(min_x.saturating_sub(margin), min_y.saturating_sub(margin));
    let hi = Coord::new(
        max_x.saturating_add(margin).min(device.width() - 1),
        max_y.saturating_add(margin).min(device.height() - 1),
    );
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_routing;
    use vbs_arch::ArchSpec;
    use vbs_netlist::generate::SyntheticSpec;
    use vbs_place::{place, PlacerConfig};

    fn flow(luts: usize, w: u16, grid: u16, seed: u64) -> (Netlist, Device, Placement, Routing) {
        let netlist = SyntheticSpec::new("route_test", luts, 6, 6)
            .with_seed(seed)
            .build()
            .unwrap();
        let device = Device::new(ArchSpec::new(w, 6).unwrap(), grid, grid).unwrap();
        let placement = place(&netlist, &device, &PlacerConfig::fast(seed)).unwrap();
        let routing = route(&netlist, &device, &placement, &RouterConfig::fast()).unwrap();
        (netlist, device, placement, routing)
    }

    #[test]
    fn small_circuit_routes_legally() {
        let (netlist, device, placement, routing) = flow(30, 10, 8, 1);
        check_routing(&netlist, &device, &placement, &routing).expect("legal routing");
        assert!(routing.total_wirelength() > 0);
    }

    #[test]
    fn every_net_tree_starts_at_its_driver_pin() {
        let (netlist, device, placement, routing) = flow(25, 10, 8, 2);
        let output_pin = device.spec().output_pin();
        for (net_id, tree) in routing.iter_trees() {
            let net = netlist.net(net_id);
            let expected_site = placement.site(net.driver);
            match tree.source() {
                RrNode::Pin { site, pin } => {
                    assert_eq!(site, expected_site);
                    assert!(pin == output_pin || pin == 0);
                }
                other => panic!("source is not a pin: {other}"),
            }
        }
    }

    #[test]
    fn no_wire_is_shared_between_nets() {
        let (_, _, _, routing) = flow(40, 12, 9, 3);
        assert!(routing.wire_occupancy().values().all(|&o| o <= 1));
    }

    #[test]
    fn congested_device_reports_unroutable() {
        // Many blocks, tiny channel width: the router must give up cleanly.
        let netlist = SyntheticSpec::new("dense", 60, 6, 6)
            .with_seed(4)
            .with_locality(0.0)
            .build()
            .unwrap();
        let device = Device::new(ArchSpec::new(2, 6).unwrap(), 9, 9).unwrap();
        let placement = place(&netlist, &device, &PlacerConfig::fast(4)).unwrap();
        let mut config = RouterConfig::fast();
        config.max_iterations = 6;
        match route(&netlist, &device, &placement, &config) {
            Err(RouteError::Unroutable { .. }) | Ok(_) => {}
            Err(other) => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn incomplete_placement_is_rejected() {
        let netlist = SyntheticSpec::new("x", 10, 3, 3)
            .with_seed(1)
            .build()
            .unwrap();
        let device = Device::new(ArchSpec::new(8, 6).unwrap(), 6, 6).unwrap();
        let small = SyntheticSpec::new("y", 5, 3, 3)
            .with_seed(1)
            .build()
            .unwrap();
        let placement = place(&small, &device, &PlacerConfig::fast(1)).unwrap();
        assert!(matches!(
            route(&netlist, &device, &placement, &RouterConfig::fast()),
            Err(RouteError::PlacementIncomplete)
        ));
    }

    #[test]
    fn astar_weights_outside_zero_to_infinity_are_refused() {
        let netlist = SyntheticSpec::new("w", 10, 3, 3)
            .with_seed(1)
            .build()
            .unwrap();
        let device = Device::new(ArchSpec::new(8, 6).unwrap(), 6, 6).unwrap();
        let placement = place(&netlist, &device, &PlacerConfig::fast(1)).unwrap();
        let with_weight = |astar_weight| RouterConfig {
            astar_weight,
            ..RouterConfig::fast()
        };
        for weight in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.5,
            -1e-30,
            1e300,
        ] {
            let refused = route(&netlist, &device, &placement, &with_weight(weight));
            assert!(
                matches!(refused, Err(RouteError::InvalidAstarWeight { weight: w })
                    if w.to_bits() == weight.to_bits()),
                "weight {weight}: {refused:?}"
            );
        }
        // A huge weight routes greedily and may not converge, but it is
        // taken.
        for weight in [0.0, -0.0, 1.0, 1e30] {
            let taken = route(&netlist, &device, &placement, &with_weight(weight));
            assert!(
                !matches!(taken, Err(RouteError::InvalidAstarWeight { .. })),
                "weight {weight}: {taken:?}"
            );
        }
    }

    #[test]
    fn search_margin_saturates() {
        assert_eq!(search_margin(0), BOUNDING_BOX_MARGIN);
        assert_eq!(search_margin(5), BOUNDING_BOX_MARGIN + 10);
        assert_eq!(search_margin(32_767), u16::MAX);
        assert_eq!(search_margin(usize::MAX), u16::MAX);
    }

    #[test]
    fn net_region_clamps_a_saturated_margin() {
        let edge = Device::MAX_EDGE;
        let device = Device::new(ArchSpec::new(2, 6).unwrap(), edge, edge).unwrap();
        let corner = Coord::new(edge - 1, edge - 1);
        let (lo, hi) = net_region(corner, [Coord::new(3, 9)].into_iter(), &device, u16::MAX);
        assert_eq!((lo, hi), (Coord::new(0, 0), corner));
        let (lo, hi) = net_region(Coord::new(4, 5), std::iter::empty(), &device, 2);
        assert_eq!((lo, hi), (Coord::new(2, 3), Coord::new(6, 7)));
    }

    #[test]
    fn heap_keys_follow_total_cmp() {
        let values = [
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            1.5,
            -1.5,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            3.25e-41,
        ];
        for a in values {
            for b in values {
                assert_eq!(
                    total_order_bits(a).cmp(&total_order_bits(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn routing_is_deterministic() {
        let (_, _, _, a) = flow(30, 10, 8, 7);
        let (_, _, _, b) = flow(30, 10, 8, 7);
        assert_eq!(a, b);
    }
}
