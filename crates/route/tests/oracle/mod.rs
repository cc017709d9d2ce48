//! The router as it was before it searched over dense node ids: every
//! expansion rebuilt an [`RrNode`] with [`Device::node_at`], enumerated its
//! neighbours through [`Device::neighbors_into`] and re-indexed each one
//! with [`Device::node_index`]. `route_differential` holds the product router
//! to it tree for tree and error for error; [`minimum_channel_width`] is
//! the product's search, calling this [`route`].

// Each test binary compiles its own copy and uses a different subset.
#![allow(dead_code)]

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use vbs_arch::{ArchSpec, Coord, Device, RrNode};
use vbs_netlist::{BlockKind, NetId, Netlist};
use vbs_place::Placement;
use vbs_route::{McwSearch, RouteError, RouteTree, RouterConfig, Routing};

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

/// Routes every net of `netlist` on `device` under `placement`.
///
/// # Errors
///
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
    if placement.placed_blocks() != netlist.block_count() {
        return Err(RouteError::PlacementIncomplete);
    }
    let node_count = device.node_count();
    let wire_count = device.wire_count();

    // Net terminals in graph terms.
    let output_pin = device.spec().output_pin();
    let mut terminals: Vec<(RrNode, Vec<RrNode>)> = Vec::with_capacity(netlist.net_count());
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
        let sinks: Vec<RrNode> = net
            .sinks
            .iter()
            .map(|s| RrNode::Pin {
                site: placement.site(s.block),
                pin: s.slot,
            })
            .collect();
        terminals.push((source, sinks));
    }

    let mut occupancy: Vec<u16> = vec![0; wire_count];
    let mut history: Vec<f32> = vec![0.0; wire_count];
    let mut trees: Vec<RouteTree> = terminals
        .iter()
        .map(|(source, _)| RouteTree::new(*source))
        .collect();

    let mut search = SearchState::new(node_count);
    let mut present_factor = INITIAL_PRESENT_FACTOR;

    for iteration in 0..config.max_iterations {
        for (net_index, (source, sinks)) in terminals.iter().enumerate() {
            if sinks.is_empty() {
                continue;
            }
            // Rip up the previous tree of this net.
            for wire in trees[net_index].iter_wires() {
                let idx = device.node_index(RrNode::Wire(wire));
                occupancy[idx] = occupancy[idx].saturating_sub(1);
            }
            let tree = route_net(
                device,
                *source,
                sinks,
                &occupancy,
                &history,
                present_factor,
                config,
                iteration,
                &mut search,
            )
            .map_err(|sink| RouteError::NoPath {
                net: NetId(net_index as u32),
                sink,
            })?;
            for wire in tree.iter_wires() {
                let idx = device.node_index(RrNode::Wire(wire));
                occupancy[idx] += 1;
            }
            trees[net_index] = tree;
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

/// Scratch buffers reused across net routings to avoid re-allocation.
struct SearchState {
    stamp: u32,
    visited_stamp: Vec<u32>,
    best_cost: Vec<f32>,
    came_from: Vec<u32>,
    neighbors: Vec<RrNode>,
}

impl SearchState {
    fn new(node_count: usize) -> Self {
        SearchState {
            stamp: 0,
            visited_stamp: vec![0; node_count],
            best_cost: vec![f32::INFINITY; node_count],
            came_from: vec![u32::MAX; node_count],
            neighbors: Vec::with_capacity(16),
        }
    }

    fn begin(&mut self) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Stamp wrapped: clear everything once.
            self.visited_stamp.iter_mut().for_each(|s| *s = 0);
            self.stamp = 1;
        }
    }

    fn cost(&self, node: usize) -> f32 {
        if self.visited_stamp[node] == self.stamp {
            self.best_cost[node]
        } else {
            f32::INFINITY
        }
    }

    fn record(&mut self, node: usize, cost: f32, from: u32) {
        self.visited_stamp[node] = self.stamp;
        self.best_cost[node] = cost;
        self.came_from[node] = from;
    }
}

#[derive(PartialEq)]
struct HeapEntry {
    estimate: f32,
    cost: f32,
    node: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse order: BinaryHeap is a max-heap, we want the smallest
        // estimate on top.
        other
            .estimate
            .total_cmp(&self.estimate)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Routes one net: expands the tree sink by sink (closest sink first).
///
/// Returns `Err(description)` naming the first unreachable sink.
#[allow(clippy::too_many_arguments)]
fn route_net(
    device: &Device,
    source: RrNode,
    sinks: &[RrNode],
    occupancy: &[u16],
    history: &[f32],
    present_factor: f64,
    config: &RouterConfig,
    iteration: usize,
    search: &mut SearchState,
) -> Result<RouteTree, String> {
    let mut tree = RouteTree::new(source);

    // Search region: net bounding box plus a growing margin.
    let margin = BOUNDING_BOX_MARGIN + 2 * iteration as u16;
    let (lo, hi) = net_region(source, sinks, device, margin);

    // Closest sinks first: the tree grows outwards and later sinks can reuse
    // earlier branches.
    let mut ordered: Vec<RrNode> = sinks.to_vec();
    ordered.sort_by_key(|s| source.position().manhattan(s.position()));

    for sink in ordered {
        if tree.contains(sink) {
            continue;
        }
        search.begin();
        let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new();
        let sink_pos = sink.position();
        let sink_idx = device.node_index(sink);

        // Seed the frontier with the whole current tree at cost zero.
        for (tree_idx, &node) in tree.nodes().iter().enumerate() {
            let idx = device.node_index(node);
            // came_from encodes "already in tree" as u32::MAX - 1 - tree index.
            search.record(idx, 0.0, u32::MAX - 1 - tree_idx as u32);
            heap.push(HeapEntry {
                estimate: config.astar_weight as f32 * node.position().manhattan(sink_pos) as f32,
                cost: 0.0,
                node: idx,
            });
        }

        let mut found = false;
        while let Some(entry) = heap.pop() {
            if entry.cost > search.cost(entry.node) {
                continue;
            }
            if entry.node == sink_idx {
                found = true;
                break;
            }
            let node = device.node_at(entry.node);
            // Pins are never route-throughs: only the target sink pin may be
            // entered, and only source/tree pins may be expanded from.
            if let RrNode::Pin { .. } = node {
                if entry.cost > 0.0 {
                    continue;
                }
            }
            device.neighbors_into(node, &mut search.neighbors);
            let neighbors = std::mem::take(&mut search.neighbors);
            for &next in &neighbors {
                let next_idx = device.node_index(next);
                match next {
                    RrNode::Pin { .. } => {
                        if next_idx != sink_idx {
                            continue;
                        }
                    }
                    RrNode::Wire(w) => {
                        let p = w.owner;
                        if p.x < lo.x || p.y < lo.y || p.x > hi.x || p.y > hi.y {
                            continue;
                        }
                    }
                }
                let step = node_cost(next, next_idx, occupancy, history, present_factor);
                let new_cost = entry.cost + step;
                if new_cost < search.cost(next_idx) {
                    search.record(next_idx, new_cost, entry.node as u32);
                    heap.push(HeapEntry {
                        estimate: new_cost
                            + config.astar_weight as f32
                                * next.position().manhattan(sink_pos) as f32,
                        cost: new_cost,
                        node: next_idx,
                    });
                }
            }
            search.neighbors = neighbors;
        }

        if !found {
            return Err(format!("{sink}"));
        }

        // Trace the path back into the tree.
        let mut path: Vec<usize> = Vec::new();
        let mut cursor = sink_idx;
        let parent_tree_index: usize;
        loop {
            let from = search.came_from[cursor];
            if from >= u32::MAX - 1 - (tree.len() as u32) {
                // Reached a node that was already in the tree.
                parent_tree_index = (u32::MAX - 1 - from) as usize;
                break;
            }
            path.push(cursor);
            cursor = from as usize;
        }
        let mut parent = parent_tree_index;
        for &node_idx in path.iter().rev() {
            parent = tree.push(device.node_at(node_idx), parent);
        }
    }

    Ok(tree)
}

/// Congestion-aware cost of entering a node.
fn node_cost(
    node: RrNode,
    node_idx: usize,
    occupancy: &[u16],
    history: &[f32],
    present_factor: f64,
) -> f32 {
    match node {
        RrNode::Pin { .. } => 1.0,
        RrNode::Wire(_) => {
            let occ = occupancy[node_idx] as f32;
            let hist = history[node_idx];
            // Capacity is one net per wire.
            let over = (occ + 1.0 - 1.0).max(0.0);
            (1.0 + hist) * (1.0 + present_factor as f32 * over)
        }
    }
}

/// Bounding region of a net (clamped to the device), expanded by `margin`.
fn net_region(source: RrNode, sinks: &[RrNode], device: &Device, margin: u16) -> (Coord, Coord) {
    let mut min_x = source.position().x;
    let mut min_y = source.position().y;
    let mut max_x = min_x;
    let mut max_y = min_y;
    for s in sinks {
        let p = s.position();
        min_x = min_x.min(p.x);
        min_y = min_y.min(p.y);
        max_x = max_x.max(p.x);
        max_y = max_y.max(p.y);
    }
    let lo = Coord::new(min_x.saturating_sub(margin), min_y.saturating_sub(margin));
    let hi = Coord::new(
        (max_x + margin).min(device.width() - 1),
        (max_y + margin).min(device.height() - 1),
    );
    (lo, hi)
}

/// Finds the minimum channel width at which `netlist` routes under
/// `placement` on a grid of the same dimensions as `device_template`.
///
/// The search first doubles from `lower_bound` until a routable width is
/// found (capped at `upper_bound`), then binary-searches the interval.
///
/// # Errors
///
/// Returns [`RouteError::McwUpperBoundTooSmall`] when even `upper_bound`
/// tracks are not enough, or any placement/graph error from the router.
pub fn minimum_channel_width(
    netlist: &Netlist,
    device_template: &Device,
    placement: &Placement,
    config: &RouterConfig,
    lower_bound: u16,
    upper_bound: u16,
) -> Result<McwSearch, RouteError> {
    let lut_size = device_template.spec().lut_size();
    let width = device_template.width();
    let height = device_template.height();
    let mut attempts = Vec::new();

    let try_width = |w: u16, attempts: &mut Vec<(u16, bool)>| -> Result<bool, RouteError> {
        let spec = ArchSpec::new(w, lut_size)
            .map_err(|_| RouteError::McwUpperBoundTooSmall { upper_bound: w })?;
        let device = Device::new(spec, width, height)
            .expect("template device dimensions are valid by construction");
        let ok = match route(netlist, &device, placement, config) {
            Ok(_) => true,
            Err(RouteError::Unroutable { .. }) => false,
            Err(other) => return Err(other),
        };
        attempts.push((w, ok));
        Ok(ok)
    };

    // Exponential probe upwards for the first routable width.
    let mut lo = lower_bound.max(ArchSpec::MIN_CHANNEL_WIDTH);
    let mut probe = lo;
    let mut hi = None;
    while probe <= upper_bound {
        if try_width(probe, &mut attempts)? {
            hi = Some(probe);
            break;
        }
        lo = probe + 1;
        probe = (probe * 2).min(upper_bound.max(probe + 1));
        if probe == lo - 1 {
            break;
        }
    }
    let Some(mut hi) = hi else {
        return Err(RouteError::McwUpperBoundTooSmall { upper_bound });
    };

    // Binary search in [lo, hi): hi is known routable.
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if try_width(mid, &mut attempts)? {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }

    Ok(McwSearch {
        min_channel_width: hi,
        attempts,
    })
}
