//! Raw bit-stream generation from a placed-and-routed task.
//!
//! Every edge of every route tree is mapped to the programmable switch it
//! turns on by [`Device::switch_between`], the device's one edge-to-switch
//! map:
//!
//! * a **pin ↔ wire** edge programs the connection-box crossing of that pin
//!   over the wire's track, in the macro owning the wire;
//! * a **wire ↔ wire** edge programs the pass switch of the switch box the
//!   two wires share, between the two sides they occupy there.
//!
//! The logic-block section of each frame is filled from the netlist block
//! placed at that site (LUT truth table + flip-flop bypass, pads left blank).

use crate::error::BitstreamError;
use crate::task::TaskBitstream;
use vbs_arch::{Coord, Device, SwitchSetting};
use vbs_netlist::{BlockKind, Netlist};
use vbs_place::Placement;
use vbs_route::check::check_routing;
use vbs_route::Routing;

/// Enumerates every switch programmed by a routing, net by net.
///
/// # Errors
///
/// Returns [`BitstreamError::UnmappableEdge`] for an edge no switch of the
/// device realizes (a corrupted route tree).
fn configured_switches(
    device: &Device,
    routing: &Routing,
) -> Result<Vec<SwitchSetting>, BitstreamError> {
    let mut switches = Vec::new();
    for (_, tree) in routing.iter_trees() {
        for (parent, child) in tree.iter_edges() {
            let switch = device.switch_between(parent, child).ok_or_else(|| {
                BitstreamError::UnmappableEdge {
                    edge: format!("{parent} <-> {child}"),
                }
            })?;
            switches.push(switch);
        }
    }
    Ok(switches)
}

/// Generates the raw bit-stream of a placed-and-routed hardware task.
///
/// The task rectangle is the placement's region; frames are indexed by
/// task-relative coordinates (the region origin maps to frame `(0, 0)`),
/// which is what makes the raw bit-stream comparable with the relocatable
/// Virtual Bit-Stream.
///
/// The routing is first re-validated with [`check_routing`], in every
/// build.
///
/// # Errors
///
/// Returns [`BitstreamError::IllegalRouting`] if [`check_routing`] rejects
/// the routing (an edge the fabric does not have, a sink not reached, a
/// wire carrying two nets), [`BitstreamError::UnmappableEdge`] if a route
/// tree past the netlist's nets contains an edge the fabric cannot
/// realize, or [`BitstreamError::OutOfTask`] if the routing escapes the
/// placement region.
pub fn generate_bitstream(
    netlist: &Netlist,
    device: &Device,
    placement: &Placement,
    routing: &Routing,
) -> Result<TaskBitstream, BitstreamError> {
    check_routing(netlist, device, placement, routing).map_err(|error| {
        BitstreamError::IllegalRouting {
            reason: error.to_string(),
        }
    })?;
    let region = placement.region();
    let origin = region.origin;
    let mut task = TaskBitstream::empty(*device.spec(), region.width, region.height);

    // Logic sections.
    for (block_id, block) in netlist.iter_blocks() {
        let site = placement.site(block_id);
        let local = Coord::new(site.x - origin.x, site.y - origin.y);
        let mut frame = task.frame_mut(local);
        match &block.kind {
            BlockKind::Lut { truth, registered } => frame.set_logic(truth, *registered),
            // Pads keep an all-zero logic section; their identity lives in the
            // netlist, not in the fabric configuration.
            BlockKind::InputPad | BlockKind::OutputPad => {}
        }
    }

    // Routing sections.
    for switch in configured_switches(device, routing)? {
        let site = switch.site();
        if !region.contains(site) {
            return Err(BitstreamError::OutOfTask { at: site });
        }
        let local = Coord::new(site.x - origin.x, site.y - origin.y);
        let mut frame = task.frame_mut(local);
        match switch {
            SwitchSetting::Crossing { pin, track, .. } => frame.set_crossing(pin, track, true),
            SwitchSetting::SwitchBox { track, pair, .. } => frame.set_sb(track, pair, true),
        }
    }

    Ok(task)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbs_arch::{ArchSpec, RrNode, WireRef};
    use vbs_netlist::generate::SyntheticSpec;
    use vbs_place::{place, PlacerConfig};
    use vbs_route::{route, RouteTree, RouterConfig};

    fn flow() -> (Netlist, Device, Placement, Routing) {
        let netlist = SyntheticSpec::new("bits", 24, 5, 5)
            .with_seed(8)
            .build()
            .unwrap();
        let device = Device::new(ArchSpec::new(8, 6).unwrap(), 7, 7).unwrap();
        let placement = place(&netlist, &device, &PlacerConfig::fast(8)).unwrap();
        let routing = route(&netlist, &device, &placement, &RouterConfig::fast()).unwrap();
        (netlist, device, placement, routing)
    }

    #[test]
    fn generated_bitstream_has_logic_and_routing_bits() {
        let (netlist, device, placement, routing) = flow();
        let task = generate_bitstream(&netlist, &device, &placement, &routing).unwrap();
        assert_eq!(task.width(), 7);
        assert_eq!(task.height(), 7);
        // Every configured switch appears exactly once, so the popcount is at
        // least the number of route edges plus some logic bits.
        let switches = configured_switches(&device, &routing).unwrap();
        assert!(task.popcount() >= switches.len());
        assert!(task.occupied_macros() > 0);
    }

    #[test]
    fn switch_count_matches_route_edges() {
        let (_netlist, device, _placement, routing) = flow();
        let edges: usize = routing
            .iter_trees()
            .map(|(_, t)| t.iter_edges().count())
            .sum();
        let switches = configured_switches(&device, &routing).unwrap();
        assert_eq!(switches.len(), edges);
    }

    #[test]
    fn frame_of_a_lut_site_holds_its_truth_table() {
        let (netlist, device, placement, routing) = flow();
        let task = generate_bitstream(&netlist, &device, &placement, &routing).unwrap();
        let (block_id, block) = netlist
            .iter_blocks()
            .find(|(_, b)| b.kind.is_lut())
            .unwrap();
        let site = placement.site(block_id);
        let (truth, registered) = task.frame(site).logic();
        if let BlockKind::Lut {
            truth: expected,
            registered: expected_reg,
        } = &block.kind
        {
            assert_eq!(&truth, &expected.widen(device.spec().lut_size()));
            assert_eq!(registered, *expected_reg);
        }
    }

    /// An illegal routing gets the checker's verdict from the public entry
    /// point, in debug and release builds alike: a grafted edge the fabric
    /// does not have, and a branch onto a wire another net already uses.
    #[test]
    fn illegal_routings_are_refused_in_every_build() {
        let (netlist, device, placement, routing) = flow();
        let trees = || -> Vec<RouteTree> { routing.iter_trees().map(|(_, t)| t.clone()).collect() };
        let refused = |trees: Vec<RouteTree>| {
            let tampered = Routing::new(*routing.spec(), trees, routing.iterations());
            match generate_bitstream(&netlist, &device, &placement, &tampered) {
                Err(BitstreamError::IllegalRouting { reason }) => reason,
                other => panic!("an illegal routing gave {other:?}"),
            }
        };

        let mut grafted = trees();
        let victim = grafted.iter_mut().find(|t| !t.is_empty()).unwrap();
        victim.push(RrNode::Wire(WireRef::horizontal(6, 0, 7)), 0);
        assert!(refused(grafted).contains("edge the fabric does not have"));

        // Branch one net onto a wire of another through a real switch.
        let mut shared = trees();
        let branch = (0..shared.len())
            .flat_map(|a| (0..shared.len()).map(move |b| (a, b)))
            .filter(|(a, b)| a != b)
            .find_map(|(a, b)| {
                let wires: Vec<WireRef> = shared[b].iter_wires().collect();
                shared[a]
                    .nodes()
                    .iter()
                    .enumerate()
                    .find_map(|(at, &node)| {
                        wires
                            .iter()
                            .find(|&&w| device.switch_between(node, RrNode::Wire(w)).is_some())
                            .map(|&w| (a, at, w))
                    })
            });
        let (net, at, wire) = branch.expect("two nets run side by side");
        shared[net].push(RrNode::Wire(wire), at);
        assert_eq!(refused(shared), format!("wire {wire} carries 2 nets"));
    }

    /// A routing of one net whose tree is the single edge `from → to`.
    fn one_edge(device: &Device, from: RrNode, to: RrNode) -> Routing {
        let mut tree = RouteTree::new(from);
        tree.push(to, 0);
        Routing::new(*device.spec(), vec![tree], 1)
    }

    fn pin(x: u16, y: u16, pin: u8) -> RrNode {
        RrNode::Pin {
            site: Coord::new(x, y),
            pin,
        }
    }

    #[test]
    fn unmappable_edges_are_rejected() {
        let device = Device::new(ArchSpec::new(6, 6).unwrap(), 5, 5).unwrap();
        let unmappable = |a, b| {
            matches!(
                configured_switches(&device, &one_edge(&device, a, b)),
                Err(BitstreamError::UnmappableEdge { .. })
            )
        };
        // Two wires on different tracks never share a switch.
        let a = RrNode::Wire(WireRef::horizontal(1, 1, 0));
        let b = RrNode::Wire(WireRef::horizontal(2, 1, 1));
        assert!(unmappable(a, b));
        // A pin and a wire of the wrong parity cannot be crossed either.
        let h = RrNode::Wire(WireRef::horizontal(1, 1, 0));
        assert!(unmappable(pin(1, 1, 1), h));
    }

    #[test]
    fn edges_the_graph_never_lists_are_unmappable() {
        // Each of these pairs once mapped to a switch, some outside the
        // device, though neither is an edge of the routing-resource graph.
        let device = Device::new(ArchSpec::new(8, 6).unwrap(), 5, 5).unwrap();
        let wire = RrNode::Wire;
        let cases = [
            (pin(2, 3, 6), wire(WireRef::horizontal(2, 3, 40))),
            (pin(2, 3, 200), wire(WireRef::horizontal(2, 3, 0))),
            (
                wire(WireRef::horizontal(9, 9, 1)),
                wire(WireRef::vertical(9, 9, 1)),
            ),
            (
                wire(WireRef::horizontal(1, 1, 30)),
                wire(WireRef::vertical(1, 1, 30)),
            ),
            (pin(7, 1, 0), wire(WireRef::horizontal(7, 1, 0))),
        ];
        let mut neighbors = Vec::new();
        let mut lists = |a, b| {
            device.neighbors_into(a, &mut neighbors);
            neighbors.contains(&b)
        };
        for (a, b) in cases {
            // Neither end lists the other.
            assert!(!lists(a, b) && !lists(b, a), "{a} / {b} is listed");
            for (from, to) in [(a, b), (b, a)] {
                let result = configured_switches(&device, &one_edge(&device, from, to));
                assert_eq!(
                    result,
                    Err(BitstreamError::UnmappableEdge {
                        edge: format!("{from} <-> {to}")
                    })
                );
            }
        }
    }

    #[test]
    fn pin_wire_edges_map_to_crossings_in_the_owner_macro() {
        let device = Device::new(ArchSpec::new(6, 6).unwrap(), 5, 5).unwrap();
        let wire = RrNode::Wire(WireRef::horizontal(2, 3, 4));
        let switches = configured_switches(&device, &one_edge(&device, pin(2, 3, 6), wire));
        assert_eq!(
            switches,
            Ok(vec![SwitchSetting::Crossing {
                site: Coord::new(2, 3),
                pin: 6,
                track: 4
            }])
        );
    }
}
