//! Raw bit-stream generation from a placed-and-routed task.
//!
//! Every edge of every route tree is mapped to the programmable switch it
//! turns on:
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
use vbs_arch::{Coord, Device, SbPair};
use vbs_netlist::{BlockKind, Netlist};
use vbs_place::Placement;
use vbs_route::check::check_routing;
use vbs_route::{Routing, RrNode};

/// One programmable switch turned on by a routing edge, located in the frame
/// of the macro at `site` (device-absolute coordinates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwitchSetting {
    /// Connection-box crossing of `pin` over `track`.
    Crossing {
        /// The macro whose frame holds the switch.
        site: Coord,
        /// The logic-block pin.
        pin: u8,
        /// The channel track.
        track: u16,
    },
    /// Switch-box pass switch at `track` between two sides.
    SwitchBox {
        /// The macro whose frame holds the switch.
        site: Coord,
        /// The channel track.
        track: u16,
        /// The pass-switch position.
        pair: SbPair,
    },
}

impl SwitchSetting {
    /// The macro whose frame holds this switch.
    pub fn site(&self) -> Coord {
        match self {
            SwitchSetting::Crossing { site, .. } | SwitchSetting::SwitchBox { site, .. } => *site,
        }
    }
}

/// Maps one routing edge to the switch it programs.
///
/// # Errors
///
/// Returns [`BitstreamError::UnmappableEdge`] when the two nodes are not
/// connected by any switch of the architecture (which indicates a corrupted
/// route tree).
pub fn edge_to_switch(
    device: &Device,
    a: RrNode,
    b: RrNode,
) -> Result<SwitchSetting, BitstreamError> {
    use vbs_route::RrNode::{Pin, Wire};
    match (a, b) {
        (Pin { site, pin }, Wire(w)) | (Wire(w), Pin { site, pin }) => {
            if w.reachable_from_pin(site, pin) {
                Ok(SwitchSetting::Crossing {
                    site,
                    pin,
                    track: w.track,
                })
            } else {
                Err(BitstreamError::UnmappableEdge {
                    edge: format!("{a} <-> {b}"),
                })
            }
        }
        (Wire(wa), Wire(wb)) => match device.shared_switch_box(wa, wb) {
            Some((sb, side_a, side_b)) => {
                let pair = SbPair::between(side_a, side_b).ok_or_else(|| {
                    BitstreamError::UnmappableEdge {
                        edge: format!("{a} <-> {b}"),
                    }
                })?;
                Ok(SwitchSetting::SwitchBox {
                    site: sb,
                    track: wa.track,
                    pair,
                })
            }
            None => Err(BitstreamError::UnmappableEdge {
                edge: format!("{a} <-> {b}"),
            }),
        },
        _ => Err(BitstreamError::UnmappableEdge {
            edge: format!("{a} <-> {b}"),
        }),
    }
}

/// Enumerates every switch programmed by a routing, net by net.
///
/// # Errors
///
/// Propagates [`BitstreamError::UnmappableEdge`] for corrupted route trees.
pub fn configured_switches(
    device: &Device,
    routing: &Routing,
) -> Result<Vec<SwitchSetting>, BitstreamError> {
    let mut switches = Vec::new();
    for (_, tree) in routing.iter_trees() {
        for (parent, child) in tree.iter_edges() {
            switches.push(edge_to_switch(device, parent, child)?);
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
/// The routing is first re-validated with [`check_routing`] in debug builds.
///
/// # Errors
///
/// Returns [`BitstreamError::UnmappableEdge`] if a route tree contains an
/// edge the fabric cannot realize, or [`BitstreamError::OutOfTask`] if the
/// routing escapes the placement region.
pub fn generate_bitstream(
    netlist: &Netlist,
    device: &Device,
    placement: &Placement,
    routing: &Routing,
) -> Result<TaskBitstream, BitstreamError> {
    debug_assert!(
        check_routing(netlist, device, placement, routing).is_ok(),
        "generate_bitstream called with an illegal routing"
    );
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
    use vbs_arch::ArchSpec;
    use vbs_netlist::generate::SyntheticSpec;
    use vbs_place::{place, PlacerConfig};
    use vbs_route::{route, RouterConfig};

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

    #[test]
    fn unmappable_edges_are_rejected() {
        let device = Device::new(ArchSpec::new(6, 6).unwrap(), 5, 5).unwrap();
        // Two wires on different tracks never share a switch.
        let a = RrNode::Wire(vbs_arch::WireRef::horizontal(1, 1, 0));
        let b = RrNode::Wire(vbs_arch::WireRef::horizontal(2, 1, 1));
        assert!(matches!(
            edge_to_switch(&device, a, b),
            Err(BitstreamError::UnmappableEdge { .. })
        ));
        // A pin and a wire of the wrong parity cannot be crossed either.
        let pin = RrNode::Pin {
            site: Coord::new(1, 1),
            pin: 1,
        };
        let h = RrNode::Wire(vbs_arch::WireRef::horizontal(1, 1, 0));
        assert!(edge_to_switch(&device, pin, h).is_err());
    }

    #[test]
    fn pin_wire_edges_map_to_crossings_in_the_owner_macro() {
        let device = Device::new(ArchSpec::new(6, 6).unwrap(), 5, 5).unwrap();
        let pin = RrNode::Pin {
            site: Coord::new(2, 3),
            pin: 6,
        };
        let wire = RrNode::Wire(vbs_arch::WireRef::horizontal(2, 3, 4));
        let s = edge_to_switch(&device, pin, wire).unwrap();
        assert_eq!(
            s,
            SwitchSetting::Crossing {
                site: Coord::new(2, 3),
                pin: 6,
                track: 4
            }
        );
    }
}
