//! Independent legality checking of a routing.
//!
//! The checker re-derives everything from the architecture rules instead of
//! trusting the router's bookkeeping. Tests call it on every routing they
//! build, and `generate_bitstream` refuses a routing it rejects. It is not
//! the offline VBS feedback loop (Section III-B of the paper): that loop
//! decodes each candidate record inside the encoder.

use crate::error::RouteError;
use crate::result::Routing;
use vbs_arch::{Device, RrNode};
use vbs_netlist::{BlockKind, Netlist};
use vbs_place::Placement;

/// Checks that `routing` is a legal implementation of `netlist` under
/// `placement`:
///
/// 1. every route-tree edge is an edge of the routing-resource graph,
/// 2. every net's tree starts at its driver pin and covers every sink pin,
/// 3. no wire carries more than one net.
///
/// # Errors
///
/// Returns the first violation found as a [`RouteError`].
pub fn check_routing(
    netlist: &Netlist,
    device: &Device,
    placement: &Placement,
    routing: &Routing,
) -> Result<(), RouteError> {
    let output_pin = device.spec().output_pin();

    for (net_id, net) in netlist.iter_nets() {
        let tree = routing.tree(net_id);

        // 1. Edges must exist in the fabric.
        for (parent, child) in tree.iter_edges() {
            if device.switch_between(parent, child).is_none() {
                return Err(RouteError::CheckIllegalEdge {
                    net: net_id,
                    edge: format!("{parent} -> {child}"),
                });
            }
        }

        // 2. Source and sinks.
        let driver_block = netlist.block(net.driver);
        let expected_source = match driver_block.kind {
            BlockKind::Lut { .. } | BlockKind::InputPad => RrNode::Pin {
                site: placement.site(net.driver),
                pin: output_pin,
            },
            BlockKind::OutputPad => RrNode::Pin {
                site: placement.site(net.driver),
                pin: 0,
            },
        };
        if tree.source() != expected_source {
            return Err(RouteError::CheckUnroutedSink {
                net: net_id,
                sink: format!("source mismatch, expected {expected_source}"),
            });
        }
        for sink in &net.sinks {
            let node = RrNode::Pin {
                site: placement.site(sink.block),
                pin: sink.slot,
            };
            if !tree.contains(node) {
                return Err(RouteError::CheckUnroutedSink {
                    net: net_id,
                    sink: format!("{node}"),
                });
            }
        }
    }

    // 3. Wire exclusivity, counted by dense wire index: the overused wire
    //    reported is the first in that order.
    let mut users = vec![0usize; device.wire_count()];
    for (net, tree) in routing.iter_trees() {
        for wire in tree.iter_wires() {
            if !device.wire_exists(wire) {
                return Err(RouteError::CheckIllegalEdge {
                    net,
                    edge: format!("{wire} lies outside the device"),
                });
            }
            users[device.wire_index(wire)] += 1;
        }
    }
    match users.iter().position(|&nets| nets > 1) {
        Some(index) => Err(RouteError::CheckOveruse {
            wire: device.node_at(index).to_string(),
            nets: users[index],
        }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::RouteTree;
    use crate::router::{route, RouterConfig};
    use vbs_arch::{ArchSpec, WireRef};
    use vbs_netlist::generate::SyntheticSpec;
    use vbs_place::{place, PlacerConfig};

    fn small_flow() -> (Netlist, Device, Placement, Routing) {
        let netlist = SyntheticSpec::new("check", 20, 4, 4)
            .with_seed(5)
            .build()
            .unwrap();
        let device = Device::new(ArchSpec::new(8, 6).unwrap(), 7, 7).unwrap();
        let placement = place(&netlist, &device, &PlacerConfig::fast(5)).unwrap();
        let routing = route(&netlist, &device, &placement, &RouterConfig::fast()).unwrap();
        (netlist, device, placement, routing)
    }

    #[test]
    fn router_output_passes_the_checker() {
        let (netlist, device, placement, routing) = small_flow();
        check_routing(&netlist, &device, &placement, &routing).unwrap();
    }

    #[test]
    fn tampered_routing_fails_edge_check() {
        let (netlist, device, placement, routing) = small_flow();
        let mut trees: Vec<RouteTree> = (0..routing.tree_count())
            .map(|i| routing.tree(vbs_netlist::NetId(i as u32)).clone())
            .collect();
        // Graft an absurd far-away wire onto the first non-trivial tree.
        let victim = trees.iter_mut().find(|t| !t.is_empty()).unwrap();
        victim.push(RrNode::Wire(WireRef::horizontal(6, 0, 7)), 0);
        let tampered = Routing::new(*routing.spec(), trees, routing.iterations());
        assert!(matches!(
            check_routing(&netlist, &device, &placement, &tampered),
            Err(RouteError::CheckIllegalEdge { .. })
        ));
    }

    #[test]
    fn missing_sink_is_detected() {
        let (netlist, device, placement, routing) = small_flow();
        // Replace a tree having sinks with just its source.
        let mut trees: Vec<RouteTree> = (0..routing.tree_count())
            .map(|i| routing.tree(vbs_netlist::NetId(i as u32)).clone())
            .collect();
        let idx = netlist
            .iter_nets()
            .find(|(_, n)| !n.sinks.is_empty())
            .map(|(id, _)| id.index())
            .unwrap();
        trees[idx] = RouteTree::new(trees[idx].source());
        let broken = Routing::new(*routing.spec(), trees, routing.iterations());
        assert!(matches!(
            check_routing(&netlist, &device, &placement, &broken),
            Err(RouteError::CheckUnroutedSink { .. })
        ));
    }
}
