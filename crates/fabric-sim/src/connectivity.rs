//! Electrical connectivity extraction from a raw configuration.

use crate::error::SimError;
use std::collections::HashMap;
use vbs_arch::{Coord, Device, RrNode, SbPair, SwitchSetting};
use vbs_bitstream::TaskBitstream;
use vbs_netlist::{BlockKind, Netlist};
use vbs_place::Placement;

/// The electrical nets created by a configuration: a partition of the fabric
/// nodes touched by at least one closed switch.
#[derive(Debug, Clone)]
pub struct Connectivity {
    parent: HashMap<RrNode, RrNode>,
}

impl Connectivity {
    fn find(&self, mut node: RrNode) -> RrNode {
        while let Some(&p) = self.parent.get(&node) {
            if p == node {
                break;
            }
            node = p;
        }
        node
    }

    /// The representative node of the electrical net a pin belongs to, if the
    /// pin is connected to anything.
    pub(crate) fn net_of_pin(&self, site: Coord, pin: u8) -> Option<RrNode> {
        let node = RrNode::Pin { site, pin };
        self.parent.contains_key(&node).then(|| self.find(node))
    }

    /// Number of distinct electrical nets.
    #[cfg(test)]
    pub(crate) fn net_count(&self) -> usize {
        let mut roots: Vec<RrNode> = self.parent.keys().map(|&n| self.find(n)).collect();
        roots.sort_unstable();
        roots.dedup();
        roots.len()
    }
}

struct Builder {
    parent: HashMap<RrNode, RrNode>,
}

impl Builder {
    fn new() -> Self {
        Builder {
            parent: HashMap::new(),
        }
    }

    fn find(&mut self, node: RrNode) -> RrNode {
        let p = *self.parent.entry(node).or_insert(node);
        if p == node {
            return node;
        }
        let root = self.find(p);
        self.parent.insert(node, root);
        root
    }

    fn union(&mut self, a: RrNode, b: RrNode) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent.insert(rb, ra);
        }
    }
}

/// Rebuilds the electrical nets created by every closed switch of `task`.
///
/// Nodes are in task-relative coordinates: the task is read as a device of
/// its own size, so a switch one of whose ends ([`Device::switch_ends`])
/// lies outside the task joins nothing.
pub(crate) fn extract_connectivity(task: &TaskBitstream) -> Connectivity {
    let spec = *task.spec();
    let mut b = Builder::new();
    // A task with a zero edge has no frames, hence no closed switch; one
    // wider or taller than `Device::MAX_EDGE` fits no device, and every net
    // of it reads as open.
    let Ok(device) = Device::new(spec, task.width(), task.height()) else {
        return Connectivity { parent: b.parent };
    };
    let mut join = |switch| {
        if let Some([x, y]) = device.switch_ends(switch) {
            b.union(x, y);
        }
    };

    for (site, frame) in task.iter_frames() {
        // Switch-box pass switches.
        for track in 0..spec.channel_width() {
            for pair in SbPair::ALL {
                if frame.sb(track, pair) {
                    join(SwitchSetting::SwitchBox { site, track, pair });
                }
            }
        }
        // Connection-box crossings.
        for pin in 0..spec.lb_pins() {
            for track in 0..spec.channel_width() {
                if frame.crossing(pin, track) {
                    join(SwitchSetting::Crossing { site, pin, track });
                }
            }
        }
    }
    Connectivity { parent: b.parent }
}

/// Verifies that `task` implements `netlist` under `placement`:
///
/// 1. every net's driver pin reaches all of its sink pins,
/// 2. no two different nets are electrically connected,
/// 3. every LUT site holds the netlist's truth table and register setting.
///
/// # Errors
///
/// Returns the first violation as a [`SimError`].
pub fn verify_against_netlist(
    task: &TaskBitstream,
    netlist: &Netlist,
    placement: &Placement,
) -> Result<Connectivity, SimError> {
    if placement.placed_blocks() != netlist.block_count() {
        return Err(SimError::ShapeMismatch);
    }
    let origin = placement.region().origin;
    let rel = |c: Coord| Coord::new(c.x - origin.x, c.y - origin.y);
    let connectivity = extract_connectivity(task);
    let output_pin = task.spec().output_pin();

    // 1. Connectivity of every net, and 2. no shorts between nets.
    let mut owner_of_root: HashMap<RrNode, String> = HashMap::new();
    for (_, net) in netlist.iter_nets() {
        if net.sinks.is_empty() {
            continue;
        }
        let driver_block = netlist.block(net.driver);
        let driver_pin = match driver_block.kind {
            BlockKind::Lut { .. } | BlockKind::InputPad => output_pin,
            BlockKind::OutputPad => 0,
        };
        let driver_site = rel(placement.site(net.driver));
        let root = connectivity
            .net_of_pin(driver_site, driver_pin)
            .ok_or_else(|| SimError::OpenNet {
                net: net.name.clone(),
                site: driver_site,
                pin: driver_pin,
            })?;
        if let Some(existing) = owner_of_root.get(&root) {
            if existing != &net.name {
                return Err(SimError::Short {
                    a: existing.clone(),
                    b: net.name.clone(),
                });
            }
        }
        owner_of_root.insert(root, net.name.clone());
        for sink in &net.sinks {
            let site = rel(placement.site(sink.block));
            match connectivity.net_of_pin(site, sink.slot) {
                Some(r) if r == root => {}
                _ => {
                    return Err(SimError::OpenNet {
                        net: net.name.clone(),
                        site,
                        pin: sink.slot,
                    })
                }
            }
        }
    }

    // 3. Logic contents.
    let lut_size = task.spec().lut_size();
    for (block_id, block) in netlist.iter_blocks() {
        if let BlockKind::Lut { truth, registered } = &block.kind {
            let site = rel(placement.site(block_id));
            let (found_truth, found_reg) = task
                .try_frame(site)
                .map_err(|_| SimError::ShapeMismatch)?
                .logic();
            if found_truth != truth.widen(lut_size) || found_reg != *registered {
                return Err(SimError::WrongLogic { site });
            }
        }
    }

    Ok(connectivity)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbs_arch::{ArchSpec, Device};
    use vbs_bitstream::generate_bitstream;
    use vbs_netlist::generate::SyntheticSpec;
    use vbs_place::{place, PlacerConfig};
    use vbs_route::{route, RouterConfig};

    fn flow() -> (Netlist, Placement, TaskBitstream) {
        let netlist = SyntheticSpec::new("sim", 24, 5, 5)
            .with_seed(6)
            .build()
            .unwrap();
        let device = Device::new(ArchSpec::new(9, 6).unwrap(), 7, 7).unwrap();
        let placement = place(&netlist, &device, &PlacerConfig::fast(6)).unwrap();
        let routing = route(&netlist, &device, &placement, &RouterConfig::fast()).unwrap();
        let raw = generate_bitstream(&netlist, &device, &placement, &routing).unwrap();
        (netlist, placement, raw)
    }

    #[test]
    fn generated_bitstream_verifies_against_its_netlist() {
        let (netlist, placement, raw) = flow();
        let connectivity = verify_against_netlist(&raw, &netlist, &placement).unwrap();
        assert!(connectivity.net_count() > 0);
    }

    #[test]
    fn breaking_a_switch_is_detected_as_an_open() {
        let (netlist, placement, raw) = flow();
        // Clear every switch-box bit of one frame that carries routing.
        let mut broken = raw.clone();
        let victim = raw
            .iter_frames()
            .find(|(_, f)| f.routing_bits().any(|b| b))
            .map(|(c, _)| c)
            .unwrap();
        let spec = *raw.spec();
        let mut frame = broken.frame_mut(victim);
        for t in 0..spec.channel_width() {
            for pair in SbPair::ALL {
                frame.set_sb(t, pair, false);
            }
        }
        for pin in 0..spec.lb_pins() {
            for t in 0..spec.channel_width() {
                frame.set_crossing(pin, t, false);
            }
        }
        let result = verify_against_netlist(&broken, &netlist, &placement);
        assert!(
            matches!(result, Err(SimError::OpenNet { .. })),
            "{result:?}"
        );
    }

    #[test]
    fn corrupting_logic_is_detected() {
        let (netlist, placement, raw) = flow();
        let (lut_id, _) = netlist
            .iter_blocks()
            .find(|(_, b)| b.kind.is_lut())
            .unwrap();
        let site = placement.site(lut_id);
        let mut broken = raw.clone();
        let bit = broken.frame(site).bit(0);
        broken.frame_mut(site).set_bit(0, !bit);
        assert!(matches!(
            verify_against_netlist(&broken, &netlist, &placement),
            Err(SimError::WrongLogic { .. })
        ));
    }

    #[test]
    fn shorting_two_nets_is_detected() {
        let (netlist, placement, raw) = flow();
        // Turn on every switch of a frame: this almost certainly bridges two
        // distinct nets somewhere.
        let mut broken = raw.clone();
        let spec = *raw.spec();
        for x in 0..broken.width() {
            for y in 0..broken.height() {
                let mut frame = broken.frame_mut(Coord::new(x, y));
                for t in 0..spec.channel_width() {
                    for pair in SbPair::ALL {
                        frame.set_sb(t, pair, true);
                    }
                }
            }
        }
        assert!(matches!(
            verify_against_netlist(&broken, &netlist, &placement),
            Err(SimError::Short { .. }) | Err(SimError::OpenNet { .. })
        ));
    }
}
