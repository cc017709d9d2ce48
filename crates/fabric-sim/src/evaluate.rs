//! Functional evaluation of a configured fabric.

use crate::connectivity::extract_connectivity;
use crate::error::SimError;
use std::collections::HashMap;
use vbs_arch::{Coord, RrNode};
use vbs_bitstream::TaskBitstream;
use vbs_netlist::{BlockKind, Netlist};
use vbs_place::Placement;

/// Evaluates the combinational behaviour of a configured task on one input
/// vector and returns the value observed at every primary output pad.
///
/// Registered LUTs are treated as transparent (the flip-flop is bypassed for
/// the purpose of this check), so the result is the steady-state value after
/// the registers have been given enough cycles with stable inputs.
///
/// The evaluation reads LUT truth tables *from the configuration frames*, not
/// from the netlist; only the pad positions and pin bindings come from the
/// placement. Comparing the result with a netlist-level simulation therefore
/// exercises the whole bit-stream pipeline.
///
/// # Errors
///
/// Returns [`SimError::Unsupported`] if the circuit does not settle (a
/// combinational loop) and [`SimError::ShapeMismatch`] if the placement does
/// not match the netlist.
pub fn evaluate(
    task: &TaskBitstream,
    netlist: &Netlist,
    placement: &Placement,
    inputs: &HashMap<String, bool>,
) -> Result<HashMap<String, bool>, SimError> {
    if placement.placed_blocks() != netlist.block_count() {
        return Err(SimError::ShapeMismatch);
    }
    let origin = placement.region().origin;
    let rel = |c: Coord| Coord::new(c.x - origin.x, c.y - origin.y);
    let connectivity = extract_connectivity(task);
    let output_pin = task.spec().output_pin();
    let lut_size = task.spec().lut_size() as usize;

    // Electrical net values, keyed by representative node.
    let mut values: HashMap<RrNode, bool> = HashMap::new();

    // Drive primary inputs.
    for (block_id, block) in netlist.iter_blocks() {
        if let BlockKind::InputPad = block.kind {
            let site = rel(placement.site(block_id));
            if let Some(root) = connectivity.net_of_pin(site, output_pin) {
                let value = inputs.get(&block.name).copied().unwrap_or(false);
                values.insert(root, value);
            }
        }
    }

    // Relax LUT outputs until the values settle.
    let lut_sites: Vec<(Coord, Vec<Option<RrNode>>, Option<RrNode>)> = netlist
        .iter_blocks()
        .filter(|(_, b)| b.kind.is_lut())
        .map(|(id, _)| {
            let site = rel(placement.site(id));
            let input_roots = (0..lut_size)
                .map(|slot| connectivity.net_of_pin(site, slot as u8))
                .collect();
            let output_root = connectivity.net_of_pin(site, output_pin);
            (site, input_roots, output_root)
        })
        .collect();

    let max_iterations = netlist.lut_count() + 2;
    for _ in 0..max_iterations {
        let mut changed = false;
        for (site, input_roots, output_root) in &lut_sites {
            let Some(output_root) = output_root else {
                continue;
            };
            let (truth, _) = task
                .try_frame(*site)
                .map_err(|_| SimError::ShapeMismatch)?
                .logic();
            let input_values: Vec<bool> = input_roots
                .iter()
                .map(|r| r.and_then(|r| values.get(&r).copied()).unwrap_or(false))
                .collect();
            let out = truth.evaluate(&input_values);
            if values.get(output_root).copied() != Some(out) {
                values.insert(*output_root, out);
                changed = true;
            }
        }
        if !changed {
            // Settled: read the primary outputs.
            let mut outputs = HashMap::new();
            for (block_id, block) in netlist.iter_blocks() {
                if let BlockKind::OutputPad = block.kind {
                    let site = rel(placement.site(block_id));
                    let value = connectivity
                        .net_of_pin(site, 0)
                        .and_then(|r| values.get(&r).copied())
                        .unwrap_or(false);
                    outputs.insert(block.name.clone(), value);
                }
            }
            return Ok(outputs);
        }
    }
    Err(SimError::Unsupported {
        reason: "combinational values did not settle (feedback loop)".into(),
    })
}

/// Reference model: evaluates the netlist directly (no configuration
/// involved), with the same transparent-register convention as [`evaluate`].
///
/// # Errors
///
/// Returns [`SimError::Unsupported`] if the netlist does not settle.
pub fn evaluate_netlist(
    netlist: &Netlist,
    inputs: &HashMap<String, bool>,
) -> Result<HashMap<String, bool>, SimError> {
    let mut net_values: HashMap<usize, bool> = HashMap::new();
    for (_, block) in netlist.iter_blocks() {
        if let BlockKind::InputPad = block.kind {
            if let Some(net) = block.output {
                net_values.insert(
                    net.index(),
                    inputs.get(&block.name).copied().unwrap_or(false),
                );
            }
        }
    }
    let max_iterations = netlist.lut_count() + 2;
    for _ in 0..max_iterations {
        let mut changed = false;
        for (_, block) in netlist.iter_blocks() {
            if let BlockKind::Lut { truth, .. } = &block.kind {
                let input_values: Vec<bool> = block
                    .inputs
                    .iter()
                    .map(|n| {
                        n.and_then(|n| net_values.get(&n.index()).copied())
                            .unwrap_or(false)
                    })
                    .collect();
                let out = truth.evaluate(&input_values);
                let net = block.output.expect("LUTs drive a net").index();
                if net_values.get(&net).copied() != Some(out) {
                    net_values.insert(net, out);
                    changed = true;
                }
            }
        }
        if !changed {
            let mut outputs = HashMap::new();
            for (_, block) in netlist.iter_blocks() {
                if let BlockKind::OutputPad = block.kind {
                    let value = block.inputs[0]
                        .and_then(|n| net_values.get(&n.index()).copied())
                        .unwrap_or(false);
                    outputs.insert(block.name.clone(), value);
                }
            }
            return Ok(outputs);
        }
    }
    Err(SimError::Unsupported {
        reason: "netlist did not settle".into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbs_arch::{ArchSpec, Device};
    use vbs_bitstream::generate_bitstream;
    use vbs_netlist::generate::SyntheticSpec;
    use vbs_place::{place, PlacerConfig};
    use vbs_route::{route, RouterConfig};

    #[test]
    fn configuration_matches_netlist_semantics_on_random_vectors() {
        let netlist = SyntheticSpec::new("eval", 18, 5, 3)
            .with_seed(11)
            .with_registered_fraction(0.0)
            .build()
            .unwrap();
        let device = Device::new(ArchSpec::new(9, 6).unwrap(), 6, 6).unwrap();
        let placement = place(&netlist, &device, &PlacerConfig::fast(11)).unwrap();
        let routing = route(&netlist, &device, &placement, &RouterConfig::fast()).unwrap();
        let raw = generate_bitstream(&netlist, &device, &placement, &routing).unwrap();

        for pattern in 0u32..8 {
            let inputs: HashMap<String, bool> = (0..netlist.input_count())
                .map(|i| (format!("pi_{i}"), (pattern >> (i % 3)) & 1 == 1))
                .collect();
            let golden = evaluate_netlist(&netlist, &inputs).unwrap();
            let from_bits = evaluate(&raw, &netlist, &placement, &inputs).unwrap();
            assert_eq!(golden, from_bits, "input pattern {pattern}");
        }
    }
}
