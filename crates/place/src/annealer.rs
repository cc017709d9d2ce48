//! The simulated-annealing placement engine.
//!
//! The schedule follows VPR's adaptive annealer: the starting temperature is
//! derived from the cost spread of random perturbations, the temperature
//! update factor depends on the measured acceptance rate, and the move range
//! limit shrinks as the placement cools so late moves stay local.

use crate::config::PlacerConfig;
use crate::cost::{net_cost, wirelength_cost};
use crate::error::PlaceError;
use crate::placement::Placement;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vbs_arch::{Coord, Device, Rect};
use vbs_netlist::{BlockId, NetId, Netlist};

/// The anneal stops once the temperature falls below
/// `EXIT_RATIO * cost / nets`.
const EXIT_RATIO: f64 = 0.005;

/// Places `netlist` on `device`, using the whole device as the task region.
///
/// # Errors
///
/// Returns [`PlaceError::DeviceTooSmall`] when the netlist has more blocks
/// than the device has macros.
pub fn place(
    netlist: &Netlist,
    device: &Device,
    config: &PlacerConfig,
) -> Result<Placement, PlaceError> {
    place_in_region(netlist, device, device.bounds(), config)
}

/// Places `netlist` inside `region` of `device`.
///
/// # Errors
///
/// Returns [`PlaceError::RegionOutsideDevice`] if the region does not fit the
/// device and [`PlaceError::DeviceTooSmall`] if it has fewer sites than the
/// netlist has blocks.
fn place_in_region(
    netlist: &Netlist,
    device: &Device,
    region: Rect,
    config: &PlacerConfig,
) -> Result<Placement, PlaceError> {
    if !device.bounds().contains_rect(&region) {
        return Err(PlaceError::RegionOutsideDevice);
    }
    let blocks = netlist.block_count();
    let sites = region.area() as usize;
    if blocks > sites {
        return Err(PlaceError::DeviceTooSmall { blocks, sites });
    }
    if blocks == 0 {
        return Placement::from_sites(device, region, Vec::new());
    }

    let mut rng = SmallRng::seed_from_u64(config.seed ^ 0x9e37_79b9_7f4a_7c15);

    // Initial placement: blocks scattered over a shuffled list of sites.
    let mut all_sites: Vec<Coord> = region.iter().collect();
    for i in (1..all_sites.len()).rev() {
        let j = rng.gen_range(0..=i);
        all_sites.swap(i, j);
    }
    let mut placement = Placement::from_sites(device, region, all_sites[..blocks].to_vec())?;

    let mut cost = wirelength_cost(netlist, &placement);
    let nets = netlist.net_count().max(1);

    // Pre-compute which nets touch each block, so a move only re-evaluates the
    // affected nets.
    let mut nets_of_block: Vec<Vec<NetId>> = vec![Vec::new(); blocks];
    for (net_id, net) in netlist.iter_nets() {
        nets_of_block[net.driver.index()].push(net_id);
        for sink in &net.sinks {
            nets_of_block[sink.block.index()].push(net_id);
        }
    }
    for list in &mut nets_of_block {
        list.sort_unstable();
        list.dedup();
    }

    // Starting temperature: 20 x the standard deviation of random swap deltas
    // (VPR heuristic), measured on a probe pass.
    let probes = blocks.clamp(8, 256);
    let mut deltas = Vec::with_capacity(probes);
    for _ in 0..probes {
        let block = BlockId(rng.gen_range(0..blocks) as u32);
        let target = random_site(&mut rng, region, region.width.max(region.height));
        let (delta, undo) = try_move(netlist, &mut placement, &nets_of_block, block, target);
        deltas.push(delta);
        undo_move(&mut placement, undo);
    }
    let mean = deltas.iter().sum::<f64>() / deltas.len() as f64;
    let var = deltas.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / deltas.len() as f64;
    let mut temperature = 20.0 * var.sqrt().max(1.0);

    let mut rlim = region.width.max(region.height) as f64;
    let moves_per_step = config.moves_per_step(blocks);

    for _step in 0..config.max_steps {
        let mut accepted = 0usize;
        for _ in 0..moves_per_step {
            let block = BlockId(rng.gen_range(0..blocks) as u32);
            let from = placement.site(block);
            let target = neighbor_site(&mut rng, region, from, rlim.ceil() as u16);
            if target == from {
                continue;
            }
            let (delta, undo) = try_move(netlist, &mut placement, &nets_of_block, block, target);
            let accept = delta <= 0.0 || rng.gen_bool((-delta / temperature).exp().min(1.0));
            if accept {
                cost += delta;
                accepted += 1;
            } else {
                undo_move(&mut placement, undo);
            }
        }
        let acceptance = accepted as f64 / moves_per_step as f64;

        // VPR's adaptive cooling schedule.
        let alpha = if acceptance > 0.96 {
            0.5
        } else if acceptance > 0.8 {
            0.9
        } else if acceptance > 0.15 {
            0.95
        } else {
            0.8
        };
        temperature *= alpha;
        // Range limit follows the acceptance rate towards the 44% sweet spot.
        rlim =
            (rlim * (1.0 - 0.44 + acceptance)).clamp(1.0, region.width.max(region.height) as f64);

        if temperature < EXIT_RATIO * cost / nets as f64 {
            break;
        }
    }

    // A final greedy pass at zero temperature cleans up easy wins.
    for _ in 0..moves_per_step {
        let block = BlockId(rng.gen_range(0..blocks) as u32);
        let from = placement.site(block);
        let target = neighbor_site(&mut rng, region, from, 2);
        if target == from {
            continue;
        }
        let (delta, undo) = try_move(netlist, &mut placement, &nets_of_block, block, target);
        if delta <= 0.0 {
            cost += delta;
        } else {
            undo_move(&mut placement, undo);
        }
    }

    debug_assert!(
        (wirelength_cost(netlist, &placement) - cost).abs() < 1e-3 * cost.abs().max(1.0),
        "incremental cost bookkeeping diverged"
    );
    Ok(placement)
}

/// Record needed to undo a move: the block moved, where it came from, and the
/// displaced block (if the target was occupied).
struct Undo {
    block: BlockId,
    from: Coord,
    displaced: Option<BlockId>,
    to: Coord,
}

fn try_move(
    netlist: &Netlist,
    placement: &mut Placement,
    nets_of_block: &[Vec<NetId>],
    block: BlockId,
    target: Coord,
) -> (f64, Undo) {
    let from = placement.site(block);
    let occupant = placement.block_at(target);

    // Keep the affected-net list in a deterministic order: iteration order
    // feeds float summation and hence the accept/reject decisions.
    let mut affected: Vec<NetId> = nets_of_block[block.index()].clone();
    if let Some(other) = occupant {
        if other != block {
            affected.extend(nets_of_block[other.index()].iter().copied());
            affected.sort_unstable();
            affected.dedup();
        }
    }

    let before: f64 = affected
        .iter()
        .map(|&n| net_cost(netlist, placement, n))
        .sum();
    let displaced = placement.swap(block, target);
    let after: f64 = affected
        .iter()
        .map(|&n| net_cost(netlist, placement, n))
        .sum();
    (
        after - before,
        Undo {
            block,
            from,
            displaced,
            to: target,
        },
    )
}

fn undo_move(placement: &mut Placement, undo: Undo) {
    // Put the moved block back; this displaces whoever we put at `from`
    // (i.e. the originally displaced block), restoring both.
    placement.swap(undo.block, undo.from);
    if let Some(other) = undo.displaced {
        placement.swap(other, undo.to);
    }
}

fn random_site(rng: &mut SmallRng, region: Rect, _rlim: u16) -> Coord {
    Coord::new(
        region.origin.x + rng.gen_range(0..region.width),
        region.origin.y + rng.gen_range(0..region.height),
    )
}

fn neighbor_site(rng: &mut SmallRng, region: Rect, from: Coord, rlim: u16) -> Coord {
    let rlim = rlim.max(1) as i32;
    let dx = rng.gen_range(-rlim..=rlim);
    let dy = rng.gen_range(-rlim..=rlim);
    let x = (from.x as i32 + dx).clamp(
        region.origin.x as i32,
        (region.origin.x + region.width - 1) as i32,
    );
    let y = (from.y as i32 + dy).clamp(
        region.origin.y as i32,
        (region.origin.y + region.height - 1) as i32,
    );
    Coord::new(x as u16, y as u16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::wirelength_cost;
    use std::collections::HashSet;
    use vbs_arch::ArchSpec;
    use vbs_netlist::generate::SyntheticSpec;

    fn netlist(luts: usize) -> Netlist {
        SyntheticSpec::new("anneal", luts, 8, 8)
            .with_seed(17)
            .build()
            .unwrap()
    }

    #[test]
    fn placement_assigns_every_block_once() {
        let n = netlist(60);
        let device = Device::new(ArchSpec::paper_evaluation(), 10, 10).unwrap();
        let p = place(&n, &device, &PlacerConfig::fast(1)).unwrap();
        assert_eq!(p.placed_blocks(), n.block_count());
        let mut seen = HashSet::new();
        for (_, site) in p.iter() {
            assert!(device.contains(site));
            assert!(seen.insert(site), "two blocks share {site}");
        }
    }

    #[test]
    fn annealing_beats_random_placement() {
        let n = netlist(120);
        let device = Device::new(ArchSpec::paper_evaluation(), 14, 14).unwrap();
        // "Random" here is the probe-free initial state: effort zero keeps the
        // annealer from improving much, so compare fast effort vs none.
        let mut no_effort = PlacerConfig::fast(3);
        no_effort.effort = 0.0;
        no_effort.max_steps = 1;
        let random = place(&n, &device, &no_effort).unwrap();
        let annealed = place(&n, &device, &PlacerConfig::fast(3)).unwrap();
        assert!(
            wirelength_cost(&n, &annealed) < wirelength_cost(&n, &random),
            "annealed {} !< random {}",
            wirelength_cost(&n, &annealed),
            wirelength_cost(&n, &random)
        );
    }

    #[test]
    fn determinism_for_equal_seeds() {
        let n = netlist(40);
        let device = Device::new(ArchSpec::paper_evaluation(), 9, 9).unwrap();
        let a = place(&n, &device, &PlacerConfig::fast(5)).unwrap();
        let b = place(&n, &device, &PlacerConfig::fast(5)).unwrap();
        let sa: Vec<_> = a.iter().collect();
        let sb: Vec<_> = b.iter().collect();
        assert_eq!(sa, sb);
    }

    #[test]
    fn too_small_device_is_rejected() {
        let n = netlist(60);
        let device = Device::new(ArchSpec::paper_evaluation(), 5, 5).unwrap();
        assert!(matches!(
            place(&n, &device, &PlacerConfig::fast(1)),
            Err(PlaceError::DeviceTooSmall { .. })
        ));
    }

    #[test]
    fn region_placement_stays_inside_region() {
        let n = netlist(20);
        let device = Device::new(ArchSpec::paper_evaluation(), 20, 20).unwrap();
        let region = Rect::new(Coord::new(5, 5), 8, 8);
        let p = place_in_region(&n, &device, region, &PlacerConfig::fast(2)).unwrap();
        for (_, site) in p.iter() {
            assert!(region.contains(site));
        }
        assert_eq!(p.region(), region);
    }
}
