//! Placement cost: half-perimeter wirelength (HPWL) with the classic VPR
//! fanout correction factor.

use crate::placement::Placement;
use serde::{Deserialize, Serialize};
use vbs_netlist::{NetId, Netlist};

/// Axis-aligned bounding box of a net's terminals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoundingBox {
    /// Minimum x of any terminal.
    pub min_x: u16,
    /// Minimum y of any terminal.
    pub min_y: u16,
    /// Maximum x of any terminal.
    pub max_x: u16,
    /// Maximum y of any terminal.
    pub max_y: u16,
}

impl BoundingBox {
    /// Half-perimeter of the box.
    fn half_perimeter(&self) -> u32 {
        (self.max_x - self.min_x) as u32 + (self.max_y - self.min_y) as u32
    }
}

/// Compensation factor for the HPWL underestimate on high-fanout nets,
/// following the piecewise-linear table used by VPR (Cheng's crossing counts).
pub(crate) fn fanout_correction(terminals: usize) -> f64 {
    const TABLE: [f64; 25] = [
        1.0, 1.0, 1.0, 1.0, 1.0828, 1.1536, 1.2206, 1.2823, 1.3385, 1.3991, 1.4493, 1.4974, 1.5455,
        1.5937, 1.6418, 1.6899, 1.7304, 1.7709, 1.8114, 1.8519, 1.8924, 1.9288, 1.9652, 2.0015,
        2.0379,
    ];
    if terminals == 0 {
        return 1.0;
    }
    if terminals <= TABLE.len() {
        TABLE[terminals - 1]
    } else {
        // Linear extrapolation used by VPR beyond 25 terminals.
        TABLE[TABLE.len() - 1] + 0.026_25 * (terminals - TABLE.len()) as f64
    }
}

/// Bounding box of `net` under `placement`, or `None` for nets with no
/// terminals.
pub fn net_bounding_box(
    netlist: &Netlist,
    placement: &Placement,
    net: NetId,
) -> Option<BoundingBox> {
    let n = netlist.net(net);
    let driver_site = placement.site(n.driver);
    let mut bb = BoundingBox {
        min_x: driver_site.x,
        min_y: driver_site.y,
        max_x: driver_site.x,
        max_y: driver_site.y,
    };
    for sink in &n.sinks {
        let site = placement.site(sink.block);
        bb.min_x = bb.min_x.min(site.x);
        bb.min_y = bb.min_y.min(site.y);
        bb.max_x = bb.max_x.max(site.x);
        bb.max_y = bb.max_y.max(site.y);
    }
    Some(bb)
}

/// Cost contribution of one net: corrected half-perimeter wirelength.
pub(crate) fn net_cost(netlist: &Netlist, placement: &Placement, net: NetId) -> f64 {
    let n = netlist.net(net);
    let terminals = n.fanout() + 1;
    match net_bounding_box(netlist, placement, net) {
        Some(bb) => bb.half_perimeter() as f64 * fanout_correction(terminals),
        None => 0.0,
    }
}

/// Total wirelength cost of a placement: sum of corrected half-perimeter
/// wirelengths over every net.
///
/// ```
/// use vbs_arch::{ArchSpec, Device};
/// use vbs_netlist::generate::SyntheticSpec;
/// use vbs_place::{place, wirelength_cost, PlacerConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let netlist = SyntheticSpec::new("demo", 20, 4, 4).with_seed(1).build()?;
/// let device = Device::new(ArchSpec::paper_evaluation(), 6, 6)?;
/// let placement = place(&netlist, &device, &PlacerConfig::fast(1))?;
/// assert!(wirelength_cost(&netlist, &placement) > 0.0);
/// # Ok(())
/// # }
/// ```
pub fn wirelength_cost(netlist: &Netlist, placement: &Placement) -> f64 {
    netlist
        .iter_nets()
        .map(|(id, _)| net_cost(netlist, placement, id))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbs_arch::{ArchSpec, Coord, Device, Rect};
    use vbs_netlist::TruthTable;

    fn two_block_netlist() -> Netlist {
        let mut n = Netlist::new("pair", 6);
        let (_, a) = n.add_input("a");
        let t = TruthTable::from_fn(1, |i| i == 1).widen(6);
        let (_, _y) = n.add_lut("buf", t, &[a], false);
        n
    }

    #[test]
    fn bounding_box_spans_driver_and_sinks() {
        let netlist = two_block_netlist();
        let device = Device::new(ArchSpec::paper_example(), 8, 8).unwrap();
        let placement = Placement::from_sites(
            &device,
            Rect::at_origin(8, 8),
            vec![Coord::new(1, 1), Coord::new(5, 3)],
        )
        .unwrap();
        let bb = net_bounding_box(&netlist, &placement, NetId(0)).unwrap();
        assert_eq!((bb.min_x, bb.min_y, bb.max_x, bb.max_y), (1, 1, 5, 3));
        assert_eq!(bb.half_perimeter(), 6);
    }

    #[test]
    fn fanout_correction_is_monotone() {
        let mut prev = 0.0;
        for terminals in 1..200 {
            let f = fanout_correction(terminals);
            assert!(f >= prev);
            prev = f;
        }
        assert_eq!(fanout_correction(3), 1.0);
        assert!(fanout_correction(50) > 2.0);
    }

    #[test]
    fn cost_decreases_when_blocks_move_closer() {
        let netlist = two_block_netlist();
        let device = Device::new(ArchSpec::paper_example(), 8, 8).unwrap();
        let far = Placement::from_sites(
            &device,
            Rect::at_origin(8, 8),
            vec![Coord::new(0, 0), Coord::new(7, 7)],
        )
        .unwrap();
        let near = Placement::from_sites(
            &device,
            Rect::at_origin(8, 8),
            vec![Coord::new(0, 0), Coord::new(1, 0)],
        )
        .unwrap();
        assert!(wirelength_cost(&netlist, &near) < wirelength_cost(&netlist, &far));
    }
}
