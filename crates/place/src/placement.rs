//! The placement result: a bijection between netlist blocks and grid sites.

use crate::error::PlaceError;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use vbs_arch::{Coord, Device, Rect};
use vbs_netlist::{BlockId, Netlist};

/// An assignment of every netlist block to a distinct macro of the device.
///
/// The placement also remembers the *task region*: the bounding rectangle all
/// blocks were constrained to, which later becomes the width/height recorded
/// in the Virtual Bit-Stream header.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    region: Rect,
    site_of: Vec<Coord>,
    occupant: HashMap<Coord, BlockId>,
}

impl Placement {
    /// Builds a placement from an explicit block-to-site assignment.
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError::RegionOutsideDevice`] if any site lies outside
    /// `region` or the device, and [`PlaceError::DeviceTooSmall`] if two
    /// blocks share a site.
    pub fn from_sites(
        device: &Device,
        region: Rect,
        sites: Vec<Coord>,
    ) -> Result<Self, PlaceError> {
        if !device.bounds().contains_rect(&region) {
            return Err(PlaceError::RegionOutsideDevice);
        }
        let mut occupant = HashMap::with_capacity(sites.len());
        for (i, &site) in sites.iter().enumerate() {
            if !region.contains(site) {
                return Err(PlaceError::RegionOutsideDevice);
            }
            if occupant.insert(site, BlockId(i as u32)).is_some() {
                return Err(PlaceError::DeviceTooSmall {
                    blocks: sites.len(),
                    sites: region.area() as usize,
                });
            }
        }
        Ok(Placement {
            region,
            site_of: sites,
            occupant,
        })
    }

    /// The region the blocks were placed in (the hardware task's footprint).
    pub fn region(&self) -> Rect {
        self.region
    }

    /// Number of placed blocks.
    pub fn placed_blocks(&self) -> usize {
        self.site_of.len()
    }

    /// The site of a block.
    ///
    /// # Panics
    ///
    /// Panics if `block` is not part of the placed netlist.
    pub fn site(&self, block: BlockId) -> Coord {
        self.site_of[block.index()]
    }

    /// The block occupying `site`, if any.
    pub fn block_at(&self, site: Coord) -> Option<BlockId> {
        self.occupant.get(&site).copied()
    }

    /// Iterates over `(BlockId, Coord)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, Coord)> + '_ {
        self.site_of
            .iter()
            .enumerate()
            .map(|(i, &c)| (BlockId(i as u32), c))
    }

    /// The tight bounding rectangle of the placed blocks (may be smaller than
    /// the placement region).
    #[cfg(test)]
    fn used_bounds(&self) -> Rect {
        if self.site_of.is_empty() {
            return Rect::new(self.region.origin, 0, 0);
        }
        let min_x = self.site_of.iter().map(|c| c.x).min().unwrap_or(0);
        let min_y = self.site_of.iter().map(|c| c.y).min().unwrap_or(0);
        let max_x = self.site_of.iter().map(|c| c.x).max().unwrap_or(0);
        let max_y = self.site_of.iter().map(|c| c.y).max().unwrap_or(0);
        Rect::new(
            Coord::new(min_x, min_y),
            max_x - min_x + 1,
            max_y - min_y + 1,
        )
    }

    /// Checks that the placement is a valid assignment for `netlist`:
    /// one site per block, every block placed.
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError::Unplaced`] when a block is missing.
    pub fn validate(&self, netlist: &Netlist) -> Result<(), PlaceError> {
        if self.site_of.len() != netlist.block_count() {
            return Err(PlaceError::Unplaced {
                block: self.site_of.len(),
            });
        }
        Ok(())
    }

    /// Moves every site by the same offset, producing the placement of the
    /// relocated task. Used by tests to cross-check run-time relocation.
    pub fn translated(&self, dx: u16, dy: u16) -> Placement {
        let sites: Vec<Coord> = self
            .site_of
            .iter()
            .map(|c| Coord::new(c.x + dx, c.y + dy))
            .collect();
        let occupant = sites
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, BlockId(i as u32)))
            .collect();
        Placement {
            region: Rect::new(
                Coord::new(self.region.origin.x + dx, self.region.origin.y + dy),
                self.region.width,
                self.region.height,
            ),
            site_of: sites,
            occupant,
        }
    }

    /// Internal mutable swap used by the annealer: exchanges the sites of two
    /// blocks (or moves a block to an empty site when `b` is `None`).
    pub(crate) fn swap(&mut self, a: BlockId, target: Coord) -> Option<BlockId> {
        let from = self.site_of[a.index()];
        let displaced = self.occupant.get(&target).copied();
        match displaced {
            Some(b) if b != a => {
                self.site_of[b.index()] = from;
                self.occupant.insert(from, b);
            }
            _ => {
                self.occupant.remove(&from);
            }
        }
        self.site_of[a.index()] = target;
        self.occupant.insert(target, a);
        displaced.filter(|&b| b != a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbs_arch::ArchSpec;

    fn device() -> Device {
        Device::new(ArchSpec::paper_example(), 6, 6).unwrap()
    }

    #[test]
    fn from_sites_rejects_overlaps_and_out_of_region() {
        let d = device();
        let region = Rect::at_origin(3, 3);
        let overlap = vec![Coord::new(0, 0), Coord::new(0, 0)];
        assert!(matches!(
            Placement::from_sites(&d, region, overlap),
            Err(PlaceError::DeviceTooSmall { .. })
        ));
        let outside = vec![Coord::new(5, 5)];
        assert!(matches!(
            Placement::from_sites(&d, region, outside),
            Err(PlaceError::RegionOutsideDevice)
        ));
    }

    #[test]
    fn swap_moves_and_exchanges() {
        let d = device();
        let region = Rect::at_origin(4, 4);
        let mut p =
            Placement::from_sites(&d, region, vec![Coord::new(0, 0), Coord::new(1, 0)]).unwrap();
        // Move block 0 to an empty site.
        assert_eq!(p.swap(BlockId(0), Coord::new(2, 2)), None);
        assert_eq!(p.site(BlockId(0)), Coord::new(2, 2));
        assert_eq!(p.block_at(Coord::new(0, 0)), None);
        // Swap block 0 with block 1.
        assert_eq!(p.swap(BlockId(0), Coord::new(1, 0)), Some(BlockId(1)));
        assert_eq!(p.site(BlockId(1)), Coord::new(2, 2));
        assert_eq!(p.block_at(Coord::new(1, 0)), Some(BlockId(0)));
    }

    #[test]
    fn translated_shifts_everything() {
        let d = Device::new(ArchSpec::paper_example(), 12, 12).unwrap();
        let p = Placement::from_sites(
            &d,
            Rect::at_origin(3, 3),
            vec![Coord::new(0, 1), Coord::new(2, 2)],
        )
        .unwrap();
        let t = p.translated(4, 5);
        assert_eq!(t.site(BlockId(0)), Coord::new(4, 6));
        assert_eq!(t.site(BlockId(1)), Coord::new(6, 7));
        assert_eq!(t.region().origin, Coord::new(4, 5));
        assert_eq!(t.block_at(Coord::new(6, 7)), Some(BlockId(1)));
    }

    #[test]
    fn used_bounds_is_tight() {
        let d = device();
        let p = Placement::from_sites(
            &d,
            Rect::at_origin(6, 6),
            vec![Coord::new(1, 2), Coord::new(4, 3)],
        )
        .unwrap();
        let b = p.used_bounds();
        assert_eq!(b.origin, Coord::new(1, 2));
        assert_eq!((b.width, b.height), (4, 2));
    }
}
