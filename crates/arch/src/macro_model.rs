//! The *macro*: one logic block, its adjacent connection boxes and one switch
//! box — the elementary building block of the fabric and the unit of Virtual
//! Bit-Stream coding (Figure 1 of the paper).
//!
//! This module holds the macro's **raw frame view**, the one the
//! conventional bit-stream uses: the [`FrameLayout`] maps every programmable
//! switch of the macro (Equation (1)) to a bit position inside an
//! `N_raw`-bit frame, [`SbPair`] names the six pass switches of a switch
//! point, and [`SwitchSetting`] names one switch of a device by the macro
//! whose frame holds it.
//!
//! The macro's **black-box view**, the `M = ⌈log2(4W + L + 1)⌉`-bit I/O
//! identifiers of a VBS connection list (Table I), is the cluster I/O
//! numbering of `vbs-core` (`ClusterIo`) at cluster size `k = 1`.

use crate::geometry::{Coord, Side};
use crate::spec::ArchSpec;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;

/// One of the six programmable pass switches of a 4-way (cross-shaped) switch
/// point, identified by the unordered pair of sides it connects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum SbPair {
    /// North–South (straight vertical).
    NorthSouth,
    /// North–East (turn).
    NorthEast,
    /// North–West (turn).
    NorthWest,
    /// South–East (turn).
    SouthEast,
    /// South–West (turn).
    SouthWest,
    /// East–West (straight horizontal).
    EastWest,
}

impl SbPair {
    /// All six switch-box pair positions, in frame bit order.
    pub const ALL: [SbPair; 6] = [
        SbPair::NorthSouth,
        SbPair::NorthEast,
        SbPair::NorthWest,
        SbPair::SouthEast,
        SbPair::SouthWest,
        SbPair::EastWest,
    ];

    /// Index of this pair within a 6-bit switch-point group.
    pub(crate) const fn index(self) -> usize {
        match self {
            SbPair::NorthSouth => 0,
            SbPair::NorthEast => 1,
            SbPair::NorthWest => 2,
            SbPair::SouthEast => 3,
            SbPair::SouthWest => 4,
            SbPair::EastWest => 5,
        }
    }

    /// The pair of sides connected by this switch.
    pub(crate) const fn sides(self) -> (Side, Side) {
        match self {
            SbPair::NorthSouth => (Side::North, Side::South),
            SbPair::NorthEast => (Side::North, Side::East),
            SbPair::NorthWest => (Side::North, Side::West),
            SbPair::SouthEast => (Side::South, Side::East),
            SbPair::SouthWest => (Side::South, Side::West),
            SbPair::EastWest => (Side::East, Side::West),
        }
    }

    /// The switch connecting two distinct sides, if any.
    ///
    /// Returns `None` when `a == b`.
    pub(crate) fn between(a: Side, b: Side) -> Option<SbPair> {
        if a == b {
            return None;
        }
        Some(match (a.min(b), a.max(b)) {
            (Side::North, Side::South) => SbPair::NorthSouth,
            (Side::North, Side::East) => SbPair::NorthEast,
            (Side::North, Side::West) => SbPair::NorthWest,
            (Side::East, Side::South) => SbPair::SouthEast,
            (Side::South, Side::West) => SbPair::SouthWest,
            (Side::East, Side::West) => SbPair::EastWest,
            _ => unreachable!("all unordered side pairs covered"),
        })
    }
}

impl fmt::Display for SbPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (a, b) = self.sides();
        write!(f, "{a}-{b}")
    }
}

/// One programmable switch of the fabric, located in the frame of the macro
/// at `site` (device-absolute coordinates). [`crate::Device::switch_between`]
/// names the switch joining two routing-resource nodes and
/// [`crate::Device::switch_ends`] the two nodes a switch joins.
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

/// Bit-exact layout of the raw configuration frame of one macro.
///
/// The frame holds exactly [`ArchSpec::raw_bits_per_macro`] bits, laid out as:
///
/// 1. `N_LB = 2^K + 1` logic-block configuration bits (LUT truth table, then
///    the flip-flop bypass bit),
/// 2. `W` switch-box points of 6 bits each (one bit per [`SbPair`]),
/// 3. for each of the `L` pins, its `W` connection-box crossings: `W − 1`
///    4-way crossings of 6 bits followed by one 3-way crossing of 3 bits.
///    Bit 0 of each crossing group is the "pin connected to track" switch; the
///    remaining bits model the pass transistors of the wire junction and are
///    driven by the through-traffic of the crossing.
///
/// ```
/// use vbs_arch::{ArchSpec, FrameLayout};
/// let layout = FrameLayout::new(ArchSpec::paper_example());
/// assert_eq!(layout.spec().raw_bits_per_macro(), 284);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrameLayout {
    spec: ArchSpec,
}

impl FrameLayout {
    /// Creates the frame layout for an architecture.
    pub const fn new(spec: ArchSpec) -> Self {
        FrameLayout { spec }
    }

    /// The architecture this layout was derived from.
    pub const fn spec(&self) -> &ArchSpec {
        &self.spec
    }

    /// Total number of bits in the frame (`N_raw`, Equation (1)).
    #[cfg(test)]
    const fn total_bits(&self) -> usize {
        self.spec.raw_bits_per_macro()
    }

    /// Bit range holding the logic-block configuration.
    pub const fn lb_config_range(&self) -> Range<usize> {
        0..self.spec.lb_config_bits()
    }

    /// Bit range of the LUT truth table within the frame.
    pub const fn lut_table_range(&self) -> Range<usize> {
        0..(1usize << self.spec.lut_size())
    }

    /// Bit position of the flip-flop bypass bit.
    pub const fn ff_bypass_bit(&self) -> usize {
        1usize << self.spec.lut_size()
    }

    /// Bit position of switch-box point `track`, pass switch `pair`.
    ///
    /// # Panics
    ///
    /// Panics if `track >= W`.
    pub fn sb_bit(&self, track: u16, pair: SbPair) -> usize {
        assert!(
            track < self.spec.channel_width(),
            "switch-box track {track} out of range"
        );
        self.spec.lb_config_bits() + 6 * track as usize + pair.index()
    }

    /// Bit range of the whole switch-box section.
    pub const fn sb_range(&self) -> Range<usize> {
        let start = self.spec.lb_config_bits();
        start..start + 6 * self.spec.channel_width() as usize
    }

    /// Offset and width (6 or 3 bits) of the connection-box crossing group of
    /// `pin` over `track`.
    ///
    /// The last crossing of each pin (track `W − 1`) is the 3-way, T-shaped
    /// switch of Equation (1); all others are 6-bit 4-way switches.
    ///
    /// # Panics
    ///
    /// Panics if `pin >= L` or `track >= W`.
    fn crossing_group(&self, pin: u8, track: u16) -> (usize, usize) {
        let w = self.spec.channel_width() as usize;
        let l = self.spec.lb_pins();
        assert!(pin < l, "pin {pin} out of range");
        assert!((track as usize) < w, "crossing track {track} out of range");
        let per_pin = 6 * (w - 1) + 3;
        let base = self.spec.lb_config_bits() + 6 * w + pin as usize * per_pin;
        let t = track as usize;
        if t < w - 1 {
            (base + 6 * t, 6)
        } else {
            (base + 6 * (w - 1), 3)
        }
    }

    /// Bit position of the "pin connected to track" switch of a crossing.
    ///
    /// # Panics
    ///
    /// Panics if `pin >= L` or `track >= W`.
    pub fn crossing_bit(&self, pin: u8, track: u16) -> usize {
        self.crossing_group(pin, track).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> ArchSpec {
        ArchSpec::paper_example()
    }

    #[test]
    fn sb_pair_between_covers_all_combinations() {
        for a in Side::ALL {
            for b in Side::ALL {
                let pair = SbPair::between(a, b);
                if a == b {
                    assert_eq!(pair, None);
                } else {
                    let p = pair.expect("distinct sides always have a switch");
                    let (x, y) = p.sides();
                    assert!((x == a && y == b) || (x == b && y == a));
                }
            }
        }
    }

    #[test]
    fn sb_pair_indices_are_unique() {
        let mut seen = [false; 6];
        for p in SbPair::ALL {
            assert!(!seen[p.index()]);
            seen[p.index()] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn frame_layout_sections_do_not_overlap() {
        let spec = example();
        let layout = FrameLayout::new(spec);
        let mut used = vec![false; layout.total_bits()];
        for bit in layout.lb_config_range() {
            assert!(!used[bit]);
            used[bit] = true;
        }
        for t in 0..spec.channel_width() {
            for pair in SbPair::ALL {
                let bit = layout.sb_bit(t, pair);
                assert!(!used[bit], "sb bit {bit} overlaps");
                used[bit] = true;
            }
        }
        for pin in 0..spec.lb_pins() {
            for t in 0..spec.channel_width() {
                let (off, width) = layout.crossing_group(pin, t);
                for (bit, flag) in used.iter_mut().enumerate().skip(off).take(width) {
                    assert!(!*flag, "crossing bit {bit} overlaps");
                    *flag = true;
                }
            }
        }
        assert!(used.iter().all(|&b| b), "layout must cover every frame bit");
    }

    #[test]
    fn frame_layout_total_matches_equation_1() {
        for w in [2u16, 5, 8, 20, 33] {
            let spec = ArchSpec::new(w, 6).unwrap();
            let layout = FrameLayout::new(spec);
            assert_eq!(layout.total_bits(), spec.raw_bits_per_macro());
        }
    }

    #[test]
    fn last_crossing_is_three_way() {
        let spec = example();
        let layout = FrameLayout::new(spec);
        let w = spec.channel_width();
        for pin in 0..spec.lb_pins() {
            assert_eq!(layout.crossing_group(pin, w - 1).1, 3);
            assert_eq!(layout.crossing_group(pin, 0).1, 6);
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(SbPair::EastWest.to_string(), "east-west");
    }
}
