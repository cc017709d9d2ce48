//! Architecture parameters and derived quantities, including Equation (1) of
//! the paper.

use crate::error::ArchError;
use serde::{Deserialize, Serialize};

/// Parameters of the island-style architecture used throughout the flow.
///
/// The paper's evaluation architecture uses 6-input LUTs (`K = 6`), one
/// flip-flop per logic block, and a channel width normalized to `W = 20`
/// tracks; the introductory example of Section II uses `W = 5`.
///
/// All sizes that the Virtual Bit-Stream format depends on are derived from
/// these two parameters:
///
/// * `L = K + 1` logic-block pins (`K` LUT inputs plus one output),
/// * `N_LB = 2^K + 1` logic configuration bits (LUT truth table + FF bypass),
/// * `N_raw` raw configuration bits per macro (Equation (1)).
///
/// The field widths of the stream itself (Table I's `M` and route count)
/// are computed where the stream is defined, by `vbs-core`'s `VbsHeader`.
///
/// ```
/// use vbs_arch::ArchSpec;
/// # fn main() -> Result<(), vbs_arch::ArchError> {
/// let spec = ArchSpec::new(5, 6)?;
/// assert_eq!(spec.lb_pins(), 7);
/// assert_eq!(spec.lb_config_bits(), 65);
/// assert_eq!(spec.raw_bits_per_macro(), 284);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ArchSpec {
    channel_width: u16,
    lut_size: u8,
}

impl ArchSpec {
    /// Minimum supported channel width.
    pub const MIN_CHANNEL_WIDTH: u16 = 2;
    /// Maximum supported channel width.
    pub const MAX_CHANNEL_WIDTH: u16 = 256;
    /// Minimum supported LUT size.
    pub const MIN_LUT_SIZE: u8 = 2;
    /// Maximum supported LUT size.
    pub const MAX_LUT_SIZE: u8 = 8;

    /// Creates an architecture specification.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidChannelWidth`] if `channel_width` is not in
    /// `2..=256`, and [`ArchError::InvalidLutSize`] if `lut_size` is not in
    /// `2..=8`.
    pub fn new(channel_width: u16, lut_size: u8) -> Result<Self, ArchError> {
        if !(Self::MIN_CHANNEL_WIDTH..=Self::MAX_CHANNEL_WIDTH).contains(&channel_width) {
            return Err(ArchError::InvalidChannelWidth {
                width: channel_width,
            });
        }
        if !(Self::MIN_LUT_SIZE..=Self::MAX_LUT_SIZE).contains(&lut_size) {
            return Err(ArchError::InvalidLutSize { lut_size });
        }
        Ok(ArchSpec {
            channel_width,
            lut_size,
        })
    }

    /// The architecture used in the paper's evaluation: 6-LUT logic blocks and
    /// a channel width normalized to 20 tracks.
    pub fn paper_evaluation() -> Self {
        ArchSpec {
            channel_width: 20,
            lut_size: 6,
        }
    }

    /// The small architecture used in the paper's running example (Figure 1):
    /// 6-LUT logic blocks with `W = 5` tracks.
    pub fn paper_example() -> Self {
        ArchSpec {
            channel_width: 5,
            lut_size: 6,
        }
    }

    /// Returns a copy of this specification with a different channel width.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidChannelWidth`] if `channel_width` is out of
    /// range.
    #[cfg(test)]
    fn with_channel_width(self, channel_width: u16) -> Result<Self, ArchError> {
        ArchSpec::new(channel_width, self.lut_size)
    }

    /// Channel width `W`: number of tracks per routing channel.
    pub const fn channel_width(&self) -> u16 {
        self.channel_width
    }

    /// LUT size `K`: number of inputs of each look-up table.
    pub const fn lut_size(&self) -> u8 {
        self.lut_size
    }

    /// Number of logic-block pins `L = K + 1` (LUT inputs plus the output).
    pub const fn lb_pins(&self) -> u8 {
        self.lut_size + 1
    }

    /// Index of the logic-block output pin (the last pin).
    pub const fn output_pin(&self) -> u8 {
        self.lut_size
    }

    /// Number of configuration bits of one logic block,
    /// `N_LB = 2^K + 1` (truth table plus flip-flop bypass bit).
    pub const fn lb_config_bits(&self) -> usize {
        (1usize << self.lut_size) + 1
    }

    /// Number of configurable switch points in the switch box, `N_S = W`
    /// (one 4-way point per track in the subset/disjoint topology).
    const fn sb_points(&self) -> usize {
        self.channel_width as usize
    }

    /// Number of 4-way (cross-shaped) connection-box switches per macro,
    /// `N_C+ = L · (W − 1)`.
    const fn cb_cross_switches(&self) -> usize {
        self.lb_pins() as usize * (self.channel_width as usize - 1)
    }

    /// Number of 3-way (T-shaped) connection-box switches per macro,
    /// `N_CT = L`.
    const fn cb_tee_switches(&self) -> usize {
        self.lb_pins() as usize
    }

    /// Equation (1) of the paper: number of raw configuration bits per macro,
    ///
    /// `N_raw = N_LB + 6·(N_S + N_C+) + 3·N_CT`.
    ///
    /// ```
    /// use vbs_arch::ArchSpec;
    /// // W = 5, K = 6 gives the paper's value of 284 bits.
    /// assert_eq!(ArchSpec::paper_example().raw_bits_per_macro(), 284);
    /// ```
    pub const fn raw_bits_per_macro(&self) -> usize {
        self.lb_config_bits()
            + 6 * (self.sb_points() + self.cb_cross_switches())
            + 3 * self.cb_tee_switches()
    }
}

impl Default for ArchSpec {
    fn default() -> Self {
        ArchSpec::paper_evaluation()
    }
}

/// Ceiling of the base-2 logarithm, with `ceil_log2(0) == 0` and
/// `ceil_log2(1) == 0`: the width of every `⌈log2(·)⌉` field of the stream.
pub const fn ceil_log2(n: u32) -> u32 {
    if n <= 1 {
        0
    } else {
        u32::BITS - (n - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_small_values() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
    }

    #[test]
    fn paper_example_matches_section_ii() {
        // Section II-B, W = 5, 6-LUT: N_LB = 65, N_C+ = 28, N_CT = 7,
        // N_raw = 284 (M and the break-even count are pinned on vbs-core's
        // `VbsHeader`, which defines the stream's field widths).
        let spec = ArchSpec::paper_example();
        assert_eq!(spec.lb_config_bits(), 65);
        assert_eq!(spec.cb_cross_switches(), 28);
        assert_eq!(spec.cb_tee_switches(), 7);
        assert_eq!(spec.sb_points(), 5);
        assert_eq!(spec.raw_bits_per_macro(), 284);
    }

    #[test]
    fn evaluation_architecture_w20() {
        let spec = ArchSpec::paper_evaluation();
        assert_eq!(spec.channel_width(), 20);
        assert_eq!(spec.lb_pins(), 7);
        // N_raw = 65 + 6*(20 + 7*19) + 3*7 = 65 + 918 + 21 = 1004.
        assert_eq!(spec.raw_bits_per_macro(), 1004);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(matches!(
            ArchSpec::new(1, 6),
            Err(ArchError::InvalidChannelWidth { width: 1 })
        ));
        assert!(matches!(
            ArchSpec::new(300, 6),
            Err(ArchError::InvalidChannelWidth { width: 300 })
        ));
        assert!(matches!(
            ArchSpec::new(20, 1),
            Err(ArchError::InvalidLutSize { lut_size: 1 })
        ));
        assert!(matches!(
            ArchSpec::new(20, 9),
            Err(ArchError::InvalidLutSize { lut_size: 9 })
        ));
    }

    #[test]
    fn default_is_the_evaluation_architecture() {
        assert_eq!(ArchSpec::default(), ArchSpec::paper_evaluation());
    }

    #[test]
    fn with_channel_width_preserves_lut_size() {
        let s = ArchSpec::new(8, 4).unwrap().with_channel_width(12).unwrap();
        assert_eq!(s.channel_width(), 12);
        assert_eq!(s.lut_size(), 4);
    }

    #[test]
    fn raw_bits_grow_monotonically_with_channel_width() {
        let mut prev = 0;
        for w in 2..64 {
            let spec = ArchSpec::new(w, 6).unwrap();
            assert!(spec.raw_bits_per_macro() > prev);
            prev = spec.raw_bits_per_macro();
        }
    }
}
