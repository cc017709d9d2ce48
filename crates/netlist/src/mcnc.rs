//! The paper's benchmark set: the 20 largest MCNC circuits (Table II).
//!
//! The original MCNC netlists are not redistributable with this repository,
//! so each circuit is instantiated as a **synthetic equivalent** with the same
//! logic-block count, the same array size and plausible I/O counts, generated
//! deterministically from the circuit name. The paper's compression results
//! depend on routing density — how many of each macro's switches a routed
//! task uses — which the generator reproduces by construction (the same number
//! of LUTs routed on the same grid at the same normalized channel width), not
//! on the boolean functions themselves. Compression is measured on the
//! routed switches, so a circuit with the same LUT count, grid and channel
//! width stands in for the original; its LUT functions only fill the
//! logic-data bits, which are `k² · N_LB` per record whatever they hold.

use crate::error::NetlistError;
use crate::generate::SyntheticSpec;
use crate::model::Netlist;

/// One row of Table II of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McncCircuit {
    /// Circuit name as printed in the paper.
    pub name: &'static str,
    /// Edge length of the square logic array ("Size" column).
    pub size: u16,
    /// Minimum channel width reported by the paper ("MCW" column).
    pub min_channel_width: u16,
    /// Number of occupied logic blocks ("LBs" column).
    pub logic_blocks: u32,
    /// Primary input count used for the synthetic equivalent.
    pub inputs: u16,
    /// Primary output count used for the synthetic equivalent.
    pub outputs: u16,
}

impl McncCircuit {
    /// Total I/O pads of the synthetic equivalent.
    pub fn io_count(&self) -> u32 {
        self.inputs as u32 + self.outputs as u32
    }

    /// Number of grid sites of the circuit's array.
    pub fn sites(&self) -> u32 {
        self.size as u32 * self.size as u32
    }

    /// Fraction of grid sites occupied by logic blocks or pads.
    pub fn occupancy(&self) -> f64 {
        (self.logic_blocks + self.io_count()) as f64 / self.sites() as f64
    }

    /// Deterministic RNG seed derived from the circuit name.
    pub fn seed(&self) -> u64 {
        // FNV-1a over the name: stable across runs and platforms.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in self.name.bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    /// Builds the synthetic equivalent of this circuit at full size.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError`] from the generator (this only happens if
    /// the table entry itself were inconsistent).
    pub fn build(&self) -> Result<Netlist, NetlistError> {
        self.build_scaled(1.0)
    }

    /// Builds a scaled-down equivalent: `scale` multiplies the logic-block and
    /// I/O counts (useful to keep CI-sized tests fast). `scale = 1.0` is the
    /// full circuit of Table II.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError`] from the generator, e.g. when `scale` is so
    /// small that no LUT or pad is left.
    pub fn build_scaled(&self, scale: f64) -> Result<Netlist, NetlistError> {
        let luts = ((self.logic_blocks as f64 * scale).round() as usize).max(1);
        let inputs = ((self.inputs as f64 * scale).round() as usize).max(1);
        let outputs = ((self.outputs as f64 * scale).round() as usize).max(1);
        // Denser circuits (higher MCW in Table II) get lower locality so the
        // synthetic equivalent routes densely too.
        let locality = match self.min_channel_width {
            0..=8 => 0.93,
            9..=11 => 0.88,
            12..=14 => 0.82,
            _ => 0.76,
        };
        SyntheticSpec::new(self.name, luts, inputs, outputs)
            .with_seed(self.seed())
            .with_locality(locality)
            .with_mean_fanin(3.2 + 0.12 * self.min_channel_width as f64)
            .with_window((luts / 12).clamp(16, 256))
            .build()
    }

    /// The grid edge length used for a scaled build (the smallest square that
    /// holds the scaled blocks plus pads, never larger than the paper's size).
    pub fn scaled_size(&self, scale: f64) -> u16 {
        if (scale - 1.0).abs() < f64::EPSILON {
            return self.size;
        }
        let luts = ((self.logic_blocks as f64 * scale).round() as u32).max(1);
        let ios = ((self.io_count() as f64 * scale).round() as u32).max(2);
        let mut edge = 1u16;
        while (edge as u32 * edge as u32) < luts + ios {
            edge += 1;
        }
        edge.min(self.size)
    }
}

/// Table II of the paper: the 20 largest MCNC benchmark circuits.
///
/// The `inputs`/`outputs` columns are not part of Table II; they are the I/O
/// counts used by the synthetic equivalents, chosen close to the historical
/// MCNC values but capped so that logic blocks plus pads fit the paper's array
/// size: this model places I/O pads on grid sites, as the paper treats
/// inputs and outputs as part of the fabric (Section II-A), so
/// `logic blocks + inputs + outputs` must not exceed `size²`.
pub const TABLE2: [McncCircuit; 20] = [
    McncCircuit {
        name: "alu4",
        size: 35,
        min_channel_width: 9,
        logic_blocks: 1173,
        inputs: 14,
        outputs: 8,
    },
    McncCircuit {
        name: "apex2",
        size: 39,
        min_channel_width: 12,
        logic_blocks: 1478,
        inputs: 38,
        outputs: 3,
    },
    McncCircuit {
        name: "apex4",
        size: 32,
        min_channel_width: 15,
        logic_blocks: 970,
        inputs: 9,
        outputs: 19,
    },
    McncCircuit {
        name: "bigkey",
        size: 27,
        min_channel_width: 8,
        logic_blocks: 683,
        inputs: 24,
        outputs: 21,
    },
    McncCircuit {
        name: "clma",
        size: 79,
        min_channel_width: 15,
        logic_blocks: 6226,
        inputs: 8,
        outputs: 7,
    },
    McncCircuit {
        name: "des",
        size: 32,
        min_channel_width: 8,
        logic_blocks: 554,
        inputs: 245,
        outputs: 220,
    },
    McncCircuit {
        name: "diffeq",
        size: 30,
        min_channel_width: 10,
        logic_blocks: 869,
        inputs: 18,
        outputs: 13,
    },
    McncCircuit {
        name: "dsip",
        size: 27,
        min_channel_width: 9,
        logic_blocks: 680,
        inputs: 26,
        outputs: 22,
    },
    McncCircuit {
        name: "elliptic",
        size: 47,
        min_channel_width: 13,
        logic_blocks: 2134,
        inputs: 40,
        outputs: 35,
    },
    McncCircuit {
        name: "ex1010",
        size: 56,
        min_channel_width: 16,
        logic_blocks: 3093,
        inputs: 10,
        outputs: 10,
    },
    McncCircuit {
        name: "ex5p",
        size: 28,
        min_channel_width: 13,
        logic_blocks: 740,
        inputs: 8,
        outputs: 36,
    },
    McncCircuit {
        name: "frisc",
        size: 55,
        min_channel_width: 16,
        logic_blocks: 2940,
        inputs: 20,
        outputs: 64,
    },
    McncCircuit {
        name: "misex3",
        size: 35,
        min_channel_width: 11,
        logic_blocks: 1158,
        inputs: 14,
        outputs: 14,
    },
    McncCircuit {
        name: "pdc",
        size: 61,
        min_channel_width: 15,
        logic_blocks: 3629,
        inputs: 16,
        outputs: 40,
    },
    McncCircuit {
        name: "s298",
        size: 37,
        min_channel_width: 8,
        logic_blocks: 1301,
        inputs: 4,
        outputs: 6,
    },
    McncCircuit {
        name: "s38417",
        size: 58,
        min_channel_width: 8,
        logic_blocks: 3333,
        inputs: 15,
        outputs: 15,
    },
    McncCircuit {
        name: "s38584.1",
        size: 65,
        min_channel_width: 9,
        logic_blocks: 4219,
        inputs: 3,
        outputs: 3,
    },
    McncCircuit {
        name: "seq",
        size: 37,
        min_channel_width: 12,
        logic_blocks: 1325,
        inputs: 24,
        outputs: 20,
    },
    McncCircuit {
        name: "spla",
        size: 55,
        min_channel_width: 14,
        logic_blocks: 3005,
        inputs: 10,
        outputs: 10,
    },
    McncCircuit {
        name: "tseng",
        size: 29,
        min_channel_width: 8,
        logic_blocks: 799,
        inputs: 22,
        outputs: 20,
    },
];

/// Looks up a Table II entry by circuit name.
pub fn by_name(name: &str) -> Option<&'static McncCircuit> {
    TABLE2.iter().find(|c| c.name == name)
}

/// The subset of Table II circuits with more than one thousand logic blocks
/// (the paper notes that 13 of the 20 qualify).
#[cfg(test)]
fn over_thousand_lbs() -> impl Iterator<Item = &'static McncCircuit> {
    TABLE2.iter().filter(|c| c.logic_blocks > 1000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_twenty_circuits_with_unique_names() {
        assert_eq!(TABLE2.len(), 20);
        let mut names: Vec<&str> = TABLE2.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 20);
    }

    #[test]
    fn thirteen_circuits_exceed_one_thousand_lbs() {
        // The paper: "Of these 20 benchmarks, 13 of them contain over a
        // thousand logic blocks."
        assert_eq!(over_thousand_lbs().count(), 13);
    }

    #[test]
    fn every_circuit_fits_its_array() {
        for c in &TABLE2 {
            assert!(
                c.logic_blocks + c.io_count() <= c.sites(),
                "{} does not fit a {}x{} array",
                c.name,
                c.size,
                c.size
            );
            assert!(c.occupancy() > 0.4, "{} is implausibly sparse", c.name);
        }
    }

    #[test]
    fn table_values_match_the_paper() {
        let clma = by_name("clma").unwrap();
        assert_eq!(
            (clma.size, clma.min_channel_width, clma.logic_blocks),
            (79, 15, 6226)
        );
        let tseng = by_name("tseng").unwrap();
        assert_eq!(
            (tseng.size, tseng.min_channel_width, tseng.logic_blocks),
            (29, 8, 799)
        );
        let ex1010 = by_name("ex1010").unwrap();
        assert_eq!(ex1010.min_channel_width, 16);
        assert!(by_name("nonexistent").is_none());
    }

    #[test]
    fn scaled_build_matches_requested_fraction() {
        let c = by_name("ex5p").unwrap();
        let n = c.build_scaled(0.1).unwrap();
        assert_eq!(n.lut_count(), 74);
        assert!(n.input_count() >= 1);
        assert!(n.output_count() >= 1);
        n.validate().unwrap();
    }

    #[test]
    fn scaled_size_shrinks_but_fits() {
        let c = by_name("clma").unwrap();
        let edge = c.scaled_size(0.05);
        assert!(edge < c.size);
        let n = c.build_scaled(0.05).unwrap();
        assert!(n.block_count() as u32 <= edge as u32 * edge as u32);
        assert_eq!(c.scaled_size(1.0), c.size);
    }

    #[test]
    fn seeds_differ_between_circuits() {
        let a = by_name("alu4").unwrap().seed();
        let b = by_name("apex2").unwrap().seed();
        assert_ne!(a, b);
    }

    #[test]
    fn full_build_matches_table_for_a_small_circuit() {
        let c = by_name("des").unwrap();
        let n = c.build().unwrap();
        assert_eq!(n.lut_count() as u32, c.logic_blocks);
        assert_eq!(n.input_count() as u16, c.inputs);
        assert_eq!(n.output_count() as u16, c.outputs);
    }
}
