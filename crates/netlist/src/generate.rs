//! Deterministic synthetic circuit generation.
//!
//! The generator produces LUT-mapped circuits with tunable size, I/O count,
//! fan-in distribution and wiring locality. It is used to instantiate the
//! MCNC benchmark set of Table II as synthetic equivalents (see
//! [`crate::mcnc`]) and to build small circuits for tests and examples.
//!
//! The construction is a layered random DAG:
//!
//! 1. primary inputs are created first;
//! 2. LUTs are created in topological order; each LUT picks a fan-in between
//!    2 and `K` (biased towards [`SyntheticSpec::with_mean_fanin`]) and draws
//!    its source nets either from a sliding *locality window* of recently
//!    created nets (with probability `locality`) or uniformly from all
//!    existing nets — this controls routing density, which is what the VBS
//!    compression ratio is sensitive to;
//! 3. primary outputs consume distinct, preferably late, nets.

use crate::error::NetlistError;
use crate::ids::NetId;
use crate::lut::TruthTable;
use crate::model::Netlist;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Builder describing the synthetic circuit to generate.
///
/// ```
/// use vbs_netlist::generate::SyntheticSpec;
/// # fn main() -> Result<(), vbs_netlist::NetlistError> {
/// let netlist = SyntheticSpec::new("example", 120, 10, 10)
///     .with_seed(42)
///     .with_locality(0.8)
///     .build()?;
/// assert_eq!(netlist.lut_count(), 120);
/// assert_eq!(netlist.input_count(), 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticSpec {
    name: String,
    luts: usize,
    inputs: usize,
    outputs: usize,
    lut_size: u8,
    seed: u64,
    mean_fanin: f64,
    registered_fraction: f64,
    locality: f64,
    window: usize,
}

impl SyntheticSpec {
    /// Creates a specification for a circuit with `luts` LUTs, `inputs`
    /// primary inputs and `outputs` primary outputs, mapped to 6-LUTs.
    pub fn new(name: impl Into<String>, luts: usize, inputs: usize, outputs: usize) -> Self {
        SyntheticSpec {
            name: name.into(),
            luts,
            inputs,
            outputs,
            lut_size: 6,
            seed: 1,
            mean_fanin: 3.6,
            registered_fraction: 0.12,
            locality: 0.82,
            window: 64,
        }
    }

    /// Sets the LUT size (`K`), default 6.
    pub fn with_lut_size(mut self, lut_size: u8) -> Self {
        self.lut_size = lut_size;
        self
    }

    /// Sets the RNG seed; generation is fully deterministic for a given spec.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the mean LUT fan-in (clamped to `2.0..=K`), default 3.6.
    pub fn with_mean_fanin(mut self, mean: f64) -> Self {
        self.mean_fanin = mean;
        self
    }

    /// Sets the fraction of registered LUTs, default 0.12.
    pub fn with_registered_fraction(mut self, fraction: f64) -> Self {
        self.registered_fraction = fraction.clamp(0.0, 1.0);
        self
    }

    /// Sets the probability of drawing a source from the locality window
    /// instead of uniformly, default 0.82. Lower locality produces more
    /// global wiring and hence denser routing.
    pub fn with_locality(mut self, locality: f64) -> Self {
        self.locality = locality.clamp(0.0, 1.0);
        self
    }

    /// Sets the size of the locality window (in recently created nets),
    /// default 64.
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }

    /// Generates the circuit.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidGeneratorSpec`] when the parameters are
    /// inconsistent (no inputs, no LUTs, outputs exceeding available nets, or
    /// an unsupported LUT size).
    pub fn build(&self) -> Result<Netlist, NetlistError> {
        if self.inputs == 0 {
            return Err(NetlistError::InvalidGeneratorSpec {
                reason: "a circuit needs at least one primary input".into(),
            });
        }
        if self.luts == 0 {
            return Err(NetlistError::InvalidGeneratorSpec {
                reason: "a circuit needs at least one LUT".into(),
            });
        }
        if !(2..=8).contains(&self.lut_size) {
            return Err(NetlistError::InvalidGeneratorSpec {
                reason: format!("unsupported LUT size {}", self.lut_size),
            });
        }
        if self.outputs == 0 {
            return Err(NetlistError::InvalidGeneratorSpec {
                reason: "a circuit needs at least one primary output".into(),
            });
        }
        if self.outputs > self.luts + self.inputs {
            return Err(NetlistError::InvalidGeneratorSpec {
                reason: format!(
                    "{} outputs requested but only {} nets will exist",
                    self.outputs,
                    self.luts + self.inputs
                ),
            });
        }

        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0x5eed_cafe_f00d_u64);
        let mut netlist = Netlist::new(self.name.clone(), self.lut_size);
        let mut nets: Vec<NetId> = Vec::with_capacity(self.inputs + self.luts);

        for i in 0..self.inputs {
            let (_, net) = netlist.add_input(format!("pi_{i}"));
            nets.push(net);
        }

        let k = self.lut_size as usize;
        let mean = self.mean_fanin.clamp(2.0, k as f64);
        for i in 0..self.luts {
            let fanin = sample_fanin(&mut rng, mean, k);
            let mut sources: Vec<NetId> = Vec::with_capacity(fanin);
            let mut guard = 0;
            while sources.len() < fanin && guard < 64 {
                guard += 1;
                let candidate = if rng.gen_bool(self.locality) && nets.len() > self.window {
                    let start = nets.len() - self.window;
                    nets[rng.gen_range(start..nets.len())]
                } else {
                    nets[rng.gen_range(0..nets.len())]
                };
                if !sources.contains(&candidate) {
                    sources.push(candidate);
                }
            }
            let truth = random_truth(&mut rng, self.lut_size);
            let registered = rng.gen_bool(self.registered_fraction);
            let (_, net) = netlist.add_lut(format!("lut_{i}"), truth, &sources, registered);
            nets.push(net);
        }

        // Outputs prefer late nets (the "result" end of the DAG) but stay
        // distinct.
        let mut chosen: Vec<NetId> = Vec::with_capacity(self.outputs);
        let mut cursor = nets.len();
        while chosen.len() < self.outputs && cursor > 0 {
            cursor -= 1;
            let needed = self.outputs - chosen.len();
            let unvisited = cursor + 1;
            // Walk backwards from the most recent nets, skipping roughly half
            // of them, but never skip once the remaining pool is exhausted.
            if unvisited <= needed || rng.gen_bool(0.55) {
                chosen.push(nets[cursor]);
            }
        }
        for (i, net) in chosen.into_iter().enumerate() {
            netlist.add_output(format!("po_{i}"), net);
        }

        debug_assert!(netlist.validate().is_ok());
        Ok(netlist)
    }
}

/// Samples a LUT fan-in in `2..=k` with the requested mean.
fn sample_fanin(rng: &mut SmallRng, mean: f64, k: usize) -> usize {
    // Binomial-ish sampling: k - 2 coin flips biased so the expectation hits
    // `mean`.
    let p = ((mean - 2.0) / (k as f64 - 2.0)).clamp(0.0, 1.0);
    let mut fanin = 2usize;
    for _ in 0..(k - 2) {
        if rng.gen_bool(p) {
            fanin += 1;
        }
    }
    fanin
}

/// Draws a random, non-constant truth table.
fn random_truth(rng: &mut SmallRng, lut_size: u8) -> TruthTable {
    loop {
        let table = TruthTable::from_fn(lut_size, |_| rng.gen_bool(0.5));
        let ones = table.iter().filter(|&b| b).count();
        if ones != 0 && ones != table.len() {
            return table;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = SyntheticSpec::new("d", 100, 12, 9)
            .with_seed(3)
            .build()
            .unwrap();
        let b = SyntheticSpec::new("d", 100, 12, 9)
            .with_seed(3)
            .build()
            .unwrap();
        assert_eq!(a.connectivity_signature(), b.connectivity_signature());
    }

    #[test]
    fn different_seeds_give_different_circuits() {
        let a = SyntheticSpec::new("d", 100, 12, 9)
            .with_seed(3)
            .build()
            .unwrap();
        let b = SyntheticSpec::new("d", 100, 12, 9)
            .with_seed(4)
            .build()
            .unwrap();
        assert_ne!(a.connectivity_signature(), b.connectivity_signature());
    }

    #[test]
    fn counts_match_the_spec() {
        let n = SyntheticSpec::new("c", 75, 9, 14)
            .with_seed(1)
            .build()
            .unwrap();
        assert_eq!(n.lut_count(), 75);
        assert_eq!(n.input_count(), 9);
        assert_eq!(n.output_count(), 14);
        n.validate().expect("generated netlists are valid");
    }

    #[test]
    fn invalid_specs_are_rejected() {
        assert!(SyntheticSpec::new("x", 0, 4, 4).build().is_err());
        assert!(SyntheticSpec::new("x", 10, 0, 4).build().is_err());
        assert!(SyntheticSpec::new("x", 10, 4, 0).build().is_err());
        assert!(SyntheticSpec::new("x", 2, 2, 100).build().is_err());
        assert!(SyntheticSpec::new("x", 10, 4, 4)
            .with_lut_size(12)
            .build()
            .is_err());
    }

    #[test]
    fn lut_fanin_never_exceeds_lut_size() {
        let n = SyntheticSpec::new("f", 200, 16, 16)
            .with_seed(9)
            .with_mean_fanin(5.5)
            .build()
            .unwrap();
        for (_, block) in n.iter_blocks() {
            assert!(block.used_inputs() <= 6);
        }
    }

    #[test]
    fn locality_changes_wiring_statistics() {
        let local = SyntheticSpec::new("l", 400, 16, 16)
            .with_seed(5)
            .with_locality(0.95)
            .with_window(16)
            .build()
            .unwrap();
        let global = SyntheticSpec::new("g", 400, 16, 16)
            .with_seed(5)
            .with_locality(0.0)
            .build()
            .unwrap();
        // Average "distance" between a LUT and its sources, measured in
        // creation order, must be clearly larger for the global circuit.
        let spread = |n: &Netlist| -> f64 {
            let mut total = 0f64;
            let mut count = 0f64;
            for (id, block) in n.iter_blocks() {
                for net in block.inputs.iter().flatten() {
                    let src = n.net(*net).driver;
                    total += (id.0 as f64 - src.0 as f64).abs();
                    count += 1.0;
                }
            }
            total / count
        };
        assert!(spread(&global) > 2.0 * spread(&local));
    }
}
