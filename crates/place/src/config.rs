//! Simulated-annealing configuration.

use serde::{Deserialize, Serialize};

/// Tuning knobs of the simulated-annealing placer.
///
/// The defaults follow the classic VPR adaptive schedule; [`PlacerConfig::fast`]
/// trades quality for speed (useful in tests and quick experiments).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacerConfig {
    /// RNG seed; the placer is deterministic for a given seed.
    pub seed: u64,
    /// Multiplier of the number of moves evaluated per temperature step
    /// (`inner_num` in VPR terms). 1.0 is the standard effort.
    pub effort: f64,
    /// Upper bound on the number of temperature steps (safety valve).
    pub max_steps: usize,
}

impl PlacerConfig {
    /// Standard-effort configuration with the given seed.
    pub fn new(seed: u64) -> Self {
        PlacerConfig {
            seed,
            effort: 1.0,
            max_steps: 512,
        }
    }

    /// Low-effort configuration: an order of magnitude fewer moves, for tests
    /// and fast iteration. Placement quality is still reasonable because the
    /// adaptive schedule spends the moves where they matter.
    pub fn fast(seed: u64) -> Self {
        PlacerConfig {
            effort: 0.08,
            max_steps: 160,
            ..PlacerConfig::new(seed)
        }
    }

    /// Returns the number of moves per temperature for `blocks` movable
    /// blocks: `effort * blocks^(4/3)`, at least 16.
    pub fn moves_per_step(&self, blocks: usize) -> usize {
        let base = (blocks as f64).powf(4.0 / 3.0);
        ((self.effort * base).round() as usize).max(16)
    }
}

impl Default for PlacerConfig {
    fn default() -> Self {
        PlacerConfig::new(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_is_cheaper_than_default() {
        let d = PlacerConfig::default();
        let f = PlacerConfig::fast(1);
        assert!(f.moves_per_step(1000) < d.moves_per_step(1000));
        assert!(d.moves_per_step(1000) > 1000);
    }

    #[test]
    fn moves_have_a_floor() {
        assert!(PlacerConfig::fast(0).moves_per_step(1) >= 16);
    }
}
