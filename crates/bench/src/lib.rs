//! Shared harness for the experiment binaries.
//!
//! Every table and figure of the paper's evaluation is regenerated from the
//! same pipeline: instantiate the MCNC-calibrated synthetic circuit, run the
//! CAD flow (place, route at the normalized channel width of 20 tracks),
//! generate the raw bit-stream and the Virtual Bit-Streams, and report sizes.
//!
//! The binaries default to a scaled-down benchmark set so a full sweep runs
//! in minutes on a laptop; pass `--scale 1.0` (or `--full`) to reproduce the
//! paper-sized circuits.

use vbs_core::VbsStats;
use vbs_flow::{CadFlow, FlowError, FlowResult};
use vbs_netlist::mcnc::McncCircuit;
use vbs_netlist::NetlistError;

pub mod alloc_counter;
pub mod sched_workload;

pub use alloc_counter::{allocated_bytes, allocations, CountingAllocator};

/// Default scale factor applied to the MCNC circuits by the harness binaries.
pub const DEFAULT_SCALE: f64 = 0.12;

/// The normalized channel width used by the paper for all size comparisons.
pub const NORMALIZED_CHANNEL_WIDTH: u16 = 20;

/// Options shared by the experiment binaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HarnessOptions {
    /// Scale factor applied to every circuit (1.0 = the paper's sizes).
    pub scale: f64,
    /// Channel width used for routing and size accounting.
    pub channel_width: u16,
    /// Only run the first `limit` circuits of Table II (None = all 20).
    pub limit: Option<usize>,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            scale: DEFAULT_SCALE,
            channel_width: NORMALIZED_CHANNEL_WIDTH,
            limit: None,
        }
    }
}

impl HarnessOptions {
    /// Parses the common command-line flags (`--scale X`, `--full`,
    /// `--limit N`, `--channel-width W`). Unknown flags are ignored so the
    /// binaries stay forgiving.
    pub fn from_args(args: impl Iterator<Item = String>) -> Self {
        let mut options = HarnessOptions::default();
        let args: Vec<String> = args.collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--full" => options.scale = 1.0,
                "--scale" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                        options.scale = v;
                        i += 1;
                    }
                }
                "--limit" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                        options.limit = Some(v);
                        i += 1;
                    }
                }
                "--channel-width" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                        options.channel_width = v;
                        i += 1;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        options
    }

    /// The circuits selected by these options.
    pub fn circuits(&self) -> Vec<&'static McncCircuit> {
        let all: Vec<&'static McncCircuit> = vbs_netlist::mcnc::TABLE2.iter().collect();
        match self.limit {
            Some(n) => all.into_iter().take(n).collect(),
            None => all,
        }
    }
}

/// One circuit run through the whole flow.
#[derive(Debug)]
pub struct CircuitRun {
    /// The Table II entry that was run.
    pub circuit: &'static McncCircuit,
    /// The scale factor that was applied.
    pub scale: f64,
    /// The flow outputs (device, placement, routing, raw bit-stream).
    pub result: FlowResult,
}

impl CircuitRun {
    /// VBS statistics at a given cluster size.
    ///
    /// # Errors
    ///
    /// Propagates encoder failures.
    pub fn stats(&self, cluster_size: u16) -> Result<VbsStats, FlowError> {
        self.result.vbs_stats(cluster_size)
    }
}

/// Errors of the harness: either circuit generation or the flow itself.
#[derive(Debug)]
pub enum HarnessError {
    /// Synthetic circuit generation failed.
    Netlist(NetlistError),
    /// The CAD flow failed.
    Flow(FlowError),
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::Netlist(e) => write!(f, "netlist generation failed: {e}"),
            HarnessError::Flow(e) => write!(f, "cad flow failed: {e}"),
        }
    }
}

impl std::error::Error for HarnessError {}

impl From<NetlistError> for HarnessError {
    fn from(e: NetlistError) -> Self {
        HarnessError::Netlist(e)
    }
}

impl From<FlowError> for HarnessError {
    fn from(e: FlowError) -> Self {
        HarnessError::Flow(e)
    }
}

/// Runs one Table II circuit through the flow at the requested scale and
/// channel width.
///
/// # Errors
///
/// Returns a [`HarnessError`] when generation, placement or routing fails.
pub fn run_circuit(
    circuit: &'static McncCircuit,
    scale: f64,
    channel_width: u16,
) -> Result<CircuitRun, HarnessError> {
    let netlist = circuit.build_scaled(scale)?;
    let edge = circuit.scaled_size(scale);
    let flow = CadFlow::new(channel_width, 6)?
        .with_grid(edge, edge)
        .with_seed(circuit.seed())
        .fast();
    let result = flow.run(&netlist)?;
    Ok(CircuitRun {
        circuit,
        scale,
        result,
    })
}

/// Geometric mean of a sequence of positive values.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_parse_flags() {
        let o = HarnessOptions::from_args(
            ["--scale", "0.5", "--limit", "3", "--channel-width", "12"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(o.scale, 0.5);
        assert_eq!(o.limit, Some(3));
        assert_eq!(o.channel_width, 12);
        assert_eq!(o.circuits().len(), 3);
        let full = HarnessOptions::from_args(["--full"].iter().map(|s| s.to_string()));
        assert_eq!(full.scale, 1.0);
        assert_eq!(full.circuits().len(), 20);
    }

    #[test]
    fn geometric_mean_of_powers_of_two() {
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    fn smallest_circuit_runs_at_tiny_scale() {
        let circuit = vbs_netlist::mcnc::by_name("des").unwrap();
        let run = run_circuit(circuit, 0.05, 12).unwrap();
        let stats = run.stats(1).unwrap();
        assert!(stats.ratio() < 1.0);
    }
}
