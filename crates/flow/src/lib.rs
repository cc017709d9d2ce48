//! The end-to-end CAD flow of Figure 3 of the paper: hardware description →
//! pack/place → route → raw bit-stream + Virtual Bit-Stream.
//!
//! This crate stitches the substrates together behind one builder-style API so
//! examples, tests and the experiment harnesses all run the exact same flow.
//!
//! # Example
//!
//! ```
//! use vbs_flow::CadFlow;
//! use vbs_netlist::generate::SyntheticSpec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let netlist = SyntheticSpec::new("demo", 24, 5, 5).with_seed(7).build()?;
//! let result = CadFlow::new(8, 6)?
//!     .with_grid(7, 7)
//!     .with_seed(7)
//!     .fast()
//!     .run(&netlist)?;
//! assert!(result.vbs(1)?.size_bits() < result.raw_bitstream().size_bits());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub use error::FlowError;

use vbs_arch::{ArchSpec, Device};
use vbs_bitstream::{generate_bitstream, TaskBitstream};
use vbs_core::{Vbs, VbsEncoder, VbsStats};
use vbs_netlist::Netlist;
use vbs_place::{place, Placement, PlacerConfig};
use vbs_route::{minimum_channel_width, route, McwSearch, RouterConfig, Routing};

/// Builder for one pass of the CAD flow.
#[derive(Debug, Clone)]
pub struct CadFlow {
    spec: ArchSpec,
    grid: Option<(u16, u16)>,
    seed: u64,
    placer: PlacerConfig,
    router: RouterConfig,
}

impl CadFlow {
    /// Creates a flow targeting an architecture with `channel_width` tracks
    /// and `lut_size`-input LUTs.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Arch`] for out-of-range parameters.
    pub fn new(channel_width: u16, lut_size: u8) -> Result<Self, FlowError> {
        let spec = ArchSpec::new(channel_width, lut_size)?;
        Ok(CadFlow {
            spec,
            grid: None,
            seed: 1,
            placer: PlacerConfig::new(1),
            router: RouterConfig::default(),
        })
    }

    /// Creates a flow for the paper's evaluation architecture (`W = 20`,
    /// 6-LUTs).
    pub fn paper_evaluation() -> Self {
        CadFlow {
            spec: ArchSpec::paper_evaluation(),
            grid: None,
            seed: 1,
            placer: PlacerConfig::new(1),
            router: RouterConfig::default(),
        }
    }

    /// Fixes the device grid; by default the smallest square holding the
    /// netlist is used.
    pub fn with_grid(mut self, width: u16, height: u16) -> Self {
        self.grid = Some((width, height));
        self
    }

    /// Sets the seed used by the placer.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.placer.seed = seed;
        self
    }

    /// Switches the placer and router to their fast, lower-effort settings
    /// (used by tests and quick sweeps).
    pub fn fast(mut self) -> Self {
        self.placer = PlacerConfig::fast(self.seed);
        self.router = RouterConfig::fast();
        self
    }

    /// The architecture this flow targets.
    pub const fn spec(&self) -> &ArchSpec {
        &self.spec
    }

    /// Runs synthesis-to-bit-stream on `netlist`.
    ///
    /// # Errors
    ///
    /// Propagates placement, routing and bit-stream generation failures.
    pub fn run(&self, netlist: &Netlist) -> Result<FlowResult, FlowError> {
        let (width, height) = match self.grid {
            Some(g) => g,
            None => {
                let mut edge = 1u16;
                while (edge as usize * edge as usize) < netlist.block_count() {
                    edge += 1;
                }
                (edge, edge)
            }
        };
        let device = Device::new(self.spec, width, height)?;
        let placement = place(netlist, &device, &self.placer)?;
        let routing = route(netlist, &device, &placement, &self.router)?;
        let raw = generate_bitstream(netlist, &device, &placement, &routing)?;
        Ok(FlowResult {
            device,
            placement,
            routing,
            raw,
        })
    }

    /// Reproduces the Table II experiment for `netlist`: the minimum channel
    /// width guaranteeing a feasible routing on the given grid.
    ///
    /// # Errors
    ///
    /// Propagates placement and routing failures.
    pub fn minimum_channel_width(
        &self,
        netlist: &Netlist,
        width: u16,
        height: u16,
        upper_bound: u16,
    ) -> Result<McwSearch, FlowError> {
        let device = Device::new(self.spec, width, height)?;
        let placement = place(netlist, &device, &self.placer)?;
        Ok(minimum_channel_width(
            netlist,
            &device,
            &placement,
            &self.router,
            2,
            upper_bound,
        )?)
    }
}

/// Everything the flow produced for one hardware task.
#[derive(Debug, Clone)]
pub struct FlowResult {
    device: Device,
    placement: Placement,
    routing: Routing,
    raw: TaskBitstream,
}

impl FlowResult {
    /// The device the task was implemented on.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The placement of the task.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The routing of the task.
    pub fn routing(&self) -> &Routing {
        &self.routing
    }

    /// The conventional (raw) bit-stream of the task.
    pub fn raw_bitstream(&self) -> &TaskBitstream {
        &self.raw
    }

    /// Encodes the task as a Virtual Bit-Stream with the given cluster size.
    ///
    /// # Errors
    ///
    /// Propagates encoder failures.
    pub fn vbs(&self, cluster_size: u16) -> Result<Vbs, FlowError> {
        let origin = self.placement.region().origin;
        Ok(
            VbsEncoder::new(*self.device.spec(), cluster_size)?.encode_with_origin(
                &self.raw,
                &self.routing,
                origin,
            )?,
        )
    }

    /// Convenience wrapper returning the [`VbsStats`] of the task at a given
    /// cluster size.
    ///
    /// # Errors
    ///
    /// Propagates encoder failures.
    pub fn vbs_stats(&self, cluster_size: u16) -> Result<VbsStats, FlowError> {
        Ok(VbsStats::of(&self.vbs(cluster_size)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbs_netlist::generate::SyntheticSpec;

    fn netlist() -> Netlist {
        SyntheticSpec::new("flow", 28, 5, 5)
            .with_seed(3)
            .build()
            .unwrap()
    }

    #[test]
    fn full_flow_produces_compressed_streams() {
        let result = CadFlow::new(10, 6)
            .unwrap()
            .with_grid(8, 8)
            .with_seed(3)
            .fast()
            .run(&netlist())
            .unwrap();
        let stats = result.vbs_stats(1).unwrap();
        assert!(stats.ratio() < 1.0, "VBS must compress: {stats}");
        assert_eq!(stats.raw_bits, result.raw_bitstream().size_bits());
    }

    #[test]
    fn automatic_grid_sizing_fits_the_netlist() {
        let n = netlist();
        let result = CadFlow::new(10, 6)
            .unwrap()
            .with_seed(3)
            .fast()
            .run(&n)
            .unwrap();
        assert!(result.device().macro_count() as usize >= n.block_count());
    }

    #[test]
    fn mcw_search_runs_through_the_flow() {
        let search = CadFlow::new(12, 6)
            .unwrap()
            .with_seed(3)
            .fast()
            .minimum_channel_width(&netlist(), 8, 8, 16)
            .unwrap();
        assert!(search.min_channel_width >= 2);
        assert!(search.min_channel_width <= 16);
    }
}
