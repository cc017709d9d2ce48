//! PathFinder-style routing for the island-style FPGA model.
//!
//! The paper's flow uses VPR to route each hardware task; this crate plays
//! that role. It provides:
//!
//! * [`route`] — a negotiated-congestion (PathFinder) router with A*-directed
//!   search over a per-call CSR copy of the device's routing-resource graph
//!   (`vbs_arch::Device::neighbors_into`, one node per routing wire and per
//!   logic-block pin), producing one [`RouteTree`] per net;
//! * [`check`] — an independent legality checker (no overused wire, every
//!   sink reached, every edge realizable by the architecture), used by
//!   tests and by a debug assertion in bitstream generation;
//! * [`minimum_channel_width`] — the binary search used to regenerate the
//!   MCW column of Table II.
//!
//! # Example
//!
//! ```
//! use vbs_arch::{ArchSpec, Device};
//! use vbs_netlist::generate::SyntheticSpec;
//! use vbs_place::{place, PlacerConfig};
//! use vbs_route::{route, RouterConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let netlist = SyntheticSpec::new("demo", 25, 5, 5).with_seed(3).build()?;
//! let device = Device::new(ArchSpec::new(8, 6)?, 7, 7)?;
//! let placement = place(&netlist, &device, &PlacerConfig::fast(1))?;
//! let routing = route(&netlist, &device, &placement, &RouterConfig::default())?;
//! assert_eq!(routing.iter_trees().count(), netlist.net_count());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod mcw;
mod result;
mod router;

pub mod check;

pub use error::RouteError;
pub use mcw::{minimum_channel_width, McwSearch};
pub use result::{RouteTree, Routing};
pub use router::{route, RouterConfig};
