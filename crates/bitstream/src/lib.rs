//! Raw configuration bit-stream generation.
//!
//! The conventional ("raw") bit-stream of a hardware task stores the state of
//! *every* programmable switch of every macro of the task's rectangle,
//! whether the switch is used or not — `N_raw` bits per macro (Equation (1)
//! of the paper). This crate provides:
//!
//! * [`FrameStore`] — the flat word arena every frame container is built
//!   on: one contiguous `Vec<u64>` with a fixed per-frame stride;
//! * [`FrameRef`] / [`FrameMut`] — borrowed views of one macro's `N_raw`-bit
//!   frame inside an arena, addressed through the bit-exact
//!   [`vbs_arch::FrameLayout`];
//! * [`TaskBitstream`] — the raw bit-stream of a placed-and-routed hardware
//!   task (one frame per macro of the task rectangle), plus byte
//!   serialization;
//! * [`generate_bitstream`] — the backend that turns a netlist + placement +
//!   routing into the raw bit-stream, mapping every route-tree edge to the
//!   switch it programs;
//! * [`ConfigMemory`] — the configuration-memory layer of a whole device, on
//!   which the run-time controller loads decoded tasks.
//!
//! # Example
//!
//! ```
//! use vbs_arch::{ArchSpec, Device};
//! use vbs_netlist::generate::SyntheticSpec;
//! use vbs_place::{place, PlacerConfig};
//! use vbs_route::{route, RouterConfig};
//! use vbs_bitstream::generate_bitstream;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let netlist = SyntheticSpec::new("demo", 20, 4, 4).with_seed(1).build()?;
//! let device = Device::new(ArchSpec::new(8, 6)?, 7, 7)?;
//! let placement = place(&netlist, &device, &PlacerConfig::fast(1))?;
//! let routing = route(&netlist, &device, &placement, &RouterConfig::fast())?;
//! let bitstream = generate_bitstream(&netlist, &device, &placement, &routing)?;
//! // Raw size only depends on the task rectangle, not on its content.
//! assert_eq!(bitstream.size_bits(), 49 * device.spec().raw_bits_per_macro() as u64);
//! # Ok(())
//! # }
//! ```

// `unsafe` is denied crate-wide and allowed back in exactly one place: the
// `kernels` module, whose `#[target_feature]` CLMUL CRC body needs it (it
// is guarded by runtime feature detection and pinned bit-identical to the
// safe portable backend).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod crc;
mod error;
mod frame;
mod generate;
mod kernels;
mod memory;
mod store;
mod task;

pub use crc::{crc32, crc32_words};
pub use error::BitstreamError;
pub use frame::{FrameMut, FrameRef};
pub use generate::generate_bitstream;
pub use kernels::Kernels;
pub use memory::ConfigMemory;
pub use store::FrameStore;
pub use task::TaskBitstream;
