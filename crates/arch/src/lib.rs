//! Island-style FPGA architecture model for the Virtual Bit-Stream (VBS) reproduction.
//!
//! This crate models the reconfigurable fabric described in Section II-A of
//! *"Design Flow and Run-Time Management for Compressed FPGA Configurations"*
//! (Huriaux, Courtay, Sentieys — DATE 2015):
//!
//! * a rectangular grid of **logic blocks** (6-input LUT + flip-flop),
//! * a mesh routing network of **unit-length wires** grouped into horizontal
//!   (`ChanX`) and vertical (`ChanY`) channels of `W` tracks,
//! * a **switch box** at every channel intersection (subset/disjoint topology),
//! * **connection boxes** linking logic-block pins to the adjacent channels.
//!
//! One logic block together with its adjacent connection boxes and switch box
//! forms a [`macro`](crate::macro_model) — the elementary tile of the fabric
//! and the unit of Virtual Bit-Stream coding.
//!
//! The crate provides:
//!
//! * [`ArchSpec`] — the architecture parameters (channel width `W`, LUT size
//!   `K`) and all derived quantities, including Equation (1) of the paper
//!   (`N_raw`, the number of raw configuration bits per macro).
//! * [`geometry`] — coordinates, rectangles, sides and tracks.
//! * [`macro_model`] — the bit-exact raw frame layout of a macro
//!   ([`FrameLayout`]). The black-box I/O numbering that VBS connection
//!   lists use is `vbs-core`'s `ClusterIo` (the macro is its `k = 1`
//!   cluster).
//! * [`wires`] — global wire naming shared by the router, the bit-stream
//!   generator and the VBS encoder/decoder.
//! * [`device`] — a sized device (grid of macros).
//! * [`graph`] — the device's routing-resource graph: its nodes
//!   ([`RrNode`]) and their dense numbering, the one neighbour function,
//!   and the one map between an edge and the programmable switch
//!   ([`SwitchSetting`]) that realizes it.
//!
//! # Example
//!
//! ```
//! use vbs_arch::{ArchSpec, Device};
//!
//! # fn main() -> Result<(), vbs_arch::ArchError> {
//! // The paper's example: W = 5 tracks, 6-LUT logic blocks -> N_raw = 284.
//! let spec = ArchSpec::new(5, 6)?;
//! assert_eq!(spec.raw_bits_per_macro(), 284);
//!
//! // The evaluation architecture: W = 20 normalized channel width.
//! let eval = ArchSpec::new(20, 6)?;
//! let device = Device::new(eval, 35, 35)?;
//! assert_eq!(device.macro_count(), 35 * 35);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod spec;

pub mod device;
pub mod geometry;
pub mod graph;
pub mod macro_model;
pub mod wires;

pub use device::Device;
pub use error::ArchError;
pub use geometry::{Coord, Rect, Side};
pub use graph::RrNode;
pub use macro_model::{FrameLayout, SbPair, SwitchSetting};
pub use spec::{ceil_log2, ArchSpec};
pub use wires::{WireKind, WireRef};
