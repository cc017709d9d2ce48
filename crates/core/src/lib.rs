//! The **Virtual Bit-Stream (VBS)**: a position-independent, compressed
//! encoding of FPGA hardware-task configurations — the primary contribution
//! of *"Design Flow and Run-Time Management for Compressed FPGA
//! Configurations"* (Huriaux, Courtay, Sentieys — DATE 2015).
//!
//! Instead of storing the raw state of every programmable switch of every
//! macro (`N_raw` bits per macro, Equation (1)), the VBS stores, per macro
//! (or per square *cluster* of macros), the logic-block configuration plus a
//! **connection list**: pairs of black-box I/O identifiers coded on
//! `M = ⌈log2(4W + L + 1)⌉` bits each (Table I). A run-time controller
//! *de-virtualizes* the VBS by running a small local router per macro, which
//! regenerates the raw frame bits at any target position — giving both
//! compression and fast relocation.
//!
//! The crate provides:
//!
//! * [`mod@format`] — the binary format (header + records), bit-level
//!   serialization, and size accounting;
//! * [`VbsView`] — a validated stream read where it lies in its bytes: one
//!   allocation-free walk checks it, and its records are handed to the
//!   decoder as borrowed [`RecordRef`]s;
//! * [`encoder`] — the `vbsgen` backend: extracts per-macro (or per-cluster)
//!   connection lists from a placed-and-routed task, with the offline
//!   **feedback loop** of Section III-B (decode check, connection
//!   re-ordering, raw-macro fallback);
//! * [`decoder`] — the de-virtualization algorithm run by the
//!   reconfiguration controller;
//! * [`cluster`] — the cluster geometry and cluster-level I/O numbering used
//!   by the coarse-grain coding of Section IV-B.
//!
//! # Example
//!
//! ```
//! use vbs_arch::{ArchSpec, Device};
//! use vbs_netlist::generate::SyntheticSpec;
//! use vbs_place::{place, PlacerConfig};
//! use vbs_route::{route, RouterConfig};
//! use vbs_bitstream::generate_bitstream;
//! use vbs_core::{VbsEncoder, decode};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let netlist = SyntheticSpec::new("demo", 20, 4, 4).with_seed(1).build()?;
//! let device = Device::new(ArchSpec::new(8, 6)?, 7, 7)?;
//! let placement = place(&netlist, &device, &PlacerConfig::fast(1))?;
//! let routing = route(&netlist, &device, &placement, &RouterConfig::fast())?;
//! let raw = generate_bitstream(&netlist, &device, &placement, &routing)?;
//!
//! // Encode with the finest grain (one macro per record).
//! let vbs = VbsEncoder::new(device.spec().clone(), 1)?.encode(&raw, &routing)?;
//! assert!(vbs.size_bits() < raw.size_bits());
//!
//! // De-virtualize back into a raw configuration.
//! let decoded = decode(&vbs)?;
//! assert_eq!(decoded.width(), raw.width());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod bitio;
pub mod cluster;
pub mod decoder;
pub mod encoder;
pub mod format;
mod pattern;
pub mod stats;
mod view;

pub use bitio::{BitRange, PackedBits};
pub use cluster::{ClusterGrid, ClusterIo};
pub use decoder::{decode, DecodeScratch, Devirtualizer, FrameSink};
pub use encoder::VbsEncoder;
pub use error::VbsError;
pub use format::{
    ClusterRecord, ClusterRoutes, Connection, Connections, RecordRef, RoutesRef, Vbs, VbsHeader,
};
pub use stats::VbsStats;
pub use view::{Records, VbsLayout, VbsRef, VbsView};
