//! Functional simulation of the reconfigurable fabric.
//!
//! The paper has no access to a physical FlexTiles device either; what it
//! needs (and what this crate provides) is a way to convince oneself that a
//! configuration written into the fabric's configuration memory implements
//! the intended circuit. The simulator:
//!
//! * interprets a [`vbs_bitstream::TaskBitstream`] switch by switch and
//!   rebuilds the electrical nets it creates, reading both ends of every
//!   closed switch off the device's routing-resource graph
//!   ([`vbs_arch::Device::switch_ends`]);
//! * checks a configuration against the placed netlist it is supposed to
//!   implement ([`verify_against_netlist`]): every source pin must reach all
//!   of its sink pins, no two nets may be shorted, and every LUT site must
//!   hold the right truth table;
//! * evaluates the combinational part of small configurations on concrete
//!   input vectors ([`evaluate`]), as an end-to-end functional check.
//!
//! This is the verification backstop used by the integration tests for the
//! encode → decode → relocate pipeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod connectivity;
mod error;
mod evaluate;

pub use connectivity::{verify_against_netlist, Connectivity};
pub use error::SimError;
pub use evaluate::{evaluate, evaluate_netlist};
