//! Run-time management of compressed configurations (Section II-C of the
//! paper).
//!
//! The paper's architecture (Figure 2) keeps Virtual Bit-Streams in an
//! external memory; a **reconfiguration controller** fetches the VBS of a
//! task, de-virtualizes it for the physical location chosen at run time and
//! writes the resulting raw frames into the device's configuration memory.
//! Because the VBS is position independent, the same stream can be loaded
//! anywhere the task fits (relocation).
//!
//! This crate models that run-time layer in software:
//!
//! * [`VbsRepository`] — the external memory holding the serialized VBS of
//!   every task;
//! * [`ReconfigurationController`] — three verbs over one decode and one
//!   gated write: `decode_into` (de-virtualize on the caller's thread with
//!   the controller's scratch), `load_decoded` (validate, consult the fault
//!   model, write, keep the checksum sidecar current) and `load` (the two
//!   in a row on a pooled staging image). A load that fails at any step
//!   leaves the configuration memory untouched;
//! * [`ScratchPool`] — a controller's own recycled decode state (its one
//!   decode scratch + staging images), so steady-state loads perform zero
//!   heap allocations;
//! * [`TaskManager`] — on-line placement of tasks on the fabric: finds a free
//!   rectangle, loads, unloads and relocates running tasks;
//! * [`placement`] — pluggable placement policies (first-fit, best-fit,
//!   bottom-left skyline) plus the occupancy/fragmentation view they share.
//!
//! There is one load path. The controller used to offer a second one, a
//! streaming load that wrote frames through a `FrameSink` while the decode
//! was still running and cleared the region again when the decode failed
//! half way; with it came four more spellings of the same decode (a
//! pool-checkout variant, a warm re-decode alias and two free functions
//! outside any controller). Switching the stack onto the streaming path moved no
//! end-to-end metric of the repository benchmark (`ops_per_s` −2.4 % /
//! +1.4 % / −6.7 % on `hot_replay` / `churn_replay` / `fleet_replay` over
//! two alternating 6 s pairs, inside the run-to-run spread), and deleting
//! it moved none either (ten alternating 20 s pairs, `cold_load` 4.09 k →
//! 4.18 k loads/s with parent quartiles 4.05–4.17 k), so it is gone.
//!
//! The paper also notes that the records of a stream are independent, so
//! their decode can be parallelized. Every decode here runs on the caller's
//! thread: no corpus stream has more than 81 records, too few for a split
//! across threads to pay for its hand-off. Should streams of a few hundred
//! records appear, the decode can be split in safe Rust with
//! `std::thread::scope` over disjoint frame columns; the crate forbids
//! `unsafe`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod controller;
mod error;
mod fault;
mod manager;
pub mod placement;
mod pool;
mod repository;

pub use controller::{
    DecodeReport, ReconfigurationController, ROUTES_EXPANDED_SLOT, ROUTE_SEARCHES_SLOT,
};
pub use error::RuntimeError;
pub use fault::{FaultAction, FaultHook};
pub use manager::{LoadedTask, TaskHandle, TaskManager};
pub use placement::{BestFit, BottomLeftSkyline, FabricView, FirstFit, PlacementPolicy};
pub use pool::{ScratchPool, ScratchPoolStats};
pub use repository::VbsRepository;
