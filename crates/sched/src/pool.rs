//! The fleet-wide recycled decode-state pool.
//!
//! The pool itself now lives in `vbs-runtime` ([`vbs_runtime::ScratchPool`])
//! so the runtime's parallel decode lanes and the scheduler layer recycle
//! through **one** free-list: staging buffers evicted from any fabric's
//! decode cache feed the next decode anywhere — including the controllers'
//! persistent [`vbs_runtime::DecodeWorkerPool`] lanes, which also park
//! their [`vbs_core::DecodeScratch`] arenas here. The scheduler-facing name
//! is kept for compatibility.

pub use vbs_runtime::{ScratchPool as BitstreamPool, ScratchPoolStats as PoolStats};
