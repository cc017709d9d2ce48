//! Observability substrate for the VBS runtime stack: per-stage latency
//! histograms and a structured event timeline, all recordable from the
//! decode hot path without a single heap allocation.
//!
//! The run-time manager of the paper is judged on reconfiguration latency
//! and pause behavior; flat counters and means cannot answer *where* a slow
//! load spent its time (queue wait vs decode vs configuration write vs
//! compaction pause) or what its tail looks like. This crate provides the
//! three primitives the scheduler, the reconfiguration controller and the
//! multi-fabric dispatcher record into, plus the exporters that turn a
//! replay into numbers and pictures:
//!
//! * [`Clock`] — a monotonic microsecond time source with a deterministic
//!   [`TestClock`] twin, so span math is unit-testable tick by tick;
//! * [`LatencyHistogram`] — fixed-size, log-bucketed (HDR-style) latency
//!   histograms over preallocated atomic buckets: recording is lock-free
//!   and allocation-free, percentiles (p50/p95/p99/max) come out at read
//!   time;
//! * [`EventRing`] — a bounded ring of structured [`Event`]s (enqueue,
//!   admit, evict, decodes, frame writes, compaction passes, migrations)
//!   with global sequence numbers and timestamps;
//! * [`Telemetry`] — the shared registry handle tying the three together:
//!   one histogram per pipeline [`Stage`], one event ring, one clock, and
//!   two saturating counter slots (the controller's route counts);
//! * exporters — [`metrics_json`] (machine-readable snapshot),
//!   [`summary_table`] (human-readable), and [`chrome_trace`]
//!   (`chrome://tracing` / Perfetto trace-event JSON with one process
//!   track per fabric).
//!
//! [`metrics_json`]: export::metrics_json
//! [`summary_table`]: export::summary_table
//! [`chrome_trace`]: export::chrome_trace

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod event;
pub mod export;
mod hist;
mod registry;
mod ring;

pub use clock::{Clock, MonotonicClock, TestClock};
pub use event::{Event, EventKind, Stage, FLEET_FABRIC};
pub use hist::{HistogramSummary, LatencyHistogram};
pub use registry::Telemetry;
pub use ring::{EventRing, RingStats};
