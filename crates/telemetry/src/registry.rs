//! The telemetry registry: one clock, one histogram per stage, one event
//! ring, and a few saturating counter slots, behind one cloneable
//! thread-safe handle.

use crate::clock::{Clock, MonotonicClock};
use crate::event::{Event, EventKind, Stage};
use crate::hist::LatencyHistogram;
use crate::ring::{EventRing, RingStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Number of generic counter slots a registry carries. Embedding crates
/// define their own slot constants over these indices: the runtime's two
/// route counts.
const COUNTER_SLOTS: usize = 2;

#[derive(Debug)]
struct Inner {
    clock: Arc<dyn Clock>,
    /// One histogram per stage, or `None` for a disabled registry: then
    /// span/histogram/event recording is skipped entirely (counters stay
    /// live), and the registry holds no bucket storage at all.
    histograms: Option<[LatencyHistogram; Stage::COUNT]>,
    ring: EventRing,
    /// Lock-free counter slots (see [`Telemetry::counter_add`]).
    counters: [AtomicU64; COUNTER_SLOTS],
}

/// The histogram every disabled registry hands out: allocated once per
/// process, on first read, and never recorded into.
fn empty_histogram() -> &'static LatencyHistogram {
    static EMPTY: OnceLock<LatencyHistogram> = OnceLock::new();
    EMPTY.get_or_init(LatencyHistogram::new)
}

/// The shared telemetry handle (see the module docs). Cloning shares the
/// registry; all recording is `&self` and thread-safe, so one handle can be
/// held by a scheduler, its controller and a fleet dispatcher at once.
#[derive(Debug, Clone)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// Default ring retention: enough for a full bench replay's pipeline
    /// events without unbounded growth.
    pub const DEFAULT_RING_CAPACITY: usize = 16_384;

    /// A registry on the monotonic clock with the default ring capacity.
    pub fn new() -> Self {
        Telemetry::with(Arc::new(MonotonicClock::new()), Self::DEFAULT_RING_CAPACITY)
    }

    /// A registry with an explicit clock and event-ring retention — tests
    /// install a [`crate::TestClock`] here.
    pub fn with(clock: Arc<dyn Clock>, ring_capacity: usize) -> Self {
        Telemetry {
            inner: Arc::new(Inner {
                clock,
                histograms: Some(std::array::from_fn(|_| LatencyHistogram::new())),
                ring: EventRing::new(ring_capacity),
                counters: Default::default(),
            }),
        }
    }

    /// A registry whose span and event recording is a no-op (counters stay
    /// live). Components hold this by default until a real registry is
    /// installed, so uninstrumented deployments pay one branch per record
    /// and hold no histogram storage.
    pub fn disabled() -> Self {
        Telemetry {
            inner: Arc::new(Inner {
                clock: Arc::new(MonotonicClock::new()),
                histograms: None,
                ring: EventRing::new(0),
                counters: Default::default(),
            }),
        }
    }

    /// Whether span/event recording is live.
    pub fn enabled(&self) -> bool {
        self.inner.histograms.is_some()
    }

    /// Whether two handles share one registry.
    pub fn same_registry(&self, other: &Telemetry) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Microseconds on the registry clock.
    pub fn now(&self) -> u64 {
        self.inner.clock.now_micros()
    }

    // --- Spans & histograms ------------------------------------------------

    /// Records `now - start_micros` into the stage histogram and returns
    /// the elapsed microseconds (measured even when the registry is
    /// disabled, so callers can keep their own counters from it).
    pub fn record_span(&self, stage: Stage, start_micros: u64) -> u64 {
        let elapsed = self.now().saturating_sub(start_micros);
        self.record_micros(stage, elapsed);
        elapsed
    }

    /// Records a measured duration into the stage histogram.
    pub fn record_micros(&self, stage: Stage, micros: u64) {
        if let Some(histograms) = &self.inner.histograms {
            histograms[stage.index()].record(micros);
        }
    }

    /// The stage's histogram. A disabled registry returns one shared empty
    /// histogram for every stage; read it, never record into it.
    pub fn histogram(&self, stage: Stage) -> &LatencyHistogram {
        match &self.inner.histograms {
            Some(histograms) => &histograms[stage.index()],
            None => empty_histogram(),
        }
    }

    // --- Events ------------------------------------------------------------

    /// Records an instant event stamped "now".
    pub fn event(&self, kind: EventKind, fabric: u16, a: u64, b: u64) {
        if !self.enabled() {
            return;
        }
        self.inner.ring.record(Event {
            seq: 0,
            at_micros: self.now(),
            kind,
            fabric,
            a,
            b,
            duration_micros: 0,
        });
    }

    /// Records a span event: timestamped at `start_micros`, lasting until
    /// "now".
    pub fn event_span(&self, kind: EventKind, fabric: u16, a: u64, b: u64, start_micros: u64) {
        if !self.enabled() {
            return;
        }
        self.inner.ring.record(Event {
            seq: 0,
            at_micros: start_micros,
            kind,
            fabric,
            a,
            b,
            duration_micros: self.now().saturating_sub(start_micros),
        });
    }

    /// The retained timeline in sequence order (export-time; allocates).
    pub fn events(&self) -> Vec<Event> {
        self.inner.ring.snapshot()
    }

    /// Ring counters (total recorded vs retained).
    pub fn ring_stats(&self) -> RingStats {
        self.inner.ring.stats()
    }

    // --- Counters ----------------------------------------------------------

    /// Adds to a registry counter slot (one of two), saturating at
    /// `u64::MAX`.
    pub fn counter_add(&self, slot: usize, delta: u64) {
        let _ = self.inner.counters[slot].fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
            Some(c.saturating_add(delta))
        });
    }

    /// Reads a registry counter slot.
    pub fn counter(&self, slot: usize) -> u64 {
        self.inner.counters[slot].load(Ordering::Relaxed)
    }
}
