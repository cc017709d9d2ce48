//! A bounded ring buffer of pipeline [`Event`]s.
//!
//! The ring holds the most recent `capacity` events; older entries are
//! overwritten in place, so steady-state recording never allocates (the
//! slot array is preallocated and events are `Copy`). Sequence numbers are
//! assigned under the same short lock that publishes the slot, making the
//! total event count exact and snapshots globally ordered even with many
//! concurrent writers (any threads sharing one registry).

use crate::event::Event;
use std::sync::Mutex;

/// Counters describing a ring's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RingStats {
    /// Events recorded since creation (sequence numbers are `0..recorded`).
    pub recorded: u64,
    /// Events currently retained (`min(recorded, capacity)`).
    pub retained: usize,
    /// Retention bound.
    pub capacity: usize,
}

#[derive(Debug)]
struct RingInner {
    /// Slot array, preallocated to `capacity` (grows only during the first
    /// lap, via pushes into reserved capacity — never reallocates).
    slots: Vec<Event>,
    /// Index the next event lands in once the ring has wrapped.
    head: usize,
    /// Total events recorded; doubles as the next sequence number.
    seq: u64,
}

/// A bounded, thread-safe event ring (see the module docs).
#[derive(Debug)]
pub struct EventRing {
    inner: Mutex<RingInner>,
    capacity: usize,
}

impl EventRing {
    /// Creates a ring retaining the most recent `capacity` events
    /// (0 disables retention: events still count, nothing is kept).
    pub fn new(capacity: usize) -> Self {
        EventRing {
            inner: Mutex::new(RingInner {
                slots: Vec::with_capacity(capacity),
                head: 0,
                seq: 0,
            }),
            capacity,
        }
    }

    /// Records one event, stamping its sequence number. Returns the
    /// sequence assigned. Allocation-free.
    pub fn record(&self, mut event: Event) -> u64 {
        let mut inner = self.inner.lock().expect("event ring never poisoned");
        let seq = inner.seq;
        event.seq = seq;
        inner.seq += 1;
        if self.capacity > 0 {
            if inner.slots.len() < self.capacity {
                inner.slots.push(event);
            } else {
                let head = inner.head;
                inner.slots[head] = event;
                inner.head = (head + 1) % self.capacity;
            }
        }
        seq
    }

    /// The retained events in sequence order (oldest first). Allocates the
    /// returned vector — an export-time operation, not a hot-path one.
    pub fn snapshot(&self) -> Vec<Event> {
        let inner = self.inner.lock().expect("event ring never poisoned");
        let mut out = Vec::with_capacity(inner.slots.len());
        out.extend_from_slice(&inner.slots[inner.head..]);
        out.extend_from_slice(&inner.slots[..inner.head]);
        out
    }

    /// Current counters.
    pub fn stats(&self) -> RingStats {
        let inner = self.inner.lock().expect("event ring never poisoned");
        RingStats {
            recorded: inner.seq,
            retained: inner.slots.len(),
            capacity: self.capacity,
        }
    }
}
