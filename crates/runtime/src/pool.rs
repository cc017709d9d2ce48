//! The recycled decode state of one reconfiguration controller:
//! decoded-image buffers **and** its decode scratch arena.
//!
//! De-virtualizing a stream needs one decoded-image buffer per load plus one
//! [`DecodeScratch`]; those are the two biggest allocations of the hot path
//! (`width · height` frames in one word arena, and the cluster patterns and
//! search state the scratch derives). The pool keeps both:
//!
//! * **Buffers** — staging images checked out by a load come back when the
//!   load ends, or when a decode cache evicts them
//!   ([`ReconfigurationController::recycle`](crate::ReconfigurationController::recycle)),
//!   and [`TaskBitstream::reset`] reshapes a recycled buffer in place, so
//!   steady-state decoding recycles memory instead of allocating it.
//! * **Scratch** — the one [`DecodeScratch`] every decode of the controller
//!   runs on. Decodes run one at a time on the caller's thread, so after
//!   warm-up no load allocates again.
//!
//! The pool is a plain field of its controller: each fabric decodes on its
//! own, and nothing is shared or locked.

use std::sync::Arc;
use vbs_arch::ArchSpec;
use vbs_bitstream::TaskBitstream;
use vbs_core::DecodeScratch;
use vbs_telemetry::{EventKind, Telemetry};

/// Buffers a pool parks at most; returns beyond that are dropped.
const CAPACITY: usize = 32;

/// Counters of a [`ScratchPool`]'s lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchPoolStats {
    /// Buffer checkouts served by a recycled buffer (no allocation).
    pub reused: u64,
    /// Buffer checkouts that had to allocate a fresh buffer.
    pub fresh: u64,
    /// Buffers returned to the pool.
    pub recycled: u64,
    /// Buffer returns dropped because the pool was full or the buffer was
    /// still shared (an `Arc` with other owners cannot be recycled).
    pub dropped: u64,
    /// Buffers currently parked in the pool.
    pub parked: usize,
}

/// A bounded free-list of decoded-image buffers plus the decode scratch
/// arena (see the module docs).
#[derive(Debug, Default)]
pub struct ScratchPool {
    buffers: Vec<TaskBitstream>,
    /// The scratch every decode runs on.
    pub(crate) scratch: DecodeScratch,
    /// Lifetime counters; `parked` is read off `buffers` instead.
    counts: ScratchPoolStats,
}

impl ScratchPool {
    /// Checks a buffer out of the pool, reshaped in place to an all-empty
    /// `width` × `height` task of `spec`; allocates a fresh buffer when the
    /// pool is empty. Preference goes to the parked buffer whose frame count
    /// matches the request (reshaping it is free). Records a
    /// [`EventKind::CheckoutHit`] or [`EventKind::CheckoutMiss`] under
    /// `fabric`.
    pub(crate) fn checkout(
        &mut self,
        spec: ArchSpec,
        width: u16,
        height: u16,
        telemetry: &Telemetry,
        fabric: u16,
    ) -> TaskBitstream {
        let wanted = width as usize * height as usize;
        let pick = self
            .buffers
            .iter()
            .position(|b| b.spec() == &spec && b.macro_count() == wanted)
            .or_else(|| self.buffers.len().checked_sub(1));
        match pick {
            Some(i) => {
                let mut buffer = self.buffers.swap_remove(i);
                self.counts.reused += 1;
                telemetry.event(EventKind::CheckoutHit, fabric, 0, 0);
                buffer.reset(spec, width, height);
                buffer
            }
            None => {
                self.counts.fresh += 1;
                telemetry.event(EventKind::CheckoutMiss, fabric, 0, 0);
                TaskBitstream::empty(spec, width, height)
            }
        }
    }

    /// Returns a buffer to the pool (dropped silently when full).
    pub(crate) fn put(&mut self, buffer: TaskBitstream) {
        if self.buffers.len() < CAPACITY {
            self.counts.recycled += 1;
            self.buffers.push(buffer);
        } else {
            self.counts.dropped += 1;
        }
    }

    /// Recycles a shared decoded image if this is its last owner.
    pub(crate) fn recycle(&mut self, image: Arc<TaskBitstream>) {
        match Arc::try_unwrap(image) {
            Ok(buffer) => self.put(buffer),
            Err(_still_shared) => self.counts.dropped += 1,
        }
    }

    /// Current counters.
    pub fn stats(&self) -> ScratchPoolStats {
        ScratchPoolStats {
            parked: self.buffers.len(),
            ..self.counts
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbs_arch::Coord;

    fn spec() -> ArchSpec {
        ArchSpec::paper_example()
    }

    fn checkout(pool: &mut ScratchPool, width: u16, height: u16) -> TaskBitstream {
        pool.checkout(spec(), width, height, &Telemetry::disabled(), 0)
    }

    #[test]
    fn checkout_prefers_a_matching_recycled_buffer() {
        let mut pool = ScratchPool::default();
        let mut a = checkout(&mut pool, 3, 3);
        a.frame_mut(Coord::new(1, 1)).set_bit(0, true);
        pool.put(a);
        // A mismatched checkout still reuses (reshaping is free) …
        let b = checkout(&mut pool, 2, 2);
        pool.put(b);
        // … and a matching one is preferred over allocating.
        let b = checkout(&mut pool, 3, 3);
        assert_eq!(b.macro_count(), 9);
        assert_eq!(b.popcount(), 0);
        let stats = pool.stats();
        assert_eq!(stats.fresh, 1);
        assert_eq!(stats.reused, 2);
        assert_eq!(stats.recycled, 2);
        assert_eq!(stats.parked, 0);
    }

    #[test]
    fn recycle_only_reclaims_sole_owners() {
        let mut pool = ScratchPool::default();
        let image = Arc::new(checkout(&mut pool, 2, 2));
        let keep = Arc::clone(&image);
        pool.recycle(image);
        assert_eq!(pool.stats().parked, 0);
        assert_eq!(pool.stats().dropped, 1);
        pool.recycle(keep);
        assert_eq!(pool.stats().parked, 1);
        assert_eq!(pool.stats().recycled, 1);
    }

    #[test]
    fn a_full_pool_drops_further_returns() {
        let mut pool = ScratchPool::default();
        let buffers: Vec<_> = (0..=CAPACITY).map(|_| checkout(&mut pool, 2, 2)).collect();
        buffers.into_iter().for_each(|b| pool.put(b));
        let stats = pool.stats();
        assert_eq!(stats.parked, CAPACITY);
        assert_eq!(stats.recycled, CAPACITY as u64);
        assert_eq!(stats.dropped, 1);
    }

    #[test]
    fn checkouts_record_hit_and_miss_events() {
        let mut pool = ScratchPool::default();
        let telemetry = Telemetry::new();
        let miss = pool.checkout(spec(), 2, 2, &telemetry, 5);
        pool.put(miss);
        let _hit = pool.checkout(spec(), 2, 2, &telemetry, 5);
        let kinds: Vec<_> = telemetry
            .events()
            .iter()
            .map(|e| (e.kind, e.fabric))
            .collect();
        assert_eq!(
            kinds,
            vec![(EventKind::CheckoutMiss, 5), (EventKind::CheckoutHit, 5)]
        );
    }
}
