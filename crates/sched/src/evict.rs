//! Eviction policies: which resident task leaves when the fabric is full.
//!
//! Because a Virtual Bit-Stream can be re-loaded anywhere later, evicting a
//! task is cheap in this architecture — its stream stays in the external
//! memory and (with the decode cache warm) reinstating it costs one memory
//! write pass. That makes preemptive multi-tenant policies practical.

use std::fmt;
use vbs_arch::Rect;

/// What the eviction policy knows about one resident task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResidentInfo {
    /// Scheduler job id of the resident.
    pub job: u64,
    /// Fabric region the task occupies.
    pub region: Rect,
    /// Request priority the task was loaded with (higher = more important).
    pub priority: u8,
    /// Tick the task was loaded at.
    pub loaded_at: u64,
    /// Tick of the last load/touch of this task.
    pub last_used: u64,
}

/// A strategy choosing the eviction victim when a load finds no free region.
pub trait EvictionPolicy: fmt::Debug + Send + Sync {
    /// Short policy name for logs and reports.
    fn name(&self) -> &'static str;

    /// Returns the job id of the most evictable resident, or `None` when
    /// every resident is protected from eviction for this request.
    fn victim(&self, residents: &[ResidentInfo], incoming_priority: u8) -> Option<u64>;
}

/// Evict the least recently used resident first, regardless of priority.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LruEviction;

impl EvictionPolicy for LruEviction {
    fn name(&self) -> &'static str {
        "lru"
    }

    fn victim(&self, residents: &[ResidentInfo], _incoming_priority: u8) -> Option<u64> {
        residents
            .iter()
            .min_by_key(|r| (r.last_used, r.loaded_at, r.job))
            .map(|r| r.job)
    }
}

/// Evict the lowest-priority resident first, and never evict a resident
/// whose priority is at least the incoming request's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PriorityEviction;

impl EvictionPolicy for PriorityEviction {
    fn name(&self) -> &'static str {
        "priority"
    }

    fn victim(&self, residents: &[ResidentInfo], incoming_priority: u8) -> Option<u64> {
        residents
            .iter()
            .filter(|r| r.priority < incoming_priority)
            .min_by_key(|r| (r.priority, r.last_used, r.job))
            .map(|r| r.job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
    use vbs_arch::{Coord, Rect};

    fn resident(job: u64, priority: u8, last_used: u64) -> ResidentInfo {
        ResidentInfo {
            job,
            region: Rect::new(Coord::new(0, 0), 1, 1),
            priority,
            loaded_at: 0,
            last_used,
        }
    }

    #[test]
    fn lru_orders_by_recency() {
        let residents = vec![resident(1, 9, 30), resident(2, 0, 10), resident(3, 5, 20)];
        assert_eq!(LruEviction.victim(&residents, 0), Some(2));
        assert_eq!(LruEviction.victim(&[], 0), None);
    }

    #[test]
    fn priority_protects_equal_or_higher() {
        let residents = vec![resident(1, 3, 30), resident(2, 7, 10), resident(3, 3, 20)];
        assert_eq!(PriorityEviction.victim(&residents, 5), Some(3));
        assert_eq!(PriorityEviction.victim(&residents, 8), Some(3));
        assert_eq!(PriorityEviction.victim(&residents, 3), None);
    }

    proptest! {
        /// 16 resident sets a case, drawn from small ranges so ties are
        /// common: `victim` is the head of the full order the policies
        /// returned before, sorted here as the oracle.
        #[test]
        fn victim_is_the_head_of_the_old_order(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::from_name(&seed.to_string());
            let mut below = |n: u64| rng.next_u64() % n;
            for _ in 0..16 {
                // Distinct job ids in random order.
                let residents: Vec<ResidentInfo> = (0..below(9))
                    .map(|i| ResidentInfo {
                        loaded_at: below(3),
                        ..resident(below(16) * 16 + i, below(4) as u8, below(3))
                    })
                    .collect();
                let incoming = below(5) as u8;
                let mut lru: Vec<&ResidentInfo> = residents.iter().collect();
                lru.sort_by_key(|r| (r.last_used, r.loaded_at, r.job));
                let mut by_priority: Vec<&ResidentInfo> =
                    residents.iter().filter(|r| r.priority < incoming).collect();
                by_priority.sort_by_key(|r| (r.priority, r.last_used, r.job));
                let context = format!("{residents:?} incoming {incoming}");
                prop_assert_eq!(
                    LruEviction.victim(&residents, incoming),
                    lru.first().map(|r| r.job), "{}", context
                );
                prop_assert_eq!(
                    PriorityEviction.victim(&residents, incoming),
                    by_priority.first().map(|r| r.job), "{}", context
                );
            }
        }
    }
}
