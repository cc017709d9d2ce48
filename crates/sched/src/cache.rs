//! Byte-budgeted two-tier cache of task bit-streams.
//!
//! De-virtualizing a Virtual Bit-Stream is the dominant cost of a run-time
//! load (Section II-C). The decoded image of a task is position independent
//! — the *same* raw frames are written wherever the task lands — so repeated
//! loads of one task can reuse a cached [`TaskBitstream`] and skip decoding
//! entirely. The cache is keyed by `(task name, architecture spec)` so a
//! repository holding streams for several fabrics never aliases.
//!
//! At production fabric sizes the decoded arenas dominate memory (a 100×100
//! image is ~3 orders of magnitude larger than its compressed VBS), so the
//! cache holds two tiers under a [`CacheBudget`]:
//!
//! - **Hot** entries keep the decoded `FrameStore` arena — a hit is a
//!   zero-cost `Arc` clone.
//! - **Warm** entries keep only the compressed VBS bytes — a hit re-decodes
//!   them where the repository stores them, on the fabric controller's
//!   scratch (allocation-free once it is warm), and counts as
//!   a miss in the hit/miss counters. The cache books their size; it holds
//!   no copy.
//!
//! Under byte pressure a hot entry is *demoted* to warm instead of evicted
//! outright: its decode cost is preserved as metadata and its compressed
//! bytes stay resident, so the next load pays a cheap pooled re-decode
//! rather than a repository round-trip of unknown cost. A cost model —
//! measured decode micros × observed hit count per decoded byte — picks
//! demotion victims, so expensive-to-decode, frequently-hit tasks keep
//! their hot slots. The byte budget is the only way to size the cache: with
//! both budgets unbounded (the default) every stream decoded once stays
//! hot, nothing is ever demoted and the warm tier stays empty.

use std::sync::Arc;
use vbs_arch::ArchSpec;
use vbs_bitstream::TaskBitstream;

/// Byte budgets of the two cache tiers. `0` means **unbounded**; the
/// default is unbounded on both tiers, which keeps every decoded stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheBudget {
    /// Byte budget of the hot tier (decoded arenas + their compressed
    /// bytes). 0 = unbounded.
    pub hot_bytes: u64,
    /// Byte budget of the warm tier (compressed bytes only). 0 = unbounded.
    pub warm_bytes: u64,
}

impl CacheBudget {
    /// An explicitly unbounded budget (the default).
    pub const UNBOUNDED: CacheBudget = CacheBudget {
        hot_bytes: 0,
        warm_bytes: 0,
    };

    /// Whether both tiers are unbounded — no entry is ever demoted or
    /// dropped.
    pub fn is_unbounded(&self) -> bool {
        self.hot_bytes == 0 && self.warm_bytes == 0
    }
}

/// The outcome of a cache lookup.
#[derive(Debug, Clone)]
pub enum CacheLookup {
    /// The decoded arena is resident: use it directly.
    Hot(Arc<TaskBitstream>),
    /// The entry is known but holds only compressed bytes: re-decode
    /// on a pooled scratch. Counted as a miss plus a `warm_hits` bump.
    Warm,
    /// Nothing cached.
    Miss,
}

/// What an insert displaced, so callers can recycle buffers and record
/// telemetry. `displaced` carries every decoded arena the insert released —
/// replaced images, surplus decodes and demoted entries — for
/// [`vbs_runtime::ReconfigurationController::recycle`] to hand back to the
/// controller's scratch pool; it is empty (no allocation) on the common
/// pressure-free insert.
#[derive(Debug, Default)]
pub struct InsertOutcome {
    /// Decoded arenas released by this insert (recycle these).
    pub displaced: Vec<Arc<TaskBitstream>>,
    /// Hot entries that fell back to their compressed bytes.
    pub demoted: u64,
    /// Whether this insert gave a previously-warm entry its arena back.
    pub promoted: bool,
}

/// Hit/miss counters and byte accounting of a [`DecodeCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Loads served from a resident decoded arena (hot hits).
    pub hits: u64,
    /// Loads that had to decode (true misses **and** warm hits).
    pub misses: u64,
    /// The subset of `misses` that found compressed bytes resident and
    /// re-decoded on a pooled scratch.
    pub warm_hits: u64,
    /// Hot entries currently cached (decoded arenas).
    pub entries: usize,
    /// Warm entries currently cached (compressed bytes only).
    pub warm_entries: usize,
    /// Bytes held by the hot tier (decoded arenas + compressed bytes).
    pub hot_bytes: u64,
    /// Bytes held by the warm tier (compressed bytes).
    pub warm_bytes: u64,
    /// Total hot→warm transitions.
    pub demotions: u64,
    /// Total warm→hot transitions.
    pub promotions: u64,
    /// Inserts the admission gate held in the warm tier because the hot
    /// tier was full of higher-value entries.
    pub warm_admissions: u64,
}

impl CacheStats {
    /// Hot-hit rate in `[0, 1]`; 0 when nothing was looked up yet. Warm
    /// hits count as misses here (they pay a decode).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }

    /// Total bytes resident across both tiers.
    pub fn resident_bytes(&self) -> u64 {
        self.hot_bytes + self.warm_bytes
    }
}

#[derive(Debug)]
struct Entry {
    name: String,
    spec: ArchSpec,
    /// The decoded arena; `None` = warm (compressed bytes only).
    task: Option<Arc<TaskBitstream>>,
    /// Size of the compressed VBS bytes, booked in both tiers (hot entries
    /// keep them for demotion; warm entries are nothing but them).
    compressed_bytes: u64,
    /// Size of the decoded arena, remembered across demotion for the cost
    /// model and promotion accounting.
    decoded_bytes: u64,
    /// Measured decode cost of this task (microseconds, latest observed).
    decode_micros: u64,
    /// Lookups that found this entry (any tier).
    hits: u64,
    last_used: u64,
}

impl Entry {
    fn is_hot(&self) -> bool {
        self.task.is_some()
    }

    fn bytes(&self) -> u64 {
        match &self.task {
            Some(_) => self.decoded_bytes + self.compressed_bytes,
            None => self.compressed_bytes,
        }
    }

    /// The cost model's notion of how much this entry is worth keeping:
    /// measured decode cost × observed hit frequency. Compared per byte via
    /// cross-multiplication, so no floats enter the eviction order.
    fn value(&self) -> u128 {
        self.decode_micros.max(1) as u128 * (self.hits + 1) as u128
    }
}

/// Returns whether `a` is a poorer keep than `b` — lower value density
/// (value per byte at stake), ties broken LRU-first.
fn poorer(a: &Entry, b: &Entry, at_stake: impl Fn(&Entry) -> u64) -> bool {
    let lhs = a.value() * at_stake(b).max(1) as u128;
    let rhs = b.value() * at_stake(a).max(1) as u128;
    lhs < rhs || (lhs == rhs && a.last_used < b.last_used)
}

/// Hot-admission hysteresis: when the hot tier is over budget, a candidate
/// must be worth at least this many times the poorest incumbent's value
/// density before it may displace it. Without the margin, two entries of
/// near-equal density flip-flop across the tier boundary — every flip is a
/// full re-decode — because each promotion demotes the other and a warm
/// hit bumps the demoted entry right back over the line.
const ADMISSION_MARGIN: u128 = 2;

/// A two-tier (hot decoded / warm compressed) cache of task bit-streams
/// keyed by `(task, spec)`, byte-budgeted on both tiers (see the module
/// docs).
#[derive(Debug)]
pub struct DecodeCache {
    budget: CacheBudget,
    entries: Vec<Entry>,
    hits: u64,
    misses: u64,
    warm_hits: u64,
    demotions: u64,
    promotions: u64,
    warm_admissions: u64,
    clock: u64,
}

impl DecodeCache {
    /// Creates an empty cache under `budget` (0 bytes on a tier =
    /// unbounded).
    pub fn new(budget: CacheBudget) -> Self {
        DecodeCache {
            budget,
            entries: Vec::new(),
            hits: 0,
            misses: 0,
            warm_hits: 0,
            demotions: 0,
            promotions: 0,
            warm_admissions: 0,
            clock: 0,
        }
    }

    /// The configured tier budgets.
    pub fn budget(&self) -> CacheBudget {
        self.budget
    }

    /// Looks up `(name, spec)`, refreshing its LRU stamp and counting a
    /// hot hit, a warm hit (a miss + `warm_hits`), or a miss.
    pub fn get(&mut self, name: &str, spec: &ArchSpec) -> CacheLookup {
        self.clock += 1;
        let clock = self.clock;
        match self
            .entries
            .iter_mut()
            .find(|e| e.name == name && e.spec == *spec)
        {
            Some(entry) => {
                entry.last_used = clock;
                entry.hits += 1;
                match &entry.task {
                    Some(task) => {
                        self.hits += 1;
                        CacheLookup::Hot(Arc::clone(task))
                    }
                    None => {
                        self.misses += 1;
                        self.warm_hits += 1;
                        CacheLookup::Warm
                    }
                }
            }
            None => {
                self.misses += 1;
                CacheLookup::Miss
            }
        }
    }

    /// Inserts (or replaces, or promotes) the decoded stream of
    /// `(name, spec)` together with the size of its compressed bytes and
    /// the measured decode cost, then enforces both byte budgets.
    /// A `compressed_bytes` of 0 keeps the size already booked.
    ///
    /// Under an unbounded budget the stream simply becomes hot. Under a
    /// finite budget the cost model gates admission — a stream whose value
    /// density does not clearly beat the poorest hot incumbent (by the
    /// factor `ADMISSION_MARGIN`, 2) lands in (or stays in) the warm tier
    /// instead of churning the hot set — and byte pressure demotes
    /// minimum-score hot entries then drops minimum-score warm entries
    /// until both tiers fit.
    pub fn insert(
        &mut self,
        name: &str,
        spec: ArchSpec,
        task: Arc<TaskBitstream>,
        compressed_bytes: u64,
        decode_micros: u64,
    ) -> InsertOutcome {
        let mut outcome = InsertOutcome::default();
        self.clock += 1;
        let decoded_bytes = task.size_bytes();
        if let Some(index) = self
            .entries
            .iter()
            .position(|e| e.name == name && e.spec == spec)
        {
            let (was_hot, accrued_value, resident_compressed) = {
                let entry = &self.entries[index];
                (
                    entry.is_hot(),
                    decode_micros.max(1) as u128 * (entry.hits + 1) as u128,
                    entry.compressed_bytes,
                )
            };
            let promote =
                was_hot || self.deserves_hot(decoded_bytes, resident_compressed, accrued_value);
            if promote {
                if self.entries[index].task.is_none() {
                    self.promotions += 1;
                    outcome.promoted = true;
                }
                if let Some(displaced) = self.entries[index].task.replace(task) {
                    outcome.displaced.push(displaced);
                }
            } else {
                // The cost model held the entry warm: the freshly decoded
                // arena is surplus, but the warm hit still refreshed the
                // entry's cost metadata below.
                self.warm_admissions += 1;
                outcome.displaced.push(task);
            }
            let entry = &mut self.entries[index];
            if compressed_bytes != 0 {
                entry.compressed_bytes = compressed_bytes;
            }
            entry.decoded_bytes = decoded_bytes;
            entry.decode_micros = decode_micros;
            entry.last_used = self.clock;
        } else {
            let admit = self.deserves_hot(
                decoded_bytes,
                compressed_bytes,
                decode_micros.max(1) as u128,
            );
            let task = if admit {
                Some(task)
            } else {
                self.warm_admissions += 1;
                outcome.displaced.push(task);
                None
            };
            self.entries.push(Entry {
                name: name.to_string(),
                spec,
                task,
                compressed_bytes,
                decoded_bytes,
                decode_micros,
                hits: 0,
                last_used: self.clock,
            });
        }
        self.enforce_budget(&mut outcome);
        outcome
    }

    /// The cost model's hot-admission gate: whether a stream of
    /// `decoded_bytes`/`compressed_len` shape and `value`
    /// (decode-micros × hit-frequency, see [`Entry::value`]) deserves a hot
    /// slot right now. Admission is free under an unbounded budget or while
    /// the hot tier has byte headroom; under pressure the candidate must
    /// beat the poorest incumbent's value density by [`ADMISSION_MARGIN`]×
    /// to displace it, otherwise it belongs in the warm tier.
    fn deserves_hot(&self, decoded_bytes: u64, compressed_len: u64, value: u128) -> bool {
        if self.budget.is_unbounded() || self.budget.hot_bytes == 0 {
            return true;
        }
        if self.hot_bytes_used() + decoded_bytes + compressed_len <= self.budget.hot_bytes {
            return true;
        }
        let Some(victim) = self.min_score_index(|e| e.is_hot(), |e| e.decoded_bytes) else {
            return true;
        };
        let victim = &self.entries[victim];
        value * u128::from(victim.decoded_bytes.max(1))
            >= ADMISSION_MARGIN * victim.value() * u128::from(decoded_bytes.max(1))
    }

    /// Drops the decoded arena of entry `index`, keeping its compressed
    /// bytes and cost metadata.
    fn demote(&mut self, index: usize, outcome: &mut InsertOutcome) {
        let entry = &mut self.entries[index];
        if let Some(task) = entry.task.take() {
            outcome.displaced.push(task);
            self.demotions += 1;
            outcome.demoted += 1;
        }
    }

    /// Demotes minimum-score hot entries until the hot tier fits its
    /// budget, then drops minimum-score warm entries until the warm tier
    /// fits its budget.
    fn enforce_budget(&mut self, outcome: &mut InsertOutcome) {
        if self.budget.hot_bytes > 0 {
            while self.hot_bytes_used() > self.budget.hot_bytes {
                let victim = self.min_score_index(|e| e.is_hot(), |e| e.decoded_bytes);
                let Some(index) = victim else { break };
                self.demote(index, outcome);
            }
        }
        if self.budget.warm_bytes > 0 {
            while self.warm_bytes_used() > self.budget.warm_bytes {
                let victim = self.min_score_index(|e| !e.is_hot(), |e| e.compressed_bytes);
                let Some(index) = victim else { break };
                self.entries.swap_remove(index);
            }
        }
    }

    /// Index of the poorest-scoring entry among those matching `tier`,
    /// scoring value per `at_stake` byte.
    fn min_score_index(
        &self,
        tier: impl Fn(&Entry) -> bool,
        at_stake: impl Fn(&Entry) -> u64 + Copy,
    ) -> Option<usize> {
        let mut poorest: Option<usize> = None;
        for (index, entry) in self.entries.iter().enumerate() {
            if !tier(entry) {
                continue;
            }
            match poorest {
                None => poorest = Some(index),
                Some(best) => {
                    if poorer(entry, &self.entries[best], at_stake) {
                        poorest = Some(index);
                    }
                }
            }
        }
        poorest
    }

    fn hot_count(&self) -> usize {
        self.entries.iter().filter(|e| e.is_hot()).count()
    }

    fn hot_bytes_used(&self) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.is_hot())
            .map(Entry::bytes)
            .sum()
    }

    fn warm_bytes_used(&self) -> u64 {
        self.entries
            .iter()
            .filter(|e| !e.is_hot())
            .map(Entry::bytes)
            .sum()
    }

    /// Whether the cache retains *any* state for task `name` — a decoded
    /// arena or warm compressed bytes. Shard policies use this for cache
    /// affinity: a warm entry still makes the fabric the cheap place to
    /// route the task (pooled re-decode beats a cold repository miss).
    pub fn retains_name(&self, name: &str) -> bool {
        self.entries.iter().any(|e| e.name == name)
    }

    /// Drops every entry of task `name` (all specs, both tiers). Required
    /// after a repository re-registers a different stream under an existing
    /// name.
    pub fn invalidate(&mut self, name: &str) {
        self.entries.retain(|e| e.name != name);
    }

    /// Current counters and byte accounting.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            warm_hits: self.warm_hits,
            entries: self.hot_count(),
            warm_entries: self.entries.len() - self.hot_count(),
            hot_bytes: self.hot_bytes_used(),
            warm_bytes: self.warm_bytes_used(),
            demotions: self.demotions,
            promotions: self.promotions,
            warm_admissions: self.warm_admissions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbs_arch::Coord;

    fn task(bit: usize) -> Arc<TaskBitstream> {
        let mut t = TaskBitstream::empty(ArchSpec::paper_example(), 2, 2);
        t.frame_mut(Coord::new(0, 0)).set_bit(bit, true);
        Arc::new(t)
    }

    fn hot(lookup: CacheLookup) -> Option<Arc<TaskBitstream>> {
        match lookup {
            CacheLookup::Hot(task) => Some(task),
            _ => None,
        }
    }

    #[test]
    fn hit_after_insert_and_lru_eviction() {
        let spec = ArchSpec::paper_example();
        let mut cache = DecodeCache::new(CacheBudget::UNBOUNDED);
        assert!(hot(cache.get("a", &spec)).is_none());
        assert!(cache.insert("a", spec, task(1), 4, 10).displaced.is_empty());
        assert!(cache.insert("b", spec, task(2), 4, 10).displaced.is_empty());
        let a = hot(cache.get("a", &spec)).expect("hot hit");
        assert!(a.frame(Coord::new(0, 0)).bit(1));
        assert!(hot(cache.get("b", &spec)).is_some());
        assert!(matches!(cache.get("c", &spec), CacheLookup::Miss));
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.warm_entries, 0);
        assert_eq!(stats.warm_hits, 0);
        assert!((stats.hit_rate() - 2.0 / 4.0).abs() < 1e-9);
    }

    #[test]
    fn different_specs_do_not_alias() {
        let a = ArchSpec::paper_example();
        let b = ArchSpec::paper_evaluation();
        let mut cache = DecodeCache::new(CacheBudget::UNBOUNDED);
        cache.insert("t", a, task(1), 4, 10);
        assert!(hot(cache.get("t", &b)).is_none());
        assert!(hot(cache.get("t", &a)).is_some());
    }

    #[test]
    fn byte_pressure_demotes_poorest_scoring_entry() {
        let spec = ArchSpec::paper_example();
        let arena = task(1).size_bytes();
        // Room for exactly two hot entries (arena + 8 compressed bytes each).
        let budget = CacheBudget {
            hot_bytes: 2 * (arena + 8),
            warm_bytes: 0,
        };
        let mut cache = DecodeCache::new(budget);
        cache.insert("cheap", spec, task(1), 8, 1);
        cache.insert("dear", spec, task(2), 8, 1_000);
        // "dear" is worth more per byte; the third insert demotes "cheap"
        // even though "dear" is older in LRU order.
        cache.get("cheap", &spec);
        let outcome = cache.insert("c", spec, task(3), 8, 1_000);
        assert_eq!(outcome.demoted, 1);
        assert!(matches!(cache.get("cheap", &spec), CacheLookup::Warm));
        assert!(hot(cache.get("dear", &spec)).is_some());
        let stats = cache.stats();
        assert!(stats.hot_bytes <= budget.hot_bytes);
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.warm_entries, 1);
    }

    #[test]
    fn warm_pressure_drops_entries_and_budget_holds() {
        let spec = ArchSpec::paper_example();
        let arena = task(1).size_bytes();
        let budget = CacheBudget {
            hot_bytes: arena + 16,
            warm_bytes: 20,
        };
        let mut cache = DecodeCache::new(budget);
        for (i, name) in ["a", "b", "c", "d"].iter().enumerate() {
            cache.insert(name, spec, task(i + 1), 16, 10);
            let stats = cache.stats();
            assert!(stats.hot_bytes <= budget.hot_bytes, "hot over budget");
            assert!(stats.warm_bytes <= budget.warm_bytes, "warm over budget");
        }
        let stats = cache.stats();
        // One hot slot, one warm slot (16 of 20 bytes); the rest dropped.
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.warm_entries, 1);
        assert!(stats.resident_bytes() <= budget.hot_bytes + budget.warm_bytes);
    }

    #[test]
    fn warm_hits_earn_promotion_through_the_admission_gate() {
        let spec = ArchSpec::paper_example();
        let arena = task(1).size_bytes();
        let budget = CacheBudget {
            hot_bytes: arena + 8,
            warm_bytes: 0,
        };
        let mut cache = DecodeCache::new(budget);
        cache.insert("a", spec, task(1), 8, 10);
        // "b" does not clearly beat "a" on value density, so the admission
        // gate holds it warm instead of churning the single hot slot.
        let outcome = cache.insert("b", spec, task(2), 8, 10);
        assert!(!outcome.promoted);
        assert_eq!(outcome.demoted, 0);
        assert_eq!(outcome.displaced.len(), 1, "surplus arena handed back");
        assert_eq!(cache.stats().entries, 1, "\"a\" keeps the hot slot");
        assert_eq!(cache.stats().warm_entries, 1);
        // A warm hit accrues value; the re-decode's insert now clears the
        // admission margin over the hitless incumbent and earns the slot.
        assert!(matches!(cache.get("b", &spec), CacheLookup::Warm));
        let outcome = cache.insert("b", spec, task(2), 8, 10);
        assert!(outcome.promoted);
        assert_eq!(outcome.demoted, 1, "\"a\" fell back to warm");
        assert!(hot(cache.get("b", &spec)).is_some());
        let stats = cache.stats();
        assert_eq!(stats.promotions, 1);
        assert_eq!(stats.warm_admissions, 1);
        assert!(stats.hot_bytes <= budget.hot_bytes);
    }

    #[test]
    fn invalidate_drops_both_tiers() {
        let spec = ArchSpec::paper_example();
        let arena = task(1).size_bytes();
        let budget = CacheBudget {
            hot_bytes: arena + 8,
            warm_bytes: 0,
        };
        let mut cache = DecodeCache::new(budget);
        cache.insert("a", spec, task(1), 8, 10);
        // The admission gate lands "b" in the warm tier ("a" holds the slot).
        cache.insert("b", spec, task(2), 8, 10);
        assert!(cache.retains_name("b"));
        assert_eq!(cache.stats().warm_entries, 1, "\"b\" is held warm");
        cache.invalidate("b");
        assert!(!cache.retains_name("b"));
        assert!(matches!(cache.get("b", &spec), CacheLookup::Miss));
        assert_eq!(cache.stats().entries, 1, "hot \"a\" untouched so far");
        cache.invalidate("a");
        assert!(matches!(cache.get("a", &spec), CacheLookup::Miss));
    }
}
