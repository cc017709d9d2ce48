//! Deterministic fault injection for chaos replays.
//!
//! [`FaultInjector`] implements the runtime's [`FaultHook`] seam from a
//! parsed [`FaultPlan`]: per-write faults keyed by this fabric's
//! configuration-write count (each fabric's writes are sequential, so the
//! count is a deterministic clock whatever order a fleet runs its fabrics
//! in) and whole-fabric outage windows keyed by the replay's logical tick
//! (pushed in by the driver between rounds via
//! [`FaultInjector::set_tick`]).
//! Corrupt-write bit positions are derived from the plan's seed and the
//! write count alone, so two replays of the same plan inject bit-identical
//! faults — the chaos goldens replay twice and diff on exactly that.
//!
//! # Plan format
//!
//! One directive per line; `#` starts a comment:
//!
//! ```text
//! seed 42              # corrupt-bit PRNG seed (default 0)
//! write 17 transient   # the 17th region write is refused, retry succeeds
//! write 23 persistent  # the 23rd region write is refused for good
//! write 31 corrupt     # the 31st write lands, then one bit flips
//! outage 500 900       # fabric offline for ticks 500 ≤ t < 900
//! outage 1200 -        # fabric offline from tick 1200, never recovers
//! ```
//!
//! Write counts are 1-based and count *attempted* region writes on this
//! fabric (loads, scrub rewrites), exactly the calls the controller gates
//! through [`FaultHook::on_region_write`].

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use vbs_arch::Rect;
use vbs_runtime::{FaultAction, FaultHook};
use vbs_telemetry::{EventKind, Telemetry};

/// What a scheduled per-write fault does (see [`FaultPlan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The write is refused; a retry succeeds (unless itself scheduled).
    Transient,
    /// The write is refused; retries keep failing only if scheduled too —
    /// the *error* is reported persistent, steering the scheduler straight
    /// to re-placement.
    Persistent,
    /// The write lands, then one seed-derived bit flips.
    Corrupt,
}

impl FaultKind {
    /// Payload code stamped on [`EventKind::FaultInjected`] events.
    const fn code(self) -> u64 {
        match self {
            FaultKind::Transient => 0,
            FaultKind::Persistent => 1,
            FaultKind::Corrupt => 2,
        }
    }
}

/// A half-open `[from, until)` window of ticks the fabric spends offline;
/// `until == None` means it never recovers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    /// First offline tick.
    pub from: u64,
    /// First tick back online (`None` = never).
    pub until: Option<u64>,
}

/// A parsed fault schedule (see the module docs for the text format).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the corrupt-bit derivation.
    pub seed: u64,
    /// Scheduled per-write faults, keyed by 1-based write count.
    pub writes: BTreeMap<u64, FaultKind>,
    /// Offline windows over the replay's logical ticks.
    pub outages: Vec<Outage>,
}

/// A malformed fault-plan line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlanError {
    /// 1-based line number of the offending directive.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault plan line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for FaultPlanError {}

impl FaultPlan {
    /// Parses the text format of the module docs.
    ///
    /// # Errors
    ///
    /// Returns [`FaultPlanError`] naming the first malformed line.
    pub fn parse(text: &str) -> Result<Self, FaultPlanError> {
        let mut plan = FaultPlan::default();
        for (index, raw) in text.lines().enumerate() {
            let line = index + 1;
            let fail = |message: String| FaultPlanError { line, message };
            let content = raw.split('#').next().unwrap_or("").trim();
            if content.is_empty() {
                continue;
            }
            let mut words = content.split_whitespace();
            let directive = words.next().unwrap_or("");
            let mut arg = |what: &str| {
                words
                    .next()
                    .ok_or_else(|| fail(format!("missing {what}")))
                    .map(str::to_string)
            };
            match directive {
                "seed" => {
                    plan.seed = arg("seed value")?
                        .parse()
                        .map_err(|_| fail("seed must be a u64".into()))?;
                }
                "write" => {
                    let count: u64 = arg("write count")?
                        .parse()
                        .map_err(|_| fail("write count must be a u64".into()))?;
                    if count == 0 {
                        return Err(fail("write counts are 1-based".into()));
                    }
                    let kind = match arg("fault kind")?.as_str() {
                        "transient" => FaultKind::Transient,
                        "persistent" => FaultKind::Persistent,
                        "corrupt" => FaultKind::Corrupt,
                        other => {
                            return Err(fail(format!(
                                "unknown fault kind `{other}` (transient|persistent|corrupt)"
                            )))
                        }
                    };
                    plan.writes.insert(count, kind);
                }
                "outage" => {
                    let from: u64 = arg("outage start tick")?
                        .parse()
                        .map_err(|_| fail("outage start must be a u64".into()))?;
                    let until = match arg("outage end tick (or -)")?.as_str() {
                        "-" => None,
                        tick => Some(
                            tick.parse::<u64>()
                                .map_err(|_| fail("outage end must be a u64 or `-`".into()))?,
                        ),
                    };
                    if until.is_some_and(|u| u <= from) {
                        return Err(fail("outage must end after it starts".into()));
                    }
                    plan.outages.push(Outage { from, until });
                }
                other => return Err(fail(format!("unknown directive `{other}`"))),
            }
            if let Some(extra) = words.next() {
                return Err(fail(format!("trailing `{extra}`")));
            }
        }
        Ok(plan)
    }
}

/// SplitMix64 — the corrupt-bit derivation. Fully determined by its input,
/// which is all the determinism contract needs.
const fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A seeded, deterministic [`FaultHook`]: replays a [`FaultPlan`] against
/// one fabric (see the module docs). Telemetry is optional; when installed,
/// every injected write fault emits an [`EventKind::FaultInjected`] event
/// (`a` = kind code, `b` = write count).
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Attempted region writes on this fabric so far (the write clock).
    writes: AtomicU64,
    /// The replay's logical tick, pushed in by the driver between rounds.
    tick: AtomicU64,
    telemetry: Telemetry,
    fabric: u16,
}

impl FaultInjector {
    /// Creates an injector replaying `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            writes: AtomicU64::new(0),
            tick: AtomicU64::new(0),
            telemetry: Telemetry::disabled(),
            fabric: 0,
        }
    }

    /// Installs the registry injected faults are audited into, tagging
    /// events with `fabric`.
    pub fn set_telemetry(&mut self, telemetry: Telemetry, fabric: u16) {
        self.telemetry = telemetry;
        self.fabric = fabric;
    }

    /// Advances the injector's logical tick (monotonic; outage windows key
    /// on it). Drivers call this alongside their scheduler's `advance_to`.
    pub fn set_tick(&self, tick: u64) {
        self.tick.fetch_max(tick, Ordering::SeqCst);
    }

    /// The injector's current tick.
    pub fn tick(&self) -> u64 {
        self.tick.load(Ordering::SeqCst)
    }

    /// Attempted region writes gated so far.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::SeqCst)
    }

    /// The plan being replayed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

impl FaultHook for FaultInjector {
    fn on_region_write(&self, _region: Rect) -> FaultAction {
        let count = self.writes.fetch_add(1, Ordering::SeqCst) + 1;
        let Some(kind) = self.plan.writes.get(&count) else {
            return FaultAction::Pass;
        };
        self.telemetry
            .event(EventKind::FaultInjected, self.fabric, kind.code(), count);
        match kind {
            FaultKind::Transient => FaultAction::FailTransient,
            FaultKind::Persistent => FaultAction::FailPersistent,
            FaultKind::Corrupt => FaultAction::Corrupt {
                bit: splitmix64(self.plan.seed ^ count),
            },
        }
    }

    fn offline(&self) -> bool {
        let tick = self.tick.load(Ordering::SeqCst);
        self.plan
            .outages
            .iter()
            .any(|o| tick >= o.from && o.until.is_none_or(|u| tick < u))
    }

    fn on_tick(&self, tick: u64) {
        self.set_tick(tick);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_parse_and_reject_malformed_lines() {
        let plan = FaultPlan::parse(
            "# chaos plan\n\
             seed 42\n\
             write 3 transient  # third write bounces\n\
             write 5 persistent\n\
             write 7 corrupt\n\
             \n\
             outage 100 200\n\
             outage 900 -\n",
        )
        .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.writes.len(), 3);
        assert_eq!(plan.writes[&3], FaultKind::Transient);
        assert_eq!(
            plan.outages,
            vec![
                Outage {
                    from: 100,
                    until: Some(200)
                },
                Outage {
                    from: 900,
                    until: None
                }
            ]
        );

        for bad in [
            "write 0 transient",
            "write 3 sideways",
            "outage 5 5",
            "outage 5",
            "writ 3 transient",
            "seed 42 extra",
        ] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert_eq!(err.line, 1, "{bad}: {err}");
        }
    }

    #[test]
    fn injection_is_deterministic_and_tick_gated() {
        let plan = FaultPlan::parse("seed 7\nwrite 2 corrupt\noutage 10 20\n").unwrap();
        let replay = |plan: &FaultPlan| {
            let injector = FaultInjector::new(plan.clone());
            let region = Rect::at_origin(2, 2);
            let first = injector.on_region_write(region);
            let second = injector.on_region_write(region);
            let offline_before = injector.offline();
            injector.set_tick(10);
            let offline_during = injector.offline();
            injector.set_tick(20);
            let offline_after = injector.offline();
            (first, second, offline_before, offline_during, offline_after)
        };
        let a = replay(&plan);
        let b = replay(&plan);
        assert_eq!(a, b, "two runs of one plan must inject identically");
        assert_eq!(a.0, FaultAction::Pass);
        assert!(matches!(a.1, FaultAction::Corrupt { .. }));
        assert!(!a.2);
        assert!(a.3);
        assert!(!a.4);
    }
}
