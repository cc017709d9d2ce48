//! Replays the checked-in MCNC corpus (`tests/traces/mcnc/` at the
//! workspace root) through the single- and multi-fabric schedulers and
//! compares the counters bit-for-bit against `replay.golden`.
//!
//! The corpus is the standing realism oracle: every stream in it came from
//! a real place/route/encode run over a BLIF-parsed circuit, so a change
//! anywhere in the pipeline (parser, placer, router, encoder, scheduler)
//! that shifts observable behavior shows up here as an explicit counter
//! diff. To update deliberately, rebuild the corpus and commit the diff:
//!
//! ```text
//! cargo run --release -p vbs-bench --bin mcnc_corpus
//! ```
//!
//! See `crates/sched/README.md` for the full workflow.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use vbs_arch::Rect;
use vbs_sched::{
    CacheBudget, CacheStats, McncCorpus, Outcome, Request, SchedMetrics, Scheduler,
    SchedulerConfig, TraceOp,
};
use vbs_telemetry::{EventKind, MonotonicClock, Stage, Telemetry};

fn corpus() -> McncCorpus {
    McncCorpus::load(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/traces/mcnc"
    ))
    .expect("checked-in corpus loads")
}

#[test]
fn corpus_covers_at_least_five_circuits() {
    let corpus = corpus();
    // Distinct Table II circuits (variants collapse onto their base name).
    let circuits: HashSet<&str> = corpus
        .tasks
        .iter()
        .map(|t| t.name.split('@').next().unwrap())
        .collect();
    assert!(
        circuits.len() >= 5,
        "corpus must span at least five MCNC circuits, got {circuits:?}"
    );
    // Every manifest task has a non-empty stream behind it.
    for task in &corpus.tasks {
        let size = corpus
            .repository
            .stored_size(&task.name)
            .unwrap_or_else(|| panic!("task `{}` missing from repository", task.name));
        assert!(size > 0, "task `{}` has an empty stream", task.name);
    }
}

#[test]
fn replay_counters_match_golden() {
    let corpus = corpus();
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/traces/mcnc/replay.golden"
    );
    let text = std::fs::read_to_string(golden_path)
        .unwrap_or_else(|e| panic!("read {golden_path}: {e} — rebuild with the mcnc_corpus bin"));
    let expected: Vec<&str> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let actual = corpus.golden_lines();
    assert_eq!(
        actual, expected,
        "MCNC replay counters drifted from replay.golden — if intended, \
         regenerate with `cargo run --release -p vbs-bench --bin mcnc_corpus`"
    );
}

/// The goldens pin only budget-invariant counters, so replaying under a
/// finite cache budget — tight enough on the hot tier to force real
/// demotions and warm re-decodes, roomy enough on the warm tier to retain
/// every task name for `CacheAffinity` — must reproduce `replay.golden`
/// line for line.
#[test]
fn replay_counters_match_golden_under_finite_cache_budget() {
    let corpus = corpus();
    let budget = CacheBudget {
        hot_bytes: 24 * 1024,
        warm_bytes: 64 * 1024,
    };
    let config = SchedulerConfig {
        cache_budget: budget,
        ..McncCorpus::replay_config()
    };
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/traces/mcnc/replay.golden"
    );
    let text = std::fs::read_to_string(golden_path).expect("golden present");
    let expected: Vec<&str> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let actual = corpus.golden_lines_with(config);
    assert_eq!(
        actual, expected,
        "a finite cache budget changed golden-pinned replay counters"
    );

    // Guard against vacuity: the budget must have actually squeezed the
    // hot tier during at least one replay.
    let mut single = corpus.single_scheduler_with(config);
    let trace = corpus.trace("steady").expect("steady trace present");
    vbs_sched::replay(&mut single, trace);
    let stats = single.cache_stats();
    assert!(stats.hot_bytes <= budget.hot_bytes);
    assert!(stats.warm_bytes <= budget.warm_bytes);
    assert!(
        stats.demotions + stats.warm_admissions > 0 && stats.warm_hits > 0,
        "the 24 KiB hot budget must force hot-tier pressure (demotions or \
         gated admissions) and warm re-decodes on the steady trace: {stats:?}"
    );
}

/// One fabric's counters with the wall-clock fields zeroed, plus the bits
/// of its two `f64` sums (`==` on `f64` takes `-0.0` for `0.0`; the bits
/// do not).
fn clock_free_counters(scheduler: &Scheduler) -> (SchedMetrics, [u64; 2], CacheStats) {
    let metrics = SchedMetrics {
        decode_micros: 0,
        compaction_micros: 0,
        redecode_micros: 0,
        ..scheduler.metrics()
    };
    let sums = [
        metrics.fragmentation_sum.to_bits(),
        metrics.utilization_sum.to_bits(),
    ];
    (metrics, sums, scheduler.cache_stats())
}

/// A live registry retaining every event of a corpus replay.
fn retaining_registry() -> Telemetry {
    Telemetry::with(Arc::new(MonotonicClock::new()), 1 << 16)
}

/// Every decode is recorded exactly once: one `Stage::Decode` sample and
/// one `EventKind::Decode` event per counted decode, none dropped by the
/// ring.
fn assert_decodes_recorded_once(live: &Telemetry, decodes: u64) {
    let stats = live.ring_stats();
    assert!(stats.recorded > 0, "the live registry recorded");
    assert!(stats.recorded <= stats.capacity as u64, "{stats:?}");
    let events = live
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::Decode)
        .count() as u64;
    assert_eq!(live.histogram(Stage::Decode).count(), decodes);
    assert_eq!(events, decodes);
}

/// Installing a live telemetry registry adds spans, histograms and events,
/// never a counter bump: the steady trace replays to the same counters
/// with a disabled registry and with a live one, on the corpus single
/// fabric and on the least-loaded fleet. The live registry holds one
/// decode sample and one decode event per counted decode.
#[test]
fn installing_telemetry_changes_no_counter() {
    let corpus = corpus();
    let trace = corpus.trace("steady").expect("steady trace present");

    let single = |telemetry: Telemetry| {
        let mut scheduler = corpus.single_scheduler();
        scheduler.set_telemetry(telemetry, 0);
        vbs_sched::replay(&mut scheduler, trace);
        clock_free_counters(&scheduler)
    };
    let live = retaining_registry();
    let counters = single(live.clone());
    assert_eq!(single(Telemetry::disabled()), counters);
    assert_decodes_recorded_once(&live, counters.0.decodes);

    let fleet = |telemetry: Telemetry| {
        let mut fleet = corpus
            .fleet_scheduler("least-loaded")
            .expect("least-loaded is a shard policy");
        fleet.set_telemetry(telemetry);
        vbs_sched::replay_multi(&mut fleet, trace);
        let fabrics: Vec<_> = fleet.fabrics().iter().map(clock_free_counters).collect();
        (*fleet.metrics(), fabrics)
    };
    let live = retaining_registry();
    let counters = fleet(live.clone());
    assert_eq!(fleet(Telemetry::disabled()), counters);
    let decodes = counters.1.iter().map(|(m, _, _)| m.decodes).sum();
    assert_decodes_recorded_once(&live, decodes);
}

#[test]
fn variant_trace_swaps_through_every_variant() {
    let corpus = corpus();
    let trace = corpus.trace("variant").expect("variant trace present");
    let swapped: HashSet<&str> = trace
        .events
        .iter()
        .filter_map(|e| match &e.op {
            TraceOp::Swap { task, .. } => Some(task.as_str()),
            _ => None,
        })
        .collect();
    let variants: HashSet<&str> = corpus
        .tasks
        .iter()
        .filter(|t| t.name.contains('@'))
        .map(|t| t.name.as_str())
        .collect();
    assert!(!variants.is_empty(), "corpus carries a variant set");
    for variant in &variants {
        // The initial load covers variants[0]; every other variant must be
        // reached by an on-the-fly swap.
        let initial = trace
            .events
            .iter()
            .any(|e| matches!(&e.op, TraceOp::Load { task, .. } if task == variant));
        assert!(
            swapped.contains(variant) || initial,
            "variant `{variant}` never enters the scenario"
        );
    }
}

/// Area of the largest free rectangle, macro by macro: for every row, a
/// histogram of free run heights and the widest span under every bar. Knows
/// nothing of `FabricView`.
fn largest_free_rect_per_cell(width: u16, height: u16, occupied: &[Rect]) -> u32 {
    let mut heights = vec![0u32; width as usize];
    let mut largest = 0;
    for y in 0..height {
        for (x, h) in heights.iter_mut().enumerate() {
            let at = vbs_arch::Coord::new(x as u16, y);
            *h = if occupied.iter().any(|r| r.contains(at)) {
                0
            } else {
                *h + 1
            };
        }
        for (x, &h) in heights.iter().enumerate() {
            let span = heights[x..].iter().take_while(|&&other| other >= h).count()
                + heights[..x]
                    .iter()
                    .rev()
                    .take_while(|&&other| other >= h)
                    .count();
            largest = largest.max(h * span as u32);
        }
    }
    largest
}

/// The scheduler's fragmentation and utilization sums are the same `f64`s,
/// added in the same order, as a per-macro sweep of the loaded regions after
/// every processed request gives.
#[test]
fn sampled_sums_match_a_per_cell_resample() {
    let corpus = corpus();
    let (width, height) = corpus.single;
    let total = width as u32 * height as u32;
    for name in ["steady", "variant"] {
        let trace = corpus.trace(name).expect("corpus trace");
        let mut sched = corpus.single_scheduler();
        let (mut fragmentation_sum, mut utilization_sum, mut samples) = (0.0f64, 0.0f64, 0u64);
        let mut jobs: HashMap<u64, u64> = HashMap::new();
        // One request per round, so that every sample can be retaken.
        let mut step = |sched: &mut vbs_sched::Scheduler, request: Request| {
            let outcome = sched.execute(request);
            let occupied: Vec<Rect> = sched
                .manager()
                .loaded_tasks()
                .iter()
                .map(|t| t.region)
                .collect();
            let free = total - occupied.iter().map(Rect::area).sum::<u32>();
            let largest = largest_free_rect_per_cell(width, height, &occupied);
            fragmentation_sum += match free {
                0 => 0.0,
                _ => 1.0 - largest as f64 / free as f64,
            };
            utilization_sum += 1.0 - free as f64 / total as f64;
            samples += 1;
            outcome
        };
        for event in &trace.events {
            sched.advance_to(event.tick);
            let (job, load) = match &event.op {
                TraceOp::Unload { job } => (job, None),
                TraceOp::Load {
                    job,
                    task,
                    priority,
                    deadline,
                }
                | TraceOp::Swap {
                    job,
                    task,
                    priority,
                    deadline,
                } => (job, Some((task, priority, deadline))),
            };
            if !matches!(event.op, TraceOp::Load { .. }) {
                if let Some(resident) = jobs.remove(job) {
                    step(&mut sched, Request::Unload { job: resident });
                }
            }
            if let Some((task, &priority, &deadline)) = load {
                let request = Request::Load {
                    task: task.clone(),
                    priority,
                    deadline,
                };
                if let Outcome::Loaded { job: resident, .. } = step(&mut sched, request) {
                    jobs.insert(*job, resident);
                }
            }
        }
        let metrics = sched.metrics();
        assert!(
            metrics.evictions > 0 && metrics.fragmentation_sum > 0.0,
            "{name} never fragments the fabric: {metrics:?}"
        );
        assert_eq!(metrics.fragmentation_samples, samples, "{name}");
        assert_eq!(
            metrics.fragmentation_sum.to_bits(),
            fragmentation_sum.to_bits(),
            "{name}: {} vs {fragmentation_sum}",
            metrics.fragmentation_sum
        );
        assert_eq!(
            metrics.utilization_sum.to_bits(),
            utilization_sum.to_bits(),
            "{name}: {} vs {utilization_sum}",
            metrics.utilization_sum
        );
    }
}
