//! Seeded fleet fault stress: K ∈ {1, 2, 3, 4} fleets replay a synthetic
//! trace while every fabric follows its own random [`FaultPlan`]
//! (transient, persistent and corrupting writes, bounded and open-ended
//! outages), so write retry, re-placement, scrubbing, quarantine,
//! evacuation, degraded re-placement and recovery all run. The fleet
//! invariants are checked after every round and after a final drain, and
//! each seed runs twice and must produce the same tagged outcomes and
//! fleet counters.
//!
//! Seeds are `0..PROPTEST_CASES` (64 by default); a failure names its
//! seed, and the seed alone reproduces the run.

mod common;

use common::{assert_fabric_invariants, fleet, TASKS};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use vbs_runtime::FirstFit;
use vbs_sched::{
    shard_policy_by_name, FaultInjector, FaultPlan, MultiFabricScheduler, MultiMetrics, Outcome,
    Request, SchedMetrics, SchedulerConfig, Trace, TraceOp, WorkloadSpec, SHARD_POLICY_NAMES,
};
use vbs_telemetry::{EventKind, Telemetry};

/// Every fabric is `EDGE` × `EDGE` macros: room for one to six fixture tasks.
const EDGE: u16 = 10;

/// A tick past every outage a plan can schedule: the drain runs here.
const DRAIN_TICK: u64 = 1_000;

/// A random fault plan for one fabric: up to three write faults among the
/// first 25 writes, a bounded outage half the time, and an outage that
/// never ends one time in five.
fn random_plan(rng: &mut SmallRng) -> String {
    let mut plan = format!("seed {}\n", rng.gen_range(0u64..1 << 32));
    for _ in 0..rng.gen_range(0usize..=3) {
        let kind = ["transient", "persistent", "corrupt"][rng.gen_range(0usize..3)];
        plan += &format!("write {} {kind}\n", rng.gen_range(1u64..=25));
    }
    if rng.gen_bool(0.5) {
        let from = rng.gen_range(1u64..=60);
        plan += &format!("outage {from} {}\n", from + rng.gen_range(5u64..=25));
    }
    if rng.gen_bool(0.2) {
        plan += &format!("outage {} -\n", rng.gen_range(10u64..=70));
    }
    plan
}

/// What must repeat exactly between two runs of one seed.
#[derive(Debug, PartialEq)]
struct Run {
    outcomes: Vec<(u64, Outcome)>,
    metrics: MultiMetrics,
    /// Per-fabric counters, wall-clock fields zeroed.
    fabrics: Vec<SchedMetrics>,
}

/// The `multi.rs` invariants after a round: a job is resident on at most
/// one fabric, every reachable fabric keeps its regions disjoint, in
/// bounds and nothing configured outside them, a quarantined fabric holds
/// no residents, and every submitted load has settled with the shard
/// counters summing to the fleet's.
fn assert_fleet_invariants(multi: &MultiFabricScheduler, loads: u64) {
    let mut resident = HashSet::new();
    for (fabric, info) in multi.residents() {
        assert!(
            resident.insert(info.job),
            "job {} resident twice (again on fabric {fabric})",
            info.job
        );
    }
    for (i, fabric) in multi.fabrics().iter().enumerate() {
        if multi.is_quarantined(i) {
            assert!(
                fabric.manager().loaded_tasks().is_empty(),
                "quarantined fabric {i} still books residents"
            );
        } else {
            assert_fabric_invariants(fabric);
        }
    }
    let m = multi.metrics();
    assert_eq!(m.loads_submitted, loads);
    assert_eq!(
        m.loads_accepted + m.loads_rejected,
        loads,
        "a submitted load has not settled: {m:?}"
    );
    let shard_accepted: u64 = multi
        .fabric_metrics()
        .iter()
        .map(|f| f.loads_accepted)
        .sum();
    assert_eq!(
        shard_accepted,
        m.loads_accepted + m.degraded_accepts,
        "every shard acceptance is a fleet acceptance or a re-placement: {m:?}"
    );
    assert!(m.degraded_accepts <= m.residents_requeued, "{m:?}");
}

/// Replays one seed's trace through one seed's faulty fleet, checking the
/// invariants after every round, then drains it.
fn run(seed: u64) -> Run {
    let k = 1 + (seed % 4) as usize;
    let policy = SHARD_POLICY_NAMES[(seed / 4) as usize % SHARD_POLICY_NAMES.len()];
    let config = SchedulerConfig {
        eviction_limit: 1,
        compaction: true,
        verify: true,
        ..SchedulerConfig::default()
    };
    let mut multi = fleet(
        k,
        EDGE,
        EDGE,
        shard_policy_by_name(policy).expect("known shard policy"),
        || Box::new(FirstFit),
        config,
    );
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xf1ee_7500_57e5_5000);
    let plans: Vec<FaultPlan> = (0..k)
        .map(|_| FaultPlan::parse(&random_plan(&mut rng)).expect("generated plan parses"))
        .collect();
    for (i, plan) in plans.iter().enumerate() {
        multi
            .fabric_mut(i)
            .set_fault_hook(Some(Arc::new(FaultInjector::new(plan.clone()))));
    }
    // Quarantine events carry how many residents each evacuation emptied.
    let telemetry = Telemetry::new();
    multi.set_telemetry(telemetry.clone());
    let trace = Trace::synthetic(&WorkloadSpec {
        tasks: TASKS.iter().map(|t| t.0.to_string()).collect(),
        loads: 40,
        mean_interarrival: 2,
        mean_duration: 16,
        priority_levels: 3,
        deadline_slack: None,
        seed,
    });

    // Trace job → fleet-global id of its load.
    let mut global_of: HashMap<u64, u64> = HashMap::new();
    let mut outcomes = Vec::new();
    let mut loads = 0u64;
    let mut index = 0;
    while index < trace.events.len() {
        let tick = trace.events[index].tick;
        multi.advance_to(tick);
        while index < trace.events.len() && trace.events[index].tick == tick {
            match &trace.events[index].op {
                TraceOp::Load {
                    job,
                    task,
                    priority,
                    deadline,
                } => {
                    loads += 1;
                    let global = multi.submit(Request::Load {
                        task: task.clone(),
                        priority: *priority,
                        deadline: *deadline,
                    });
                    global_of.insert(*job, global);
                }
                TraceOp::Unload { job } => {
                    let global = global_of.remove(job).expect("load precedes its unload");
                    multi.submit(Request::Unload { job: global });
                }
                TraceOp::Swap { .. } => unreachable!("synthetic traces hold no swaps"),
            }
            index += 1;
        }
        outcomes.extend(multi.process_pending_tagged());
        assert_fleet_invariants(&multi, loads);
    }

    // Drain past every outage: a bounded one has ended and its fabric
    // rejoins wiped, an open-ended one keeps its fabric quarantined (and
    // unreachable, so its memory is never read back).
    multi.advance_to(DRAIN_TICK);
    outcomes.extend(multi.process_pending_tagged());
    for (_, info) in multi.residents() {
        multi.submit(Request::Unload { job: info.job });
    }
    outcomes.extend(multi.process_pending_tagged());
    assert_fleet_invariants(&multi, loads);
    assert!(multi.residents().is_empty());
    for (i, fabric) in multi.fabrics().iter().enumerate() {
        let dead = plans[i].outages.iter().any(|o| o.until.is_none());
        assert_eq!(multi.is_quarantined(i), dead, "fabric {i}: {:?}", plans[i]);
        assert!(fabric.manager().loaded_tasks().is_empty());
        assert_eq!(
            fabric.manager().fabric_view().free_area(),
            u32::from(EDGE) * u32::from(EDGE)
        );
        if !dead {
            assert_eq!(
                fabric.manager().controller().memory().occupied_macros(),
                0,
                "fabric {i} not blank after the drain"
            );
        }
    }
    // No evacuated resident vanishes: each one is re-queued on a survivor
    // (or, with the whole fleet down, counted as re-queued and lost).
    let events = telemetry.events();
    assert_eq!(events.len() as u64, telemetry.ring_stats().recorded);
    let evacuated: u64 = events
        .iter()
        .filter(|e| e.kind == EventKind::Quarantine)
        .map(|e| e.b)
        .sum();
    assert_eq!(evacuated, multi.metrics().residents_requeued);

    Run {
        outcomes,
        metrics: *multi.metrics(),
        fabrics: multi
            .fabric_metrics()
            .into_iter()
            .map(|mut m| {
                m.decode_micros = 0;
                m.compaction_micros = 0;
                m.redecode_micros = 0;
                m
            })
            .collect(),
    }
}

#[test]
fn seeded_fault_plans_keep_fleet_invariants_and_replay_identically() {
    let seeds = u64::from(proptest::test_runner::cases());
    let mut fleet_total = MultiMetrics::default();
    let (mut faults, mut retries, mut scrubs) = (0u64, 0u64, 0u64);
    for seed in 0..seeds {
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            let first = run(seed);
            assert_eq!(first, run(seed), "two runs of one seed diverge");
            first
        }));
        let first = outcome.unwrap_or_else(|cause| {
            eprintln!("fleet stress failed at seed {seed} (K = {})", 1 + seed % 4);
            panic::resume_unwind(cause)
        });
        let m = first.metrics;
        fleet_total.quarantines += m.quarantines;
        fleet_total.recoveries += m.recoveries;
        fleet_total.residents_requeued += m.residents_requeued;
        fleet_total.degraded_accepts += m.degraded_accepts;
        fleet_total.migrations += m.migrations;
        for f in &first.fabrics {
            faults += f.write_faults;
            retries += f.write_retries;
            scrubs += f.verify_scrubs;
        }
    }
    // The seeds reach every stage of the fault plane, or the invariants
    // above were checked on easy runs only.
    if seeds >= 16 {
        let t = fleet_total;
        assert!(
            t.quarantines > 0
                && t.recoveries > 0
                && t.residents_requeued > 0
                && t.degraded_accepts > 0
                && t.migrations > 0,
            "{t:?}"
        );
        assert!(
            faults > 0 && retries > 0 && scrubs > 0,
            "write faults {faults}, retries {retries}, scrubs {scrubs}"
        );
    }
}
