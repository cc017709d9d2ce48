//! Multi-fabric scheduler tests: the K=1 differential against the
//! single-fabric [`Scheduler`], property-based invariants over K ∈ {1,2,4}
//! fleets, migration behavior, the one job id fleet and shards share, and
//! the sharded-vs-independent acceptance claim of the acceptance criteria.

mod common;

use common::{assert_fabric_invariants, device, fleet, repository, scheduler, TASKS};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use vbs_arch::Rect;
use vbs_runtime::{BestFit, FirstFit, PlacementPolicy, ReconfigurationController, TaskManager};
use vbs_sched::{
    replay, replay_multi, shard_policy_by_name, CacheAffinity, LeastLoaded, McncCorpus,
    MultiFabricScheduler, Outcome, PriorityEviction, Request, RoundRobin, SchedMetrics, Scheduler,
    SchedulerConfig, Trace, WorkloadSpec, SHARD_POLICY_NAMES,
};
use vbs_telemetry::{EventKind, MonotonicClock, Telemetry, FLEET_FABRIC};

fn overload_trace(loads: usize, seed: u64) -> Trace {
    Trace::synthetic(&WorkloadSpec {
        tasks: TASKS.iter().map(|t| t.0.to_string()).collect(),
        loads,
        mean_interarrival: 3,
        mean_duration: 24,
        priority_levels: 4,
        deadline_slack: None,
        seed,
    })
}

/// Wall-clock decode and compaction-pause times are the only
/// nondeterministic counters; zero them so the rest of the metrics can be
/// compared bit-for-bit.
fn normalized(mut metrics: SchedMetrics) -> SchedMetrics {
    metrics.decode_micros = 0;
    metrics.compaction_micros = 0;
    metrics
}

/// Reads back the whole configuration memory of a scheduler's device.
fn full_memory_image(sched: &Scheduler) -> vbs_bitstream::TaskBitstream {
    let device = sched.manager().controller().device();
    sched
        .manager()
        .controller()
        .memory()
        .read_region(Rect::at_origin(device.width(), device.height()))
        .expect("full-device read")
}

/// Differential: a K=1 fleet must replay a trace bit-identically to the
/// plain single-fabric scheduler — same counters (modulo wall-clock decode
/// time), same cache behavior, and the same final configuration memory,
/// for every shard policy. This pins down that the dispatcher adds routing
/// around the fabric, and nothing else: the shard queues each request
/// under the id the fleet returned for it.
#[test]
fn k1_fleet_is_bit_identical_to_single_scheduler() {
    let trace = overload_trace(80, 2015);
    let config = SchedulerConfig {
        eviction_limit: 1,
        compaction: true,
        ..SchedulerConfig::default()
    };

    let mut single = scheduler(11, 11, Box::new(BestFit), config);
    let single_report = replay(&mut single, &trace);

    for &policy in SHARD_POLICY_NAMES {
        let mut multi = fleet(
            1,
            11,
            11,
            shard_policy_by_name(policy).unwrap(),
            || Box::new(BestFit),
            config,
        );
        let multi_report = replay_multi(&mut multi, &trace);

        assert_eq!(multi_report.events, single_report.events, "{policy}");
        assert_eq!(
            multi_report.departures_already_gone, single_report.departures_already_gone,
            "{policy}"
        );
        let shard = &multi_report.fabrics[0];
        assert_eq!(
            normalized(shard.sched),
            normalized(single_report.sched),
            "{policy}: shard counters diverge from the single-fabric run"
        );
        assert_eq!(shard.cache, single_report.cache, "{policy}");
        assert_eq!(
            shard.final_fragmentation, single_report.final_fragmentation,
            "{policy}"
        );
        // Fleet-level accounting collapses to the single-fabric numbers.
        assert_eq!(
            multi_report.multi.loads_submitted,
            single_report.sched.loads_submitted
        );
        assert_eq!(
            multi_report.multi.loads_accepted,
            single_report.sched.loads_accepted
        );
        assert_eq!(
            multi_report.multi.migrations, 0,
            "{policy}: K=1 cannot migrate"
        );
        // The fabric ends in the bit-identical configuration state.
        let single_image = full_memory_image(&single);
        let multi_image = full_memory_image(multi.fabric(0));
        assert_eq!(
            single_image.diff_count(&multi_image).unwrap(),
            0,
            "{policy}: final configuration memories differ"
        );
    }
}

/// The acceptance-criteria claim: sharding one overloaded stream over 4
/// fabrics accepts more of it than 4 independent single-fabric schedulers
/// each facing the full stream.
#[test]
fn sharded_fleet_beats_independent_fabrics_on_overload() {
    let trace = overload_trace(120, 2015);
    let config = SchedulerConfig {
        eviction_limit: 1,
        compaction: true,
        ..SchedulerConfig::default()
    };

    // 4 independent fabrics each replay the whole trace; aggregate
    // acceptance = total accepted / total submitted.
    let mut independent_accepted = 0u64;
    let mut independent_submitted = 0u64;
    for _ in 0..4 {
        let mut single = scheduler(11, 11, Box::new(BestFit), config);
        let report = replay(&mut single, &trace);
        independent_accepted += report.sched.loads_accepted;
        independent_submitted += report.sched.loads_submitted;
    }
    let independent_rate = independent_accepted as f64 / independent_submitted as f64;

    let mut multi = fleet(
        4,
        11,
        11,
        Box::new(LeastLoaded),
        || Box::new(BestFit),
        config,
    );
    let report = replay_multi(&mut multi, &trace);
    assert!(
        report.acceptance_rate() > independent_rate,
        "sharded acceptance {:.3} must beat independent aggregate {:.3}",
        report.acceptance_rate(),
        independent_rate
    );
}

/// Migration: a load whose assigned fabric is saturated lands on another
/// fabric instead of being dropped.
#[test]
fn saturated_fabric_sheds_load_to_the_fleet() {
    // Two 10x10 fabrics; round-robin sends both big tasks to fabric 0
    // unless migration steps in (a second 6x6 cannot fit there, but fits
    // next to fabric 1's 4x4).
    let config = SchedulerConfig {
        eviction_limit: 0,
        compaction: false,
        ..SchedulerConfig::default()
    };
    let mut multi = fleet(
        2,
        10,
        10,
        Box::new(RoundRobin::default()),
        || Box::new(FirstFit),
        config,
    );
    // fft6 (6x6) to fabric 0, fir4 (4x4) to fabric 1, then another fft6:
    // round-robin points back at fabric 0, where 6x6 no longer fits.
    let a = multi.submit(Request::Load {
        task: "fft6".into(),
        priority: 1,
        deadline: None,
    });
    let b = multi.submit(Request::Load {
        task: "fir4".into(),
        priority: 1,
        deadline: None,
    });
    let c = multi.submit(Request::Load {
        task: "fft6".into(),
        priority: 1,
        deadline: None,
    });
    let outcomes = multi.process_pending_tagged();
    for (job, outcome) in &outcomes {
        assert!(
            matches!(outcome, Outcome::Loaded { .. }),
            "job {job} failed: {outcome:?}"
        );
    }
    assert_eq!(outcomes.len(), 3);
    assert!(multi.metrics().migrations >= 1, "{:?}", multi.metrics());
    assert_eq!(multi.metrics().loads_accepted, 3);
    // The two fft6 instances sit on different fabrics.
    let residents = multi.residents();
    let fabric_of = |job: u64| {
        residents
            .iter()
            .find(|(_, info)| info.job == job)
            .map(|(f, _)| *f)
            .expect("job resident")
    };
    assert_ne!(fabric_of(a), fabric_of(c));
    let _ = fabric_of(b);
}

/// Cache-affinity keeps repeat loads of one task on the fabric that already
/// decoded it, so the fleet decodes each task once.
#[test]
fn cache_affinity_decodes_each_task_once() {
    let config = SchedulerConfig {
        eviction_limit: 1,
        compaction: false,
        ..SchedulerConfig::default()
    };
    let mut multi = fleet(
        2,
        12,
        12,
        Box::new(CacheAffinity),
        || Box::new(FirstFit),
        config,
    );
    let mut jobs = Vec::new();
    for round in 0..3 {
        multi.advance_to(round * 10);
        for task in ["fir4", "crc4"] {
            jobs.push(multi.submit(Request::Load {
                task: task.into(),
                priority: 1,
                deadline: None,
            }));
        }
        for outcome in multi.process_pending() {
            assert!(matches!(outcome, Outcome::Loaded { .. }), "{outcome:?}");
        }
        multi.advance_to(round * 10 + 5);
        for job in jobs.drain(..) {
            multi.submit(Request::Unload { job });
        }
        multi.process_pending();
    }
    let total_decodes: u64 = multi.fabric_metrics().iter().map(|m| m.decodes).sum();
    assert_eq!(
        total_decodes, 2,
        "each task decodes once fleet-wide; repeats are affinity-routed cache hits"
    );
}

proptest! {
    /// Arbitrary request sequences against K ∈ {1, 2, 4} fleets preserve
    /// the fleet invariants: a job is resident on at most one fabric, no
    /// fabric exceeds its capacity (disjoint, in-bounds regions), nothing
    /// is configured outside resident regions, and completed-request
    /// accounting sums across shards to the number submitted.
    #[test]
    fn fleet_sequences_preserve_invariants(
        k_idx in 0usize..3,
        shard_idx in 0usize..3,
        ops in proptest::collection::vec((0u8..6, 0u8..4, 0u16..12, 0u16..12), 1..20),
    ) {
        let k = [1usize, 2, 4][k_idx];
        let shard = shard_policy_by_name(SHARD_POLICY_NAMES[shard_idx]).unwrap();
        let config = SchedulerConfig {
            eviction_limit: 1,
            compaction: true,
            ..SchedulerConfig::default()
        };
        let mut multi = fleet(
            k, 9, 7, shard,
            || Box::new(FirstFit) as Box<dyn PlacementPolicy>,
            config,
        );

        let mut jobs: Vec<u64> = Vec::new();
        let mut loads_issued = 0u64;
        for (tick, &(op, priority, x, y)) in ops.iter().enumerate() {
            multi.advance_to(tick as u64);
            match op {
                0..=2 => {
                    let task = ["fir4", "crc4", "aes5"][op as usize];
                    loads_issued += 1;
                    let job = multi.submit(Request::Load {
                        task: task.into(),
                        priority,
                        deadline: None,
                    });
                    let outcomes = multi.process_pending_tagged();
                    if outcomes.iter().any(|(id, o)| {
                        *id == job && matches!(o, Outcome::Loaded { .. })
                    }) {
                        jobs.push(job);
                    }
                }
                3 => {
                    if !jobs.is_empty() {
                        let job = jobs[(x as usize + y as usize) % jobs.len()];
                        multi.submit(Request::Unload { job });
                        multi.process_pending();
                    }
                }
                4 => {
                    if !jobs.is_empty() {
                        let job = jobs[(x as usize) % jobs.len()];
                        // May fail (busy / out of bounds) — invariants must
                        // hold either way.
                        multi.submit(Request::Relocate {
                            job,
                            to: vbs_arch::Coord::new(x, y),
                        });
                        multi.process_pending();
                    }
                }
                _ => {
                    // A burst: two loads in one round, exercising the
                    // decode pipeline's fan-out.
                    loads_issued += 2;
                    let a = multi.submit(Request::Load {
                        task: "fir4".into(), priority, deadline: None,
                    });
                    let b = multi.submit(Request::Load {
                        task: "crc4".into(), priority, deadline: None,
                    });
                    for (id, outcome) in multi.process_pending_tagged() {
                        if (id == a || id == b) && matches!(outcome, Outcome::Loaded { .. }) {
                            jobs.push(id);
                        }
                    }
                }
            }

            // Invariant: a job is resident on at most one fabric.
            let residents = multi.residents();
            for (i, (_, a)) in residents.iter().enumerate() {
                for (_, b) in residents.iter().skip(i + 1) {
                    prop_assert_ne!(a.job, b.job, "job resident on two fabrics");
                }
            }
            // Invariant: per-fabric capacity and memory hygiene.
            for fabric in multi.fabrics() {
                assert_fabric_invariants(fabric);
            }
            // Invariant: every submitted load has settled, and shard
            // accounting sums to the fleet totals.
            let m = *multi.metrics();
            prop_assert_eq!(m.loads_submitted, loads_issued);
            prop_assert_eq!(m.loads_accepted + m.loads_rejected, loads_issued);
            let shard_accepted: u64 = multi
                .fabric_metrics()
                .iter()
                .map(|f| f.loads_accepted)
                .sum();
            prop_assert_eq!(
                shard_accepted, m.loads_accepted,
                "an accepted load lands on exactly one shard"
            );
        }

        // Drain: unloading everything leaves every fabric blank.
        for (_, info) in multi.residents() {
            multi.submit(Request::Unload { job: info.job });
        }
        multi.process_pending();
        for fabric in multi.fabrics() {
            assert_fabric_invariants(fabric);
            prop_assert_eq!(fabric.manager().controller().memory().occupied_macros(), 0);
            prop_assert_eq!(fabric.manager().fabric_view().free_area(), 9 * 7);
        }
        prop_assert!(multi.residents().is_empty());
    }
}

/// The overloaded-fleet smoke check kept out of proptest: all four fixture
/// tasks submitted at once to every fleet size resolve with full accounting
/// even though some must be rejected.
#[test]
fn burst_accounting_sums_across_shards() {
    for k in [1usize, 2, 4] {
        let config = SchedulerConfig {
            eviction_limit: 0,
            compaction: false,
            ..SchedulerConfig::default()
        };
        let mut multi = fleet(
            k,
            7,
            7,
            Box::new(LeastLoaded),
            || Box::new(FirstFit),
            config,
        );
        let n = 6u64;
        for task in ["fft6", "aes5", "fir4", "crc4", "fir4", "aes5"] {
            multi.submit(Request::Load {
                task: task.into(),
                priority: 1,
                deadline: None,
            });
        }
        let outcomes = multi.process_pending();
        assert_eq!(outcomes.len() as u64, n, "K={k}");
        let m = multi.metrics();
        assert_eq!(m.loads_submitted, n, "K={k}");
        assert_eq!(m.loads_accepted + m.loads_rejected, n, "K={k}");
        // More fabrics can only help acceptance on this burst.
        if k == 4 {
            assert!(
                m.loads_accepted >= 4,
                "K=4 accepted only {}",
                m.loads_accepted
            );
        }
        let _ = repository(); // keep the fixture alive across iterations
    }
}

/// An unload queued in the same batch as its load is processed first (the
/// shard runs unloads before loads), so it finds nothing to unload and the
/// load still lands: the job ends up resident exactly once, on the fabric
/// that accepted it.
#[test]
fn unload_submitted_with_its_load_in_one_batch() {
    let config = SchedulerConfig {
        eviction_limit: 1,
        compaction: false,
        ..SchedulerConfig::default()
    };
    let mut multi = fleet(
        2,
        10,
        10,
        Box::new(RoundRobin::default()),
        || Box::new(FirstFit),
        config,
    );
    let job = multi.submit(Request::Load {
        task: "fir4".into(),
        priority: 1,
        deadline: None,
    });
    let unload = multi.submit(Request::Unload { job });
    let outcomes = multi.process_pending_tagged();
    let outcome_of = |id: u64| {
        let mut matching = outcomes.iter().filter(|(tag, _)| *tag == id);
        let (_, outcome) = matching.next().expect("every request resolves");
        assert!(matching.next().is_none(), "request {id} resolved twice");
        outcome
    };
    assert!(
        matches!(outcome_of(job), Outcome::Loaded { .. }),
        "{outcomes:?}"
    );
    assert_eq!(outcome_of(unload), &Outcome::NotResident { job });
    let accepted_on: Vec<usize> = (0..multi.fabric_count())
        .filter(|&f| multi.fabric(f).metrics().loads_accepted == 1)
        .collect();
    let resident_on: Vec<usize> = multi
        .residents()
        .into_iter()
        .filter(|(_, info)| info.job == job)
        .map(|(fabric, _)| fabric)
        .collect();
    assert_eq!(accepted_on.len(), 1);
    assert_eq!(resident_on, accepted_on);
}

/// What the one-id tests inspect after their shared run.
struct OneIdRun {
    multi: MultiFabricScheduler,
    telemetry: Telemetry,
    outcomes: Vec<(u64, Outcome)>,
    /// Load id → task, for every load `submit` accepted.
    loads: HashMap<u64, &'static str>,
    /// The fft6 that aes5 evicts from fabric 0.
    first: u64,
    /// The fft6 that migrates from fabric 0 to fabric 1.
    migrated: u64,
}

/// A K = 2 run in which shard-local ids would drift from the fleet's: an
/// unload of an unknown job consumes a fleet id no shard ever sees, then
/// one load migrates and one evicts.
fn one_id_run() -> OneIdRun {
    let config = SchedulerConfig {
        eviction_limit: 1,
        compaction: false,
        ..SchedulerConfig::default()
    };
    // Priority eviction: equal-priority residents are protected, so a
    // priority-1 load that does not fit migrates instead of evicting.
    let fabrics = (0..2)
        .map(|_| {
            let manager = TaskManager::new(
                ReconfigurationController::new(device(10, 10)),
                repository().clone(),
            )
            .with_policy(Box::new(FirstFit));
            Scheduler::with_config(manager, Box::new(PriorityEviction), config)
        })
        .collect();
    let mut multi = MultiFabricScheduler::new(fabrics, Box::new(RoundRobin::default()));
    let telemetry = Telemetry::new();
    multi.set_telemetry(telemetry.clone());

    let unknown = multi.submit(Request::Unload { job: 999 });
    let mut loads = HashMap::new();
    let mut load = |multi: &mut MultiFabricScheduler, task: &'static str, priority: u8| {
        let job = multi.submit(Request::Load {
            task: task.into(),
            priority,
            deadline: None,
        });
        loads.insert(job, task);
        job
    };
    // Round-robin: fft6 to fabric 0, fir4 to fabric 1, the second fft6
    // back to fabric 0, where it cannot fit and migrates to fabric 1.
    let first = load(&mut multi, "fft6", 1);
    load(&mut multi, "fir4", 1);
    let migrated = load(&mut multi, "fft6", 1);
    let mut outcomes = multi.process_pending_tagged();
    assert_eq!(multi.metrics().migrations, 1, "{outcomes:?}");
    // aes5 at priority 5 lands on fabric 0 by evicting the first fft6.
    load(&mut multi, "aes5", 5);
    outcomes.extend(multi.process_pending_tagged());
    assert_eq!(
        outcomes[0],
        (unknown, Outcome::NotResident { job: 999 }),
        "the unknown unload is answered without a shard"
    );
    OneIdRun {
        multi,
        telemetry,
        outcomes,
        loads,
        first,
        migrated,
    }
}

/// Every shard resident and every evicted id is the id `submit` returned
/// for that load: shards hold fleet ids.
#[test]
fn shards_hold_the_ids_submit_returned() {
    let run = one_id_run();
    let mut evicted_ids = Vec::new();
    for (tag, outcome) in &run.outcomes[1..] {
        let Outcome::Loaded { job, evicted, .. } = outcome else {
            panic!("load {tag} failed: {outcome:?}");
        };
        assert_eq!(job, tag);
        assert!(
            run.loads.contains_key(job),
            "outcome names unknown job {job}"
        );
        evicted_ids.extend(evicted.iter().copied());
    }
    assert_eq!(evicted_ids, vec![run.first]);
    for f in 0..run.multi.fabric_count() {
        let shard = run.multi.fabric(f);
        for resident in shard.residents() {
            let name = shard
                .manager()
                .loaded_tasks()
                .iter()
                .find(|t| t.region == resident.region)
                .map(|t| t.name.as_str());
            assert_eq!(
                run.loads.get(&resident.job).copied(),
                name,
                "fabric {f} holds job {} under an id submit did not return for it",
                resident.job
            );
        }
    }
}

/// A load's fleet dispatch and its shard's queue, admission and
/// frame-write events name one job id — the migrated load's first try on
/// the fabric that refused it included.
#[test]
fn fleet_and_shard_events_name_one_job_id() {
    let run = one_id_run();
    let events = run.telemetry.events();
    let on = |kind: EventKind, fabric: u16, job: u64| {
        events
            .iter()
            .filter(|e| e.kind == kind && e.fabric == fabric && e.a == job)
            .count()
    };
    let residents = run.multi.residents();
    assert_eq!(residents.len(), 3);
    for (fabric, info) in residents {
        let (shard, job) = (fabric as u16, info.job);
        assert_eq!(
            on(EventKind::ShardDecision, FLEET_FABRIC, job),
            1,
            "job {job}"
        );
        assert_eq!(on(EventKind::Enqueue, shard, job), 1, "job {job}");
        assert_eq!(on(EventKind::Admit, shard, job), 1, "job {job}");
        assert_eq!(on(EventKind::FrameWrite, shard, job), 1, "job {job}");
    }
    let migrated = run.migrated;
    assert_eq!(on(EventKind::Migrate, FLEET_FABRIC, migrated), 1);
    assert_eq!(on(EventKind::Enqueue, 0, migrated), 1, "first try");
    assert_eq!(on(EventKind::Reject, 0, migrated), 1, "first try");
    assert_eq!(on(EventKind::Evict, 0, run.first), 1);
}

/// Each fabric decodes on its own controller: a fault-free corpus replay
/// on the least-loaded fleet tags every staging-buffer checkout with the
/// fabric that decoded, one checkout per decode that fabric counted.
#[test]
fn each_fabric_decodes_on_its_own_controller() {
    let corpus = McncCorpus::load(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/traces/mcnc"
    ))
    .expect("checked-in corpus loads");
    let trace = corpus.trace("steady").expect("steady trace present");
    let mut fleet = corpus
        .fleet_scheduler("least-loaded")
        .expect("least-loaded is a shard policy");
    let telemetry = Telemetry::with(Arc::new(MonotonicClock::new()), 1 << 16);
    fleet.set_telemetry(telemetry.clone());
    replay_multi(&mut fleet, trace);

    let stats = telemetry.ring_stats();
    assert!(stats.recorded <= stats.capacity as u64, "{stats:?}");
    let mut checkouts = vec![0u64; fleet.fabric_count()];
    for event in telemetry.events() {
        if matches!(event.kind, EventKind::CheckoutHit | EventKind::CheckoutMiss) {
            let fabric = usize::from(event.fabric);
            assert!(fabric < fleet.fabric_count(), "{event:?}");
            checkouts[fabric] += 1;
        }
    }
    let decodes: Vec<u64> = fleet
        .fabrics()
        .iter()
        .map(|f| f.metrics().decodes)
        .collect();
    assert!(
        decodes.iter().all(|&d| d > 0),
        "every fabric decoded: {decodes:?}"
    );
    assert_eq!(checkouts, decodes);
}
