//! Fault-plane integration tests: deterministic injection through the
//! [`vbs_sched::FaultInjector`], self-healing single-fabric retries and
//! re-placement, CRC readback verification with scrubbing, and the
//! quarantine → re-placement → recovery lifecycle of a fleet losing a
//! fabric, and a fault-free corpus replay that verifies every write and
//! scrubs nothing.

mod common;

use common::{device, fleet, scheduler};
use std::sync::Arc;
use vbs_arch::Coord;
use vbs_bitstream::{BitstreamError, TaskBitstream};
use vbs_runtime::{FirstFit, ReconfigurationController, RuntimeError};
use vbs_sched::{
    replay, FaultInjector, FaultPlan, McncCorpus, Outcome, RejectReason, Request, RoundRobin,
    Scheduler, SchedulerConfig,
};
use vbs_telemetry::{EventKind, Telemetry};

fn base_config() -> SchedulerConfig {
    SchedulerConfig {
        eviction_limit: 0,
        compaction: false,
        ..SchedulerConfig::default()
    }
}

fn hook(plan: &str) -> Arc<FaultInjector> {
    Arc::new(FaultInjector::new(
        FaultPlan::parse(plan).expect("plan parses"),
    ))
}

fn load(sched: &mut Scheduler, task: &str) -> Outcome {
    sched.submit(Request::Load {
        task: task.into(),
        priority: 1,
        deadline: None,
    });
    let outcomes = sched.process_pending();
    assert_eq!(outcomes.len(), 1);
    outcomes.into_iter().next().unwrap()
}

/// A transient write fault is retried in place and the load still lands.
#[test]
fn transient_write_fault_is_retried_and_lands() {
    let mut sched = scheduler(10, 10, Box::new(FirstFit), base_config());
    let injector = hook("write 1 transient");
    sched.set_fault_hook(Some(injector.clone()));

    let outcome = load(&mut sched, "fir4");
    assert!(matches!(outcome, Outcome::Loaded { .. }), "{outcome:?}");
    let m = sched.metrics();
    assert_eq!(m.write_faults, 1);
    assert_eq!(m.write_retries, 1);
    assert_eq!(m.loads_accepted, 1);
    assert_eq!(injector.writes(), 2, "fault + successful retry");
}

/// A write the configuration memory would refuse anyway is never shown to
/// the fault model, so it cannot use up a slot of the seeded plan: the
/// injector counts the writes it gates, and `write 1` must still hit the
/// first write that could have landed.
#[test]
fn a_refused_write_does_not_consume_a_fault_plan_slot() {
    let mut controller = ReconfigurationController::new(device(10, 10));
    let injector = hook("write 1 transient");
    controller.set_fault_hook(Some(injector.clone()));
    let task = TaskBitstream::empty(*controller.device().spec(), 4, 4);

    assert!(matches!(
        controller.load_decoded(&task, Coord::new(8, 8)),
        Err(RuntimeError::Memory(BitstreamError::DoesNotFit { .. }))
    ));
    assert_eq!(injector.writes(), 0, "the out-of-bounds write was gated");
    assert!(matches!(
        controller.load_decoded(&task, Coord::new(0, 0)),
        Err(RuntimeError::WriteFault {
            transient: true,
            ..
        })
    ));
    controller.load_decoded(&task, Coord::new(0, 0)).unwrap();
    assert_eq!(injector.writes(), 2);
}

/// A persistent write fault at the chosen origin steers the load to an
/// alternative placement instead of dropping it.
#[test]
fn persistent_write_fault_replaces_the_load_elsewhere() {
    let mut sched = scheduler(10, 10, Box::new(FirstFit), base_config());
    sched.set_fault_hook(Some(hook("write 1 persistent")));

    match load(&mut sched, "fir4") {
        Outcome::Loaded { origin, .. } => {
            // First-fit would have placed at the origin the fault killed.
            assert_ne!(
                (origin.x, origin.y),
                (0, 0),
                "re-placement must avoid the faulted region"
            );
        }
        other => panic!("expected a re-placed load, got {other:?}"),
    }
    let m = sched.metrics();
    assert_eq!(m.write_faults, 1);
    assert_eq!(m.write_retries, 0, "persistent faults are not retried");
    assert_eq!(m.loads_accepted, 1);
}

/// Exhausting the retry budget (two retries per placement) on back-to-back
/// transient faults rejects the load with a runtime reason (after one
/// re-placement attempt).
#[test]
fn exhausted_retries_reject_gracefully() {
    let mut sched = scheduler(10, 10, Box::new(FirstFit), base_config());
    // Every early write fails: the original placement (1 + 2 retries), then
    // the re-placement attempt (1 + 2 retries) — all six bounce.
    let plan: Vec<String> = (1..=6).map(|n| format!("write {n} transient")).collect();
    sched.set_fault_hook(Some(hook(&plan.join("\n"))));

    match load(&mut sched, "fir4") {
        Outcome::Rejected { reason, .. } => {
            assert!(matches!(reason, RejectReason::Runtime(_)), "{reason:?}");
        }
        other => panic!("expected rejection, got {other:?}"),
    }
    let m = sched.metrics();
    assert_eq!(m.loads_rejected, 1);
    assert_eq!(m.write_faults, 6);
    assert_eq!(m.write_retries, 4, "two retries per placement attempt");
}

/// An injected bit flip is caught by readback verification and scrubbed by
/// a rewrite; the load completes with the corruption healed.
#[test]
fn corrupt_write_is_caught_and_scrubbed() {
    let mut sched = scheduler(10, 10, Box::new(FirstFit), base_config());
    sched.set_verify(true);
    assert_corrupt_write_is_scrubbed(sched);
}

/// `verify` in the configuration alone switches the checksum sidecar on:
/// no `set_verify` call is needed for readback to have something to
/// compare against.
#[test]
fn verify_in_the_config_catches_a_corrupt_write() {
    let config = SchedulerConfig {
        verify: true,
        ..base_config()
    };
    assert_corrupt_write_is_scrubbed(scheduler(10, 10, Box::new(FirstFit), config));
}

fn assert_corrupt_write_is_scrubbed(mut sched: Scheduler) {
    sched.set_fault_hook(Some(hook("seed 7\nwrite 1 corrupt")));

    let outcome = load(&mut sched, "fir4");
    assert!(matches!(outcome, Outcome::Loaded { .. }), "{outcome:?}");
    let m = sched.metrics();
    assert_eq!(m.crc_mismatches, 1);
    assert_eq!(m.verify_scrubs, 1);
    assert_eq!(m.loads_accepted, 1);
    // The scrub healed the fabric: a whole-device verify stays clean.
    sched
        .manager()
        .controller()
        .verify_region(vbs_arch::Rect::at_origin(10, 10))
        .expect("post-scrub verify");
}

/// Readback verification on a fault-free fabric finds nothing to heal: the
/// corpus `steady` and `variant` replays with `verify` on mismatch no CRC,
/// scrub nothing, and admit, evict, relocate and decode exactly as with it
/// off.
#[test]
fn fault_free_verified_replay_scrubs_nothing() {
    let corpus = McncCorpus::load(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/traces/mcnc"
    ))
    .expect("checked-in corpus loads");
    let verified = SchedulerConfig {
        verify: true,
        ..McncCorpus::replay_config()
    };
    for name in ["steady", "variant"] {
        let trace = corpus.trace(name).expect("corpus trace");
        let off = replay(&mut corpus.single_scheduler(), trace).sched;
        let on = replay(&mut corpus.single_scheduler_with(verified), trace).sched;
        for m in [&off, &on] {
            assert_eq!(
                (m.crc_mismatches, m.verify_scrubs, m.write_faults),
                (0, 0, 0),
                "{name}: a fault-free replay healed something: {m:?}"
            );
        }
        let counters = |m: &vbs_sched::SchedMetrics| {
            (
                m.loads_accepted,
                m.loads_rejected,
                m.evictions,
                m.relocations,
                m.compaction_passes,
                m.decodes,
            )
        };
        assert_eq!(
            counters(&on),
            counters(&off),
            "{name}: verify changed the replay"
        );
    }
}

/// The full fleet lifecycle: an outage quarantines the fabric, its resident
/// is re-placed on the survivor under its original fleet-global id, loads
/// caught in flight migrate instead of dropping, and recovery returns the
/// wiped fabric to the routing set — in that order on the telemetry
/// timeline.
#[test]
fn quarantine_replacement_recovery_ordering() {
    let mut multi = fleet(
        2,
        12,
        12,
        Box::new(RoundRobin::default()),
        || Box::new(FirstFit),
        base_config(),
    );
    let telemetry = Telemetry::new();
    multi.set_telemetry(telemetry.clone());

    let mut injector = FaultInjector::new(FaultPlan::parse("outage 5 100").expect("plan"));
    injector.set_telemetry(telemetry.clone(), 0);
    let injector = Arc::new(injector);
    multi
        .fabric_mut(0)
        .set_fault_hook(Some(injector.clone() as Arc<dyn vbs_runtime::FaultHook>));

    // Round-robin: "fir4" lands on fabric 0, "crc4" on fabric 1.
    let on_dead = multi.submit(Request::Load {
        task: "fir4".into(),
        priority: 1,
        deadline: None,
    });
    let on_survivor = multi.submit(Request::Load {
        task: "crc4".into(),
        priority: 1,
        deadline: None,
    });
    for (_, outcome) in multi.process_pending_tagged() {
        assert!(matches!(outcome, Outcome::Loaded { .. }), "{outcome:?}");
    }
    assert_eq!(multi.metrics().loads_accepted, 2);

    // The outage hits. A load already queued to fabric 0 rides through the
    // quarantine as a migration, and the resident is re-placed.
    multi.advance_to(5);
    injector.set_tick(5);
    let in_flight = multi.submit(Request::Load {
        task: "aes5".into(),
        priority: 1,
        deadline: None,
    });
    let outcomes = multi.process_pending_tagged();
    // Both the in-flight load and the evacuated resident end up Loaded.
    for job in [in_flight, on_dead] {
        assert!(
            outcomes
                .iter()
                .any(|(id, o)| *id == job && matches!(o, Outcome::Loaded { .. })),
            "job {job} missing from {outcomes:?}"
        );
    }
    let m = *multi.metrics();
    assert!(multi.is_quarantined(0));
    assert_eq!(m.quarantines, 1);
    assert_eq!(m.residents_requeued, 1);
    assert_eq!(m.degraded_accepts, 1);
    assert!(m.migrations >= 1, "{m:?}");
    assert_eq!(
        m.loads_accepted, 3,
        "a re-placed resident is not a fresh acceptance"
    );
    assert_eq!(m.recoveries, 0);
    // Everything lives on fabric 1 now, original ids intact.
    let residents = multi.residents();
    assert_eq!(residents.len(), 3);
    for (fabric, info) in &residents {
        assert_eq!(
            *fabric, 1,
            "job {} still routed to the dead fabric",
            info.job
        );
    }
    assert!(residents.iter().any(|(_, info)| info.job == on_dead));
    assert!(residents.iter().any(|(_, info)| info.job == on_survivor));
    assert!(multi.fabric(0).manager().loaded_tasks().is_empty());

    // While quarantined, new loads route around fabric 0.
    let during = multi.submit(Request::Load {
        task: "fir4".into(),
        priority: 1,
        deadline: None,
    });
    let outcomes = multi.process_pending_tagged();
    assert!(outcomes
        .iter()
        .any(|(id, o)| *id == during && matches!(o, Outcome::Loaded { .. })));
    assert!(multi.fabric(0).manager().loaded_tasks().is_empty());

    // Recovery: the fabric comes back wiped and rejoins the fleet.
    multi.advance_to(100);
    injector.set_tick(100);
    multi.process_pending();
    assert!(!multi.is_quarantined(0));
    assert_eq!(multi.metrics().recoveries, 1);
    assert_eq!(
        multi
            .fabric(0)
            .manager()
            .controller()
            .memory()
            .occupied_macros(),
        0,
        "recovered fabric must start blank"
    );
    let after = multi.submit(Request::Load {
        task: "crc4".into(),
        priority: 1,
        deadline: None,
    });
    let outcomes = multi.process_pending_tagged();
    assert!(outcomes
        .iter()
        .any(|(id, o)| *id == after && matches!(o, Outcome::Loaded { .. })));

    // The timeline shows the lifecycle in order: quarantine before any
    // degraded re-placement decision, recovery last.
    let events = telemetry.events();
    let seq_of = |kind: EventKind| {
        events
            .iter()
            .find(|e| e.kind == kind)
            .map(|e| e.seq)
            .unwrap_or_else(|| panic!("no {kind:?} event in {events:?}"))
    };
    let quarantine = seq_of(EventKind::Quarantine);
    let recover = seq_of(EventKind::Recover);
    assert!(quarantine < recover, "quarantine must precede recovery");
    // The re-placement shard decision of the evacuated resident sits
    // between them.
    let replacement_decision = events
        .iter()
        .find(|e| e.kind == EventKind::ShardDecision && e.a == on_dead && e.seq > quarantine)
        .expect("re-placement routing decision");
    assert!(replacement_decision.seq < recover);
}
