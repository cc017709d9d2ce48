//! Integration tests of the on-line scheduler: the overload demo of the
//! acceptance criteria (policy comparison on a fabric too small for the
//! workload), decode-cache bit-identity, eviction and deadline behavior.

use std::sync::OnceLock;
use vbs_arch::{ArchError, ArchSpec, Coord, Device, Rect};
use vbs_bitstream::TaskBitstream;
use vbs_core::VbsError;
use vbs_flow::CadFlow;
use vbs_netlist::generate::SyntheticSpec;
use vbs_runtime::{
    BestFit, FirstFit, PlacementPolicy, ReconfigurationController, RuntimeError, TaskHandle,
    TaskManager, VbsRepository,
};
use vbs_sched::{
    replay, CacheBudget, CacheStats, LruEviction, Outcome, PriorityEviction, RejectReason, Request,
    Scheduler, SchedulerConfig, Trace, WorkloadSpec,
};

/// Task set shared by every test in this file: (name, LUTs, grid edge, seed).
/// Grid edge = task footprint in macros. Built once — the CAD flow is the
/// expensive part — and cloned into per-test repositories.
const TASKS: &[(&str, usize, u16, u64)] = &[
    ("fir4", 9, 4, 11),
    ("crc4", 8, 4, 12),
    ("aes5", 16, 5, 13),
    ("fft6", 24, 6, 14),
];

const CHANNEL_WIDTH: u16 = 9;
const LUT_SIZE: u8 = 6;

fn repository() -> &'static VbsRepository {
    static REPO: OnceLock<VbsRepository> = OnceLock::new();
    REPO.get_or_init(|| {
        let mut repo = VbsRepository::new();
        for &(name, luts, edge, seed) in TASKS {
            let netlist = SyntheticSpec::new(name, luts, 3, 3)
                .with_seed(seed)
                .build()
                .expect("netlist generation");
            let result = CadFlow::new(CHANNEL_WIDTH, LUT_SIZE)
                .expect("flow")
                .with_grid(edge, edge)
                .with_seed(seed)
                .fast()
                .run(&netlist)
                .expect("cad flow");
            repo.store(name, &result.vbs(1).expect("encode"));
        }
        repo
    })
}

fn device(width: u16, height: u16) -> Device {
    Device::new(
        ArchSpec::new(CHANNEL_WIDTH, LUT_SIZE).unwrap(),
        width,
        height,
    )
    .unwrap()
}

fn scheduler(
    width: u16,
    height: u16,
    policy: Box<dyn PlacementPolicy>,
    config: SchedulerConfig,
) -> Scheduler {
    let manager = TaskManager::new(
        ReconfigurationController::new(device(width, height)),
        repository().clone(),
    )
    .with_policy(policy);
    Scheduler::with_config(manager, Box::new(LruEviction), config)
}

/// De-virtualizes `vbs` on a spare controller of the scheduler's device,
/// behind the decode cache's back — the reference image of the
/// differentials.
fn fresh_decode(sched: &Scheduler, vbs: &vbs_core::Vbs) -> TaskBitstream {
    let device = sched.manager().controller().device().clone();
    let mut image = TaskBitstream::empty(*vbs.spec(), 0, 0);
    ReconfigurationController::new(device)
        .decode_into(vbs, &mut image)
        .expect("decode");
    image
}

fn overload_trace() -> Trace {
    Trace::synthetic(&WorkloadSpec {
        tasks: TASKS.iter().map(|t| t.0.to_string()).collect(),
        loads: 120,
        mean_interarrival: 3,
        mean_duration: 24,
        priority_levels: 4,
        deadline_slack: None,
        seed: 2015,
    })
}

/// The acceptance-criteria demo: a ≥200-event seeded trace on a fabric too
/// small to hold all tasks simultaneously. Eviction must fire, and
/// best-fit-with-compaction must accept more loads than plain first-fit
/// without compaction.
#[test]
fn best_fit_with_compaction_beats_first_fit_on_overload() {
    let trace = overload_trace();
    assert!(trace.len() >= 200, "trace has {} events", trace.len());
    // 11x11 macros cannot hold 4+5+6-edge squares freely: the task set
    // totals 93 macros against 121, so a handful of concurrent residents
    // exhausts it.
    let baseline_cfg = SchedulerConfig {
        eviction_limit: 1,
        compaction: false,
        ..SchedulerConfig::default()
    };
    let improved_cfg = SchedulerConfig {
        eviction_limit: 1,
        compaction: true,
        ..SchedulerConfig::default()
    };

    let mut baseline = scheduler(11, 11, Box::new(FirstFit), baseline_cfg);
    let baseline_report = replay(&mut baseline, &trace);

    let mut improved = scheduler(11, 11, Box::new(BestFit), improved_cfg);
    let improved_report = replay(&mut improved, &trace);

    assert!(
        baseline_report.sched.evictions > 0,
        "the overloaded fabric must evict (baseline: {:?})",
        baseline_report.sched
    );
    assert!(
        improved_report.sched.evictions > 0,
        "the overloaded fabric must evict (improved: {:?})",
        improved_report.sched
    );
    assert!(
        improved_report.sched.relocations > 0,
        "compaction must relocate tasks"
    );
    assert!(
        improved_report.acceptance_rate() > baseline_report.acceptance_rate(),
        "best-fit + compaction ({:.3}) must beat first-fit without compaction ({:.3})",
        improved_report.acceptance_rate(),
        baseline_report.acceptance_rate()
    );
}

/// Repeated loads of one task hit the decode cache, and the cached path
/// writes a bit-identical configuration.
#[test]
fn decode_cache_hits_are_bit_identical() {
    let mut sched = scheduler(12, 8, Box::new(FirstFit), SchedulerConfig::default());
    let first = sched.execute(Request::Load {
        task: "fir4".into(),
        priority: 0,
        deadline: None,
    });
    let Outcome::Loaded {
        job,
        origin,
        cache_hit,
        ..
    } = first
    else {
        panic!("first load failed: {first:?}");
    };
    assert!(!cache_hit, "first load must decode");
    let region = Rect::new(origin, 4, 4);
    let first_image = sched
        .manager()
        .controller()
        .memory()
        .read_region(region)
        .unwrap();

    sched.execute(Request::Unload { job });
    let second = sched.execute(Request::Load {
        task: "fir4".into(),
        priority: 0,
        deadline: None,
    });
    let Outcome::Loaded {
        origin: second_origin,
        cache_hit: second_hit,
        ..
    } = second
    else {
        panic!("second load failed: {second:?}");
    };
    assert!(second_hit, "second load must come from the cache");
    let stats = sched.cache_stats();
    assert!(stats.hits > 0, "cache shows no hits: {stats:?}");

    let second_image = sched
        .manager()
        .controller()
        .memory()
        .read_region(Rect::new(second_origin, 4, 4))
        .unwrap();
    assert_eq!(
        first_image.diff_count(&second_image).unwrap(),
        0,
        "cached load must be bit-identical to the decoded one"
    );

    // And both match a fresh, cache-free de-virtualization.
    let vbs = sched
        .manager()
        .repository()
        .view("fir4")
        .unwrap()
        .to_owned()
        .unwrap();
    let fresh = fresh_decode(&sched, &vbs);
    assert_eq!(second_image.diff_count(&fresh).unwrap(), 0);
}

/// Priority eviction protects high-priority residents; LRU does not.
#[test]
fn priority_eviction_protects_important_tasks() {
    let manager = TaskManager::new(
        ReconfigurationController::new(device(8, 4)),
        repository().clone(),
    );
    let mut sched = Scheduler::with_config(
        manager,
        Box::new(PriorityEviction),
        SchedulerConfig {
            eviction_limit: 4,
            compaction: false,
            ..SchedulerConfig::default()
        },
    );
    // Two 4x4 tasks fill the 8x4 fabric.
    let a = sched.execute(Request::Load {
        task: "fir4".into(),
        priority: 7,
        deadline: None,
    });
    let b = sched.execute(Request::Load {
        task: "crc4".into(),
        priority: 1,
        deadline: None,
    });
    assert!(matches!(a, Outcome::Loaded { .. }));
    let Outcome::Loaded { job: low_job, .. } = b else {
        panic!("second load failed: {b:?}");
    };

    // A medium-priority arrival can only displace the priority-1 resident.
    let c = sched.execute(Request::Load {
        task: "aes5".into(),
        priority: 3,
        deadline: None,
    });
    match c {
        // aes5 is 5x5 and cannot fit an 8x4 fabric at all — it must be
        // rejected without touching the priority-7 resident.
        Outcome::Rejected { .. } => {}
        other => panic!("expected rejection, got {other:?}"),
    }
    let d = sched.execute(Request::Load {
        task: "fir4".into(),
        priority: 3,
        deadline: None,
    });
    let Outcome::Loaded { evicted, .. } = d else {
        panic!("medium-priority load failed: {d:?}");
    };
    assert_eq!(evicted, vec![low_job], "only the low-priority task may go");
    let residents = sched.residents();
    assert!(
        residents.iter().any(|r| r.priority == 7),
        "the priority-7 resident must survive: {residents:?}"
    );

    // An incoming request weaker than every resident is rejected.
    let e = sched.execute(Request::Load {
        task: "crc4".into(),
        priority: 0,
        deadline: None,
    });
    assert!(matches!(e, Outcome::Rejected { .. }), "got {e:?}");
}

/// A second replay on the same (warm) scheduler reports only its own
/// counters, not the lifetime totals.
#[test]
fn repeated_replays_report_per_replay_metrics() {
    let trace = vbs_sched::Trace::from_text("load 1 1 fir4 0\nunload 9 1\n").unwrap();
    let mut sched = scheduler(12, 8, Box::new(FirstFit), SchedulerConfig::default());
    let first = replay(&mut sched, &trace);
    let second = replay(&mut sched, &trace);
    assert_eq!(first.sched.loads_submitted, 1);
    assert_eq!(second.sched.loads_submitted, 1);
    assert_eq!(second.sched.loads_accepted, 1);
    // The first replay decodes; the warm second one is all cache hits.
    assert_eq!(first.cache.misses, 1);
    assert_eq!(second.cache.misses, 0);
    assert!(second.cache.hits >= 1);
}

/// A zero-duration job (load and unload in the same tick — legal in the
/// trace text format) must not stay resident after the replay.
#[test]
fn zero_duration_jobs_do_not_leak() {
    let trace =
        vbs_sched::Trace::from_text("load 1 1 fir4 0\nunload 1 1\nload 2 2 crc4 0\nunload 5 2\n")
            .unwrap();
    let mut sched = scheduler(12, 8, Box::new(FirstFit), SchedulerConfig::default());
    let report = replay(&mut sched, &trace);
    assert_eq!(report.sched.loads_accepted, 2);
    assert!(
        sched.residents().is_empty(),
        "zero-duration job leaked: {:?}",
        sched.residents()
    );
    assert_eq!(sched.manager().controller().memory().occupied_macros(), 0);
}

/// Re-registering a task under an existing name plus invalidation serves
/// the new stream; without invalidation the cache would be stale.
#[test]
fn cache_invalidation_after_reregistration() {
    let mut sched = scheduler(12, 8, Box::new(FirstFit), SchedulerConfig::default());
    let first = sched.execute(Request::Load {
        task: "fir4".into(),
        priority: 0,
        deadline: None,
    });
    let Outcome::Loaded { job, .. } = first else {
        panic!("load failed: {first:?}");
    };
    sched.execute(Request::Unload { job });

    // Replace "fir4" with the stream of crc4 (same spec, different bits).
    let replacement = sched
        .manager()
        .repository()
        .view("crc4")
        .unwrap()
        .to_owned()
        .unwrap();
    sched.repository_mut().store("fir4", &replacement);
    sched.invalidate_cached("fir4");

    let second = sched.execute(Request::Load {
        task: "fir4".into(),
        priority: 0,
        deadline: None,
    });
    let Outcome::Loaded {
        origin, cache_hit, ..
    } = second
    else {
        panic!("reload failed: {second:?}");
    };
    assert!(!cache_hit, "invalidated entry must decode again");
    let image = sched
        .manager()
        .controller()
        .memory()
        .read_region(Rect::new(origin, 4, 4))
        .unwrap();
    let fresh = fresh_decode(&sched, &replacement);
    assert_eq!(image.diff_count(&fresh).unwrap(), 0);
}

/// The repository stays authoritative over a hot cache entry: a stream
/// corrupted in the store is refused on the next load even when nobody
/// invalidated its decoded image.
#[test]
fn corrupted_restore_is_rejected_despite_a_hot_cache_entry() {
    let mut sched = scheduler(12, 8, Box::new(FirstFit), SchedulerConfig::default());
    let load = || Request::Load {
        task: "fir4".into(),
        priority: 0,
        deadline: None,
    };
    let Outcome::Loaded { job, .. } = sched.execute(load()) else {
        panic!("cold load failed");
    };
    sched.execute(Request::Unload { job });
    let warm = sched.execute(load());
    let Outcome::Loaded {
        job,
        cache_hit: true,
        ..
    } = warm
    else {
        panic!("expected a hot hit: {warm:?}");
    };
    sched.execute(Request::Unload { job });

    let mut bytes = sched
        .manager()
        .repository()
        .view("fir4")
        .unwrap()
        .to_owned()
        .unwrap()
        .to_bytes_checked();
    let middle = bytes.len() / 2;
    bytes[middle] ^= 0x04;
    sched.repository_mut().store_bytes("fir4", bytes);

    for _ in 0..2 {
        let refused = sched.execute(load());
        assert!(
            matches!(
                refused,
                Outcome::Rejected {
                    reason: RejectReason::Runtime(_),
                    ..
                }
            ),
            "served from the stale image: {refused:?}"
        );
    }
    assert!(sched.residents().is_empty());
}

/// `touch` refreshes a resident's LRU stamp and changes the eviction order.
#[test]
fn touch_changes_lru_eviction_order() {
    // 8x4 fabric holds exactly two 4x4 tasks.
    let mut sched = scheduler(
        8,
        4,
        Box::new(FirstFit),
        SchedulerConfig {
            eviction_limit: 1,
            compaction: false,
            ..SchedulerConfig::default()
        },
    );
    let a = sched.execute(Request::Load {
        task: "fir4".into(),
        priority: 0,
        deadline: None,
    });
    let Outcome::Loaded { job: first_job, .. } = a else {
        panic!("load failed: {a:?}");
    };
    sched.advance_to(1);
    let b = sched.execute(Request::Load {
        task: "crc4".into(),
        priority: 0,
        deadline: None,
    });
    let Outcome::Loaded {
        job: second_job, ..
    } = b
    else {
        panic!("load failed: {b:?}");
    };

    // Without the touch, `first_job` (older) would be the LRU victim.
    sched.advance_to(2);
    sched.touch(first_job);
    let c = sched.execute(Request::Load {
        task: "fir4".into(),
        priority: 0,
        deadline: None,
    });
    let Outcome::Loaded { evicted, .. } = c else {
        panic!("third load failed: {c:?}");
    };
    assert_eq!(evicted, vec![second_job], "touched task must survive");
}

/// Deadlines: a request processed past its deadline is dropped and counted.
#[test]
fn stale_requests_miss_their_deadline() {
    let mut sched = scheduler(12, 8, Box::new(FirstFit), SchedulerConfig::default());
    sched.advance_to(100);
    let outcome = sched.execute(Request::Load {
        task: "fir4".into(),
        priority: 0,
        deadline: Some(99),
    });
    assert!(matches!(
        outcome,
        Outcome::Rejected {
            reason: vbs_sched::RejectReason::DeadlineMissed,
            ..
        }
    ));
    assert_eq!(sched.metrics().deadline_missed, 1);

    // A deadline in the future is fine.
    let ok = sched.execute(Request::Load {
        task: "fir4".into(),
        priority: 0,
        deadline: Some(100),
    });
    assert!(matches!(ok, Outcome::Loaded { .. }));
}

/// Explicit relocation requests move residents and keep the image intact.
#[test]
fn explicit_relocation_moves_the_resident() {
    let mut sched = scheduler(12, 8, Box::new(FirstFit), SchedulerConfig::default());
    let loaded = sched.execute(Request::Load {
        task: "crc4".into(),
        priority: 0,
        deadline: None,
    });
    let Outcome::Loaded { job, origin, .. } = loaded else {
        panic!("load failed: {loaded:?}");
    };
    let before = sched
        .manager()
        .controller()
        .memory()
        .read_region(Rect::new(origin, 4, 4))
        .unwrap();
    let to = vbs_arch::Coord::new(8, 4);
    let moved = sched.execute(Request::Relocate { job, to });
    assert!(matches!(moved, Outcome::Relocated { .. }), "got {moved:?}");
    let after = sched
        .manager()
        .controller()
        .memory()
        .read_region(Rect::new(to, 4, 4))
        .unwrap();
    assert_eq!(before.diff_count(&after).unwrap(), 0);
    assert_eq!(sched.metrics().relocations, 1);

    // Unloading everything leaves a blank fabric.
    sched.execute(Request::Unload { job });
    assert_eq!(sched.manager().controller().memory().occupied_macros(), 0);
    assert!(sched.residents().is_empty());
}

/// Arenas the cache displaces feed the controller's buffer pool, and
/// subsequent decodes draw from it instead of allocating.
#[test]
fn cache_evictions_recycle_into_the_pool() {
    // A hot tier with room for exactly one 4x4 arena: "fir4" takes it, and
    // "crc4" (same footprint) displaces it once its warm hits clear the
    // admission margin. Admission compares measured decode times, so the
    // number of warm hits that takes is not fixed; each one makes "crc4"
    // worth one more decode while "fir4" stays where it is.
    let spec = ArchSpec::new(CHANNEL_WIDTH, LUT_SIZE).unwrap();
    let arena = TaskBitstream::empty(spec, 4, 4).size_bytes();
    let stream = |name| repository().bytes(name).expect("stored").len() as u64;
    let config = SchedulerConfig {
        eviction_limit: 1,
        compaction: false,
        cache_budget: CacheBudget {
            hot_bytes: arena + stream("fir4").max(stream("crc4")),
            warm_bytes: 0,
        },
        ..SchedulerConfig::default()
    };
    let mut sched = scheduler(12, 12, Box::new(FirstFit), config);
    // Unloading right after the load leaves the cache as the decoded
    // image's only owner, so a displaced arena can be reclaimed.
    let load_and_unload = |sched: &mut Scheduler, task: &str| {
        let loaded = sched.execute(Request::Load {
            task: task.into(),
            priority: 1,
            deadline: None,
        });
        let Outcome::Loaded { job, .. } = loaded else {
            panic!("{task} not loaded: {loaded:?}");
        };
        sched.execute(Request::Unload { job });
    };
    load_and_unload(&mut sched, "fir4");
    let mut rounds = 0;
    while sched.cache_stats().demotions == 0 {
        assert!(rounds < 1000, "crc4 never displaced fir4");
        load_and_unload(&mut sched, "crc4");
        rounds += 1;
    }
    let stats = sched.manager().controller().scratch_pool().stats();
    assert!(
        stats.recycled >= 1,
        "the demoted arena went back to the pool: {stats:?}"
    );
    // "fir4" is warm now: its re-decode draws the recycled buffer.
    load_and_unload(&mut sched, "fir4");
    let stats = sched.manager().controller().scratch_pool().stats();
    assert!(
        stats.reused >= 1,
        "later decodes reuse recycled buffers: {stats:?}"
    );
}

/// A task larger than the fabric is refused before it is decoded, looked
/// up or cached: under a finite budget such an insert could demote a
/// useful entry.
#[test]
fn an_oversized_task_is_refused_before_it_is_decoded() {
    let mut sched = scheduler(3, 3, Box::new(FirstFit), SchedulerConfig::default());
    let outcome = sched.execute(Request::Load {
        task: "fir4".into(),
        priority: 1,
        deadline: None,
    });
    assert!(
        matches!(
            outcome,
            Outcome::Rejected {
                reason: RejectReason::NoCapacity,
                ..
            }
        ),
        "{outcome:?}"
    );
    assert_eq!(sched.metrics().decodes, 0);
    assert_eq!(sched.cache_stats(), CacheStats::default());
}

/// A zero-area stream — the 9 bytes of `W = 9, K = 6, k = 1`, 0 × 0 macros,
/// no records — is refused on every load path and writes nothing: not over
/// any frame of a resident, not as a phantom 1 × 1 resident.
#[test]
fn a_zero_area_stream_is_refused_on_every_path() {
    let zero_area = vec![17, 96, 9, 0, 0, 0, 0, 0, 0];
    let refused = |result: Result<TaskHandle, RuntimeError>| {
        matches!(
            result,
            Err(RuntimeError::Decode(VbsError::Arch(
                ArchError::InvalidDeviceSize {
                    width: 0,
                    height: 0
                }
            )))
        )
    };

    let mut manager = TaskManager::new(
        ReconfigurationController::new(device(8, 8)),
        repository().clone(),
    );
    manager
        .repository_mut()
        .store_bytes("empty", zero_area.clone());
    manager.load_at("fir4", Coord::new(0, 0)).unwrap();
    let region = Rect::new(Coord::new(0, 0), 4, 4);
    let resident = manager.controller().memory().read_region(region).unwrap();
    for y in 0..4 {
        for x in 0..4 {
            let result = manager.load_at("empty", Coord::new(x, y));
            assert!(refused(result), "load_at ({x}, {y})");
        }
    }
    let after = manager.controller().memory().read_region(region).unwrap();
    assert_eq!(after.diff_count(&resident).unwrap(), 0);
    assert!(refused(manager.load("empty")));
    assert_eq!(manager.loaded_tasks().len(), 1);

    let mut sched = scheduler(8, 8, Box::new(FirstFit), SchedulerConfig::default());
    sched.repository_mut().store_bytes("empty", zero_area);
    let outcome = sched.execute(Request::Load {
        task: "empty".into(),
        priority: 1,
        deadline: None,
    });
    match outcome {
        Outcome::Rejected {
            reason: RejectReason::Runtime(_),
            evicted,
            ..
        } => assert!(evicted.is_empty()),
        other => panic!("expected a runtime rejection, got {other:?}"),
    }
    assert_eq!(sched.metrics().decodes, 0);
    assert!(sched.residents().is_empty());
}

/// Requests of one class and priority are processed in submission order:
/// a same-priority batch with interleaved unloads runs its unloads first,
/// then its loads as they were submitted.
#[test]
fn a_same_priority_batch_runs_unloads_first_then_loads_in_order() {
    let mut sched = scheduler(16, 16, Box::new(FirstFit), SchedulerConfig::default());
    let load = |task: &str| Request::Load {
        task: task.into(),
        priority: 1,
        deadline: None,
    };
    let first = sched.submit(load("fir4"));
    let second = sched.submit(load("crc4"));
    sched.process_pending();
    let batch = [
        sched.submit(load("aes5")),
        sched.submit(Request::Unload { job: first }),
        sched.submit(load("fft6")),
        sched.submit(load("fir4")),
        sched.submit(Request::Unload { job: second }),
        sched.submit(load("crc4")),
    ];
    let processed = sched.process_pending_tagged();
    let order: Vec<u64> = processed.iter().map(|(id, _)| *id).collect();
    assert_eq!(
        order,
        [batch[1], batch[4], batch[0], batch[2], batch[3], batch[5]]
    );
    for (id, outcome) in &processed {
        let expected_unload = *id == batch[1] || *id == batch[4];
        assert_eq!(
            matches!(outcome, Outcome::Unloaded { .. }),
            expected_unload,
            "{outcome:?}"
        );
        assert_eq!(
            matches!(outcome, Outcome::Loaded { .. }),
            !expected_unload,
            "{outcome:?}"
        );
    }
}
