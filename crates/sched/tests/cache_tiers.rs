//! Property suite for the two-tier byte-budgeted decode cache.
//!
//! Three properties pin the tiering design:
//!
//! * **Unbounded keeps everything** — with both byte budgets unbounded the
//!   scheduler decodes every stream of the repository exactly once, however
//!   many there are: nothing is demoted or dropped, and what each load
//!   wrote is its stream's decode.
//! * **Budget safety** — under any finite budget, after *every* operation
//!   each tier's resident bytes stay within its budget.
//! * **Budget invariance** — replaying a workload through the scheduler
//!   under any cache budget produces the same accepted/rejected/eviction/
//!   relocation counters and the same final configuration memory as the
//!   unbounded run; budgets trade only decode time for bytes.

mod common;

use common::{scheduler, TASKS};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use vbs_arch::{ArchSpec, Coord, Rect};
use vbs_bitstream::TaskBitstream;
use vbs_runtime::BestFit;
use vbs_sched::{
    CacheBudget, DecodeCache, McncCorpus, Outcome, Request, Scheduler, SchedulerConfig, Trace,
    TraceOp, WorkloadSpec,
};

/// A decoded stream carrying its name index as a frame bit.
fn task(idx: usize) -> Arc<TaskBitstream> {
    let mut t = TaskBitstream::empty(ArchSpec::paper_example(), 2, 2);
    t.frame_mut(Coord::new(0, 0)).set_bit(idx, true);
    Arc::new(t)
}

/// An unbounded budget keeps every stream it decoded: over seeded random
/// traces on a 48-instance population (more streams than any count cap the
/// cache ever had), each distinct task is decoded exactly once, nothing is
/// demoted, and every load wrote its stream's decode.
#[test]
fn unbounded_cache_decodes_every_stream_exactly_once() {
    let corpus = McncCorpus::load(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/traces/mcnc"
    ))
    .expect("corpus loads");
    let repository = corpus.scaled_repository(48);
    let config = SchedulerConfig {
        cache_budget: CacheBudget::UNBOUNDED,
        ..McncCorpus::replay_config()
    };
    // Decoded outside any scheduler, once per stream, shared by all seeds.
    let mut fresh: HashMap<String, TaskBitstream> = HashMap::new();
    for seed in 0..8u64 {
        let trace = Trace::synthetic(&WorkloadSpec {
            tasks: repository
                .task_names()
                .into_iter()
                .map(String::from)
                .collect(),
            loads: 40,
            seed,
            ..WorkloadSpec::default()
        });
        // Large enough that every load is accepted without an eviction.
        let mut sched = corpus.scheduler_over(repository.clone(), 64, 64, config);
        let mut jobs = HashMap::new();
        let mut names = HashSet::new();
        let mut loads = 0;
        for event in &trace.events {
            sched.advance_to(event.tick);
            match &event.op {
                TraceOp::Load {
                    job,
                    task,
                    priority,
                    deadline,
                } => {
                    let outcome = sched.execute(Request::Load {
                        task: task.clone(),
                        priority: *priority,
                        deadline: *deadline,
                    });
                    let Outcome::Loaded {
                        job: id, origin, ..
                    } = outcome
                    else {
                        panic!("seed {seed}: {task} not loaded: {outcome:?}");
                    };
                    jobs.insert(*job, id);
                    names.insert(task.as_str());
                    loads += 1;
                    let expected = fresh.entry(task.clone()).or_insert_with(|| {
                        vbs_core::decode(
                            &repository
                                .view(task)
                                .expect("stored stream")
                                .to_owned()
                                .expect("stored stream"),
                        )
                        .expect("corpus stream decodes")
                    });
                    let region = Rect::new(origin, expected.width(), expected.height());
                    let written = sched
                        .manager()
                        .controller()
                        .memory()
                        .read_region(region)
                        .expect("resident region");
                    assert_eq!(
                        written.diff_count(expected),
                        Ok(0),
                        "seed {seed}: {task} read back differs from a fresh decode"
                    );
                }
                TraceOp::Unload { job } => {
                    sched.execute(Request::Unload { job: jobs[job] });
                }
                TraceOp::Swap { .. } => unreachable!("synthetic traces never swap"),
            }
        }
        let distinct = names.len();
        let stats = sched.cache_stats();
        assert_eq!(
            stats.misses, distinct as u64,
            "seed {seed}: a stream was decoded twice"
        );
        assert_eq!(stats.hits, loads - distinct as u64, "seed {seed}");
        assert_eq!(
            stats.entries, distinct,
            "seed {seed}: a decoded stream left the cache"
        );
        assert_eq!(stats.demotions, 0, "seed {seed}");
        assert_eq!(stats.warm_entries, 0, "seed {seed}");
        assert_eq!(sched.metrics().decodes, distinct as u64, "seed {seed}");
    }
}

proptest! {
    /// After every operation, every finite tier budget holds: hot bytes
    /// within the hot budget, warm bytes within the warm budget.
    #[test]
    fn resident_bytes_stay_within_finite_budgets(
        hot_budget in 1u64..4096,
        warm_budget in 1u64..512,
        ops in proptest::collection::vec((0u8..2, 0usize..6, 1usize..128), 1..60),
    ) {
        let spec = ArchSpec::paper_example();
        let budget = CacheBudget {
            hot_bytes: hot_budget,
            warm_bytes: warm_budget,
        };
        let mut cache = DecodeCache::new(budget);
        for &(op, idx, len) in &ops {
            if op == 0 {
                cache.get(&format!("t{idx}"), &spec);
            } else {
                cache.insert(&format!("t{idx}"), spec, task(idx), len as u64, 10 + len as u64);
            }
            let stats = cache.stats();
            prop_assert!(
                stats.hot_bytes <= hot_budget,
                "hot tier over budget: {} > {} after {:?}",
                stats.hot_bytes, hot_budget, (op, idx, len)
            );
            prop_assert!(
                stats.warm_bytes <= warm_budget,
                "warm tier over budget: {} > {} after {:?}",
                stats.warm_bytes, warm_budget, (op, idx, len)
            );
            prop_assert_eq!(stats.resident_bytes(), stats.hot_bytes + stats.warm_bytes);
        }
    }

    /// Cache budgets are invisible to scheduling: any budget replays a
    /// workload to the same accepted/rejected/eviction/relocation counters
    /// and the same final configuration memory as the unbounded cache,
    /// while honoring the budget.
    #[test]
    fn any_budget_replays_bit_identically_to_unbounded(
        seed in 0u64..1_000_000,
        loads in 8usize..40,
        hot_kib in 1u64..64,
        warm_kib in 1u64..16,
    ) {
        let trace = Trace::synthetic(&WorkloadSpec {
            tasks: TASKS.iter().map(|t| t.0.to_string()).collect(),
            loads,
            mean_interarrival: 3,
            mean_duration: 24,
            priority_levels: 4,
            deadline_slack: Some(40),
            seed,
        });
        let base = SchedulerConfig {
            eviction_limit: 1,
            compaction: true,
            ..SchedulerConfig::default()
        };
        let budget = CacheBudget {
            hot_bytes: hot_kib * 1024,
            warm_bytes: warm_kib * 1024,
        };
        let budgeted_cfg = SchedulerConfig {
            cache_budget: budget,
            ..base
        };
        let mut unbounded = scheduler(11, 11, Box::new(BestFit), base);
        let mut budgeted = scheduler(11, 11, Box::new(BestFit), budgeted_cfg);
        let u = vbs_sched::replay(&mut unbounded, &trace);
        let b = vbs_sched::replay(&mut budgeted, &trace);

        let pinned = |r: &vbs_sched::SimReport| (
            r.sched.loads_submitted,
            r.sched.loads_accepted,
            r.sched.loads_rejected,
            r.sched.deadline_missed,
            r.sched.evictions,
            r.sched.relocations,
        );
        prop_assert_eq!(pinned(&u), pinned(&b), "budget changed scheduling behavior");
        prop_assert!(b.cache.hot_bytes <= budget.hot_bytes);
        prop_assert!(b.cache.warm_bytes <= budget.warm_bytes);
        // The budgeted hot tier is always a subset of the unbounded one
        // (demotion only removes), so hot hits can only shrink and decodes
        // (which warm re-decodes count toward) can only grow.
        prop_assert!(b.cache.hits <= u.cache.hits, "hot hits grew under a budget");
        prop_assert!(b.sched.decodes >= u.sched.decodes, "decodes shrank under a budget");

        let image = |sched: &Scheduler| {
            let device = sched.manager().controller().device();
            sched
                .manager()
                .controller()
                .memory()
                .read_region(Rect::at_origin(device.width(), device.height()))
                .expect("full-device read")
        };
        prop_assert_eq!(
            image(&unbounded).diff_count(&image(&budgeted)).expect("same devices"),
            0,
            "final configuration memories diverge under a cache budget"
        );
    }
}
