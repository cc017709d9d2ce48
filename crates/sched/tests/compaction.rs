//! Differential suite for decode-free relocation and batch-planned
//! compaction.
//!
//! Pre-PR, `Scheduler` relocation fetched the task's decoded stream through
//! the decode cache (hitting, missing, decoding and LRU-stamping on the
//! way) and compaction executed up to four greedy bottom-left sweeps, each
//! move its own relocation. Both now run **decode-free**: a relocation is
//! one bulk word-arena move, and a compaction pass plans the whole move
//! schedule up front, moving every improved resident exactly once. This
//! suite pins the equivalences:
//!
//! * relocation and compaction perform **zero** decodes and **zero** decode
//!   cache fetches (the counters the old path bumped);
//! * the configuration memory after a relocation is bit-identical to
//!   re-writing the decoded image at the destination — exactly what the
//!   pre-PR cache-fetch path wrote;
//! * the fabric layout and memory after the batch-planned `compact()` are
//!   bit-identical to executing the legacy greedy sweeps move by move,
//!   while rewriting no more frames than the sweeps did.

mod common;

use common::{assert_fabric_invariants, scheduler, TASKS};
use vbs_arch::{Coord, Rect};
use vbs_runtime::{BestFit, FabricView, FirstFit, ReconfigurationController};
use vbs_sched::{Outcome, Request, Scheduler, SchedulerConfig};

/// De-virtualizes `vbs` on a spare controller of the scheduler's device,
/// behind the decode cache's back — the reference image of the
/// differentials.
fn fresh_decode(sched: &Scheduler, vbs: &vbs_core::Vbs) -> vbs_bitstream::TaskBitstream {
    let device = sched.manager().controller().device().clone();
    let mut image = vbs_bitstream::TaskBitstream::empty(*vbs.spec(), 0, 0);
    ReconfigurationController::new(device)
        .decode_into(vbs, &mut image)
        .expect("decode");
    image
}

fn full_memory_image(sched: &Scheduler) -> vbs_bitstream::TaskBitstream {
    let device = sched.manager().controller().device();
    sched
        .manager()
        .controller()
        .memory()
        .read_region(Rect::at_origin(device.width(), device.height()))
        .expect("full-device read")
}

/// Loads a mix of tasks and unloads every other one, leaving bottom-left
/// holes so compaction has real work. Returns the surviving job ids.
fn fragment(sched: &mut Scheduler) -> Vec<u64> {
    let mut jobs = Vec::new();
    for round in 0..10 {
        let task = TASKS[round % TASKS.len()].0;
        if let Outcome::Loaded { job, .. } = sched.execute(Request::Load {
            task: task.into(),
            priority: 1,
            deadline: None,
        }) {
            jobs.push(job);
        }
    }
    let mut survivors = Vec::new();
    for (i, job) in jobs.into_iter().enumerate() {
        if i % 2 == 0 {
            sched.execute(Request::Unload { job });
        } else {
            survivors.push(job);
        }
    }
    survivors
}

/// The pre-PR compaction, re-created through public API: up to four greedy
/// bottom-left sweeps, every improvement executed immediately as its own
/// relocation request. Returns (moves, frames rewritten).
fn greedy_compact(sched: &mut Scheduler) -> (usize, u64) {
    let mut moves = 0usize;
    let mut frames = 0u64;
    for _ in 0..4 {
        let mut moved = false;
        let mut residents = sched.residents();
        residents.sort_by_key(|r| (r.region.origin.y, r.region.origin.x));
        for info in residents {
            let view = sched.manager().fabric_view();
            let others: Vec<Rect> = view
                .occupied()
                .iter()
                .copied()
                .filter(|r| *r != info.region)
                .collect();
            let masked = FabricView::new(view.width(), view.height(), others);
            let Some(candidate) =
                sched
                    .manager()
                    .policy()
                    .place(info.region.width, info.region.height, &masked)
            else {
                continue;
            };
            if (candidate.y, candidate.x) >= (info.region.origin.y, info.region.origin.x) {
                continue;
            }
            if matches!(
                sched.execute(Request::Relocate {
                    job: info.job,
                    to: candidate,
                }),
                Outcome::Relocated { .. }
            ) {
                moves += 1;
                frames += info.region.area() as u64;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
    (moves, frames)
}

/// An explicit relocation touches neither the decode counters nor the cache,
/// and the moved region is bit-identical to re-writing the decoded image at
/// the destination (what the pre-PR cache-fetch relocate path produced).
#[test]
fn relocation_is_decode_free_and_bit_identical_to_the_decoded_image() {
    let mut sched = scheduler(12, 8, Box::new(FirstFit), SchedulerConfig::default());
    let Outcome::Loaded { job, origin, .. } = sched.execute(Request::Load {
        task: "crc4".into(),
        priority: 0,
        deadline: None,
    }) else {
        panic!("fixture load failed");
    };
    assert_eq!(origin, Coord::new(0, 0));

    // Reference: the decoded image, independent of the scheduler's cache.
    let vbs = sched
        .manager()
        .repository()
        .view("crc4")
        .unwrap()
        .to_owned()
        .unwrap();
    let decoded = fresh_decode(&sched, &vbs);

    let metrics_before = sched.metrics();
    let cache_before = sched.cache_stats();
    let to = Coord::new(7, 3);
    assert!(matches!(
        sched.execute(Request::Relocate { job, to }),
        Outcome::Relocated { .. }
    ));
    let metrics_after = sched.metrics();
    let cache_after = sched.cache_stats();

    assert_eq!(
        metrics_after.decodes, metrics_before.decodes,
        "relocation must not decode"
    );
    assert_eq!(
        (cache_after.hits, cache_after.misses),
        (cache_before.hits, cache_before.misses),
        "relocation must not touch the decode cache"
    );

    let moved = sched
        .manager()
        .controller()
        .memory()
        .read_region(Rect::new(to, 4, 4))
        .unwrap();
    assert_eq!(
        moved.diff_count(&decoded).unwrap(),
        0,
        "the moved region must hold exactly the decoded image"
    );
    let vacated = sched
        .manager()
        .controller()
        .memory()
        .read_region(Rect::new(origin, 4, 4))
        .unwrap();
    assert_eq!(vacated.popcount(), 0, "the old region must be blank");
}

/// The batch-planned pass converges to the same layout and the same memory
/// bits as the legacy greedy sweeps, without decoding, without cache
/// fetches, and without rewriting more frames than the sweeps did.
#[test]
fn batch_compaction_matches_the_greedy_sweeps_bit_for_bit() {
    let config = SchedulerConfig {
        eviction_limit: 0,
        compaction: false,
        ..SchedulerConfig::default()
    };
    let mut batch = scheduler(11, 11, Box::new(BestFit), config);
    let mut greedy = scheduler(11, 11, Box::new(BestFit), config);
    let batch_jobs = fragment(&mut batch);
    let greedy_jobs = fragment(&mut greedy);
    assert_eq!(batch_jobs, greedy_jobs, "identical fixtures");
    assert!(
        batch_jobs.len() >= 2,
        "the fixture must keep at least two residents"
    );

    let metrics_before = batch.metrics();
    let cache_before = batch.cache_stats();
    let moves = batch.compact();
    let metrics_after = batch.metrics();
    let cache_after = batch.cache_stats();
    let batch_frames =
        metrics_after.compaction_frames_moved - metrics_before.compaction_frames_moved;

    assert!(moves > 0, "the fragmented fixture must compact");
    assert_eq!(
        metrics_after.decodes, metrics_before.decodes,
        "compaction must not decode"
    );
    assert_eq!(
        (cache_after.hits, cache_after.misses),
        (cache_before.hits, cache_before.misses),
        "compaction must not touch the decode cache"
    );
    assert_eq!(
        metrics_after.relocations - metrics_before.relocations,
        moves as u64
    );
    assert!(batch_frames > 0, "moved frames are accounted");

    let (greedy_moves, greedy_frames) = greedy_compact(&mut greedy);
    assert!(greedy_moves > 0);
    assert!(
        batch_frames <= greedy_frames,
        "the batch plan may not rewrite more frames than the sweeps \
         (batch {batch_frames}, greedy {greedy_frames})"
    );

    // Same final layout, same final bits.
    let batch_regions: Vec<(u64, Rect)> = {
        let mut r: Vec<_> = batch
            .residents()
            .iter()
            .map(|i| (i.job, i.region))
            .collect();
        r.sort_by_key(|&(job, _)| job);
        r
    };
    let greedy_regions: Vec<(u64, Rect)> = {
        let mut r: Vec<_> = greedy
            .residents()
            .iter()
            .map(|i| (i.job, i.region))
            .collect();
        r.sort_by_key(|&(job, _)| job);
        r
    };
    assert_eq!(
        batch_regions, greedy_regions,
        "batch planning must converge to the greedy layout"
    );
    assert_eq!(
        full_memory_image(&batch)
            .diff_count(&full_memory_image(&greedy))
            .unwrap(),
        0,
        "final configuration memories must be bit-identical"
    );
    assert_fabric_invariants(&batch);
    assert_fabric_invariants(&greedy);
}

/// Compaction triggered from the load path (placement failure) stays
/// decode-free too, and every resident's frames survive the moves intact.
#[test]
fn load_triggered_compaction_preserves_every_resident_image() {
    let config = SchedulerConfig {
        eviction_limit: 0,
        compaction: true,
        ..SchedulerConfig::default()
    };
    let mut sched = scheduler(11, 11, Box::new(BestFit), config);
    let survivors = fragment(&mut sched);

    // Reference images of every survivor, via an independent decode.
    let mut references = Vec::new();
    for info in sched.residents() {
        let task = sched
            .manager()
            .loaded_tasks()
            .iter()
            .find(|t| t.region == info.region)
            .unwrap();
        let vbs = sched
            .manager()
            .repository()
            .view(&task.name)
            .unwrap()
            .to_owned()
            .unwrap();
        let decoded = fresh_decode(&sched, &vbs);
        references.push((info.job, decoded));
    }

    let decodes_before = sched.metrics().decodes;
    // aes5 (5x5) cannot fit the fragmented holes as-is; compaction must
    // make room without decoding anything but the new arrival.
    let outcome = sched.execute(Request::Load {
        task: "aes5".into(),
        priority: 1,
        deadline: None,
    });
    assert!(
        matches!(outcome, Outcome::Loaded { .. }),
        "compaction must make room for aes5: {outcome:?}"
    );
    assert!(
        sched.metrics().compaction_passes > 0,
        "the load must have triggered a compaction pass"
    );
    assert!(
        sched.metrics().decodes - decodes_before <= 1,
        "compaction itself must not decode — at most the arrival may \
         (got {} decodes)",
        sched.metrics().decodes - decodes_before
    );

    // An idle tick after the load relocates nothing: compaction runs only
    // when a placement fails or a caller asks for it.
    let layout = |sched: &Scheduler| {
        let mut r: Vec<(u64, Rect)> = sched
            .residents()
            .iter()
            .map(|i| (i.job, i.region))
            .collect();
        r.sort_by_key(|&(job, _)| job);
        r
    };
    let (relocations, regions) = (sched.metrics().relocations, layout(&sched));
    sched.advance_to(sched.now() + 1_000);
    assert_eq!(
        sched.metrics().relocations,
        relocations,
        "an idle tick must not relocate"
    );
    assert_eq!(layout(&sched), regions, "an idle tick must not move a task");

    for (job, reference) in references {
        let info = sched
            .residents()
            .into_iter()
            .find(|i| i.job == job)
            .unwrap_or_else(|| panic!("job {job} must survive compaction"));
        let image = sched
            .manager()
            .controller()
            .memory()
            .read_region(info.region)
            .unwrap();
        assert_eq!(
            image.diff_count(&reference).unwrap(),
            0,
            "job {job} moved with its bits intact"
        );
    }
    let _ = survivors;
    assert_fabric_invariants(&sched);
}
