//! Decode→resident throughput baseline: the scratch-reuse and pooled load
//! paths, plus the batch-vs-greedy compaction pause study and the 4-fabric
//! fleet replay, emitted as machine-readable `BENCH_decode.json` so perf
//! numbers accumulate per PR.
//!
//! Per-load paths timed over the scheduler workload task mix on one
//! `--fabric`-sized device (a load = de-virtualize one VBS and make it
//! resident in configuration memory):
//!
//! * **scratch** — one thread, no pool: decode state and the staging image
//!   live in a persistent [`vbs_core::DecodeScratch`] and a reused
//!   [`TaskBitstream`] (`Devirtualizer::decode_into` + `load_decoded`),
//!   zero allocations steady-state;
//! * **pooled** — the full `ReconfigurationController::load` path: the
//!   scratch and the staging image come from the controller's warm
//!   [`vbs_runtime::ScratchPool`] — zero allocations per load.
//!
//! The **compaction** arm fragments two identical schedulers and defrags
//! one with the batch-planned `Scheduler::compact` (each task moved at most
//! once, straight to its final position) and the other with the legacy
//! greedy bottom-left sweeps (re-created through public relocation
//! requests), reporting pause microseconds and frames rewritten for both.
//!
//! The fleet section replays the same seeded trace through a
//! `--fabrics`-sized multi-fabric scheduler.
//!
//! The **mcnc** arm runs the checked-in corpus (`tests/traces/mcnc/`)
//! instead of the synthetic task mix: per-circuit pooled-load throughput
//! and latency percentiles over the real place/route/encode streams, plus
//! the steady and variant-swap trace replays through the single scheduler
//! and the fleet with a telemetry registry attached, so the Load-stage
//! tail is gated in CI alongside the counters.
//!
//! The **fault** arm records the integrity machinery's cost: the corpus
//! steady trace replayed with readback verification off vs on (the
//! `verify_overhead` ratio), plus the seeded chaos fleet replay (write
//! faults, corruption, mid-trace outage) as the degraded-mode throughput
//! reference.
//!
//! Usage: `cargo run --release -p vbs-bench --bin decode_perf --
//!         [--loads N] [--fabric WxH] [--fabrics K] [--seed S]
//!         [--quick] [--out PATH]`

use std::time::{Duration, Instant};
use vbs_arch::{ArchSpec, Coord, Device, Rect};
use vbs_bench::sched_workload::{sched_device, sched_fleet, sched_repository, sched_trace};
use vbs_bench::{allocations, CountingAllocator};
use vbs_bitstream::{Kernels, TaskBitstream};
use vbs_core::{decode, DecodeScratch, Devirtualizer, Vbs};
use vbs_runtime::{BestFit, FabricView, ReconfigurationController, VbsRepository};
use vbs_sched::{
    replay, replay_multi, CacheBudget, CacheStats, LeastLoaded, McncCorpus, Outcome, Request,
    Scheduler, SchedulerConfig, Trace,
};
use vbs_telemetry::{HistogramSummary, LatencyHistogram, Stage, Telemetry};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

struct Options {
    loads: usize,
    fabric: (u16, u16),
    fabrics: usize,
    seed: u64,
    out: String,
}

fn parse_args() -> Options {
    let mut options = Options {
        loads: 500,
        fabric: (11, 11),
        fabrics: 4,
        seed: 2015,
        out: "BENCH_decode.json".to_string(),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => options.loads = options.loads.min(60),
            "--loads" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    options.loads = 1usize.max(v);
                    i += 1;
                }
            }
            "--seed" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    options.seed = v;
                    i += 1;
                }
            }
            "--fabrics" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    options.fabrics = 1usize.max(v);
                    i += 1;
                }
            }
            "--fabric" => {
                if let Some((w, h)) = args
                    .get(i + 1)
                    .and_then(|s| s.split_once('x'))
                    .and_then(|(w, h)| Some((w.parse().ok()?, h.parse().ok()?)))
                {
                    options.fabric = (w, h);
                    i += 1;
                }
            }
            "--out" => {
                if let Some(v) = args.get(i + 1) {
                    options.out = v.clone();
                    i += 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    options
}

/// One timed per-load path over `loads` round-robin loads of the task mix.
struct PathResult {
    name: String,
    elapsed: Duration,
    frames: u64,
    allocs: u64,
    loads: usize,
    /// Per-load wall latency in nanoseconds (recording is lock-free and
    /// allocation-free, so it does not disturb the allocs-per-load gate).
    latency: LatencyHistogram,
}

impl PathResult {
    fn ns_per_frame(&self) -> f64 {
        self.elapsed.as_nanos() as f64 / self.frames.max(1) as f64
    }

    fn ns_per_load(&self) -> f64 {
        self.elapsed.as_nanos() as f64 / self.loads.max(1) as f64
    }

    fn loads_per_sec(&self) -> f64 {
        self.loads as f64 / self.elapsed.as_secs_f64()
    }

    fn allocs_per_load(&self) -> f64 {
        self.allocs as f64 / self.loads.max(1) as f64
    }

    fn json(&self) -> String {
        format!(
            "{{\"ns_per_frame\": {:.1}, \"ns_per_load\": {:.0}, \"loads_per_sec\": {:.1}, \"allocs_per_load\": {:.1}}}",
            self.ns_per_frame(),
            self.ns_per_load(),
            self.loads_per_sec(),
            self.allocs_per_load()
        )
    }

    /// The per-load latency distribution as a JSON object, nanoseconds.
    fn latency_json(&self) -> String {
        let s = self.latency.summary();
        format!(
            "{{\"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}, \"mean_ns\": {:.0}}}",
            s.p50, s.p95, s.p99, s.max, s.mean
        )
    }
}

fn streams(repository: &VbsRepository) -> Vec<Vbs> {
    vbs_bench::sched_workload::SCHED_TASKS
        .iter()
        .map(|(name, ..)| repository.fetch(name).expect("workload task"))
        .collect()
}

fn run_path(
    name: impl Into<String>,
    options: &Options,
    streams: &[Vbs],
    mut load: impl FnMut(&Vbs),
) -> PathResult {
    // Warm up outside the measurement (cold-scratch allocations, page
    // faults, branch predictors). Two rounds so pooled paths reach their
    // steady-state buffer population before counting starts.
    for _ in 0..2 {
        for vbs in streams {
            load(vbs);
        }
    }
    let frames_per_round: u64 = streams
        .iter()
        .map(|v| v.width() as u64 * v.height() as u64)
        .sum();
    // The histogram's one allocation happens here, before counting starts;
    // recording into it inside the loop is lock-free and allocation-free.
    let latency = LatencyHistogram::new();
    let before = allocations();
    let start = Instant::now();
    for i in 0..options.loads {
        let begun = Instant::now();
        load(&streams[i % streams.len()]);
        latency.record(u64::try_from(begun.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    let elapsed = start.elapsed();
    let allocs = allocations() - before;
    PathResult {
        name: name.into(),
        elapsed,
        frames: frames_per_round * (options.loads as u64) / streams.len() as u64,
        allocs,
        loads: options.loads,
        latency,
    }
}

/// The scratch arm: a persistent arena and staging image on one thread,
/// outside any pool — the floor the pooled path is compared against.
fn scratch_path(options: &Options, repository: &VbsRepository) -> PathResult {
    let device = sched_device(options.fabric.0, options.fabric.1);
    let streams = streams(repository);
    let origin = Coord::new(0, 0);
    let mut controller = ReconfigurationController::new(device);
    let mut scratch = DecodeScratch::new();
    let mut staging = TaskBitstream::empty(*streams[0].spec(), 0, 0);
    run_path("scratch", options, &streams, |vbs| {
        Devirtualizer::new(vbs)
            .and_then(|d| d.decode_into(&mut staging, &mut scratch))
            .expect("decode");
        controller.load_decoded(&staging, origin).expect("load");
    })
}

/// The pooled arm: the full `load` path on a controller whose scratch pool
/// was warmed for the largest stream, so no load allocates.
fn pooled_path(options: &Options, repository: &VbsRepository) -> PathResult {
    let streams = streams(repository);
    let origin = Coord::new(0, 0);
    let largest = streams
        .iter()
        .max_by_key(|v| v.width() as u64 * v.height() as u64)
        .expect("workload streams");
    let mut controller =
        ReconfigurationController::new(sched_device(options.fabric.0, options.fabric.1));
    controller.warm(largest).expect("warm");
    run_path("pooled", options, &streams, |vbs| {
        controller.load(vbs, origin).expect("load");
    })
}

/// One compaction strategy's cost on a deterministically fragmented fabric.
struct CompactionResult {
    name: &'static str,
    moves: usize,
    frames_rewritten: u64,
    pause_micros: u64,
    decodes: u64,
    cache_fetches: u64,
}

impl CompactionResult {
    fn json(&self) -> String {
        format!(
            "{{\"moves\": {}, \"frames_rewritten\": {}, \"pause_micros\": {}, \"decodes\": {}, \"cache_fetches\": {}}}",
            self.moves, self.frames_rewritten, self.pause_micros, self.decodes, self.cache_fetches
        )
    }
}

/// Builds a fragmented scheduler: fill the fabric with the task mix, then
/// unload every other job, leaving a checkerboard of holes.
fn fragmented_scheduler(options: &Options, repository: &VbsRepository) -> Scheduler {
    let config = SchedulerConfig {
        eviction_limit: 0,
        compaction: false,
        ..SchedulerConfig::default()
    };
    let mut sched = vbs_bench::sched_workload::sched_scheduler(
        repository,
        options.fabric.0,
        options.fabric.1,
        0,
        Box::new(BestFit),
        config,
    );
    let names: Vec<&str> = vbs_bench::sched_workload::SCHED_TASKS
        .iter()
        .map(|(name, ..)| *name)
        .collect();
    let mut jobs = Vec::new();
    for round in 0..12 {
        let outcome = sched.execute(Request::Load {
            task: names[round % names.len()].into(),
            priority: 1,
            deadline: None,
        });
        if let Outcome::Loaded { job, .. } = outcome {
            jobs.push(job);
        }
    }
    // Vacate every other resident, bottom-left ones included, so the
    // survivors all have somewhere better to go.
    for job in jobs.iter().step_by(2) {
        sched.execute(Request::Unload { job: *job });
    }
    sched
}

/// Measures the batch-planned `Scheduler::compact` against a re-creation of
/// the legacy greedy sweeps (executed through public relocation requests),
/// on identically fragmented fabrics.
fn compaction_paths(options: &Options, repository: &VbsRepository) -> Vec<CompactionResult> {
    // Batch: the shipped planner; pause metrics come from SchedMetrics.
    let mut batch = fragmented_scheduler(options, repository);
    let before_metrics = batch.metrics();
    let before_cache = batch.cache_stats();
    let moves = batch.compact();
    let after = batch.metrics();
    let cache = batch.cache_stats();
    let batch_result = CompactionResult {
        name: "batch",
        moves,
        frames_rewritten: after.compaction_frames_moved - before_metrics.compaction_frames_moved,
        pause_micros: after.compaction_micros - before_metrics.compaction_micros,
        decodes: after.decodes - before_metrics.decodes,
        cache_fetches: (cache.hits + cache.misses) - (before_cache.hits + before_cache.misses),
    };

    // Greedy: up to four live bottom-left sweeps, every improvement
    // executed immediately as its own relocation (the pre-batch behavior).
    let mut greedy = fragmented_scheduler(options, repository);
    let before_metrics = greedy.metrics();
    let before_cache = greedy.cache_stats();
    let mut moves = 0usize;
    let mut frames = 0u64;
    let pause = Instant::now();
    for _ in 0..4 {
        let mut moved = false;
        let mut residents = greedy.residents();
        residents.sort_by_key(|r| (r.region.origin.y, r.region.origin.x));
        for info in residents {
            let view = greedy.manager().fabric_view();
            let others: Vec<Rect> = view
                .occupied()
                .iter()
                .copied()
                .filter(|r| *r != info.region)
                .collect();
            let masked = FabricView::new(view.width(), view.height(), others);
            let Some(candidate) =
                greedy
                    .manager()
                    .policy()
                    .place(info.region.width, info.region.height, &masked)
            else {
                continue;
            };
            let current = info.region.origin;
            if (candidate.y, candidate.x) >= (current.y, current.x) {
                continue;
            }
            let outcome = greedy.execute(Request::Relocate {
                job: info.job,
                to: candidate,
            });
            if matches!(outcome, Outcome::Relocated { .. }) {
                moves += 1;
                frames += info.region.area() as u64;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
    let pause_micros = u64::try_from(pause.elapsed().as_micros()).unwrap_or(u64::MAX);
    let after = greedy.metrics();
    let cache = greedy.cache_stats();
    let greedy_result = CompactionResult {
        name: "greedy",
        moves,
        frames_rewritten: frames,
        pause_micros,
        decodes: after.decodes - before_metrics.decodes,
        cache_fetches: (cache.hits + cache.misses) - (before_cache.hits + before_cache.misses),
    };

    vec![batch_result, greedy_result]
}

/// One dispatched-vs-portable measurement of a single word kernel.
struct KernelOp {
    name: &'static str,
    dispatched: Duration,
    portable: Duration,
    words_swept: u64,
}

impl KernelOp {
    fn gwords(&self, elapsed: Duration) -> f64 {
        self.words_swept as f64 / elapsed.as_secs_f64().max(1e-12) / 1e9
    }

    fn speedup(&self) -> f64 {
        self.portable.as_secs_f64() / self.dispatched.as_secs_f64().max(1e-12)
    }

    fn json(&self) -> String {
        format!(
            "{{\"dispatched_gwords_per_sec\": {:.2}, \"portable_gwords_per_sec\": {:.2}, \"speedup\": {:.2}}}",
            self.gwords(self.dispatched),
            self.gwords(self.portable),
            self.speedup()
        )
    }
}

/// The kernel microbench: the process-selected [`Kernels`] backend against
/// the portable chunked-`u64` backend, each sweeping the same 64 Ki-word
/// (512 KiB) buffers — larger than any task region, so the sweeps stream
/// memory the way a full-device scrub does.
fn kernel_paths(options: &Options) -> (&'static str, Vec<KernelOp>) {
    const WORDS: usize = 1 << 16;
    let active = Kernels::active();
    let portable = Kernels::portable();
    let a: Vec<u64> = (0..WORDS as u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (i << 9))
        .collect();
    let b: Vec<u64> = a
        .iter()
        .map(|w| w.rotate_left(29) ^ 0x5555_aaaa_0ff0_f00f)
        .collect();
    let iters = (options.loads.max(1) * 2).clamp(64, 2000);
    let words_swept = (WORDS * iters) as u64;

    let timed = |op: &mut dyn FnMut(&'static Kernels) -> u64, k: &'static Kernels| {
        let mut sink = op(k); // warm-up
        let start = Instant::now();
        for _ in 0..iters {
            sink ^= op(k);
        }
        let elapsed = start.elapsed();
        std::hint::black_box(sink);
        elapsed
    };

    let mut ops = Vec::new();
    let mut xor_popcount = |k: &'static Kernels| k.xor_popcount(&a, &b) as u64;
    ops.push(KernelOp {
        name: "xor_popcount",
        dispatched: timed(&mut xor_popcount, active),
        portable: timed(&mut xor_popcount, portable),
        words_swept,
    });
    let mut crc32 = |k: &'static Kernels| k.crc32_words(!0, &a) as u64;
    ops.push(KernelOp {
        name: "crc32_words",
        dispatched: timed(&mut crc32, active),
        portable: timed(&mut crc32, portable),
        words_swept,
    });
    (active.name(), ops)
}

/// One fabric size of the scaling curve: raw word-path frame writes tiled
/// across the whole arena, and the pooled end-to-end load path on a device
/// of that size.
struct ScalingResult {
    label: String,
    frame_write_mframes_per_sec: f64,
    pooled: PathResult,
}

impl ScalingResult {
    fn json(&self) -> String {
        let s = self.pooled.latency.summary();
        format!(
            "{{\"frame_write_mframes_per_sec\": {:.1}, \"loads_per_sec\": {:.1}, \"p50_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}}",
            self.frame_write_mframes_per_sec,
            self.pooled.loads_per_sec(),
            s.p50,
            s.p99,
            s.max
        )
    }
}

/// The scaling arm: the same workload on fabrics from the paper's 11x11
/// example up to 100x100, pinning how frame-write and load throughput hold
/// up as the arena grows from cache-resident to multi-megabyte.
fn scaling_paths(options: &Options, repository: &VbsRepository) -> Vec<ScalingResult> {
    let sizes: [(u16, u16); 4] = [(11, 11), (32, 32), (64, 64), (100, 100)];
    let streams_v = streams(repository);
    let largest = streams_v
        .iter()
        .max_by_key(|v| v.width() as u64 * v.height() as u64)
        .expect("workload streams");
    let task = decode(largest).expect("decode");
    let (tw, th) = (task.width(), task.height());
    let iterations = options.loads.max(1);
    let origin = Coord::new(0, 0);
    let mut results = Vec::new();
    for (w, h) in sizes {
        let device = sched_device(w, h);
        // Frame writes tile the task across every position of the arena so
        // the sweep touches the full footprint, not one hot corner.
        let mut memory = vbs_bitstream::ConfigMemory::new(&device);
        let positions: Vec<Coord> = (0..h - th + 1)
            .step_by(th as usize)
            .flat_map(|y| {
                (0..w - tw + 1)
                    .step_by(tw as usize)
                    .map(move |x| Coord::new(x, y))
            })
            .collect();
        memory.load_task(&task, positions[0]).expect("warm");
        let start = Instant::now();
        for i in 0..iterations {
            memory
                .load_task(&task, positions[i % positions.len()])
                .expect("load");
        }
        let elapsed = start.elapsed();
        let frames = tw as u64 * th as u64 * iterations as u64;
        let frame_write_mframes_per_sec = frames as f64 / elapsed.as_secs_f64().max(1e-12) / 1e6;

        let sized = Options {
            loads: options.loads,
            fabric: (w, h),
            fabrics: options.fabrics,
            seed: options.seed,
            out: String::new(),
        };
        let mut controller = ReconfigurationController::new(device);
        controller.warm(largest).expect("warm");
        let pooled = run_path(format!("pooled_{w}x{h}"), &sized, &streams_v, |vbs| {
            controller.load(vbs, origin).expect("load");
        });
        results.push(ScalingResult {
            label: format!("{w}x{h}"),
            frame_write_mframes_per_sec,
            pooled,
        });
    }
    results
}

/// One region-op measurement of the `frame_write` arm on the word-level
/// flat arena.
struct FrameWriteResult {
    name: &'static str,
    word: Duration,
    frames: u64,
}

impl FrameWriteResult {
    fn mframes_per_sec(&self) -> f64 {
        self.frames as f64 / self.word.as_secs_f64() / 1e6
    }

    fn json(&self) -> String {
        format!(
            "{{\"word_mframes_per_sec\": {:.1}}}",
            self.mframes_per_sec()
        )
    }
}

/// Times the raw `ConfigMemory` region operations — task load, region
/// clear, relocation move — on the flat word arena.
fn frame_write_paths(options: &Options, repository: &VbsRepository) -> Vec<FrameWriteResult> {
    let device = sched_device(options.fabric.0, options.fabric.1);
    // The largest workload task gives the most representative region size.
    let vbs = streams(repository)
        .into_iter()
        .max_by_key(|v| v.width() as u64 * v.height() as u64)
        .expect("workload streams");
    let task = decode(&vbs).expect("decode");
    let mut memory = vbs_bitstream::ConfigMemory::new(&device);
    let (tw, th) = (task.width(), task.height());
    assert!(
        tw <= options.fabric.0 && th <= options.fabric.1,
        "frame_write arm needs --fabric at least as large as the largest \
         workload task ({tw}x{th}), got {}x{}",
        options.fabric.0,
        options.fabric.1
    );
    let a = Coord::new(0, 0);
    let b = Coord::new(options.fabric.0 - tw, options.fabric.1 - th);
    assert!(
        b != a,
        "frame_write relocation needs the fabric to exceed the largest \
         workload task ({tw}x{th}) in at least one dimension, got {}x{}",
        options.fabric.0,
        options.fabric.1
    );
    let rect = |o: Coord| vbs_arch::Rect::new(o, tw, th);
    let iterations = options.loads.max(1);
    let frames = tw as u64 * th as u64 * iterations as u64;

    fn timed(iterations: usize, mut op: impl FnMut()) -> Duration {
        op(); // warm-up
        let start = Instant::now();
        for _ in 0..iterations {
            op();
        }
        start.elapsed()
    }

    let load_word = timed(iterations, || memory.load_task(&task, a).expect("load"));
    // Relocation ping-pongs between two corners so the source always holds
    // the task (flip-flopping keeps every move a full-content move).
    memory.load_task(&task, a).expect("seed");
    let mut at = a;
    let reloc_word = timed(iterations, || {
        let to = if at == a { b } else { a };
        memory.move_region(rect(at), to).expect("move");
        at = to;
    });
    let clear_word = timed(iterations, || memory.clear_region(rect(a)).expect("clear"));

    vec![
        FrameWriteResult {
            name: "load",
            word: load_word,
            frames,
        },
        FrameWriteResult {
            name: "clear",
            word: clear_word,
            frames,
        },
        FrameWriteResult {
            name: "relocate",
            word: reloc_word,
            frames,
        },
    ]
}

struct FleetResult {
    elapsed: Duration,
    events: usize,
    accepted: u64,
    decode_micros: u64,
}

impl FleetResult {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.elapsed.as_secs_f64()
    }

    fn json(&self) -> String {
        format!(
            "{{\"events_per_sec\": {:.1}, \"accepted\": {}, \"decode_micros\": {}, \"elapsed_ms\": {:.1}}}",
            self.events_per_sec(),
            self.accepted,
            self.decode_micros,
            self.elapsed.as_secs_f64() * 1e3
        )
    }
}

fn run_fleet(options: &Options, repository: &VbsRepository) -> FleetResult {
    let config = SchedulerConfig {
        eviction_limit: 1,
        compaction: true,
        ..SchedulerConfig::default()
    };
    let mut multi = sched_fleet(
        repository,
        options.fabrics,
        options.fabric,
        Box::new(LeastLoaded),
        &|| Box::new(BestFit),
        config,
    );
    let trace = sched_trace(options.loads, options.seed);
    let start = Instant::now();
    let report = replay_multi(&mut multi, &trace);
    let elapsed = start.elapsed();
    FleetResult {
        elapsed,
        events: report.events,
        accepted: report.multi.loads_accepted,
        decode_micros: report.fabrics.iter().map(|f| f.sched.decode_micros).sum(),
    }
}

/// One corpus trace replayed end-to-end through a scheduler with telemetry
/// attached: acceptance counters plus the Load-stage latency tail.
struct McncReplay {
    name: String,
    elapsed: Duration,
    events: usize,
    accepted: u64,
    rejected: u64,
    deadline_missed: u64,
    /// `Stage::Load` histogram summary from the attached telemetry
    /// registry, microseconds.
    load_latency: HistogramSummary,
}

impl McncReplay {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.elapsed.as_secs_f64()
    }

    fn json(&self) -> String {
        format!(
            "{{\"events_per_sec\": {:.1}, \"accepted\": {}, \"rejected\": {}, \"deadline_missed\": {}, \"load_p50_us\": {}, \"load_p95_us\": {}, \"load_p99_us\": {}, \"load_max_us\": {}}}",
            self.events_per_sec(),
            self.accepted,
            self.rejected,
            self.deadline_missed,
            self.load_latency.p50,
            self.load_latency.p95,
            self.load_latency.p99,
            self.load_latency.max
        )
    }
}

/// The mcnc arm: per-circuit pooled-load throughput over the checked-in
/// corpus streams, and the corpus traces replayed through the single
/// scheduler and the least-loaded fleet with telemetry histograms.
fn mcnc_arm(options: &Options) -> (McncCorpus, Vec<PathResult>, Vec<McncReplay>) {
    let corpus = McncCorpus::load(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/traces/mcnc"
    ))
    .expect("checked-in MCNC corpus (rebuild with the mcnc_corpus bin)");

    let spec = ArchSpec::new(corpus.channel_width, corpus.lut_size).expect("corpus arch");
    let device = Device::new(spec, corpus.single.0, corpus.single.1).expect("corpus device");
    let mut controller = ReconfigurationController::new(device);
    let origin = Coord::new(0, 0);
    let streams: Vec<(String, Vbs)> = corpus
        .tasks
        .iter()
        .map(|t| {
            let vbs = corpus.repository.fetch(&t.name).expect("corpus stream");
            (t.name.clone(), vbs)
        })
        .collect();
    let largest = streams
        .iter()
        .map(|(_, v)| v)
        .max_by_key(|v| v.width() as u64 * v.height() as u64)
        .expect("corpus streams");
    controller.warm(largest).expect("warm");
    let mut paths = Vec::new();
    for (name, vbs) in &streams {
        paths.push(run_path(
            name.clone(),
            options,
            std::slice::from_ref(vbs),
            |vbs| {
                controller.load(vbs, origin).expect("load");
            },
        ));
    }

    let mut replays = Vec::new();
    for (name, trace) in &corpus.traces {
        let mut single = corpus.single_scheduler();
        let telemetry = Telemetry::new();
        single.set_telemetry(telemetry.clone(), 0);
        let start = Instant::now();
        let report = replay(&mut single, trace);
        replays.push(McncReplay {
            name: format!("{name}_single"),
            elapsed: start.elapsed(),
            events: report.events,
            accepted: report.sched.loads_accepted,
            rejected: report.sched.loads_rejected,
            deadline_missed: report.sched.deadline_missed,
            load_latency: telemetry.histogram(Stage::Load).summary(),
        });

        let mut fleet = corpus
            .fleet_scheduler("least-loaded")
            .expect("known shard policy");
        let telemetry = Telemetry::new();
        fleet.set_telemetry(telemetry.clone());
        let start = Instant::now();
        let report = replay_multi(&mut fleet, trace);
        replays.push(McncReplay {
            name: format!("{name}_fleet"),
            elapsed: start.elapsed(),
            events: report.events,
            accepted: report.multi.loads_accepted,
            rejected: report.multi.loads_rejected,
            deadline_missed: report.fabrics.iter().map(|f| f.sched.deadline_missed).sum(),
            load_latency: telemetry.histogram(Stage::Load).summary(),
        });
    }
    (corpus, paths, replays)
}

/// One replay of the fault arm: the corpus steady trace with a given
/// integrity posture, so the fault plane's cost is tracked per PR.
struct FaultReplay {
    name: &'static str,
    elapsed: Duration,
    events: usize,
    accepted: u64,
    verify_scrubs: u64,
}

impl FaultReplay {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.elapsed.as_secs_f64()
    }

    fn json(&self) -> String {
        format!(
            "{{\"events_per_sec\": {:.1}, \"elapsed_ms\": {:.2}, \"accepted\": {}, \"verify_scrubs\": {}}}",
            self.events_per_sec(),
            self.elapsed.as_secs_f64() * 1e3,
            self.accepted,
            self.verify_scrubs
        )
    }
}

/// The fault arm: readback-verification overhead on the corpus steady
/// trace (single scheduler, verify off vs on — identical fault-free
/// workload, the only delta is the post-write `verify_region` readback),
/// plus the seeded chaos fleet replay (`McncCorpus::CHAOS_PLANS`: write
/// faults, corruption, and a mid-trace outage) as the degraded-mode
/// throughput reference. Returns the three replays and the verify
/// overhead ratio (verify-on elapsed over verify-off elapsed).
fn fault_arm(corpus: &McncCorpus) -> (Vec<FaultReplay>, f64) {
    let trace = corpus.trace("steady").expect("steady trace");

    let run_single = |name: &'static str, verify: bool| {
        let mut sched = corpus.single_scheduler();
        sched.set_verify(verify);
        let start = Instant::now();
        let report = replay(&mut sched, trace);
        FaultReplay {
            name,
            elapsed: start.elapsed(),
            events: report.events,
            accepted: report.sched.loads_accepted,
            verify_scrubs: report.sched.verify_scrubs,
        }
    };
    // Warm-up pass so the first measured replay does not pay cold-cache
    // decode costs the second one skips.
    run_single("warmup", false);
    let off = run_single("verify_off", false);
    let on = run_single("verify_on", true);
    let overhead = on.elapsed.as_secs_f64() / off.elapsed.as_secs_f64().max(1e-12);

    let mut fleet = corpus.chaos_fleet_scheduler();
    let start = Instant::now();
    let report = replay_multi(&mut fleet, trace);
    let chaos = FaultReplay {
        name: "chaos",
        elapsed: start.elapsed(),
        events: report.events,
        accepted: report.multi.loads_accepted,
        verify_scrubs: report.shard_totals().verify_scrubs,
    };

    (vec![off, on, chaos], overhead)
}

/// One point of a cache-budget sweep: a full trace replay under one
/// [`CacheBudget`], best-of-3 elapsed over fresh schedulers.
struct MemoryPoint {
    label: &'static str,
    budget: CacheBudget,
    elapsed: Duration,
    events: usize,
    accepted: u64,
    /// End-of-replay cache state (byte gauges are absolute, counters are
    /// per-replay deltas).
    cache: CacheStats,
}

impl MemoryPoint {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.elapsed.as_secs_f64()
    }

    fn loads_per_sec(&self) -> f64 {
        self.accepted as f64 / self.elapsed.as_secs_f64()
    }

    fn json(&self) -> String {
        format!(
            "{{\"hot_budget_bytes\": {}, \"warm_budget_bytes\": {}, \"resident_bytes\": {}, \"hot_bytes\": {}, \"warm_bytes\": {}, \"hit_rate\": {:.3}, \"warm_hits\": {}, \"demotions\": {}, \"loads_per_sec\": {:.1}, \"events_per_sec\": {:.1}}}",
            self.budget.hot_bytes,
            self.budget.warm_bytes,
            self.cache.resident_bytes(),
            self.cache.hot_bytes,
            self.cache.warm_bytes,
            self.cache.hit_rate(),
            self.cache.warm_hits,
            self.cache.demotions,
            self.loads_per_sec(),
            self.events_per_sec(),
        )
    }
}

/// Replays `trace` under `budget` on fresh schedulers from `make`: one
/// warm-up replay, then one timed one (the replays are deterministic, so
/// counters and byte gauges are identical across reps). Further reps run
/// through [`remeasure`], interleaved across the sweep's points.
fn memory_point(
    label: &'static str,
    budget: CacheBudget,
    trace: &Trace,
    make: &dyn Fn(CacheBudget) -> Scheduler,
) -> MemoryPoint {
    let mut sched = make(budget);
    replay(&mut sched, trace); // warm-up: page faults, lazy parses
    let mut sched = make(budget);
    let start = Instant::now();
    let report = replay(&mut sched, trace);
    let elapsed = start.elapsed();
    MemoryPoint {
        label,
        budget,
        elapsed,
        events: report.events,
        accepted: report.sched.loads_accepted,
        cache: report.cache,
    }
}

/// One more timed replay of `point`'s budget, keeping the faster elapsed.
fn remeasure(point: &mut MemoryPoint, trace: &Trace, make: &dyn Fn(CacheBudget) -> Scheduler) {
    let mut sched = make(point.budget);
    let start = Instant::now();
    replay(&mut sched, trace);
    point.elapsed = point.elapsed.min(start.elapsed());
}

/// Sweeps a replay across cache budgets: unbounded first (measuring the
/// unbounded hot tier's resident bytes), then total budgets at 50%, 25%
/// and 12.5% of that footprint. Each finite point gives three quarters of
/// its total to decoded arenas and one quarter to compressed warm bytes,
/// so `hot + warm` — everything the tiers hold resident — is bounded by
/// the named fraction. Returns the points in sweep order.
fn memory_sweep(trace: &Trace, make: &dyn Fn(CacheBudget) -> Scheduler) -> Vec<MemoryPoint> {
    let unbounded = memory_point("unbounded", CacheBudget::UNBOUNDED, trace, make);
    let full = unbounded.cache.hot_bytes.max(1);
    let mut points = vec![unbounded];
    for (label, fraction) in [("total50", 2u64), ("total25", 4), ("total12", 8)] {
        let total = (full / fraction).max(4);
        let budget = CacheBudget {
            hot_bytes: total * 3 / 4,
            warm_bytes: total / 4,
        };
        points.push(memory_point(label, budget, trace, make));
    }
    // Two more reps per point, interleaved round-robin so machine-load
    // drift lands on every budget equally — the headline compares
    // point-to-point throughput ratios, which sequential best-of-N leaves
    // at the mercy of when each point happened to run.
    for _ in 0..2 {
        for point in &mut points {
            remeasure(point, trace, make);
        }
    }
    points
}

/// The memory arm: cache-budget sweeps over the synthetic workload on the
/// `--fabric` device and over the MCNC steady trace on a 100×100
/// production-scale device, plus the warm re-decode allocation gate (a
/// controller re-decoding a held stream into a reused arena must allocate
/// nothing).
fn memory_arm(
    options: &Options,
    repository: &VbsRepository,
    corpus: &McncCorpus,
) -> (Vec<MemoryPoint>, Vec<MemoryPoint>, PathResult) {
    let trace = vbs_bench::sched_workload::sched_trace(options.loads, options.seed);
    let config = SchedulerConfig {
        eviction_limit: 1,
        compaction: true,
        ..SchedulerConfig::default()
    };
    let synthetic = memory_sweep(&trace, &|budget| {
        vbs_bench::sched_workload::sched_scheduler(
            repository,
            options.fabric.0,
            options.fabric.1,
            0,
            Box::new(BestFit),
            SchedulerConfig {
                cache_budget: budget,
                ..config
            },
        )
    });

    // The production-scale scenario: a 100×100 fabric serving a fleet
    // population of MCNC task instances under a skewed steady workload —
    // the unbounded hot tier holds every instance's decoded arena, the
    // budgeted points must find the hot working set.
    let instances = 48;
    let scaled_repo = corpus.scaled_repository(instances);
    let scaled_trace = corpus.scaled_steady_trace(instances, 960, options.seed);
    let mcnc = memory_sweep(&scaled_trace, &|budget| {
        corpus.scheduler_over(
            scaled_repo.clone(),
            100,
            100,
            SchedulerConfig {
                cache_budget: budget,
                ..McncCorpus::replay_config()
            },
        )
    });

    // Warm re-decode gate: the exact inner work of a warm hit — the
    // controller re-decoding an already-parsed stream into a reused arena.
    let spec = ArchSpec::new(corpus.channel_width, corpus.lut_size).expect("corpus arch");
    let largest = corpus
        .tasks
        .iter()
        .max_by_key(|t| t.width as u64 * t.height as u64)
        .expect("corpus tasks");
    let vbs = corpus.repository.fetch(&largest.name).expect("stream");
    let device = Device::new(spec, vbs.width(), vbs.height()).expect("device");
    let controller = ReconfigurationController::new(device);
    controller.warm(&vbs).expect("warm");
    let mut staging = TaskBitstream::empty(*vbs.spec(), vbs.width(), vbs.height());
    let redecode = run_path(
        "warm_redecode",
        options,
        std::slice::from_ref(&vbs),
        |vbs| {
            controller.decode_into(vbs, &mut staging).expect("redecode");
        },
    );

    (synthetic, mcnc, redecode)
}

fn main() {
    let options = parse_args();
    let repository = sched_repository();
    println!(
        "# decode_perf — {} loads, {}x{} fabric, {} fleet fabrics, seed {}",
        options.loads, options.fabric.0, options.fabric.1, options.fabrics, options.seed
    );

    let scratch = scratch_path(&options, &repository);
    let pooled = pooled_path(&options, &repository);
    let paths = [&scratch, &pooled];
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12}",
        "path", "ns/frame", "ns/load", "loads/s", "allocs/load"
    );
    for p in &paths {
        println!(
            "{:<12} {:>12.1} {:>12.0} {:>12.1} {:>12.1}",
            p.name,
            p.ns_per_frame(),
            p.ns_per_load(),
            p.loads_per_sec(),
            p.allocs_per_load()
        );
    }
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12}",
        "latency(µs)", "p50", "p95", "p99", "max"
    );
    for p in &paths {
        let s = p.latency.summary();
        println!(
            "{:<12} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
            p.name,
            s.p50 as f64 / 1e3,
            s.p95 as f64 / 1e3,
            s.p99 as f64 / 1e3,
            s.max as f64 / 1e3
        );
    }
    let compaction = compaction_paths(&options, &repository);
    println!(
        "{:<12} {:>8} {:>16} {:>14} {:>9} {:>14}",
        "compaction", "moves", "frames rewritten", "pause µs", "decodes", "cache fetches"
    );
    for c in &compaction {
        println!(
            "{:<12} {:>8} {:>16} {:>14} {:>9} {:>14}",
            c.name, c.moves, c.frames_rewritten, c.pause_micros, c.decodes, c.cache_fetches
        );
    }

    let frame_write = frame_write_paths(&options, &repository);
    println!("{:<12} {:>16}", "frame_write", "word Mframes/s");
    for f in &frame_write {
        println!("{:<12} {:>16.1}", f.name, f.mframes_per_sec());
    }

    let (kernel_backend, kernel_ops) = kernel_paths(&options);
    println!(
        "{:<12} {:>18} {:>18} {:>10}   (backend: {kernel_backend})",
        "kernels", "dispatched Gw/s", "portable Gw/s", "speedup"
    );
    for op in &kernel_ops {
        println!(
            "{:<12} {:>18.2} {:>18.2} {:>9.2}x",
            op.name,
            op.gwords(op.dispatched),
            op.gwords(op.portable),
            op.speedup()
        );
    }

    let scaling = scaling_paths(&options, &repository);
    println!(
        "{:<12} {:>20} {:>12} {:>10} {:>10}",
        "scaling", "frame-write Mfr/s", "loads/s", "p50 µs", "p99 µs"
    );
    for s in &scaling {
        let lat = s.pooled.latency.summary();
        println!(
            "{:<12} {:>20.1} {:>12.1} {:>10.1} {:>10.1}",
            s.label,
            s.frame_write_mframes_per_sec,
            s.pooled.loads_per_sec(),
            lat.p50 as f64 / 1e3,
            lat.p99 as f64 / 1e3
        );
    }

    let fleet = run_fleet(&options, &repository);
    println!(
        "fleet {:>10.0} events/s  {:>6} accepted  {:>9} decode µs",
        fleet.events_per_sec(),
        fleet.accepted,
        fleet.decode_micros
    );

    let (corpus, mcnc_tasks, mcnc_replays) = mcnc_arm(&options);
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12}",
        "mcnc task", "loads/s", "p50 µs", "p99 µs", "allocs/load"
    );
    for p in &mcnc_tasks {
        let s = p.latency.summary();
        println!(
            "{:<12} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
            p.name,
            p.loads_per_sec(),
            s.p50 as f64 / 1e3,
            s.p99 as f64 / 1e3,
            p.allocs_per_load()
        );
    }
    for r in &mcnc_replays {
        println!(
            "mcnc {:<16} {:>6} accepted {:>4} rejected {:>3} missed  load p99 {:>6} µs",
            r.name, r.accepted, r.rejected, r.deadline_missed, r.load_latency.p99
        );
    }

    let (fault_replays, verify_overhead) = fault_arm(&corpus);
    println!(
        "{:<12} {:>12} {:>12} {:>10} {:>8}",
        "fault", "events/s", "elapsed ms", "accepted", "scrubs"
    );
    for f in &fault_replays {
        println!(
            "{:<12} {:>12.1} {:>12.2} {:>10} {:>8}",
            f.name,
            f.events_per_sec(),
            f.elapsed.as_secs_f64() * 1e3,
            f.accepted,
            f.verify_scrubs
        );
    }
    println!("readback verification overhead: {verify_overhead:.2}x on the steady trace");

    let (memory_synth, memory_mcnc, warm_redecode) = memory_arm(&options, &repository, &corpus);
    for (section, points) in [
        ("memory 11x11", &memory_synth),
        ("memory 100x100", &memory_mcnc),
    ] {
        println!(
            "{:<15} {:>12} {:>12} {:>9} {:>10} {:>10} {:>10}",
            section, "hot budget", "resident", "hit rate", "warm hits", "demotions", "loads/s"
        );
        for p in points {
            println!(
                "{:<15} {:>12} {:>12} {:>9.3} {:>10} {:>10} {:>10.1}",
                p.label,
                p.budget.hot_bytes,
                p.cache.resident_bytes(),
                p.cache.hit_rate(),
                p.cache.warm_hits,
                p.cache.demotions,
                p.loads_per_sec()
            );
        }
    }
    // Every finite point must honor its budget, and the 25% point is the
    // headline: a quarter of the unbounded hot footprint at near-unbounded
    // throughput (the ≥0.9× gate itself lives in CI, off the JSON).
    for p in memory_synth.iter().chain(&memory_mcnc) {
        if !p.budget.is_unbounded() {
            assert!(
                p.cache.hot_bytes <= p.budget.hot_bytes
                    && p.cache.warm_bytes <= p.budget.warm_bytes,
                "{}: cache exceeded its budget ({} hot / {} warm over {:?})",
                p.label,
                p.cache.hot_bytes,
                p.cache.warm_bytes,
                p.budget
            );
        }
    }
    let mcnc_unbounded = &memory_mcnc[0];
    let mcnc_total25 = memory_mcnc
        .iter()
        .find(|p| p.label == "total25")
        .expect("total25 sweep point");
    let headline_resident_fraction = mcnc_total25.cache.resident_bytes() as f64
        / mcnc_unbounded.cache.resident_bytes().max(1) as f64;
    let headline_throughput_ratio = mcnc_total25.loads_per_sec() / mcnc_unbounded.loads_per_sec();
    println!(
        "memory headline (mcnc steady @ 100x100): {:.1}% of unbounded cache bytes \
         at {:.2}x unbounded loads/s",
        headline_resident_fraction * 100.0,
        headline_throughput_ratio
    );
    println!(
        "warm re-decode: {:.0} ns/load, {:.1} allocs/load",
        warm_redecode.ns_per_load(),
        warm_redecode.allocs_per_load()
    );
    assert!(
        warm_redecode.allocs_per_load() == 0.0,
        "warm re-decode through the controller must be allocation-free, \
         got {:.1} allocs/load",
        warm_redecode.allocs_per_load()
    );

    let latency_json = paths
        .iter()
        .map(|p| format!("    \"{}\": {}", p.name, p.latency_json()))
        .collect::<Vec<_>>()
        .join(",\n");
    let mcnc_tasks_json = mcnc_tasks
        .iter()
        .map(|p| {
            format!(
                "      \"{}\": {{\"perf\": {}, \"latency\": {}}}",
                p.name,
                p.json(),
                p.latency_json()
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let mcnc_replays_json = mcnc_replays
        .iter()
        .map(|r| format!("      \"{}\": {}", r.name, r.json()))
        .collect::<Vec<_>>()
        .join(",\n");
    let fault_json = fault_replays
        .iter()
        .map(|f| format!("    \"{}\": {}", f.name, f.json()))
        .collect::<Vec<_>>()
        .join(",\n");
    let kernels_json = kernel_ops
        .iter()
        .map(|op| format!("      \"{}\": {}", op.name, op.json()))
        .collect::<Vec<_>>()
        .join(",\n");
    let scaling_json = scaling
        .iter()
        .map(|s| format!("    \"{}\": {}", s.label, s.json()))
        .collect::<Vec<_>>()
        .join(",\n");
    let memory_points = |points: &[MemoryPoint]| {
        points
            .iter()
            .map(|p| format!("        \"{}\": {}", p.label, p.json()))
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let memory_json = format!(
        "{{\n    \"synthetic\": {{\n      \"fabric\": \"{}x{}\",\n      \"points\": {{\n{}\n      }}\n    }},\n    \"mcnc_steady\": {{\n      \"fabric\": \"100x100\",\n      \"points\": {{\n{}\n      }},\n      \"headline\": {{\"budget_fraction\": 0.25, \"resident_fraction\": {:.3}, \"throughput_ratio\": {:.3}}}\n    }},\n    \"warm_redecode\": {{\"ns_per_load\": {:.0}, \"allocs_per_load\": {:.1}}}\n  }}",
        options.fabric.0,
        options.fabric.1,
        memory_points(&memory_synth),
        memory_points(&memory_mcnc),
        headline_resident_fraction,
        headline_throughput_ratio,
        warm_redecode.ns_per_load(),
        warm_redecode.allocs_per_load(),
    );
    let json = format!(
        "{{\n  \"bench\": \"decode_perf\",\n  \"loads\": {},\n  \"fabric\": \"{}x{}\",\n  \"fabrics\": {},\n  \"seed\": {},\n  \"paths\": {{\n    \"scratch\": {},\n    \"pooled\": {}\n  }},\n  \"latency\": {{\n{}\n  }},\n  \"compaction\": {{\n    \"batch\": {},\n    \"greedy\": {}\n  }},\n  \"frame_write\": {{\n    \"load\": {},\n    \"clear\": {},\n    \"relocate\": {},\n    \"kernels\": {{\n      \"backend\": \"{}\",\n{}\n    }}\n  }},\n  \"scaling\": {{\n{}\n  }},\n  \"fleet\": {},\n  \"mcnc\": {{\n    \"single\": \"{}x{}\",\n    \"fleet\": \"{}x{}x{}\",\n    \"tasks\": {{\n{}\n    }},\n    \"replays\": {{\n{}\n    }}\n  }},\n  \"fault\": {{\n{},\n    \"verify_overhead\": {:.3}\n  }},\n  \"memory\": {}\n}}\n",
        options.loads,
        options.fabric.0,
        options.fabric.1,
        options.fabrics,
        options.seed,
        scratch.json(),
        pooled.json(),
        latency_json,
        compaction[0].json(),
        compaction[1].json(),
        frame_write[0].json(),
        frame_write[1].json(),
        frame_write[2].json(),
        kernel_backend,
        kernels_json,
        scaling_json,
        fleet.json(),
        corpus.single.0,
        corpus.single.1,
        corpus.fleet.0,
        corpus.fleet.1,
        corpus.fleet.2,
        mcnc_tasks_json,
        mcnc_replays_json,
        fault_json,
        verify_overhead,
        memory_json,
    );
    std::fs::write(&options.out, json).expect("write baseline json");
    println!("wrote {}", options.out);
}
