//! Allocation-budget regression tests for the decode hot path, measured
//! with the counting global allocator.
//!
//! Pinned guarantees:
//!
//! * `decode_into` performs **zero** heap allocations per load from the
//!   second decode on a scratch;
//! * **pooled** `ReconfigurationController::load`s (on the controller's
//!   own scratch and a staging image from its [`vbs_runtime::ScratchPool`])
//!   perform zero allocations per load after one warm-up load, and the pool
//!   reports exactly one fresh buffer;
//! * steady-state pooled loads with a **live telemetry registry**
//!   installed (decode spans, latency histograms and timeline events
//!   recorded on every load) stay at zero allocations — recording is
//!   relaxed atomics and preallocated ring slots;
//! * a **cold** decode derives its cluster pattern and sizes every buffer
//!   it uses from it (a k = 1 stream never searches, so the search buffers
//!   wait), so the first decode makes exactly the pinned number of
//!   allocations instead of growing buffers incrementally;
//! * a **shape-cycling** task mix (alternating tall/wide/larger rectangles)
//!   also stays at zero steady-state allocations, through both direct
//!   [`TaskBitstream::reset`] reshapes and pooled controller loads — the flat
//!   [`vbs_bitstream::FrameStore`] arena reshapes in place once its word
//!   capacity covers the largest shape seen, where the legacy per-frame
//!   layout allocated one `Vec` per frame whenever the mix grew;
//! * a **hot-hit** `Scheduler` load + unload pair stays under a small pinned
//!   allocation count that is the same on an 11×11 and a 100×100 fabric:
//!   the load path reads the stream's shape from the repository's header
//!   memo and never re-parses the stored VBS, and the per-request
//!   fragmentation sample reads the manager's maintained occupancy;
//! * over the checked-in **corpus**, every load decodes the stored bytes
//!   where they lie: a bare `TaskManager` load + unload pair (`cold_load`'s
//!   operation) allocates once, for the resident's name (100 times when a
//!   load parsed the stream into owned records); a warm controller loads
//!   and re-decodes every stream without allocating; a scheduler miss or warm
//!   re-decode allocates the same for every stream, whatever its record
//!   count; the first `VbsRepository::header` of a stored stream validates
//!   it without allocating; and a 9-byte stream claiming 2²⁰ − 1 records is
//!   rejected having requested under 1 KiB (it requested 64 MiB);
//! * the **fleet** runs each round on the caller's thread: a K = 2 corpus
//!   fleet cache-hit pair allocates the pinned count for every stream, a
//!   disabled telemetry handle requests under 1 KiB (it built every stage
//!   histogram), and building the fleet requests under 64 KiB;
//! * the **encoder** reads each route tree by its indices: `FlowResult::vbs`
//!   at k = 1, 2 and 3 over the nine corpus circuits (placed and routed
//!   outside the counted region) stays under the pinned counts, about 1 %
//!   of the 129 326 / 103 379 / 102 562 the hash-map encoder made, which
//!   fails them.
//!
//! Everything runs inside one `#[test]` because the counters are
//! process-global and the harness runs tests concurrently.

use vbs_bench::{allocated_bytes, allocations, CountingAllocator};
use vbs_bitstream::TaskBitstream;
use vbs_core::bitio::BitWriter;
use vbs_core::{DecodeScratch, Devirtualizer, Vbs, VbsError, VbsView};
use vbs_flow::CadFlow;
use vbs_netlist::{blif, mcnc};
use vbs_runtime::{FirstFit, ReconfigurationController, TaskManager};
use vbs_sched::{CacheBudget, McncCorpus, Outcome, Request, SchedulerConfig};
use vbs_telemetry::{Stage, Telemetry};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Allocations a hot-hit `execute(Load)` + `execute(Unload)` pair may make:
/// 6 measured on the 6×6 `fft_stage`, against 7 when the scheduler kept a
/// copy of every resident's task name, 40 when each of the pair's two
/// fragmentation samples swept the fabric macro by macro from a fresh
/// occupancy snapshot, and 109 when every load also re-parsed the stored
/// stream.
const HOT_PAIR_ALLOCATION_BUDGET: u64 = 12;

/// Allocations of a corpus `TaskManager::load` + `unload` pair —
/// `cold_load`'s operation: the resident's name. It was 100 when every
/// load parsed the stored stream into owned records (two per record).
const COLD_PAIR_ALLOCATION_BUDGET: u64 = 1;

/// Allocations of a scheduler load + unload pair that decodes (a miss or a
/// warm re-decode), the same for every corpus stream.
const DECODING_PAIR_ALLOCATION_BUDGET: u64 = 11;

/// Allocations of a cold `decode_into` of `fft_stage`, as counted in debug
/// and release builds alike: the one cluster pattern's six arrays and its
/// hop table (each sized before it is filled), the neighbour list they are
/// derived through, the pattern list, and the three buffers of the net
/// bookkeeping. It was 17 when the scratch also sized the six search
/// buffers before the first record, which a k = 1 stream never searches,
/// 19 when it also reserved the two claimed-wire lists of a report only
/// tests read, and 21, then 3 more on the second decode, when the
/// adjacency of the whole task was built per geometry.
const COLD_DECODE_ALLOCATION_BUDGET: u64 = 12;

/// Allocations of a corpus fleet cache-hit pair (submit load, process,
/// submit unload, process) on the K = 2 least-loaded fleet, as counted. It
/// was 12 when every load submit collected a fresh list of fabric statuses
/// for the shard policy, and 14 when every queued request carried a
/// sequence number: a queue entry was then 72 bytes against the 64 of a
/// tagged outcome, so each round's outcome list could not reuse the taken
/// queue's buffer. It was 16 when every resident kept a copy of its task name and every
/// pending load a list of the fabrics it was queued on, 19 when shards
/// queued requests under ids of their own and the dispatcher kept two id
/// maps to translate them back, and 41 when every round also spawned a
/// scoped thread per busy fabric.
const FLEET_HIT_PAIR_ALLOCATIONS: u64 = 11;

/// Bytes building the K = 2 corpus fleet may request. It requested
/// 1 507 940 when each of its four disabled telemetry handles held a full
/// set of stage histograms.
const FLEET_BUILD_BYTE_BUDGET: u64 = 64 * 1024;

/// Allocations `FlowResult::vbs(k)` may make over the nine corpus circuits
/// at k = 1, 2 and 3, as counted: mostly the records' own buffers and the
/// cluster patterns of the feedback decode. The k = 1 count was 1 349
/// when every encode's feedback decode sized the six search buffers that
/// its single-switch routes never use (54 allocations over the nine
/// circuits) and built no hop table (9). They were 1 376 / 917 / 767
/// when every encode also built a byte per wire of the crossings its
/// routing touched and its feedback decodes reserved two claimed-wire
/// lists, and 129 326 / 103 379 / 102 562 when the encoder rebuilt every
/// route tree as hash maps and formatted two `String`s per connection
/// comparison.
const ENCODE_ALLOCATION_BUDGETS: [u64; 3] = [1_304, 890, 740];

/// `Devirtualizer::decode_into` on a caller-held scratch and image — the
/// decode a controller runs, without the pool.
fn decode_into(vbs: &Vbs, staging: &mut TaskBitstream, scratch: &mut DecodeScratch) {
    Devirtualizer::new(vbs)
        .and_then(|d| d.decode_into(staging, scratch))
        .expect("decode");
}

#[test]
fn decode_hot_path_allocation_budget() {
    let repository = vbs_bench::sched_workload::sched_repository();
    let vbs = repository
        .view("fft_stage")
        .expect("workload task")
        .to_owned()
        .expect("workload task");
    let device = vbs_bench::sched_workload::sched_device(11, 11);

    // --- Cold decode: the stream's one cluster pattern is derived and
    // every working buffer is sized from it, once each. Incremental growth
    // during the decode itself would be hundreds of allocations.
    let mut scratch = DecodeScratch::new();
    let mut staging = TaskBitstream::empty(*vbs.spec(), vbs.width(), vbs.height());
    let before = allocations();
    decode_into(&vbs, &mut staging, &mut scratch);
    let cold = allocations() - before;
    assert!(
        cold <= COLD_DECODE_ALLOCATION_BUDGET,
        "cold decode allocated {cold} times (budget {COLD_DECODE_ALLOCATION_BUDGET}): \
         a buffer is growing inside the decode instead of being sized from the pattern"
    );

    // --- Steady state: zero allocations per load from the second decode on.
    let before = allocations();
    for _ in 0..50 {
        decode_into(&vbs, &mut staging, &mut scratch);
    }
    let steady = allocations() - before;
    assert_eq!(
        steady, 0,
        "steady-state decode_into must not allocate (got {steady} over 50 loads)"
    );

    // --- Pooled loads: the full decode→resident `load` path on the
    // controller's scratch and pooled staging image. One untimed warm-up
    // load sizes both, so every load after it allocates nothing.
    let origin = vbs_arch::Coord::new(2, 3);
    let mut pooled = ReconfigurationController::new(device);
    pooled.load(&vbs, origin).expect("warm-up load");
    let before = allocations();
    for _ in 0..50 {
        pooled.load(&vbs, origin).expect("load");
    }
    let steady = allocations() - before;
    assert_eq!(
        steady, 0,
        "a pooled load after warm-up must not allocate (got {steady} over 50 loads)"
    );
    let stats = pooled.scratch_pool().stats();
    assert_eq!(
        stats.fresh, 1,
        "after warm-up the pool holds one staging buffer: {stats:?}"
    );
    assert!(pooled.memory().occupied_macros() > 0);

    // --- Telemetry recording on the hot path: install a *live* registry
    // and repeat the pooled loads. Histogram recording is a few relaxed
    // atomic bumps and event recording writes into the ring's preallocated
    // slots, so the load path stays at zero steady-state allocations while
    // every load leaves its decode sample and events on the timeline.
    let telemetry = Telemetry::new();
    pooled.set_telemetry(telemetry.clone(), 0);
    for _ in 0..2 {
        pooled.load(&vbs, origin).expect("load");
    }
    let recorded_before = telemetry.ring_stats().recorded;
    let decodes_before = telemetry.histogram(Stage::Decode).count();
    let before = allocations();
    for _ in 0..50 {
        pooled.load(&vbs, origin).expect("load");
    }
    let steady = allocations() - before;
    assert_eq!(
        steady, 0,
        "telemetry recording must keep the load path allocation-free \
         (got {steady} over 50 instrumented loads)"
    );
    // Two events per load: the staging-buffer checkout hit and the decode.
    let recorded = telemetry.ring_stats().recorded - recorded_before;
    assert_eq!(
        recorded, 100,
        "each instrumented load leaves exactly two events"
    );
    assert_eq!(
        telemetry.histogram(Stage::Decode).count() - decodes_before,
        50,
        "each instrumented load records one decode sample"
    );

    // --- Shape-cycling reshapes: alternating tall/wide/larger rectangles
    // through one buffer must not allocate once the arena has grown to the
    // largest word count of the cycle.
    let spec = *vbs.spec();
    let mut buffer = TaskBitstream::empty(spec, 1, 1);
    let shapes = [(2u16, 9u16), (9, 2), (3, 6), (6, 3), (4, 4), (1, 12)];
    for &(w, h) in &shapes {
        buffer.reset(spec, w, h);
    }
    let before = allocations();
    for _ in 0..25 {
        for &(w, h) in &shapes {
            buffer.reset(spec, w, h);
        }
    }
    let steady = allocations() - before;
    assert_eq!(
        steady, 0,
        "shape-cycling TaskBitstream::reset must not allocate (got {steady})"
    );

    // --- Shape-cycling pooled loads: every load checks the controller's
    // one staging buffer out, decodes into it (different task shape every
    // load) and returns it. Pool hit = zero allocations per load regardless
    // of frame count.
    let mix: Vec<_> = ["fir_filter", "aes_round", "fft_stage"]
        .iter()
        .map(|name| {
            repository
                .view(name)
                .expect("workload task")
                .to_owned()
                .expect("workload task")
        })
        .collect();
    let mut cycling =
        ReconfigurationController::new(vbs_bench::sched_workload::sched_device(11, 11));
    let mut cycle = |rounds: usize| {
        for i in 0..rounds * mix.len() {
            cycling.load(&mix[i % mix.len()], origin).expect("load");
        }
    };
    cycle(2);
    let before = allocations();
    cycle(10);
    let steady = allocations() - before;
    assert_eq!(
        steady, 0,
        "shape-cycling pooled loads must not allocate (got {steady} over 30 loads)"
    );
    assert_eq!(
        cycling.scratch_pool().stats().fresh,
        1,
        "every checkout after the first must hit the recycled buffer"
    );

    // --- Hot-hit scheduler load: the decoded image is served from the
    // cache and the stream's shape from the repository's header memo, so a
    // load + unload pair costs only the scheduler's own bookkeeping (the
    // request's name, queue and outcome vectors, the resident entry).
    // Re-parsing the stored VBS per load allocates two `Vec`s per cluster
    // record on top of that.
    //
    // One load + unload of the task; returns whether the load was a hot hit.
    let pair = |sched: &mut vbs_sched::Scheduler| {
        let loaded = sched.execute(Request::Load {
            task: "fft_stage".into(),
            priority: 0,
            deadline: None,
        });
        let Outcome::Loaded { job, cache_hit, .. } = loaded else {
            panic!("load failed: {loaded:?}");
        };
        sched.execute(Request::Unload { job });
        cache_hit
    };
    let measure = |edge: u16| {
        let mut sched = vbs_bench::sched_workload::sched_scheduler(
            &repository,
            edge,
            edge,
            Box::new(FirstFit),
            SchedulerConfig::default(),
        );
        assert!(!pair(&mut sched), "the first load decodes");
        for _ in 0..2 {
            assert!(pair(&mut sched));
        }
        let before = allocations();
        for _ in 0..50 {
            assert!(pair(&mut sched), "every measured load is a hot hit");
        }
        let allocated = allocations() - before;
        assert_eq!(allocated % 50, 0, "every pair allocates alike");
        allocated / 50
    };
    let per_pair = measure(11);
    assert!(
        per_pair <= HOT_PAIR_ALLOCATION_BUDGET,
        "a hot-hit load + unload pair allocated {per_pair} times \
         (budget {HOT_PAIR_ALLOCATION_BUDGET}): is the load path parsing the stored VBS again, \
         or a fragmentation sample rebuilding the occupancy?"
    );
    // What a timing cannot show without noise: the pair's cost does not
    // depend on how many macros the fabric has.
    assert_eq!(
        measure(100),
        per_pair,
        "a hot-hit pair allocates more on a 100x100 fabric than on 11x11"
    );

    corpus_load_paths();
}

/// The run-time load paths over the checked-in corpus, which decode each
/// stored stream where it lies.
fn corpus_load_paths() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/traces/mcnc");
    let corpus = McncCorpus::load(dir).expect("corpus");
    let names: Vec<&str> = corpus.tasks.iter().map(|t| t.name.as_str()).collect();

    // --- The first `header` of a stored stream validates it in one walk
    // over its bytes and keeps the verdict inside the repository entry.
    let repository = corpus.repository.clone();
    let before = allocations();
    for name in &names {
        repository.header(name).expect("corpus stream");
    }
    let first = allocations() - before;
    assert_eq!(
        first, 0,
        "validating the stored streams allocated {first} times"
    );

    // --- Nine bytes whose preamble claims 2^20 - 1 records on a 10x10 task
    // used to reserve 64 MiB for them before reading the first record.
    let mut w = BitWriter::new();
    for (value, width) in [
        (1, 4),
        (1, 8),
        (6, 4),
        (10, 9),
        (10, 12),
        (10, 12),
        ((1 << 20) - 1, 20),
    ] {
        w.write_bits(value, width);
    }
    let bomb = w.into_bytes();
    let before = allocated_bytes();
    let view = VbsView::parse(&bomb);
    let owned = Vbs::from_bytes(&bomb);
    let requested = allocated_bytes() - before;
    assert!(matches!(view, Err(VbsError::Malformed { .. })), "{view:?}");
    assert!(
        matches!(owned, Err(VbsError::Malformed { .. })),
        "{owned:?}"
    );
    assert!(
        requested < 1024,
        "rejecting a 9-byte stream requested {requested} bytes"
    );

    // --- `cold_load`'s operation: a bare manager's load + unload.
    let (w, h) = corpus.single;
    let spec = vbs_arch::ArchSpec::new(corpus.channel_width, corpus.lut_size).expect("arch");
    let device = vbs_arch::Device::new(spec, w, h).expect("device");
    let mut manager = TaskManager::new(ReconfigurationController::new(device.clone()), repository)
        .with_policy(Box::new(FirstFit));
    let mut cycle = |rounds: usize| {
        for _ in 0..rounds {
            for name in &names {
                let handle = manager.load(name).expect("load");
                manager.unload(handle).expect("unload");
            }
        }
    };
    cycle(2);
    let before = allocations();
    cycle(10);
    let allocated = allocations() - before;
    let pairs = 10 * names.len() as u64;
    assert_eq!(allocated % pairs, 0, "every pair allocates alike");
    assert!(
        allocated / pairs <= COLD_PAIR_ALLOCATION_BUDGET,
        "a cold load + unload pair allocated {} times (budget {COLD_PAIR_ALLOCATION_BUDGET}): \
         is the load path parsing the stored VBS again?",
        allocated / pairs
    );

    // --- A pooled controller load of every stored stream, and a warm
    // re-decode of it into a reused image: after one warm-up pass over the
    // corpus neither allocates, whatever the stream.
    let mut controller = ReconfigurationController::new(device);
    let mut staging = TaskBitstream::empty(spec, 1, 1);
    let mut pass = || {
        for name in &names {
            let stream = corpus.repository.view(name).expect("corpus stream");
            controller
                .load(stream, vbs_arch::Coord::new(0, 0))
                .expect("load");
            controller
                .decode_into(stream, &mut staging)
                .expect("re-decode");
        }
    };
    pass();
    let before = allocations();
    pass();
    let allocated = allocations() - before;
    assert_eq!(
        allocated, 0,
        "pooled loads and warm re-decodes of the corpus allocated {allocated} times"
    );

    // --- Scheduler misses (the cache entry dropped before every load) and
    // warm re-decodes (a one-byte hot tier demotes every image): what a
    // pair allocates is the same for every stream, whatever its record
    // count (36 to 73 records over the corpus; 2 per record more when each
    // decode parsed the stream first).
    for warm in [false, true] {
        let config = SchedulerConfig {
            cache_budget: CacheBudget {
                hot_bytes: u64::from(warm),
                warm_bytes: 0,
            },
            ..SchedulerConfig::default()
        };
        let mut sched = corpus.scheduler_over(corpus.repository.clone(), w, h, config);
        let mut pair = |name: &str| {
            if !warm {
                sched.invalidate_cached(name);
            }
            let loaded = sched.execute(Request::Load {
                task: name.into(),
                priority: 0,
                deadline: None,
            });
            let Outcome::Loaded { job, cache_hit, .. } = loaded else {
                panic!("load failed: {loaded:?}");
            };
            assert!(!cache_hit, "{name} must decode");
            sched.execute(Request::Unload { job });
        };
        let per_stream: Vec<u64> = names
            .iter()
            .map(|name| {
                for _ in 0..2 {
                    pair(name);
                }
                let before = allocations();
                for _ in 0..10 {
                    pair(name);
                }
                (allocations() - before) / 10
            })
            .collect();
        let label = if warm { "warm re-decode" } else { "miss" };
        assert!(
            per_stream.iter().all(|&n| n == per_stream[0]),
            "a scheduler {label} allocates per record: {per_stream:?} over {names:?}"
        );
        assert!(
            per_stream[0] <= DECODING_PAIR_ALLOCATION_BUDGET,
            "a scheduler {label} pair allocated {} times (budget {DECODING_PAIR_ALLOCATION_BUDGET})",
            per_stream[0]
        );
        if warm {
            assert!(sched.cache_stats().warm_hits >= 10 * names.len() as u64);
        }
    }

    fleet_paths(&corpus, &names);
    encode_paths(&corpus);
}

/// The offline half over the corpus circuits: what `FlowResult::vbs`
/// requests at cluster sizes 1, 2 and 3, with placement and routing done
/// outside the counted region.
fn encode_paths(corpus: &McncCorpus) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/traces/mcnc");
    let results: Vec<_> = corpus
        .tasks
        .iter()
        .map(|task| {
            let text =
                std::fs::read_to_string(format!("{dir}/{}.blif", task.name)).expect("corpus blif");
            let netlist = blif::parse(&text, corpus.lut_size).expect("corpus blif parses");
            let base = task.name.split('@').next().expect("task name");
            CadFlow::new(corpus.channel_width, corpus.lut_size)
                .expect("flow")
                .with_grid(task.width, task.height)
                .with_seed(mcnc::by_name(base).expect("table ii circuit").seed())
                .fast()
                .run(&netlist)
                .expect("corpus circuits route")
        })
        .collect();
    assert_eq!(results.len(), 9);
    for (k, budget) in [1, 2, 3].into_iter().zip(ENCODE_ALLOCATION_BUDGETS) {
        let before = allocations();
        for result in &results {
            result.vbs(k).expect("encode");
        }
        let allocated = allocations() - before;
        assert!(
            allocated <= budget,
            "encoding the nine corpus circuits at k = {k} allocated {allocated} times \
             (budget {budget}): is the encoder building per-net maps again?"
        );
    }
}

/// The fleet's fixed costs over the corpus: what a disabled telemetry
/// handle, a fleet build and a fleet cache-hit pair request.
fn fleet_paths(corpus: &McncCorpus, names: &[&str]) {
    // --- A disabled handle holds no histograms; every scheduler, fleet,
    // manager and fault injector starts with one.
    let before = allocated_bytes();
    let disabled = Telemetry::disabled();
    let requested = allocated_bytes() - before;
    assert!(!disabled.enabled());
    assert!(
        requested < 1024,
        "Telemetry::disabled() requested {requested} bytes"
    );

    // --- Building the corpus fleet: two fabrics, their schedulers,
    // managers and controllers, and the dispatcher: five disabled handles.
    let before = allocated_bytes();
    let mut fleet = corpus
        .fleet_scheduler("least-loaded")
        .expect("known shard policy");
    let requested = allocated_bytes() - before;
    assert!(
        requested < FLEET_BUILD_BYTE_BUDGET,
        "building the K = {} corpus fleet requested {requested} bytes \
         (budget {FLEET_BUILD_BYTE_BUDGET})",
        fleet.fabric_count()
    );

    // --- A fleet cache-hit pair: a round runs its fabrics on this thread,
    // so the pair costs the dispatcher's and the shard's bookkeeping and
    // nothing per round.
    let mut pair = |name: &str| {
        let job = fleet.submit(Request::Load {
            task: name.into(),
            priority: 0,
            deadline: None,
        });
        let loaded = fleet.process_pending();
        let [Outcome::Loaded { cache_hit, .. }] = loaded.as_slice() else {
            panic!("load of {name} failed: {loaded:?}");
        };
        fleet.submit(Request::Unload { job });
        fleet.process_pending();
        *cache_hit
    };
    let per_stream: Vec<u64> = names
        .iter()
        .map(|name| {
            pair(name);
            for _ in 0..2 {
                assert!(pair(name), "{name} is decoded once, then hit");
            }
            let before = allocations();
            for _ in 0..10 {
                assert!(pair(name), "{name} is decoded once, then hit");
            }
            let allocated = allocations() - before;
            assert_eq!(allocated % 10, 0, "every {name} pair allocates alike");
            allocated / 10
        })
        .collect();
    assert!(
        per_stream.iter().all(|&n| n == per_stream[0]),
        "a fleet cache-hit pair allocates per stream: {per_stream:?} over {names:?}"
    );
    assert_eq!(
        per_stream[0], FLEET_HIT_PAIR_ALLOCATIONS,
        "a fleet cache-hit load + unload pair allocated {} times",
        per_stream[0]
    );
}
