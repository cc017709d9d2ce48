//! The persistent parallel decode engine of the load path.
//!
//! The paper's Section II-C observation — every VBS record only touches its
//! own cluster's frames — makes record decoding embarrassingly parallel.
//! Earlier revisions exploited that with `std::thread::scope`, spawning
//! fresh OS threads (plus a fresh [`DecodeScratch`] and a fresh partial
//! [`TaskBitstream`] per worker) on **every load**, so the parallel path
//! paid thread-creation and allocator churn per de-virtualization.
//!
//! [`DecodeWorkerPool`] keeps the lanes alive instead: `workers - 1`
//! persistent threads park on a condvar between loads, and every lane
//! (including the dispatching caller, which decodes a share itself) checks
//! its scratch arena and partial image out of a shared [`ScratchPool`].
//! Dispatch is a mutex/condvar epoch bump and completion a counter — no
//! channel nodes, no spawns, no allocation of any kind — so a warm pool
//! decodes in parallel with **zero heap allocations per load**, matching
//! the sequential scratch path's budget.
//!
//! Results are bit-identical to the sequential decode: partial images hold
//! disjoint non-empty frames (one record = one cluster), and merging them
//! into the caller's target is a word-OR sweep per partial under a short
//! lock.
//!
//! # Safety
//!
//! This is the one module of the workspace that uses `unsafe`: the
//! dispatcher lends the workers references to its stack-held job state
//! (devirtualizer, through which lanes read the records, and target image)
//! through lifetime-erased pointers, because persistent threads cannot
//! carry a caller's borrow in
//! the type system. The invariant making this sound is the same one scoped
//! threads enforce structurally: [`DecodeWorkerPool::decode_into`] does not
//! return until every worker has signalled completion of the job, so the
//! pointers never outlive the borrow they were created from. Workers only
//! read the job slot between an epoch bump (which publishes it) and their
//! completion signal (after their last use), and a dispatch mutex
//! serializes concurrent `decode_into` callers so the single job slot and
//! completion counter always describe exactly one in-flight job.

#![allow(unsafe_code)]

use crate::error::RuntimeError;
use crate::pool::ScratchPool;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU16, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use vbs_arch::ArchSpec;
use vbs_bitstream::TaskBitstream;
use vbs_core::{DecodeScratch, Devirtualizer, VbsRef};
use vbs_telemetry::{EventKind, Stage, Telemetry, FLEET_FABRIC};

use crate::controller::DecodeReport;

/// Counter slot (of the pool's [`Telemetry`] registry) accumulating the
/// coded routes the lanes expanded — with [`ROUTE_SEARCHES_SLOT`], what
/// tells a slow decode (same counts, more time) from a long one (more
/// routes, or more of them searched). `vbs-sched` numbers its own banks
/// from 0; these sit past them so a merged view cannot collide.
pub const ROUTES_EXPANDED_SLOT: usize = 20;
/// Counter slot accumulating the routes that were not a single switch and
/// ran the cluster search (see [`DecodeScratch::route_counts`]).
pub const ROUTE_SEARCHES_SLOT: usize = 21;

/// Adds what `scratch` expanded since `before` to the registry's counters.
fn count_routes(telemetry: &Telemetry, scratch: &DecodeScratch, before: (u64, u64)) {
    let (routes, searches) = scratch.route_counts();
    telemetry.counter_add(ROUTES_EXPANDED_SLOT, routes - before.0);
    telemetry.counter_add(ROUTE_SEARCHES_SLOT, searches - before.1);
}

/// The job slot published to the workers for one parallel decode. All
/// references are lifetime-erased; see the module-level safety contract.
struct Job {
    /// `&Devirtualizer<'_>` of the stream being decoded; lanes read the
    /// records through it.
    devirt: *const (),
    /// The stream's record count.
    records_len: usize,
    /// Shape of the decoded task (partials are checked out at this shape).
    spec: ArchSpec,
    width: u16,
    height: u16,
    /// Records per fixed-size chunk; lanes claim chunk indices from `next`.
    chunk_len: usize,
    next: AtomicUsize,
    /// `&mut TaskBitstream` the partials merge into, guarded by `merge`.
    target: *mut TaskBitstream,
    merge: Mutex<()>,
    /// First failure of any lane; once set, lanes stop claiming work.
    failed: AtomicBool,
    error: Mutex<Option<RuntimeError>>,
    /// Observability registry lanes record busy spans and decode events
    /// into (resolved once at dispatch; recording is allocation-free).
    telemetry: Telemetry,
    /// Fabric tag stamped on this job's lane events.
    fabric: u16,
}

// SAFETY: the raw pointers inside a `Job` are only dereferenced by lanes
// between the epoch publication and the completion signal, while the
// dispatcher provably keeps the referents alive (it blocks until the
// completion count reaches zero). Concurrent access is disciplined: the
// devirtualizer (and the stream it borrows) is only read, and the target is
// only touched under the `merge` mutex.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

struct State {
    /// Bumped once per published job; workers wake on the change.
    epoch: u64,
    /// The current job, valid while `active > 0` (worker view).
    job: Option<*const Job>,
    /// Worker threads still running the current job.
    active: usize,
    shutdown: bool,
}

// SAFETY: the `*const Job` travels to worker threads only via this state;
// validity is governed by the Job contract above.
unsafe impl Send for State {}

struct Shared {
    state: Mutex<State>,
    /// Workers park here between jobs.
    work: Condvar,
    /// The dispatcher parks here until `active` drains to zero.
    done: Condvar,
    pool: ScratchPool,
    /// Fabric tag for lane telemetry (fleet tag until one is assigned).
    fabric: AtomicU16,
}

/// Record count below which a load decodes sequentially on a multi-lane
/// pool (when the host has more than one hardware thread; single-core
/// hosts always decode sequentially). Fanning a load out costs a condvar
/// broadcast, per-lane partial checkouts and a merge sweep per lane, while
/// a coded record expands inside its cluster's pattern in about a
/// microsecond (roughly 80 ns per single-switch route), so a stream of a
/// couple hundred records finishes sooner on the dispatcher's lane alone.
/// The cheaper the record, the higher the break-even: 192 was set when a
/// record cost several microseconds and is conservative now. It also still
/// exceeds every corpus stream's record count (at most 81, the 9×9
/// `alu4@l`), so the repository's workloads never fan out on their own.
pub const DEFAULT_SEQUENTIAL_THRESHOLD: usize = 192;

/// The pool's initial sequential threshold: the default record-count
/// cutoff, or "always sequential" when the host cannot actually run lanes
/// concurrently (fan-out is pure dispatch overhead there).
fn default_threshold() -> usize {
    match std::thread::available_parallelism() {
        Ok(n) if n.get() > 1 => DEFAULT_SEQUENTIAL_THRESHOLD,
        _ => usize::MAX,
    }
}

/// A persistent pool of de-virtualization lanes sharing one
/// [`ScratchPool`] (see the module docs). `workers == 1` keeps no threads
/// at all: decodes run sequentially on a pooled scratch.
///
/// Multi-lane pools are *adaptive*: a load whose record count falls below
/// the sequential threshold (see
/// [`DecodeWorkerPool::set_sequential_threshold`]) skips the fan-out and
/// decodes on the dispatcher's lane, because waking lanes for a handful of
/// records costs more than the records themselves.
pub struct DecodeWorkerPool {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    workers: usize,
    /// Record count below which loads stay sequential.
    sequential_threshold: AtomicUsize,
    /// Serializes dispatchers: the job slot holds exactly one job, and the
    /// safety contract (the published pointers outlive the job) requires
    /// that no second caller republish the slot while lanes are mid-job.
    dispatch: Mutex<()>,
}

impl fmt::Debug for DecodeWorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DecodeWorkerPool")
            .field("workers", &self.workers)
            .field("pool", &self.shared.pool.stats())
            .finish()
    }
}

impl DecodeWorkerPool {
    /// Creates a pool with `workers` decode lanes (at least 1; the caller's
    /// thread is lane 0, so `workers - 1` threads are spawned) and a fresh
    /// [`ScratchPool`].
    pub fn new(workers: usize) -> Self {
        DecodeWorkerPool::with_pool(workers, ScratchPool::default())
    }

    /// As [`DecodeWorkerPool::new`], with an explicit (typically fleet- or
    /// fabric-shared) scratch pool.
    pub fn with_pool(workers: usize, pool: ScratchPool) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                active: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            pool,
            fabric: AtomicU16::new(FLEET_FABRIC),
        });
        let threads = (1..workers)
            .map(|lane| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, lane as u16))
            })
            .collect();
        DecodeWorkerPool {
            shared,
            threads,
            workers,
            sequential_threshold: AtomicUsize::new(default_threshold()),
            dispatch: Mutex::new(()),
        }
    }

    /// Sets the record count below which a load decodes sequentially even
    /// on a multi-lane pool. `2` restores unconditional fan-out (every
    /// stream with at least two records is split); `usize::MAX` forces
    /// every load sequential.
    pub fn set_sequential_threshold(&self, records: usize) {
        self.sequential_threshold
            .store(records.max(2), Ordering::Relaxed);
    }

    /// The current sequential-fallback threshold.
    pub fn sequential_threshold(&self) -> usize {
        self.sequential_threshold.load(Ordering::Relaxed)
    }

    /// The number of decode lanes (1 = sequential, no threads).
    pub const fn workers(&self) -> usize {
        self.workers
    }

    /// The shared scratch pool (a handle).
    pub fn pool(&self) -> &ScratchPool {
        &self.shared.pool
    }

    /// Tags this pool's lane telemetry with the owning fabric (events carry
    /// the fleet tag until one is assigned). The registry itself lives on
    /// the [`ScratchPool`] — see [`ScratchPool::set_telemetry`].
    pub fn set_fabric(&self, fabric: u16) {
        self.shared.fabric.store(fabric, Ordering::Relaxed);
    }

    /// The fabric tag stamped on lane events.
    pub fn fabric(&self) -> u16 {
        self.shared.fabric.load(Ordering::Relaxed)
    }

    /// Pre-warms one scratch and one partial buffer per lane for `stream`,
    /// so subsequent decodes allocate nothing no matter how the lanes
    /// interleave (see [`ScratchPool::warm_scratches`]).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Decode`] when the stream header is
    /// degenerate.
    pub fn warm<'s>(&self, stream: impl Into<VbsRef<'s>>) -> Result<(), RuntimeError> {
        self.shared
            .pool
            .warm_scratches(stream, self.workers)
            .map_err(RuntimeError::Decode)
    }

    /// De-virtualizes `stream` (an owned stream or a view of stored bytes)
    /// into `task` (reshaped in place), fanning the record list out over
    /// every lane. With a warm pool this performs zero heap allocations.
    /// Results are bit-identical to [`Devirtualizer::decode_into`].
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Decode`] when any record fails to expand;
    /// `task` then holds a partially merged image and should be discarded
    /// (or recycled — pooled checkouts reset it anyway).
    pub fn decode_into<'s>(
        &self,
        stream: impl Into<VbsRef<'s>>,
        task: &mut TaskBitstream,
    ) -> Result<DecodeReport, RuntimeError> {
        let telemetry = self.shared.pool.telemetry();
        let fabric = self.fabric();
        let start = telemetry.now();
        let stream = stream.into();
        let devirtualizer = Devirtualizer::new(stream).map_err(RuntimeError::Decode)?;
        let records = devirtualizer.record_count();
        let header = stream.header();
        let (width, height) = (header.width.max(1), header.height.max(1));

        let threshold = self.sequential_threshold.load(Ordering::Relaxed);
        if self.threads.is_empty() || records < threshold {
            // Sequential: decode straight into the target on one pooled
            // scratch (decode_into reshapes the target itself).
            telemetry.event(EventKind::DecodeStart, fabric, 0, 0, 0);
            let mut scratch = self.shared.pool.checkout_scratch();
            let before = scratch.route_counts();
            let result = devirtualizer.decode_into(task, &mut scratch);
            count_routes(&telemetry, &scratch, before);
            self.shared.pool.put_scratch(scratch);
            telemetry.record_span(Stage::LaneBusy, start);
            telemetry.event_span(EventKind::DecodeEnd, fabric, 0, records as u64, 0, start);
            result.map_err(RuntimeError::Decode)?;
        } else {
            // One dispatcher at a time: the job slot and completion counter
            // belong to exactly one in-flight job (see the safety contract).
            let _dispatch = lock_unpoisoned(&self.dispatch);
            task.reset(header.spec, width, height);
            // Size chunks so every participating lane gets a worthwhile
            // share (half the sequential threshold): a load just past the
            // cutoff fans out to two lanes, not to every lane with a
            // two-record crumb each.
            let min_share = (threshold / 2).max(1);
            let lanes = self.workers.min(records / min_share).clamp(2, self.workers);
            let job = Job {
                devirt: (&devirtualizer as *const Devirtualizer<'_>).cast(),
                records_len: records,
                spec: header.spec,
                width,
                height,
                chunk_len: records.div_ceil(lanes),
                next: AtomicUsize::new(0),
                target: task as *mut TaskBitstream,
                merge: Mutex::new(()),
                failed: AtomicBool::new(false),
                error: Mutex::new(None),
                telemetry: telemetry.clone(),
                fabric,
            };
            {
                let mut state = lock_unpoisoned(&self.shared.state);
                state.job = Some(&job as *const Job);
                state.active = self.threads.len();
                state.epoch += 1;
                self.shared.work.notify_all();
            }
            // Lane 0 is the dispatcher itself. A panic here must not
            // propagate before the completion wait below — the published
            // job pointers would dangle — so it is caught and converted
            // into the job's failure slot like any worker-lane panic.
            let lane0 = catch_unwind(AssertUnwindSafe(|| run_lane(&job, &self.shared.pool, 0)));
            {
                let mut state = lock_unpoisoned(&self.shared.state);
                while state.active > 0 {
                    state = self
                        .shared
                        .done
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                state.job = None;
            }
            if let Err(payload) = lane0 {
                fail(&job, lane_panic_error(0, payload.as_ref()));
            }
            let failure = lock_unpoisoned(&job.error).take();
            if let Some(error) = failure {
                return Err(error);
            }
        }

        Ok(DecodeReport {
            records,
            workers: self.workers,
            micros: telemetry.now().saturating_sub(start),
            raw_bits: task.size_bits(),
        })
    }
}

impl Drop for DecodeWorkerPool {
    fn drop(&mut self) {
        {
            let mut state = lock_unpoisoned(&self.shared.state);
            state.shutdown = true;
            self.shared.work.notify_all();
        }
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Locks a mutex, recovering the data even when a panicking lane poisoned
/// it — a single bad decode must not take the pool down for later loads.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Converts a caught lane panic payload into the typed error reported to
/// the interrupted load.
fn lane_panic_error(lane: usize, payload: &(dyn std::any::Any + Send)) -> RuntimeError {
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    RuntimeError::LanePanic { lane, message }
}

/// One worker thread: park on the condvar, run every published job once,
/// signal completion, repeat until shutdown. A panic inside the lane is
/// caught here: the completion signal must fire regardless (the dispatcher
/// is blocked on it), and the panic surfaces as the job's
/// [`RuntimeError::LanePanic`] instead of tearing the thread down.
fn worker_loop(shared: &Shared, lane: u16) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut state = lock_unpoisoned(&shared.state);
            loop {
                if state.shutdown {
                    return;
                }
                if state.epoch != seen {
                    if let Some(job) = state.job {
                        seen = state.epoch;
                        break job;
                    }
                }
                state = shared
                    .work
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // SAFETY: the dispatcher keeps the job (and everything it points
        // at) alive until `active` reaches zero, which this thread only
        // signals below, after its last use of `job`.
        let job = unsafe { &*job };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run_lane(job, &shared.pool, lane))) {
            fail(job, lane_panic_error(lane as usize, payload.as_ref()));
        }
        let mut state = lock_unpoisoned(&shared.state);
        state.active -= 1;
        if state.active == 0 {
            shared.done.notify_all();
        }
    }
}

/// One lane's share of a job: claim record chunks, decode them into a
/// pooled partial image on a pooled scratch, then word-OR the partial into
/// the target under the merge lock.
///
/// Records are read in stream order through the lane's own cursor, which
/// steps over the chunks other lanes claimed: a record of a serialized
/// stream has no address until the ones before it are walked, and the
/// chunks a lane claims only ever grow, so its cursor only moves forward.
fn run_lane(job: &Job, pool: &ScratchPool, lane_index: u16) {
    #[cfg(test)]
    tests::maybe_inject_panic();
    // SAFETY: see the Job contract — the devirtualizer (and the stream it
    // borrows) outlives the job; the cast reverses the lifetime erasure of
    // dispatch.
    let devirt = unsafe { &*job.devirt.cast::<Devirtualizer<'_>>() };
    let mut records = devirt.records();
    let mut cursor = 0;

    let mut lane: Option<(DecodeScratch, TaskBitstream)> = None;
    let mut counts_before = (0, 0);
    let mut busy_from = 0u64;
    let mut decoded = 0u64;
    while !job.failed.load(Ordering::Relaxed) {
        let chunk = job.next.fetch_add(1, Ordering::Relaxed);
        let begin = chunk * job.chunk_len;
        if begin >= job.records_len {
            break;
        }
        let end = (begin + job.chunk_len).min(job.records_len);
        let (scratch, partial) = lane.get_or_insert_with(|| {
            // First claimed chunk: the lane goes busy (lanes that never
            // claim work stay silent on the timeline).
            busy_from = job.telemetry.now();
            job.telemetry.event(
                EventKind::DecodeStart,
                job.fabric,
                lane_index,
                lane_index as u64,
                0,
            );
            let scratch = pool.checkout_scratch();
            counts_before = scratch.route_counts();
            (scratch, pool.checkout(job.spec, job.width, job.height))
        });
        if begin > cursor {
            records.nth(begin - cursor - 1);
        }
        cursor = end;
        for record in records.by_ref().take(end - begin) {
            if job.failed.load(Ordering::Relaxed) {
                break;
            }
            if let Err(e) = devirt.decode_record_with(record, partial, scratch) {
                fail(job, RuntimeError::Decode(e));
                break;
            }
            decoded += 1;
        }
    }

    if let Some((scratch, partial)) = lane {
        if !job.failed.load(Ordering::Relaxed) {
            let _guard = lock_unpoisoned(&job.merge);
            // SAFETY: the target is only touched under the merge lock and
            // outlives the job (dispatcher's &mut borrow).
            let target = unsafe { &mut *job.target };
            if let Err(e) = target.merge_disjoint(&partial) {
                fail(job, RuntimeError::Memory(e));
            }
        }
        count_routes(&job.telemetry, &scratch, counts_before);
        pool.put(partial);
        pool.put_scratch(scratch);
        job.telemetry.record_span(Stage::LaneBusy, busy_from);
        job.telemetry.event_span(
            EventKind::DecodeEnd,
            job.fabric,
            lane_index,
            decoded,
            0,
            busy_from,
        );
    }
}

/// Records the first failure and stops the other lanes claiming work.
fn fail(job: &Job, error: RuntimeError) {
    let mut slot = lock_unpoisoned(&job.error);
    if slot.is_none() {
        *slot = Some(error);
    }
    job.failed.store(true, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbs_core::Vbs;
    use vbs_flow::CadFlow;
    use vbs_netlist::generate::SyntheticSpec;

    /// Arms a one-shot panic in the next lane that starts a job — the
    /// injection seam for the containment test below.
    static INJECT_LANE_PANIC: AtomicBool = AtomicBool::new(false);

    pub(super) fn maybe_inject_panic() {
        if INJECT_LANE_PANIC.swap(false, Ordering::SeqCst) {
            panic!("injected lane panic");
        }
    }

    fn fixture() -> (Vbs, TaskBitstream) {
        let netlist = SyntheticSpec::new("pp", 24, 4, 4)
            .with_seed(33)
            .build()
            .unwrap();
        let flow = CadFlow::new(9, 6)
            .unwrap()
            .with_grid(6, 6)
            .with_seed(33)
            .fast();
        let result = flow.run(&netlist).unwrap();
        (result.vbs(1).unwrap(), result.raw_bitstream().clone())
    }

    #[test]
    fn parallel_lanes_match_the_sequential_decode() {
        let (vbs, raw) = fixture();
        for workers in [1usize, 2, 4] {
            let pool = DecodeWorkerPool::new(workers);
            // Pin the fan-out path regardless of host parallelism — this is
            // the parallel-vs-sequential bit-identity differential.
            pool.set_sequential_threshold(2);
            let mut task = TaskBitstream::empty(*vbs.spec(), 1, 1);
            let report = pool.decode_into(&vbs, &mut task).unwrap();
            assert_eq!(report.workers, workers);
            assert_eq!(report.records, vbs.records().len());
            assert_eq!(task.diff_count(&raw).unwrap(), 0, "workers={workers}");
            // A second decode on the warm pool is still identical.
            pool.decode_into(&vbs, &mut task).unwrap();
            assert_eq!(task.diff_count(&raw).unwrap(), 0);
            // So is one of the serialized stream, read where it lies: each
            // lane walks the records to the chunks it claims.
            let bytes = vbs.to_bytes();
            let view = vbs_core::VbsView::parse(&bytes).unwrap();
            let report = pool.decode_into(view, &mut task).unwrap();
            assert_eq!(report.records, vbs.records().len());
            assert_eq!(task.diff_count(&raw).unwrap(), 0, "view, workers={workers}");
        }
    }

    #[test]
    fn lanes_recycle_scratches_and_partials_through_the_pool() {
        let (vbs, _) = fixture();
        let pool = DecodeWorkerPool::new(3);
        pool.set_sequential_threshold(2);
        pool.warm(&vbs).unwrap();
        let warmed = pool.pool().stats();
        assert_eq!(warmed.scratch_fresh, 3);
        assert_eq!(warmed.scratch_parked, 3);
        let mut task = TaskBitstream::empty(*vbs.spec(), 1, 1);
        for _ in 0..5 {
            pool.decode_into(&vbs, &mut task).unwrap();
        }
        let stats = pool.pool().stats();
        assert_eq!(
            stats.scratch_fresh, 3,
            "no lane may allocate a scratch after warm-up: {stats:?}"
        );
        assert_eq!(stats.fresh, 4, "partial buffers must recycle: {stats:?}");
    }

    #[test]
    fn small_loads_fall_back_to_one_sequential_lane() {
        let (vbs, raw) = fixture();
        let pool = DecodeWorkerPool::new(4);
        // Record count below the threshold: the load must stay on the
        // dispatcher's lane — no partial images are ever checked out.
        pool.set_sequential_threshold(vbs.records().len() + 1);
        let telemetry = Telemetry::new();
        pool.pool().set_telemetry(telemetry.clone());
        let routes: usize = vbs.records().iter().map(|r| r.routes.route_count()).sum();
        let mut task = TaskBitstream::empty(*vbs.spec(), 1, 1);
        let report = pool.decode_into(&vbs, &mut task).unwrap();
        assert_eq!(report.records, vbs.records().len());
        assert_eq!(task.diff_count(&raw).unwrap(), 0);
        assert_eq!(telemetry.counter(ROUTES_EXPANDED_SLOT), routes as u64);
        assert_eq!(
            pool.pool().stats().fresh,
            0,
            "a sequential fallback must not touch partial buffers"
        );
        // Lowering the threshold fans the very same stream out, with
        // bit-identical results.
        pool.set_sequential_threshold(2);
        pool.decode_into(&vbs, &mut task).unwrap();
        assert_eq!(task.diff_count(&raw).unwrap(), 0);
        assert!(
            pool.pool().stats().fresh > 0,
            "the fan-out path merges through pooled partials"
        );
        // Either way every route is counted once, and at cluster size 1
        // none of them needs the search.
        assert_eq!(telemetry.counter(ROUTES_EXPANDED_SLOT), 2 * routes as u64);
        assert_eq!(telemetry.counter(ROUTE_SEARCHES_SLOT), 0);
    }

    #[test]
    fn concurrent_dispatchers_serialize_on_one_pool() {
        // Two threads share one pool and decode simultaneously: the
        // dispatch mutex must serialize the job slot so both get complete,
        // bit-identical results.
        let (vbs, raw) = fixture();
        let pool = DecodeWorkerPool::new(3);
        pool.set_sequential_threshold(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let pool = &pool;
                let vbs = &vbs;
                let raw = &raw;
                scope.spawn(move || {
                    let mut task = TaskBitstream::empty(*vbs.spec(), 1, 1);
                    for _ in 0..8 {
                        pool.decode_into(vbs, &mut task).unwrap();
                        assert_eq!(task.diff_count(raw).unwrap(), 0);
                    }
                });
            }
        });
    }

    #[test]
    fn a_corrupt_stream_reports_the_decode_error() {
        let (vbs, _) = fixture();
        // Rebuild the stream with one record pointing at an out-of-range
        // boundary wire so decoding fails deterministically.
        let mut records = vbs.records().to_vec();
        let corrupted = records
            .iter_mut()
            .find_map(|r| match &mut r.routes {
                vbs_core::ClusterRoutes::Coded(routes) => routes.first_mut(),
                vbs_core::ClusterRoutes::Raw(_) => None,
            })
            .expect("the fixture stream has a coded record");
        corrupted.output = vbs_core::ClusterIo::Boundary {
            side: vbs_arch::Side::West,
            offset: u16::MAX,
        };
        let bad = Vbs::new(
            *vbs.spec(),
            vbs.cluster_size(),
            vbs.width(),
            vbs.height(),
            records,
        )
        .expect("positions are untouched, so construction succeeds");
        let pool = DecodeWorkerPool::new(4);
        pool.set_sequential_threshold(2);
        let mut task = TaskBitstream::empty(*vbs.spec(), 1, 1);
        assert!(pool.decode_into(&bad, &mut task).is_err());
        // The pool survives the failure and decodes good streams again.
        pool.decode_into(&vbs, &mut task).unwrap();
    }

    #[test]
    fn a_panicking_lane_is_contained_and_reported() {
        let (vbs, raw) = fixture();
        let pool = DecodeWorkerPool::new(4);
        // The injection seam lives in `run_lane`, so the fan-out path must
        // actually run.
        pool.set_sequential_threshold(2);
        let mut task = TaskBitstream::empty(*vbs.spec(), 1, 1);
        pool.decode_into(&vbs, &mut task).unwrap();

        // Silence the default panic hook around the injected panic so the
        // test log stays readable; the panic itself is caught by the pool.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        INJECT_LANE_PANIC.store(true, Ordering::SeqCst);
        let err = pool.decode_into(&vbs, &mut task).unwrap_err();
        std::panic::set_hook(hook);
        assert!(matches!(err, RuntimeError::LanePanic { .. }), "{err:?}");
        assert!(err.to_string().contains("injected lane panic"));

        // The interrupted load failed, but the pool is not poisoned: the
        // same lanes keep decoding later loads bit-perfectly.
        for _ in 0..3 {
            pool.decode_into(&vbs, &mut task).unwrap();
            assert_eq!(task.diff_count(&raw).unwrap(), 0);
        }
    }
}
