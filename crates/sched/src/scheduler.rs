//! The on-line reconfiguration scheduler.
//!
//! [`Scheduler`] layers a request queue, eviction, defragmentation and the
//! decode cache on top of the runtime [`TaskManager`]. It is the component
//! that turns the paper's fast-relocation primitive into a multi-tenant
//! resource manager: requests arrive with priorities and deadlines, victims
//! are evicted when the fabric is full, and resident tasks are compacted
//! toward the bottom-left corner to fight external fragmentation — every
//! compaction move is a run-time relocation of an unchanged Virtual
//! Bit-Stream.

use crate::cache::{CacheBudget, CacheLookup, CacheStats, DecodeCache};
use crate::evict::{EvictionPolicy, LruEviction, ResidentInfo};
use std::collections::BTreeMap;
use std::sync::Arc;
use vbs_arch::{ArchSpec, Coord, Rect};
use vbs_bitstream::{BitstreamError, TaskBitstream};
use vbs_runtime::{RuntimeError, TaskHandle, TaskManager};
use vbs_telemetry::{EventKind, Stage, Telemetry};

/// Packs an origin into one event payload word (`x` high, `y` low).
const fn pack_origin(origin: Coord) -> u64 {
    ((origin.x as u64) << 16) | origin.y as u64
}

/// A request submitted to the scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Load a task from the repository somewhere on the fabric.
    Load {
        /// Task name in the repository.
        task: String,
        /// Priority (higher wins the queue and resists eviction).
        priority: u8,
        /// Absolute tick after which the load is worthless.
        deadline: Option<u64>,
    },
    /// Unload a previously loaded job.
    Unload {
        /// The job to unload.
        job: u64,
    },
    /// Relocate a resident job to an explicit origin.
    Relocate {
        /// The job to move.
        job: u64,
        /// Destination origin (lower-left corner).
        to: Coord,
    },
}

/// Why a load request was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// No task with this name exists in the repository.
    UnknownTask,
    /// No feasible region even after compaction and allowed evictions.
    NoCapacity,
    /// The request was processed after its deadline.
    DeadlineMissed,
    /// Fetch/decode/memory failure bubbled up from the runtime.
    Runtime(String),
}

/// What happened to one processed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The task was configured on the fabric.
    Loaded {
        /// The job id assigned at submission.
        job: u64,
        /// Runtime handle of the instance.
        handle: TaskHandle,
        /// Where it was placed.
        origin: Coord,
        /// Jobs evicted to make room, in eviction order.
        evicted: Vec<u64>,
        /// Whether the decoded stream came from the cache.
        cache_hit: bool,
    },
    /// The load was dropped.
    Rejected {
        /// The job id assigned at submission.
        job: u64,
        /// Why it was dropped.
        reason: RejectReason,
        /// Jobs evicted on behalf of this request before it still failed
        /// (empty for pre-placement rejections). Their fabric regions are
        /// already freed.
        evicted: Vec<u64>,
    },
    /// The job was unloaded.
    Unloaded {
        /// The job id.
        job: u64,
    },
    /// The job was not resident (already unloaded or evicted).
    NotResident {
        /// The job id.
        job: u64,
    },
    /// The job was moved to a new origin.
    Relocated {
        /// The job id.
        job: u64,
        /// The new origin.
        origin: Coord,
    },
}

/// A resident abandoned by [`Scheduler::evacuate`] when its fabric went
/// offline, carrying exactly what a re-placement load needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvacuatedJob {
    /// The job id the resident was loaded under.
    pub job: u64,
    /// Task name in the repository.
    pub task: String,
    /// The priority it was originally loaded with.
    pub priority: u8,
}

/// Maximum retries of a transiently refused configuration write before
/// the load is re-placed elsewhere (and, failing that, rejected). The retry
/// budget is the bounded backoff: retries are immediate in the simulation
/// (the logical clock never advances mid-request), so bounding their count
/// is what bounds the backoff.
const WRITE_RETRY_LIMIT: u32 = 2;

/// Tunables of the scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerConfig {
    /// Maximum evictions attempted on behalf of one load request.
    pub eviction_limit: usize,
    /// Whether to run a defragmentation pass when placement fails.
    pub compaction: bool,
    /// Whether every accepted load is readback-verified against the
    /// per-frame checksum sidecar, with a corrupted frame scrubbed once
    /// (rewritten from the decoded image) before the load counts as
    /// placed. Off by default: fault-free goldens stay bit-identical.
    pub verify: bool,
    /// Byte budgets of the two decode-cache tiers (hot decoded arenas /
    /// warm compressed bytes), the one way to size the cache. The default —
    /// unbounded on both tiers — keeps every stream decoded once: nothing
    /// is ever demoted or re-decoded. A finite budget caps the cache's
    /// resident bytes: entries over the hot budget fall back to
    /// their compressed VBS bytes and re-decode on a pooled scratch
    /// on their next hit (see [`CacheBudget`]).
    pub cache_budget: CacheBudget,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            eviction_limit: 2,
            compaction: true,
            verify: false,
            cache_budget: CacheBudget::UNBOUNDED,
        }
    }
}

/// Aggregate counters of one scheduler's lifetime (see
/// [`Scheduler::metrics`]). The scheduler keeps one of these and bumps it
/// in place; decode-cache counters live in [`CacheStats`] instead. All
/// timing fields are `u64` microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SchedMetrics {
    /// Load requests submitted.
    pub loads_submitted: u64,
    /// Load requests that ended configured on the fabric.
    pub loads_accepted: u64,
    /// Load requests dropped (any [`RejectReason`]).
    pub loads_rejected: u64,
    /// Loads dropped specifically for missing their deadline.
    pub deadline_missed: u64,
    /// Resident tasks evicted to make room.
    pub evictions: u64,
    /// Relocations performed (compaction moves + explicit requests).
    pub relocations: u64,
    /// Defragmentation passes that ran.
    pub compaction_passes: u64,
    /// Configuration frames rewritten by compaction moves (the pause-cost
    /// proxy: each moved frame is one word-arena row segment rewrite).
    pub compaction_frames_moved: u64,
    /// Wall-clock time spent inside [`Scheduler::compact`] (planning +
    /// executing moves), in microseconds — the pause-time metric.
    pub compaction_micros: u64,
    /// Total de-virtualization time spent, in microseconds: the sum of the
    /// controller's `decode` stage samples for this scheduler's decodes.
    pub decode_micros: u64,
    /// Number of de-virtualizations performed (cache misses).
    pub decodes: u64,
    /// Number of fragmentation samples folded into `fragmentation_sum`.
    pub fragmentation_samples: u64,
    /// Sum of sampled fragmentation values (one per processed request).
    pub fragmentation_sum: f64,
    /// Sum of sampled fabric-utilization values (occupied / total area, one
    /// sample per processed request, sharing `fragmentation_samples`).
    pub utilization_sum: f64,
    /// Transiently refused configuration writes that were retried.
    pub write_retries: u64,
    /// Configuration-write faults observed (transient and persistent).
    pub write_faults: u64,
    /// Frames a readback verify caught disagreeing with their checksum.
    pub crc_mismatches: u64,
    /// Scrub rewrites performed after a verify mismatch.
    pub verify_scrubs: u64,
    /// Time spent re-decoding warm cache entries, in microseconds (a
    /// subset of `decode_micros`).
    pub redecode_micros: u64,
}

impl SchedMetrics {
    /// Accepted / submitted loads, 1.0 when nothing was submitted.
    pub fn acceptance_rate(&self) -> f64 {
        if self.loads_submitted == 0 {
            return 1.0;
        }
        self.loads_accepted as f64 / self.loads_submitted as f64
    }

    /// Mean de-virtualization time per decode, in microseconds.
    pub fn mean_decode_micros(&self) -> f64 {
        if self.decodes == 0 {
            return 0.0;
        }
        self.decode_micros as f64 / self.decodes as f64
    }

    /// Mean sampled fragmentation over the run.
    pub fn mean_fragmentation(&self) -> f64 {
        if self.fragmentation_samples == 0 {
            return 0.0;
        }
        self.fragmentation_sum / self.fragmentation_samples as f64
    }

    /// Mean sampled fabric utilization (occupied share of the device) over
    /// the run.
    pub fn mean_utilization(&self) -> f64 {
        if self.fragmentation_samples == 0 {
            return 0.0;
        }
        self.utilization_sum / self.fragmentation_samples as f64
    }

    /// Mean compaction pause, in microseconds per pass.
    pub fn mean_compaction_micros(&self) -> f64 {
        if self.compaction_passes == 0 {
            return 0.0;
        }
        self.compaction_micros as f64 / self.compaction_passes as f64
    }
}

#[derive(Debug)]
struct Resident {
    handle: TaskHandle,
    priority: u8,
    loaded_at: u64,
    last_used: u64,
}

#[derive(Debug)]
struct Pending {
    job: u64,
    request: Request,
    /// Telemetry-clock timestamp of submission (queue-wait span start).
    enqueued_at: u64,
}

/// The on-line reconfiguration scheduler (see the module docs).
#[derive(Debug)]
pub struct Scheduler {
    manager: TaskManager,
    eviction: Box<dyn EvictionPolicy>,
    cache: DecodeCache,
    config: SchedulerConfig,
    queue: Vec<Pending>,
    residents: BTreeMap<u64, Resident>,
    clock: u64,
    next_job: u64,
    /// This scheduler's own counters. Separate from the (possibly
    /// fleet-shared) telemetry registry so per-fabric counters never merge.
    metrics: SchedMetrics,
    /// Span/event registry: stage latencies and the pipeline timeline.
    /// Disabled (recording no-ops) until one is installed.
    telemetry: Telemetry,
    /// Fabric tag stamped on this scheduler's events.
    fabric: u16,
}

impl Scheduler {
    /// Creates a scheduler over a task manager with LRU eviction and the
    /// default configuration. The placement policy is whatever `manager`
    /// was built with.
    pub fn new(manager: TaskManager) -> Self {
        Scheduler::with_config(manager, Box::new(LruEviction), SchedulerConfig::default())
    }

    /// Creates a scheduler with an explicit eviction policy and config.
    /// [`SchedulerConfig::verify`] switches on the controller's per-frame
    /// checksum sidecar, as [`Scheduler::set_verify`] does.
    pub fn with_config(
        manager: TaskManager,
        eviction: Box<dyn EvictionPolicy>,
        config: SchedulerConfig,
    ) -> Self {
        let cache = DecodeCache::new(config.cache_budget);
        let mut scheduler = Scheduler {
            manager,
            eviction,
            cache,
            config,
            queue: Vec::new(),
            residents: BTreeMap::new(),
            clock: 0,
            next_job: 1,
            metrics: SchedMetrics::default(),
            telemetry: Telemetry::disabled(),
            fabric: 0,
        };
        scheduler.set_verify(config.verify);
        scheduler
    }

    /// Installs the observability registry stage latencies and pipeline
    /// events are recorded into, tagging this scheduler's events with
    /// `fabric`. The registry reaches the controller's decodes too, so
    /// decode spans and events, checkout hit/miss events and
    /// [`SchedMetrics`] timing all run on one shared clock.
    /// [`SchedMetrics`] counts the same either way — installing telemetry
    /// never changes golden-trace counters.
    pub fn set_telemetry(&mut self, telemetry: Telemetry, fabric: u16) {
        self.manager
            .controller_mut()
            .set_telemetry(telemetry.clone(), fabric);
        self.telemetry = telemetry;
        self.fabric = fabric;
    }

    /// The scheduler's span/event registry (a shared handle; disabled until
    /// [`Scheduler::set_telemetry`] installs one).
    pub fn telemetry(&self) -> Telemetry {
        self.telemetry.clone()
    }

    /// Installs a fault model on this fabric's controller (see
    /// [`vbs_runtime::FaultHook`]); `None` restores the fault-free fabric.
    pub fn set_fault_hook(&mut self, hook: Option<Arc<dyn vbs_runtime::FaultHook>>) {
        self.manager.controller_mut().set_fault_hook(hook);
    }

    /// Whether the fabric's fault model currently reports it offline.
    pub fn is_offline(&self) -> bool {
        self.manager.controller().is_offline()
    }

    /// Switches readback verification of accepted loads on or off (see
    /// [`SchedulerConfig::verify`]). Enabling it switches on the
    /// controller's per-frame checksum sidecar.
    pub fn set_verify(&mut self, verify: bool) {
        self.config.verify = verify;
        if verify {
            self.manager.controller_mut().enable_integrity();
        }
    }

    /// Abandons every resident without touching the hardware — the
    /// quarantine path when this fabric has gone offline: its residents
    /// can no longer be cleared (the device is unreachable), so the
    /// bookkeeping is emptied and the abandoned jobs returned, oldest
    /// first, for re-placement on surviving fabrics.
    pub fn evacuate(&mut self) -> Vec<EvacuatedJob> {
        self.manager
            .evacuate()
            .into_iter()
            .filter_map(|t| {
                let job = self.job_of(t.handle)?;
                let resident = self.residents.remove(&job)?;
                Some(EvacuatedJob {
                    job,
                    task: t.name,
                    priority: resident.priority,
                })
            })
            .collect()
    }

    /// The job resident under `handle`.
    fn job_of(&self, handle: TaskHandle) -> Option<u64> {
        self.residents
            .iter()
            .find(|(_, r)| r.handle == handle)
            .map(|(&job, _)| job)
    }

    /// Brings a recovered fabric back to a trusted blank state: drops any
    /// leftover resident bookkeeping and wipes the configuration memory
    /// (and checksum sidecar).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::FabricOffline`] while the fabric is still
    /// unreachable.
    pub fn reset_after_recovery(&mut self) -> Result<(), RuntimeError> {
        self.residents.clear();
        let _ = self.manager.evacuate();
        self.manager.controller_mut().reset_memory()
    }

    /// Read access to the underlying task manager (fabric + repository).
    pub fn manager(&self) -> &TaskManager {
        &self.manager
    }

    /// Mutable access to the task repository, to register tasks at run
    /// time. Deliberately *not* the whole `TaskManager`: loading, unloading
    /// and relocating behind the scheduler's back would desynchronize its
    /// resident table. When a *different* stream is re-registered under an
    /// existing name, call [`Scheduler::invalidate_cached`] afterwards or
    /// later loads may serve the stale decoded image.
    pub fn repository_mut(&mut self) -> &mut vbs_runtime::VbsRepository {
        self.manager.repository_mut()
    }

    /// Drops the cached decoded stream(s) of `name` — required after the
    /// repository replaces the task's VBS under the same name.
    pub fn invalidate_cached(&mut self, name: &str) {
        self.cache.invalidate(name);
    }

    /// Whether this scheduler already holds decode state for task `name`
    /// (decode cache — hot *or* warm tier, any spec). Cache-affinity shard
    /// routing keys on this; a warm entry still makes this fabric the cheap
    /// place to route the task (a pooled re-decode beats a cold miss).
    /// Counters are not touched.
    pub fn holds_decoded(&self, name: &str) -> bool {
        self.cache.retains_name(name)
    }

    /// Number of requests of any kind currently queued.
    pub fn queued_len(&self) -> usize {
        self.queue.len()
    }

    /// Number of load requests currently queued (not yet processed).
    pub fn queued_loads(&self) -> usize {
        self.queue
            .iter()
            .filter(|p| matches!(p.request, Request::Load { .. }))
            .count()
    }

    /// Marks a resident job as used "now" for LRU-eviction purposes.
    /// Loads and explicit relocations touch implicitly; call this when the
    /// running task does observable work between scheduler requests.
    pub fn touch(&mut self, job: u64) {
        let now = self.clock;
        if let Some(resident) = self.residents.get_mut(&job) {
            resident.last_used = now;
        }
    }

    /// The scheduler's logical clock (advanced by [`Scheduler::advance_to`]).
    pub const fn now(&self) -> u64 {
        self.clock
    }

    /// Aggregate counters so far (a copy).
    pub fn metrics(&self) -> SchedMetrics {
        self.metrics
    }

    /// Decode-cache counters so far — the one source of warm hits,
    /// demotions, promotions and resident bytes.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Jobs currently resident, with the metadata the eviction policies see.
    pub fn residents(&self) -> Vec<ResidentInfo> {
        self.residents
            .iter()
            .filter_map(|(&job, r)| {
                self.manager
                    .loaded_tasks()
                    .iter()
                    .find(|t| t.handle == r.handle)
                    .map(|t| ResidentInfo {
                        job,
                        region: t.region,
                        priority: r.priority,
                        loaded_at: r.loaded_at,
                        last_used: r.last_used,
                    })
            })
            .collect()
    }

    /// Advances the logical clock (monotonic; earlier ticks are ignored).
    /// Time-keyed fault models (outage windows) follow the same clock; an
    /// idle tick does no other work.
    pub fn advance_to(&mut self, tick: u64) {
        self.clock = self.clock.max(tick);
        self.manager.controller().advance_clock(self.clock);
    }

    /// Enqueues a request and returns its job id (for loads, the id the
    /// eventual [`Outcome`] refers to; for unloads/relocates, a fresh id
    /// naming the request itself).
    pub fn submit(&mut self, request: Request) -> u64 {
        let job = self.next_job;
        self.next_job += 1;
        self.enqueue(job, request);
        job
    }

    /// Enqueues a request under a caller-chosen id, which its outcome tag,
    /// resident entry and events then carry. A fleet queues every request
    /// on its shards this way, under the fleet-global id its own `submit`
    /// returned, so fleet and shard name a job alike.
    pub(crate) fn enqueue(&mut self, job: u64, request: Request) {
        if matches!(request, Request::Load { .. }) {
            self.metrics.loads_submitted += 1;
        }
        let enqueued_at = self.telemetry.now();
        self.telemetry
            .event(EventKind::Enqueue, self.fabric, job, 0);
        self.queue.push(Pending {
            job,
            request,
            enqueued_at,
        });
    }

    /// Processes every queued request in priority order (unloads first so
    /// departures free space before arrivals claim it, then loads by
    /// descending priority, FIFO within a class) and returns the outcomes.
    pub fn process_pending(&mut self) -> Vec<Outcome> {
        self.process_pending_tagged()
            .into_iter()
            .map(|(_, outcome)| outcome)
            .collect()
    }

    /// As [`Scheduler::process_pending`], but each outcome is tagged with
    /// the id [`Scheduler::submit`] returned for the request that produced
    /// it (an unload's *outcome* names the job it targeted, which is not
    /// the request's own id).
    pub fn process_pending_tagged(&mut self) -> Vec<(u64, Outcome)> {
        let mut pending = std::mem::take(&mut self.queue);
        // The queue holds requests in submission order and the sort is
        // stable, so requests of one class and priority stay FIFO.
        pending.sort_by_key(|p| {
            (
                class_rank(&p.request),
                std::cmp::Reverse(priority_of(&p.request)),
            )
        });
        pending
            .into_iter()
            .map(|p| {
                let outcome = self.process_one(p.job, p.request, p.enqueued_at);
                self.sample_fragmentation();
                (p.job, outcome)
            })
            .collect()
    }

    /// Submits one request and processes the whole queue immediately —
    /// convenience for direct (non-batched) callers. Returns the outcome of
    /// *this* request (matched by request id, so previously queued requests
    /// targeting the same job cannot be confused with it).
    pub fn execute(&mut self, request: Request) -> Outcome {
        let job = self.submit(request);
        self.process_pending_tagged()
            .into_iter()
            .find(|(id, _)| *id == job)
            .map(|(_, outcome)| outcome)
            .expect("the submitted request is always processed")
    }

    /// Runs a defragmentation pass ([`TaskManager::compact`]): the greedy
    /// bottom-left sweeps are planned on the occupancy rectangles, then
    /// every resident whose final position improved is moved **once**,
    /// directly to its final region, by a decode-free bulk word-arena
    /// relocation. The pass records its pause cost (frames moved + wall
    /// microseconds) in [`SchedMetrics`] and one `Relocate` event per
    /// move, in move order. Returns the number of relocations.
    pub fn compact(&mut self) -> usize {
        let pause_start = self.telemetry.now();
        self.metrics.compaction_passes += 1;
        let moves = self.manager.compact();
        let mut frames = 0u64;
        for &(handle, region) in &moves {
            frames += u64::from(region.area());
            if let Some(job) = self.job_of(handle) {
                self.telemetry.event(
                    EventKind::Relocate,
                    self.fabric,
                    job,
                    pack_origin(region.origin),
                );
            }
        }
        self.metrics.relocations += moves.len() as u64;
        self.metrics.compaction_frames_moved += frames;
        // The pause span doubles as the counter source, so the histogram
        // and the golden-counter total always agree.
        self.metrics.compaction_micros += self
            .telemetry
            .record_span(Stage::CompactionPause, pause_start);
        self.telemetry.event_span(
            EventKind::CompactPass,
            self.fabric,
            moves.len() as u64,
            frames,
            pause_start,
        );
        moves.len()
    }

    /// Fetches the decoded stream of `name` through the cache (counting the
    /// hot hit, the warm hit + pooled re-decode, or the miss + decode).
    /// Returns the stream and whether it was a (hot) cache hit, or why the
    /// load is refused. A task larger than the device is refused before
    /// the lookup: it is never decoded, cached or evicted for.
    ///
    /// A warm hit accounts exactly like a miss (miss + decode + decode
    /// micros) and *additionally* bumps the warm-hit counters.
    ///
    /// The repository stays authoritative on every path: the lookup key is
    /// the header of [`VbsRepository::view`](vbs_runtime::VbsRepository::view),
    /// whose verdict comes from one validating walk over the stored bytes
    /// taken once per store, not per load. A stream corrupted there
    /// (re-stored, with or without [`Scheduler::invalidate_cached`])
    /// therefore surfaces as the decode error a cold miss would report, on
    /// a hot hit too, instead of being masked by stale cache state; a miss
    /// or warm hit decodes the records where they lie in that view.
    fn decoded_with(
        &mut self,
        job: u64,
        name: &str,
    ) -> Result<(Arc<TaskBitstream>, bool), RejectReason> {
        let view = self
            .manager
            .repository()
            .view(name)
            .map_err(reject_reason)?;
        let (header, size_bytes) = (view.header(), view.size_bytes());
        let device = self.manager.controller().device();
        if header.width > device.width() || header.height > device.height() {
            return Err(RejectReason::NoCapacity);
        }
        let warm = match self.cache.get(name, &header.spec) {
            CacheLookup::Hot(cached) => return Ok((cached, true)),
            CacheLookup::Warm => true,
            CacheLookup::Miss => false,
        };
        let redecode_start = self.telemetry.now();
        let (staging, report) = self.manager.decode(name).map_err(reject_reason)?;
        self.metrics.decodes += 1;
        self.metrics.decode_micros += report.micros;
        if warm {
            self.metrics.redecode_micros += report.micros;
            self.telemetry.record_micros(Stage::Redecode, report.micros);
            self.telemetry.event_span(
                EventKind::WarmHit,
                self.fabric,
                job,
                size_bytes,
                redecode_start,
            );
        }
        let task = Arc::new(staging);
        self.cache_insert(name, header.spec, Arc::clone(&task), report.micros);
        Ok((task, false))
    }

    /// Inserts a freshly decoded stream into the tiered cache with the
    /// metadata its cost model runs on (compressed size + measured decode
    /// micros), recycles every displaced arena into the controller's
    /// scratch pool, and records tier-transition events. Under an unbounded
    /// budget nothing is ever demoted, so the compressed size is booked
    /// as 0.
    fn cache_insert(&mut self, name: &str, spec: ArchSpec, task: Arc<TaskBitstream>, micros: u64) {
        let compressed_bytes = if self.cache.budget().is_unbounded() {
            0
        } else {
            self.manager
                .repository()
                .bytes(name)
                .map_or(0, |bytes| bytes.len() as u64)
        };
        let outcome = self
            .cache
            .insert(name, spec, task, compressed_bytes, micros);
        for displaced in outcome.displaced {
            self.manager.controller_mut().recycle(displaced);
        }
        if outcome.demoted > 0 {
            let stats = self.cache.stats();
            self.telemetry.event(
                EventKind::Demote,
                self.fabric,
                outcome.demoted,
                stats.hot_bytes,
            );
        }
        if outcome.promoted {
            let stats = self.cache.stats();
            self.telemetry
                .event(EventKind::Promote, self.fabric, 1, stats.hot_bytes);
        }
    }

    fn process_one(&mut self, job: u64, request: Request, enqueued_at: u64) -> Outcome {
        match request {
            Request::Load {
                task,
                priority,
                deadline,
            } => self.process_load(job, &task, priority, deadline, enqueued_at),
            Request::Unload { job: target } => match self.residents.remove(&target) {
                Some(resident) => {
                    // The manager drops the resident from its bookkeeping
                    // before clearing the hardware, so even when the clear
                    // is refused (offline fabric, write fault) the job is
                    // gone — report it unloaded; the stale frames are
                    // overwritten by whichever load lands there next.
                    if let Err(e) = self.manager.unload(resident.handle) {
                        debug_assert!(
                            !matches!(e, RuntimeError::UnknownHandle { .. }),
                            "resident handles are always valid"
                        );
                    }
                    self.telemetry
                        .event(EventKind::Unload, self.fabric, target, 0);
                    Outcome::Unloaded { job: target }
                }
                None => Outcome::NotResident { job: target },
            },
            // Decode-free: the frames already sit decoded in the
            // configuration memory, so the move is one bulk word-arena copy
            // that touches neither the decode counters nor the cache.
            Request::Relocate { job: target, to } => match self
                .residents
                .get(&target)
                .map(|r| self.manager.relocate(r.handle, to))
            {
                None | Some(Err(RuntimeError::UnknownHandle { .. })) => {
                    Outcome::NotResident { job: target }
                }
                Some(Ok(())) => {
                    self.telemetry
                        .event(EventKind::Relocate, self.fabric, target, pack_origin(to));
                    self.metrics.relocations += 1;
                    // An explicit relocation is a use of the task.
                    self.touch(target);
                    Outcome::Relocated {
                        job: target,
                        origin: to,
                    }
                }
                Some(Err(e)) => Outcome::Rejected {
                    job: target,
                    reason: RejectReason::Runtime(e.to_string()),
                    evicted: Vec::new(),
                },
            },
        }
    }

    /// Wraps the load pipeline with its observability: queue-wait span,
    /// end-to-end load span, and the Admit/Reject timeline event.
    fn process_load(
        &mut self,
        job: u64,
        task: &str,
        priority: u8,
        deadline: Option<u64>,
        enqueued_at: u64,
    ) -> Outcome {
        self.telemetry.record_span(Stage::QueueWait, enqueued_at);
        let start = self.telemetry.now();
        let outcome = self.process_load_inner(job, task, priority, deadline);
        self.telemetry.record_span(Stage::Load, start);
        match &outcome {
            Outcome::Loaded { origin, .. } => self.telemetry.event_span(
                EventKind::Admit,
                self.fabric,
                job,
                pack_origin(*origin),
                start,
            ),
            Outcome::Rejected { .. } => {
                self.telemetry
                    .event_span(EventKind::Reject, self.fabric, job, 0, start)
            }
            _ => {}
        }
        outcome
    }

    fn process_load_inner(
        &mut self,
        job: u64,
        task: &str,
        priority: u8,
        deadline: Option<u64>,
    ) -> Outcome {
        if deadline.is_some_and(|d| self.clock > d) {
            self.metrics.loads_rejected += 1;
            self.metrics.deadline_missed += 1;
            return Outcome::Rejected {
                job,
                reason: RejectReason::DeadlineMissed,
                evicted: Vec::new(),
            };
        }
        let (stream, cache_hit) = match self.decoded_with(job, task) {
            Ok(decoded) => decoded,
            Err(reason) => {
                self.metrics.loads_rejected += 1;
                return Outcome::Rejected {
                    job,
                    reason,
                    evicted: Vec::new(),
                };
            }
        };
        let (w, h) = (stream.width(), stream.height());

        // Placement span: finding (or making, via compaction/eviction) a
        // free region. Compaction-pause spans nest inside it.
        let placement_start = self.telemetry.now();
        let mut evicted = Vec::new();
        let origin = loop {
            if let Some(origin) = self.manager.find_free_region(w, h) {
                break Some(origin);
            }
            if self.config.compaction {
                let moved = self.compact();
                if moved > 0 {
                    if let Some(origin) = self.manager.find_free_region(w, h) {
                        break Some(origin);
                    }
                }
            }
            if evicted.len() >= self.config.eviction_limit {
                break None;
            }
            let Some(victim) = self.eviction.victim(&self.residents(), priority) else {
                break None;
            };
            let resident = self
                .residents
                .remove(&victim)
                .expect("eviction candidates are resident");
            // As with explicit unloads: the bookkeeping entry is gone even
            // when the fabric refuses the clear, so the eviction stands.
            let _ = self.manager.unload(resident.handle);
            self.metrics.evictions += 1;
            self.telemetry
                .event(EventKind::Evict, self.fabric, victim, job);
            evicted.push(victim);
        };
        self.telemetry
            .record_span(Stage::Placement, placement_start);

        let Some(origin) = origin else {
            self.metrics.loads_rejected += 1;
            return Outcome::Rejected {
                job,
                reason: RejectReason::NoCapacity,
                evicted,
            };
        };
        let write_start = self.telemetry.now();
        let written = match self.write_with_retry(job, task, &stream, origin) {
            Ok(handle) => Ok((handle, origin)),
            Err(e)
                if matches!(
                    e,
                    RuntimeError::WriteFault { .. }
                        | RuntimeError::Memory(BitstreamError::CrcMismatch { .. })
                ) =>
            {
                // Self-healing re-placement: this region looks bad (a dead
                // column, transients that never dissolve, unverifiable
                // frames), so offer the load one alternative region with
                // the failed rectangle masked busy.
                match self
                    .manager
                    .find_free_region_avoiding(w, h, Rect::new(origin, w, h))
                {
                    Some(alt) => self
                        .write_with_retry(job, task, &stream, alt)
                        .map(|handle| (handle, alt)),
                    None => Err(e),
                }
            }
            Err(e) => Err(e),
        };
        match written {
            Ok((handle, origin)) => {
                self.telemetry.record_span(Stage::Write, write_start);
                self.telemetry.event_span(
                    EventKind::FrameWrite,
                    self.fabric,
                    job,
                    w as u64 * h as u64,
                    write_start,
                );
                self.residents.insert(
                    job,
                    Resident {
                        handle,
                        priority,
                        loaded_at: self.clock,
                        last_used: self.clock,
                    },
                );
                self.metrics.loads_accepted += 1;
                Outcome::Loaded {
                    job,
                    handle,
                    origin,
                    evicted,
                    cache_hit,
                }
            }
            Err(e) => {
                self.metrics.loads_rejected += 1;
                Outcome::Rejected {
                    job,
                    reason: RejectReason::Runtime(e.to_string()),
                    evicted,
                }
            }
        }
    }

    /// One load's gated write with the self-healing retry loop: a
    /// transiently refused write is retried up to
    /// [`WRITE_RETRY_LIMIT`] times, and (with verify on)
    /// an accepted write must pass readback verification — a mismatching
    /// frame is scrubbed and re-verified by
    /// [`Scheduler::verify_and_scrub`]; an unverifiable write is torn
    /// down and spends a retry like a refused one. Persistent refusals
    /// fail immediately: by definition retrying the same region cannot
    /// help (re-placement happens in the caller).
    fn write_with_retry(
        &mut self,
        job: u64,
        name: &str,
        stream: &TaskBitstream,
        origin: Coord,
    ) -> Result<TaskHandle, RuntimeError> {
        let mut attempts = 0u32;
        loop {
            let error = match self.manager.load_decoded_at(name, stream, origin) {
                Ok(handle) => {
                    if !self.config.verify {
                        return Ok(handle);
                    }
                    match self.verify_and_scrub(job, stream, origin) {
                        Ok(()) => return Ok(handle),
                        Err(e) => {
                            // Unverifiable even after the scrub: tear the
                            // instance down (at least the bookkeeping — an
                            // offline fabric cannot clear) and retry.
                            let _ = self.manager.unload(handle);
                            e
                        }
                    }
                }
                Err(e @ RuntimeError::WriteFault { .. }) => {
                    self.metrics.write_faults += 1;
                    if !matches!(
                        e,
                        RuntimeError::WriteFault {
                            transient: true,
                            ..
                        }
                    ) {
                        return Err(e);
                    }
                    e
                }
                Err(e) => return Err(e),
            };
            if attempts >= WRITE_RETRY_LIMIT {
                return Err(error);
            }
            attempts += 1;
            self.metrics.write_retries += 1;
            self.telemetry
                .event(EventKind::WriteRetry, self.fabric, job, attempts as u64);
        }
    }

    /// Readback-verifies a just-written load and scrubs one mismatch: the
    /// corrupted region is rewritten from the decoded image in hand (a
    /// write gated by the fault model like any other) and verified again.
    fn verify_and_scrub(
        &mut self,
        job: u64,
        stream: &TaskBitstream,
        origin: Coord,
    ) -> Result<(), RuntimeError> {
        let region = Rect::new(origin, stream.width(), stream.height());
        match self.manager.controller().verify_region(region) {
            Ok(()) => Ok(()),
            Err(RuntimeError::Memory(BitstreamError::CrcMismatch { at })) => {
                self.metrics.crc_mismatches += 1;
                self.telemetry
                    .event(EventKind::CrcMismatch, self.fabric, job, pack_origin(at));
                self.metrics.verify_scrubs += 1;
                self.manager.controller_mut().load_decoded(stream, origin)?;
                self.manager.controller().verify_region(region)
            }
            Err(e) => Err(e),
        }
    }

    fn sample_fragmentation(&mut self) {
        let view = self.manager.fabric_view();
        let fragmentation = view.fragmentation();
        self.metrics.fragmentation_samples += 1;
        self.metrics.fragmentation_sum += fragmentation;
        let total = view.total_area();
        if total > 0 {
            let utilization = 1.0 - view.free_area() as f64 / total as f64;
            self.metrics.utilization_sum += utilization;
            // One utilization sample per processed request: the per-fabric
            // occupancy timeline (per-mille payloads keep the event fixed
            // width).
            self.telemetry.event(
                EventKind::Utilization,
                self.fabric,
                (utilization * 1000.0) as u64,
                (fragmentation * 1000.0) as u64,
            );
        }
    }
}

/// The rejection a fetch or decode error stands for.
fn reject_reason(error: RuntimeError) -> RejectReason {
    match error {
        RuntimeError::UnknownTask { .. } => RejectReason::UnknownTask,
        e => RejectReason::Runtime(e.to_string()),
    }
}

/// Unloads before relocates before loads, so departures free space first.
fn class_rank(request: &Request) -> u8 {
    match request {
        Request::Unload { .. } => 0,
        Request::Relocate { .. } => 1,
        Request::Load { .. } => 2,
    }
}

fn priority_of(request: &Request) -> u8 {
    match request {
        Request::Load { priority, .. } => *priority,
        _ => u8::MAX,
    }
}
