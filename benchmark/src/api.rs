//! The one adapter between the benchmark and the product crates.
//!
//! Every call into `crates/*` is made here and nowhere else, and only
//! through entry points the load-path collapse (ROADMAP item 2) intends to
//! keep, so that collapse has one file to fix. The README lists the
//! surface. Scheduler configurations name only `cache_budget` and `verify`
//! on top of `McncCorpus::replay_config()`.

use std::path::PathBuf;
use vbs_arch::{ArchSpec, Device};
use vbs_bitstream::{generate_bitstream, ConfigMemory, FrameRef};
use vbs_core::{DecodeScratch, Devirtualizer, FrameSink};
use vbs_fabric_sim::verify_against_netlist;
use vbs_flow::{CadFlow, FlowResult};
use vbs_netlist::{blif, mcnc};
use vbs_place::{place, PlacerConfig};
use vbs_route::{route, RouterConfig, Routing};
use vbs_runtime::{FirstFit, ReconfigurationController, TaskHandle, TaskManager, VbsRepository};
use vbs_sched::{
    CacheBudget, McncCorpus, MultiFabricScheduler, Scheduler, SchedulerConfig, VariantSwapSpec,
    WorkloadSpec,
};
use vbs_telemetry::Telemetry;

pub use vbs_arch::{Coord, Rect};
pub use vbs_bitstream::TaskBitstream;
pub use vbs_core::Vbs;
pub use vbs_netlist::Netlist;
pub use vbs_place::Placement;
pub use vbs_sched::{Outcome, RejectReason, Request, Trace, TraceOp};

fn text<E: std::fmt::Display>(context: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{context}: {e}")
}

/// One `task` line of the corpus manifest.
#[derive(Debug, Clone)]
pub struct TaskEntry {
    pub name: String,
    pub width: u16,
    pub height: u16,
}

/// The checked-in MCNC corpus (`tests/traces/mcnc/`), located from this
/// package's manifest directory, never from the working directory.
#[derive(Debug)]
pub struct Corpus {
    inner: McncCorpus,
    dir: PathBuf,
}

/// Fabric of `hot_replay`: production scale, so the placement scan and the
/// arena writes cross a 10 000-macro device.
pub const HOT_FABRIC: (u16, u16) = (100, 100);
/// Instance population of `hot_replay` (4 head instances take ~94 % of the
/// traffic).
const HOT_INSTANCES: usize = 48;
/// PR 10's 25 % budget point: ~94 % hits and a handful of warm re-decodes.
const HOT_BUDGET: CacheBudget = CacheBudget {
    hot_bytes: 25_000,
    warm_bytes: 8_000,
};

impl Corpus {
    pub fn load() -> Result<Corpus, String> {
        let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../tests/traces/mcnc"));
        let inner = McncCorpus::load(&dir).map_err(text("corpus"))?;
        Ok(Corpus { inner, dir })
    }

    pub fn tasks(&self) -> Vec<TaskEntry> {
        self.inner
            .tasks
            .iter()
            .map(|t| TaskEntry {
                name: t.name.clone(),
                width: t.width,
                height: t.height,
            })
            .collect()
    }

    /// The six base circuits (no `@` variants).
    pub fn base_names(&self) -> Vec<String> {
        self.inner
            .tasks
            .iter()
            .filter(|t| !t.name.contains('@'))
            .map(|t| t.name.clone())
            .collect()
    }

    /// The checked-in stream bytes of a task.
    pub fn stream(&self, name: &str) -> Result<&[u8], String> {
        self.inner
            .repository
            .bytes(name)
            .ok_or_else(|| format!("corpus has no stream `{name}`"))
    }

    pub fn blif_text(&self, name: &str) -> Result<String, String> {
        let path = self.dir.join(format!("{name}.blif"));
        std::fs::read_to_string(&path).map_err(text(&path.display().to_string()))
    }

    pub fn lut_size(&self) -> u8 {
        self.inner.lut_size
    }

    pub fn single_shape(&self) -> (u16, u16) {
        self.inner.single
    }

    pub fn fleet_shape(&self) -> (usize, u16, u16) {
        self.inner.fleet
    }

    fn device(&self, width: u16, height: u16) -> Result<Device, String> {
        let spec = ArchSpec::new(self.inner.channel_width, self.inner.lut_size)
            .map_err(text("corpus arch"))?;
        Device::new(spec, width, height).map_err(text("device"))
    }

    /// `cold_load`: a bare task manager on the corpus single fabric — no
    /// scheduler, no cache. With `integrity` the controller keeps its
    /// per-frame checksum sidecar, so `verify` reads back real CRCs.
    pub fn manager(&self, integrity: bool) -> Result<Manager, String> {
        let (w, h) = self.inner.single;
        let mut controller = ReconfigurationController::new(self.device(w, h)?);
        if integrity {
            controller.enable_integrity();
        }
        Ok(Manager(
            TaskManager::new(controller, self.inner.repository.clone())
                .with_policy(Box::new(FirstFit)),
        ))
    }

    /// A blank configuration memory of the given shape, for the frame
    /// write / clear / move probes.
    pub fn memory(&self, width: u16, height: u16) -> Result<Memory, String> {
        Ok(Memory(ConfigMemory::new(&self.device(width, height)?)))
    }

    pub fn hot_repository(&self) -> Repository {
        Repository(self.inner.scaled_repository(HOT_INSTANCES))
    }

    pub fn hot_trace(&self, loads: usize, seed: u64) -> Trace {
        self.inner.scaled_steady_trace(HOT_INSTANCES, loads, seed)
    }

    /// `hot_replay`: the scaled population on a 100×100 fabric under a
    /// finite two-tier cache budget.
    pub fn hot_scheduler(&self, repository: &Repository) -> Sched {
        let config = SchedulerConfig {
            cache_budget: HOT_BUDGET,
            ..McncCorpus::replay_config()
        };
        Sched(
            self.inner
                .scheduler_over(repository.0.clone(), HOT_FABRIC.0, HOT_FABRIC.1, config),
        )
    }

    /// `churn_replay`: `alu4` morphs between its three encoded sizes every
    /// 8 ticks under a 4-tick deadline while `background` loads of the five
    /// other base circuits keep the 14×14 fabric contended.
    pub fn churn_trace(&self, swaps: usize, background: usize, seed: u64) -> Trace {
        Trace::variant_swap(&VariantSwapSpec {
            variants: vec!["alu4@s".into(), "alu4@m".into(), "alu4@l".into()],
            swaps,
            period: 8,
            deadline_slack: Some(4),
            background: Some(WorkloadSpec {
                tasks: self
                    .base_names()
                    .into_iter()
                    .filter(|n| n != "alu4")
                    .collect(),
                loads: background,
                seed,
                ..WorkloadSpec::default()
            }),
            ..VariantSwapSpec::default()
        })
    }

    /// `churn_replay`: the corpus single fabric, unbounded cache, readback
    /// verify on. `SchedulerConfig::verify` alone leaves the controller's
    /// checksum sidecar off (only `set_verify` switches it on), so both are
    /// set — otherwise every verify passes trivially and no CRC is read.
    pub fn churn_scheduler(&self) -> Sched {
        let config = SchedulerConfig {
            verify: true,
            ..McncCorpus::replay_config()
        };
        let mut scheduler = self.inner.single_scheduler_with(config);
        scheduler.set_verify(true);
        Sched(scheduler)
    }

    /// `fleet_replay`: uniform arrivals over the six base circuits.
    pub fn fleet_trace(&self, loads: usize, seed: u64) -> Trace {
        Trace::synthetic(&WorkloadSpec {
            tasks: self.base_names(),
            loads,
            mean_interarrival: 2,
            mean_duration: 24,
            seed,
            ..WorkloadSpec::default()
        })
    }

    /// `fleet_replay`: the corpus fleet (2 × 12×12) behind the least-loaded
    /// shard policy, default `MultiConfig`.
    pub fn fleet(&self) -> Result<Fleet, String> {
        self.inner
            .fleet_scheduler("least-loaded")
            .map(Fleet)
            .ok_or_else(|| "shard policy `least-loaded` is unknown".to_string())
    }

    /// The single-fabric replay scheduler the fleet is compared against.
    pub fn single_scheduler(&self) -> Sched {
        Sched(self.inner.single_scheduler())
    }
}

#[derive(Debug)]
pub struct Repository(VbsRepository);

/// A task configured on a fabric, read back from its configuration memory.
#[derive(Debug)]
pub struct Resident {
    pub name: String,
    pub image: TaskBitstream,
}

fn read_back(manager: &TaskManager, out: &mut Vec<Resident>) -> Result<(), String> {
    for task in manager.loaded_tasks() {
        let image = manager
            .controller()
            .memory()
            .read_region(task.region)
            .map_err(text("read_region"))?;
        out.push(Resident {
            name: task.name.clone(),
            image,
        });
    }
    Ok(())
}

#[derive(Debug, Clone, Copy)]
pub struct Handle(TaskHandle);

#[derive(Debug)]
pub struct Manager(TaskManager);

impl Manager {
    pub fn load(&mut self, name: &str) -> Result<Handle, String> {
        self.0.load(name).map(Handle).map_err(text("load"))
    }

    pub fn unload(&mut self, handle: Handle) -> Result<(), String> {
        self.0.unload(handle.0).map_err(text("unload"))
    }

    pub fn relocate(&mut self, handle: Handle, to: Coord) -> Result<(), String> {
        self.0.relocate(handle.0, to).map_err(text("relocate"))
    }

    pub fn find_free_region(&self, width: u16, height: u16) -> Option<Coord> {
        self.0.find_free_region(width, height)
    }

    /// The region of the most recently loaded task.
    pub fn last_region(&self) -> Option<Rect> {
        self.0.loaded_tasks().last().map(|t| t.region)
    }

    /// Readback verify against the checksum sidecar (trivial unless the
    /// manager was built with `integrity`).
    pub fn verify(&self, region: Rect) -> Result<(), String> {
        self.0
            .controller()
            .verify_region(region)
            .map_err(text("verify_region"))
    }

    pub fn residents(&self) -> Result<Vec<Resident>, String> {
        let mut out = Vec::new();
        read_back(&self.0, &mut out)?;
        Ok(out)
    }
}

#[derive(Debug)]
pub struct Memory(ConfigMemory);

impl Memory {
    pub fn write(&mut self, task: &TaskBitstream, origin: Coord) -> Result<(), String> {
        self.0.load_task(task, origin).map_err(text("load_task"))
    }

    pub fn clear(&mut self, region: Rect) -> Result<(), String> {
        self.0.clear_region(region).map_err(text("clear_region"))
    }

    pub fn move_region(&mut self, from: Rect, to: Coord) -> Result<(), String> {
        self.0.move_region(from, to).map_err(text("move_region"))
    }

    pub fn read(&self, region: Rect) -> Result<TaskBitstream, String> {
        self.0.read_region(region).map_err(text("read_region"))
    }
}

/// Cumulative counters of a replay target, as the product reports them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    pub submitted: u64,
    pub accepted: u64,
    pub rejected: u64,
    pub deadline_missed: u64,
    pub evictions: u64,
    pub relocations: u64,
    pub compaction_passes: u64,
    pub decodes: u64,
    pub decode_micros: u64,
    pub compaction_micros: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub warm_hits: u64,
    pub demotions: u64,
    /// Point in time, not cumulative.
    pub cache_resident_bytes: u64,
    pub migrations: u64,
    pub accepted_per_fabric: Vec<u64>,
}

impl Counters {
    fn add_fabric(&mut self, scheduler: &Scheduler) {
        let m = scheduler.metrics();
        let c = scheduler.cache_stats();
        self.evictions += m.evictions;
        self.relocations += m.relocations;
        self.compaction_passes += m.compaction_passes;
        self.decodes += m.decodes;
        self.decode_micros += m.decode_micros;
        self.compaction_micros += m.compaction_micros;
        self.deadline_missed += m.deadline_missed;
        self.cache_hits += c.hits;
        self.cache_misses += c.misses;
        self.warm_hits += c.warm_hits;
        self.demotions += c.demotions;
        self.cache_resident_bytes += c.hot_bytes + c.warm_bytes;
        self.accepted_per_fabric.push(m.loads_accepted);
    }
}

/// What the replay driver needs from a scheduler or a fleet.
pub trait Target: std::fmt::Debug {
    fn advance_to(&mut self, tick: u64);
    fn submit(&mut self, request: Request) -> u64;
    fn process(&mut self) -> Vec<Outcome>;
    fn counters(&self) -> Counters;
    /// Cumulative (decode µs, compaction µs), for splitting a round's
    /// process span.
    fn busy_micros(&self) -> (u64, u64);
    fn residents(&self) -> Result<Vec<Resident>, String>;
    /// `TaskManager::find_free_region` against the current occupancy (of
    /// the first fabric, for a fleet).
    fn find_free_region(&self, width: u16, height: u16) -> Option<Coord>;
}

#[derive(Debug)]
pub struct Sched(Scheduler);

impl Sched {
    /// Installs a live telemetry registry (spans, histograms, event ring).
    pub fn enable_telemetry(&mut self) {
        self.0.set_telemetry(Telemetry::new(), 0);
    }
}

impl Target for Sched {
    fn advance_to(&mut self, tick: u64) {
        self.0.advance_to(tick);
    }

    fn submit(&mut self, request: Request) -> u64 {
        self.0.submit(request)
    }

    fn process(&mut self) -> Vec<Outcome> {
        self.0.process_pending()
    }

    fn counters(&self) -> Counters {
        let m = self.0.metrics();
        let mut counters = Counters {
            submitted: m.loads_submitted,
            accepted: m.loads_accepted,
            rejected: m.loads_rejected,
            ..Counters::default()
        };
        counters.add_fabric(&self.0);
        counters
    }

    fn busy_micros(&self) -> (u64, u64) {
        let m = self.0.metrics();
        (m.decode_micros, m.compaction_micros)
    }

    fn residents(&self) -> Result<Vec<Resident>, String> {
        let mut out = Vec::new();
        read_back(self.0.manager(), &mut out)?;
        Ok(out)
    }

    fn find_free_region(&self, width: u16, height: u16) -> Option<Coord> {
        self.0.manager().find_free_region(width, height)
    }
}

#[derive(Debug)]
pub struct Fleet(MultiFabricScheduler);

impl Target for Fleet {
    fn advance_to(&mut self, tick: u64) {
        self.0.advance_to(tick);
    }

    fn submit(&mut self, request: Request) -> u64 {
        self.0.submit(request)
    }

    fn process(&mut self) -> Vec<Outcome> {
        self.0.process_pending()
    }

    fn counters(&self) -> Counters {
        let m = self.0.metrics();
        let mut counters = Counters {
            submitted: m.loads_submitted,
            accepted: m.loads_accepted,
            rejected: m.loads_rejected,
            migrations: m.migrations,
            ..Counters::default()
        };
        for fabric in self.0.fabrics() {
            counters.add_fabric(fabric);
        }
        counters
    }

    fn busy_micros(&self) -> (u64, u64) {
        self.0.fabrics().iter().fold((0, 0), |(d, c), fabric| {
            let m = fabric.metrics();
            (d + m.decode_micros, c + m.compaction_micros)
        })
    }

    fn residents(&self) -> Result<Vec<Resident>, String> {
        let mut out = Vec::new();
        for fabric in self.0.fabrics() {
            read_back(fabric.manager(), &mut out)?;
        }
        Ok(out)
    }

    fn find_free_region(&self, width: u16, height: u16) -> Option<Coord> {
        self.0.fabrics()[0]
            .manager()
            .find_free_region(width, height)
    }
}

pub fn parse_vbs(bytes: &[u8]) -> Result<Vbs, String> {
    Vbs::from_bytes(bytes).map_err(text("Vbs::from_bytes"))
}

pub fn vbs_to_bytes(vbs: &Vbs) -> Vec<u8> {
    vbs.to_bytes()
}

/// Connection-list routes of a stream, over all records.
pub fn route_count(vbs: &Vbs) -> usize {
    vbs.records().iter().map(|r| r.routes.route_count()).sum()
}

struct CountingSink {
    frames: u64,
}

impl FrameSink for CountingSink {
    fn emit(&mut self, _at: Coord, _frame: FrameRef<'_>) {
        self.frames += 1;
    }
}

/// One decode lane: a staging image and a decode scratch kept across
/// decodes (a fresh lane is cold: its first decode of a task shape builds
/// that shape's adjacency).
#[derive(Debug)]
pub struct DecodeLane {
    staging: Option<TaskBitstream>,
    scratch: DecodeScratch,
}

impl Default for DecodeLane {
    fn default() -> Self {
        Self::new()
    }
}

impl DecodeLane {
    pub fn new() -> Self {
        DecodeLane {
            staging: None,
            scratch: DecodeScratch::new(),
        }
    }

    /// De-virtualizes `vbs` through the streaming path into a counting
    /// sink; returns the frames emitted. The decoded image stays readable
    /// through [`DecodeLane::image`].
    pub fn decode(&mut self, vbs: &Vbs) -> Result<u64, String> {
        let staging = self
            .staging
            .get_or_insert_with(|| TaskBitstream::empty(*vbs.spec(), 0, 0));
        let mut sink = CountingSink { frames: 0 };
        Devirtualizer::new(vbs)
            .and_then(|d| d.decode_streaming(staging, &mut self.scratch, &mut sink))
            .map_err(text("decode_streaming"))?;
        Ok(sink.frames)
    }

    pub fn image(&self) -> Option<&TaskBitstream> {
        self.staging.as_ref()
    }
}

pub fn parse_blif(blif_text: &str, lut_size: u8) -> Result<Netlist, String> {
    blif::parse(blif_text, lut_size).map_err(text("blif::parse"))
}

/// A Table II circuit rebuilt at `scale`: its BLIF text, grid edge and
/// placer seed.
pub fn scaled_circuit(name: &str, scale: f64) -> Result<(String, u16, u64), String> {
    let circuit = mcnc::by_name(name).ok_or_else(|| format!("unknown MCNC circuit `{name}`"))?;
    let netlist = circuit.build_scaled(scale).map_err(text("build_scaled"))?;
    Ok((
        blif::write(&netlist),
        circuit.scaled_size(scale),
        circuit.seed(),
    ))
}

/// The placer seed the corpus builder uses for a task (`alu4@s` → `alu4`).
pub fn corpus_seed(task: &str) -> Result<u64, String> {
    let base = task.split('@').next().unwrap_or(task);
    mcnc::by_name(base)
        .map(|c| c.seed())
        .ok_or_else(|| format!("unknown MCNC circuit `{base}`"))
}

/// The CAD flow with the corpus builder's parameters (`mcnc_corpus`'s
/// `build_task`): fixed square grid, per-circuit seed, fast effort.
#[derive(Debug)]
pub struct Flow {
    flow: CadFlow,
    device: Device,
    placer: PlacerConfig,
    router: RouterConfig,
}

#[derive(Debug)]
pub struct Compiled(FlowResult);

impl Flow {
    pub fn new(corpus: &Corpus, edge: u16, seed: u64) -> Result<Flow, String> {
        let flow = CadFlow::new(corpus.inner.channel_width, corpus.inner.lut_size)
            .map_err(text("CadFlow::new"))?
            .with_grid(edge, edge)
            .with_seed(seed)
            .fast();
        Ok(Flow {
            flow,
            device: corpus.device(edge, edge)?,
            placer: PlacerConfig::fast(seed),
            router: RouterConfig::fast(),
        })
    }

    pub fn run(&self, netlist: &Netlist) -> Result<Compiled, String> {
        self.flow
            .run(netlist)
            .map(Compiled)
            .map_err(text("CadFlow::run"))
    }

    // The three stages `run` chains, callable one by one for the per-layer
    // budget.
    pub fn place(&self, netlist: &Netlist) -> Result<Placement, String> {
        place(netlist, &self.device, &self.placer).map_err(text("place"))
    }

    pub fn route(&self, netlist: &Netlist, placement: &Placement) -> Result<Routed, String> {
        route(netlist, &self.device, placement, &self.router)
            .map(Routed)
            .map_err(text("route"))
    }

    pub fn generate(
        &self,
        netlist: &Netlist,
        placement: &Placement,
        routed: &Routed,
    ) -> Result<TaskBitstream, String> {
        generate_bitstream(netlist, &self.device, placement, &routed.0)
            .map_err(text("generate_bitstream"))
    }
}

#[derive(Debug)]
pub struct Routed(Routing);

impl Compiled {
    pub fn vbs(&self, cluster_size: u16) -> Result<Vbs, String> {
        self.0.vbs(cluster_size).map_err(text("FlowResult::vbs"))
    }

    pub fn placement(&self) -> &Placement {
        self.0.placement()
    }

    pub fn raw_bits(&self) -> u64 {
        self.0.raw_bitstream().size_bits()
    }
}

pub fn size_bits(vbs: &Vbs) -> u64 {
    vbs.size_bits()
}

/// The functional oracle: `decoded` implements `netlist` under `placement`
/// (every net connected, none shorted, every LUT holding its truth table).
pub fn functional_check(
    decoded: &TaskBitstream,
    netlist: &Netlist,
    placement: &Placement,
) -> Result<(), String> {
    verify_against_netlist(decoded, netlist, placement)
        .map(|_| ())
        .map_err(text("verify_against_netlist"))
}
