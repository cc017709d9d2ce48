//! De-virtualization: expanding a Virtual Bit-Stream back into raw
//! configuration frames.
//!
//! This is the algorithm the run-time reconfiguration controller executes
//! (Section II-C of the paper): "the VBS data is processed macro by macro and
//! the connection list is expanded in an in-memory macro configuration". The
//! expansion is a small, deterministic, stateful router:
//!
//! * connection endpoints pin the boundary wires they name, so the decoded
//!   configuration never drives a wire shared with a neighbouring cluster
//!   unless the encoder allocated it;
//! * wires inside the cluster are routed freely but exclusively — two
//!   different nets can never share one;
//! * connections that transitively share an endpoint belong to the same net
//!   and may reuse each other's resources (fanout).
//!
//! Because every record only touches its own cluster, records can be decoded
//! independently (and, in the run-time crate, in parallel).
//!
//! # The zero-allocation hot path
//!
//! The paper's performance claim is that de-virtualization can run "as fast
//! as the hardware allows", which means the software model must not spend
//! its time in the allocator. Two pieces make that possible:
//!
//! * [`DecodeScratch`] — a reusable arena holding every buffer the decode
//!   needs (the Dijkstra search state, the per-record net bookkeeping and
//!   the claimed-wire list). A warm scratch makes
//!   [`Devirtualizer::decode_into`] perform **zero heap allocations** per
//!   load; a cold scratch performs one allocation per buffer because every
//!   buffer is pre-reserved from the VBS header before the first record is
//!   expanded.
//! * [`FrameSink`] — a push interface through which
//!   [`Devirtualizer::decode_streaming`] emits each macro frame as soon as
//!   its cluster record has been expanded, so a run-time controller can
//!   begin configuration-memory writes long before the whole stream is
//!   decoded.

use crate::cluster::{ClusterGrid, ClusterIo};
use crate::error::VbsError;
use crate::format::{ClusterRecord, ClusterRoutes, Connection, Vbs};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use vbs_arch::WireRef;
use vbs_arch::{ArchSpec, Coord, Device};
use vbs_bitstream::{edge_to_switch, FrameRef, SwitchSetting, TaskBitstream};
use vbs_route::{RrGraph, RrNode};

/// Decodes a whole Virtual Bit-Stream into the raw bit-stream of the task
/// (task-relative frames).
///
/// # Errors
///
/// Returns a [`VbsError`] when a record cannot be expanded (conflicting or
/// unroutable connection lists, dangling boundary references, malformed
/// logic payloads).
///
/// ```
/// # use vbs_arch::ArchSpec;
/// # use vbs_core::{Vbs, decode};
/// # fn main() -> Result<(), vbs_core::VbsError> {
/// let empty = Vbs::new(ArchSpec::paper_example(), 1, 4, 4, Vec::new())?;
/// let task = decode(&empty)?;
/// assert_eq!(task.popcount(), 0);
/// # Ok(())
/// # }
/// ```
pub fn decode(vbs: &Vbs) -> Result<TaskBitstream, VbsError> {
    let mut task = TaskBitstream::empty(*vbs.spec(), 0, 0);
    Devirtualizer::new(vbs)?.decode_into(&mut task, &mut DecodeScratch::new())?;
    Ok(task)
}

/// A consumer of decoded configuration frames.
///
/// [`Devirtualizer::decode_streaming`] calls [`FrameSink::emit`] for every
/// macro of the task rectangle, in two waves: the frames of a cluster are
/// emitted as soon as that cluster's record has been expanded (so a run-time
/// controller can overlap configuration-memory writes with the decode of the
/// remaining records), and the frames of clusters with no record — which are
/// all-zero — are emitted once at the end.
///
/// Nothing in this workspace's run-time stack implements it: the
/// reconfiguration controller decodes into a staging image and writes that
/// in one gated step, so a failed load leaves the fabric untouched. The
/// consumers are the repository benchmark's decode lane (a counting sink
/// that times pure de-virtualization) and any external controller that
/// wants to start writing frames before the stream is fully decoded.
///
/// # Contract
///
/// * `at` is task-relative; the sink is responsible for translating it to a
///   device position.
/// * Every frame of the task rectangle is emitted **at least once**; the
///   last emission of a coordinate carries its final content, so a sink
///   that overwrites (rather than ORs) converges to exactly the buffered
///   [`decode`] result.
/// * Emission is infallible: callers that write to bounded memory must
///   validate the whole target region *before* streaming starts.
pub trait FrameSink {
    /// Receives the (possibly final) frame of the macro at task-relative
    /// coordinates `at`, as a borrowed view into the decoder's staging
    /// arena.
    fn emit(&mut self, at: Coord, frame: FrameRef<'_>);
}

/// The reusable decode arena: every buffer the de-virtualization of one
/// stream needs, kept warm across loads.
///
/// # API contract
///
/// * A scratch may be reused across **any** sequence of streams, devices and
///   architectures; each decode re-sizes the buffers it needs and clears
///   per-record state. Results are bit-identical to a fresh scratch.
/// * A **warm** scratch (one that has already decoded a stream of at least
///   the same size) performs zero heap allocations in
///   [`Devirtualizer::decode_into`] / [`Devirtualizer::decode_streaming`].
/// * A **cold** scratch performs at most one allocation per internal buffer,
///   because every buffer is pre-reserved from the VBS header
///   (record/route counts, cluster size, device geometry) before decoding
///   starts.
/// * A scratch is intentionally cheap to construct ([`DecodeScratch::new`]
///   allocates nothing); per-worker long-lived scratches are the intended
///   usage (one per decode thread, never shared).
#[derive(Debug, Default)]
pub struct DecodeScratch {
    search: SearchScratch,
    nets: NetScratch,
    adj: AdjCache,
    claimed: Vec<WireRef>,
    emitted: Vec<bool>,
}

impl DecodeScratch {
    /// Creates an empty scratch. No allocation happens until the first
    /// decode (which pre-reserves every buffer from the stream's header).
    pub fn new() -> Self {
        DecodeScratch::default()
    }

    /// The task-relative wires claimed by the most recent
    /// [`Devirtualizer::decode_record_with`] call, sorted and deduplicated.
    /// Empty for raw-fallback records.
    pub fn claimed_wires(&self) -> &[WireRef] {
        &self.claimed
    }

    /// Pre-reserves every internal buffer for decoding `vbs`, exactly as
    /// the first decode of that stream would — the **warm-up hook** of
    /// scratch pools: a pool that parks several scratches can prepare each
    /// of them up front, so whichever scratch a decode lane later checks
    /// out is already warm and the decode performs zero heap allocations,
    /// independent of which lanes happened to run during earlier loads.
    ///
    /// # Errors
    ///
    /// Returns a [`VbsError`] when the stream header describes a degenerate
    /// device geometry.
    pub fn prepare_for(&mut self, vbs: &Vbs) -> Result<(), VbsError> {
        let geometry = Device::new(*vbs.spec(), vbs.width().max(1), vbs.height().max(1))?;
        self.reserve_for(vbs, &geometry);
        Ok(())
    }

    /// Clears the per-load transient state (per-record net bookkeeping,
    /// claimed-wire list, streaming emission map and the search worklists)
    /// while keeping every buffer's capacity — the **recycling hook** pools
    /// run before parking a scratch, so a scratch checked out later starts
    /// from a clean slate without giving back its warmed allocations.
    pub fn reset(&mut self) {
        self.nets.clear();
        self.claimed.clear();
        self.emitted.clear();
        self.search.heap.clear();
        self.search.path.clear();
        self.search.neighbors.clear();
    }

    /// Pre-reserves every buffer for decoding `vbs` on `geometry` so the
    /// decode itself allocates nothing (warm) or once per buffer (cold).
    fn reserve_for(&mut self, vbs: &Vbs, geometry: &Device) {
        let nodes = RrGraph::new(geometry).node_count();
        self.search.reserve(nodes);
        let max_routes = vbs.max_routes_per_record();
        // A route claims at most a cluster-crossing path of wires; boundary
        // plus interior wires of one cluster bound the working set.
        let k = vbs.cluster_size().max(1) as usize;
        let wires_per_cluster = 2 * vbs.spec().channel_width() as usize * k * (k + 1);
        self.nets.reserve(max_routes, nodes, geometry.wire_count());
        self.claimed.reserve(wires_per_cluster);
    }
}

/// Dijkstra search state, dense-indexed by routing-resource node and reset
/// in O(1) through a generation stamp.
#[derive(Debug, Default)]
struct SearchScratch {
    cost: Vec<f32>,
    parent: Vec<u32>,
    stamp: Vec<u32>,
    generation: u32,
    heap: BinaryHeap<Entry>,
    path: Vec<RrNode>,
    neighbors: Vec<RrNode>,
}

impl SearchScratch {
    fn reserve(&mut self, nodes: usize) {
        if self.cost.len() < nodes {
            self.cost.resize(nodes, 0.0);
            self.parent.resize(nodes, 0);
            self.stamp.resize(nodes, 0);
        }
        // The worklists are bounded by the node count too; reserving them
        // here keeps a pool-warmed scratch allocation-free on its first
        // decode (searches are cluster-local, so this is generous).
        // `reserve(additional)` guarantees `capacity >= len + additional`,
        // so the additional amount is computed against the current length.
        if self.heap.capacity() < nodes {
            self.heap.reserve(nodes - self.heap.len());
        }
        if self.path.capacity() < nodes {
            self.path.reserve(nodes - self.path.len());
        }
        if self.neighbors.capacity() < 16 {
            self.neighbors.reserve(16 - self.neighbors.len());
        }
    }

    /// Starts a fresh search: O(1) via the generation stamp.
    fn begin(&mut self) {
        if self.generation == u32::MAX {
            self.stamp.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
        self.heap.clear();
        self.path.clear();
    }
}

/// Cluster-relative facts about one wire node, precomputed so the Dijkstra
/// relaxation never reconstructs a [`WireRef`] or re-derives cluster
/// membership. A wire touches at most two clusters; `c0`/`c1` pack their
/// coordinates (`x << 16 | y`, [`AdjTable::NO_CLUSTER`] when the forward
/// macro falls outside the task).
#[derive(Debug, Clone, Copy)]
struct WireMeta {
    c0: u32,
    c1: u32,
    /// Both touching macros sit in the same cluster — the wire never
    /// crosses a cluster boundary, so it is free to route through (cost
    /// 1.0); boundary-crossing wires cost 6.0 unallocated.
    interior: bool,
}

/// The routing-resource graph of one task geometry, flattened to CSR form.
///
/// [`RrGraph`] computes neighbours arithmetically per call, which is fine
/// for one search but dominates when a stream expands hundreds of coded
/// connections: every relaxation rebuilds `WireRef`s, re-validates them
/// against the device and re-derives cluster membership. This table runs
/// that arithmetic once per *geometry* — edge lists (`offsets`/`edges`,
/// dense node indices, neighbour order identical to
/// [`RrGraph::neighbors_into`]), the index → node table and per-wire
/// [`WireMeta`] — turning the inner loop into pure array reads. Keyed by
/// `(spec, width, height, cluster size)`.
#[derive(Debug, Default)]
struct AdjTable {
    key: Option<(ArchSpec, u16, u16, u16)>,
    offsets: Vec<u32>,
    edges: Vec<u32>,
    nodes: Vec<RrNode>,
    wire_meta: Vec<WireMeta>,
    wire_nodes: usize,
}

impl AdjTable {
    const NO_CLUSTER: u32 = u32::MAX;

    fn pack(cluster_x: u16, cluster_y: u16) -> u32 {
        (u32::from(cluster_x) << 16) | u32::from(cluster_y)
    }

    /// Rebuilds the table for `geometry` clustered at `k`, reusing both its
    /// own buffers and the caller's `neighbors` scratch.
    fn rebuild(
        &mut self,
        geometry: &Device,
        k: u16,
        key: (ArchSpec, u16, u16, u16),
        neighbors: &mut Vec<RrNode>,
    ) {
        let graph = RrGraph::new(geometry);
        let n = graph.node_count();
        self.nodes.clear();
        self.nodes.extend((0..n).map(|i| graph.node(i)));
        // Counting pass first: the CSR then builds with at most one
        // allocation per buffer, keeping a cold decode inside the
        // per-buffer allocation budget pinned in `zero_alloc.rs`.
        let mut total_edges = 0usize;
        for &node in &self.nodes {
            graph.neighbors_into(node, neighbors);
            total_edges += neighbors.len();
        }
        self.offsets.clear();
        self.offsets.reserve(n + 1);
        self.edges.clear();
        self.edges.reserve(total_edges);
        for &node in &self.nodes {
            self.offsets.push(self.edges.len() as u32);
            graph.neighbors_into(node, neighbors);
            self.edges
                .extend(neighbors.iter().map(|&nb| graph.index(nb) as u32));
        }
        self.offsets.push(self.edges.len() as u32);
        self.wire_nodes = graph.wire_count();
        self.wire_meta.clear();
        self.wire_meta.reserve(self.wire_nodes);
        let k = k.max(1);
        for &node in &self.nodes[..self.wire_nodes] {
            let RrNode::Wire(w) = node else {
                unreachable!("wire indices precede pin indices");
            };
            let [owner, fwd] = w.touching_macros();
            let c0 = Self::pack(owner.x / k, owner.y / k);
            let c1 = if geometry.contains(fwd) {
                Self::pack(fwd.x / k, fwd.y / k)
            } else {
                Self::NO_CLUSTER
            };
            self.wire_meta.push(WireMeta {
                c0,
                c1,
                interior: c1 == c0,
            });
        }
        self.key = Some(key);
    }

    fn neighbors_of(&self, idx: usize) -> &[u32] {
        &self.edges[self.offsets[idx] as usize..self.offsets[idx + 1] as usize]
    }
}

/// A small set of [`AdjTable`]s cached across decodes, so a scratch (or a
/// pooled decode lane) serving a *mix* of task shapes — the steady state
/// of a fleet workload — rebuilds nothing once every shape in rotation has
/// been seen. Misses past the slot cap replace tables round-robin, reusing
/// the victim's buffers; a hit is a scan of at most [`AdjCache::SLOTS`]
/// key comparisons.
#[derive(Debug, Default)]
struct AdjCache {
    tables: Vec<AdjTable>,
    /// Next round-robin replacement slot once all [`Self::SLOTS`] are full.
    victim: usize,
    /// Neighbour scratch shared across rebuilds.
    neighbors: Vec<RrNode>,
}

impl AdjCache {
    const SLOTS: usize = 8;

    /// Returns the table for `geometry` clustered at `k`, rebuilding one
    /// slot only when the shape has not been seen (or was replaced).
    fn ensure(&mut self, geometry: &Device, k: u16) -> &AdjTable {
        let key = (*geometry.spec(), geometry.width(), geometry.height(), k);
        if let Some(i) = self.tables.iter().position(|t| t.key == Some(key)) {
            return &self.tables[i];
        }
        let slot = if self.tables.len() < Self::SLOTS {
            self.tables.push(AdjTable::default());
            self.tables.len() - 1
        } else {
            let slot = self.victim;
            self.victim = (self.victim + 1) % Self::SLOTS;
            slot
        };
        self.tables[slot].rebuild(geometry, k, key, &mut self.neighbors);
        &self.tables[slot]
    }
}

/// Per-record net bookkeeping: which net group owns each wire, with
/// union-find over groups (fanout merging).
///
/// Ownership and endpoint groups live in dense arrays indexed by
/// [`RrGraph::index`] and reset in O(1) through a generation stamp — the
/// Dijkstra inner loop consults `owner` once per wire neighbour, and a
/// hashed lookup there (SipHash over a 6-byte `WireRef`) costs more than
/// the rest of the relaxation combined.
#[derive(Debug, Default)]
struct NetScratch {
    /// Wire → owning group, dense by wire index.
    owner_gen: Vec<u32>,
    owner_group: Vec<u32>,
    /// Wires claimed this record, in first-claim order.
    claimed: Vec<WireRef>,
    /// Endpoint node → group, dense by node index.
    ep_gen: Vec<u32>,
    ep_group: Vec<u32>,
    generation: u32,
    parent: Vec<u32>,
    next_group: u32,
}

impl NetScratch {
    fn reserve(&mut self, routes: usize, nodes: usize, wires: usize) {
        if self.owner_gen.len() < wires {
            self.owner_gen.resize(wires, 0);
            self.owner_group.resize(wires, 0);
        }
        if self.ep_gen.len() < nodes {
            self.ep_gen.resize(nodes, 0);
            self.ep_group.resize(nodes, 0);
        }
        self.claimed.reserve(wires.min(64));
        self.parent.reserve(2 * routes);
    }

    fn clear(&mut self) {
        if self.generation == u32::MAX {
            self.owner_gen.fill(0);
            self.ep_gen.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
        self.claimed.clear();
        self.parent.clear();
        self.next_group = 0;
    }

    fn find(&mut self, g: u32) -> u32 {
        let root = self.resolve(g);
        // Path compression.
        let mut cursor = g;
        while self.parent[cursor as usize] != root {
            let next = self.parent[cursor as usize];
            self.parent[cursor as usize] = root;
            cursor = next;
        }
        root
    }

    /// Read-only group resolution (no path compression), usable while the
    /// state is borrowed immutably during path search.
    fn resolve(&self, g: u32) -> u32 {
        let mut root = g;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        root
    }

    fn fresh(&mut self) -> u32 {
        let g = self.next_group;
        self.next_group += 1;
        self.parent.push(g);
        g
    }

    fn union(&mut self, a: u32, b: u32) -> u32 {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[rb as usize] = ra;
        }
        ra
    }

    /// Resolves the net group of a connection from its two endpoints.
    ///
    /// Connections sharing an endpoint (transitively) describe the same
    /// electrical net — an I/O can only carry one signal — so their groups
    /// are merged; a fresh group is created when neither endpoint is known.
    fn group_of_endpoints(&mut self, graph: &RrGraph<'_>, source: RrNode, target: RrNode) -> u32 {
        let existing_source = self.endpoint_node_group(graph, source);
        let existing_target = self.endpoint_node_group(graph, target);
        let group = match (existing_source, existing_target) {
            (None, None) => self.fresh(),
            (Some(g), None) | (None, Some(g)) => self.find(g),
            (Some(a), Some(b)) => self.union(a, b),
        };
        for node in [source, target] {
            let idx = graph.index(node);
            self.ep_gen[idx] = self.generation;
            self.ep_group[idx] = group;
            if let RrNode::Wire(w) = node {
                self.claim(graph, w, group);
            }
        }
        group
    }

    fn endpoint_node_group(&self, graph: &RrGraph<'_>, node: RrNode) -> Option<u32> {
        match node {
            RrNode::Wire(w) => self
                .owner(graph, w)
                .or_else(|| self.endpoint_slot(graph.index(node))),
            RrNode::Pin { .. } => self.endpoint_slot(graph.index(node)),
        }
    }

    fn endpoint_slot(&self, idx: usize) -> Option<u32> {
        (self.ep_gen[idx] == self.generation).then(|| self.ep_group[idx])
    }

    fn owner(&self, graph: &RrGraph<'_>, wire: WireRef) -> Option<u32> {
        let idx = graph.index(RrNode::Wire(wire));
        (self.owner_gen[idx] == self.generation).then(|| self.owner_group[idx])
    }

    fn claim(&mut self, graph: &RrGraph<'_>, wire: WireRef, group: u32) {
        let idx = graph.index(RrNode::Wire(wire));
        if self.owner_gen[idx] != self.generation {
            self.owner_gen[idx] = self.generation;
            self.claimed.push(wire);
        }
        self.owner_group[idx] = group;
    }
}

/// The de-virtualization engine for one Virtual Bit-Stream.
///
/// The engine borrows the stream and expands records on demand; use
/// [`Devirtualizer::decode_into`] for the whole task (zero allocations on a
/// warm scratch), [`Devirtualizer::decode_streaming`] to emit frames as they
/// complete, or [`Devirtualizer::decode_record_with`] to expand a single
/// record (the run-time decode lanes use the latter to parallelize
/// decoding).
#[derive(Debug)]
pub struct Devirtualizer<'a> {
    vbs: &'a Vbs,
    grid: ClusterGrid,
    geometry: Device,
}

impl<'a> Devirtualizer<'a> {
    /// Prepares the decoding of `vbs`.
    ///
    /// # Errors
    ///
    /// Returns [`VbsError::Arch`] if the task dimensions are degenerate.
    pub fn new(vbs: &'a Vbs) -> Result<Self, VbsError> {
        let grid = vbs.grid();
        let geometry = Device::new(*vbs.spec(), vbs.width().max(1), vbs.height().max(1))?;
        Ok(Devirtualizer {
            vbs,
            grid,
            geometry,
        })
    }

    /// Decodes every record into `task` (reshaped in place to the stream's
    /// dimensions) reusing `scratch` — the zero-allocation steady-state
    /// load path: with a warm scratch and a right-sized `task`, no heap
    /// allocation happens at all.
    ///
    /// # Errors
    ///
    /// Returns the first record-level failure; `task` then holds the
    /// partially decoded image.
    pub fn decode_into(
        &self,
        task: &mut TaskBitstream,
        scratch: &mut DecodeScratch,
    ) -> Result<(), VbsError> {
        task.reset(
            *self.vbs.spec(),
            self.vbs.width().max(1),
            self.vbs.height().max(1),
        );
        scratch.reserve_for(self.vbs, &self.geometry);
        for record in self.vbs.records() {
            self.decode_record_with(record, task, scratch)?;
        }
        Ok(())
    }

    /// Decodes every record into `staging` while pushing completed frames to
    /// `sink`: the frames of each cluster are emitted right after its record
    /// expands, and the all-zero frames of recordless clusters are emitted
    /// at the end (see the [`FrameSink`] contract). `staging` ends up
    /// holding the same image [`Devirtualizer::decode_into`] would produce,
    /// so callers can retain it (e.g. for a decode cache) at no extra cost.
    ///
    /// # Errors
    ///
    /// Returns the first record-level failure. Frames emitted before the
    /// failure have already reached the sink — streaming trades the
    /// buffered path's atomicity for latency, so callers writing to live
    /// memory must clean up the target region on error.
    pub fn decode_streaming(
        &self,
        staging: &mut TaskBitstream,
        scratch: &mut DecodeScratch,
        sink: &mut dyn FrameSink,
    ) -> Result<(), VbsError> {
        let (w, h) = (self.vbs.width().max(1), self.vbs.height().max(1));
        staging.reset(*self.vbs.spec(), w, h);
        scratch.reserve_for(self.vbs, &self.geometry);
        scratch.emitted.clear();
        scratch.emitted.resize(w as usize * h as usize, false);
        let k = self.grid.cluster_size();
        for record in self.vbs.records() {
            self.decode_record_with(record, staging, scratch)?;
            for local in 0..(u32::from(k) * u32::from(k)) {
                let Some(site) = self.grid.macro_at(record.position, local as u16) else {
                    continue;
                };
                sink.emit(site, staging.frame(site));
                scratch.emitted[site.y as usize * w as usize + site.x as usize] = true;
            }
        }
        for y in 0..h {
            for x in 0..w {
                if !scratch.emitted[y as usize * w as usize + x as usize] {
                    let at = Coord::new(x, y);
                    sink.emit(at, staging.frame(at));
                }
            }
        }
        Ok(())
    }

    /// Expands one record into `task` (only the record's own frames are
    /// touched) with every working buffer taken from `scratch`, and leaves
    /// the task-relative wires the expansion claimed in
    /// [`DecodeScratch::claimed_wires`].
    ///
    /// The claimed-wire list is what the offline feedback loop of the encoder
    /// inspects: a coded record is only kept if its expansion stays within
    /// the wires the original routing used for the cluster.
    ///
    /// # Errors
    ///
    /// Returns [`VbsError::DecodeConflict`], [`VbsError::DecodeNoPath`],
    /// [`VbsError::DanglingBoundary`] or [`VbsError::Malformed`] when the
    /// record cannot be expanded.
    pub fn decode_record_with(
        &self,
        record: &ClusterRecord,
        task: &mut TaskBitstream,
        scratch: &mut DecodeScratch,
    ) -> Result<(), VbsError> {
        let cluster = record.position;
        let k = self.grid.cluster_size();
        let spec = self.vbs.spec();
        let lb_bits = spec.lb_config_bits();
        scratch.claimed.clear();

        if record.logic.len() != self.vbs.logic_bits_per_record() {
            return Err(VbsError::Malformed {
                reason: format!(
                    "record at {cluster} carries {} logic bits, expected {}",
                    record.logic.len(),
                    self.vbs.logic_bits_per_record()
                ),
            });
        }

        // 1. Logic sections.
        for local in 0..(k as usize * k as usize) {
            let Some(site) = self.grid.macro_at(cluster, local as u16) else {
                continue;
            };
            let bits = record.logic[local * lb_bits..(local + 1) * lb_bits]
                .iter()
                .copied();
            task.frame_mut(site).set_logic_bits(bits);
        }

        // 2. Routing sections.
        match &record.routes {
            ClusterRoutes::Raw(raw) => {
                if raw.len() != self.vbs.raw_routing_bits_per_record() {
                    return Err(VbsError::Malformed {
                        reason: format!(
                            "raw record at {cluster} carries {} routing bits, expected {}",
                            raw.len(),
                            self.vbs.raw_routing_bits_per_record()
                        ),
                    });
                }
                let per_macro = spec.raw_bits_per_macro() - lb_bits;
                for local in 0..(k as usize * k as usize) {
                    let Some(site) = self.grid.macro_at(cluster, local as u16) else {
                        continue;
                    };
                    let mut frame = task.frame_mut(site);
                    for (i, &bit) in raw[local * per_macro..(local + 1) * per_macro]
                        .iter()
                        .enumerate()
                    {
                        frame.set_bit(lb_bits + i, bit);
                    }
                }
            }
            ClusterRoutes::Coded(connections) => {
                scratch.nets.clear();
                let adj = scratch.adj.ensure(&self.geometry, k);
                scratch
                    .nets
                    .reserve(connections.len(), adj.nodes.len(), adj.wire_nodes);
                for connection in connections {
                    self.route_connection(
                        cluster,
                        connection,
                        adj,
                        &mut scratch.nets,
                        &mut scratch.search,
                        task,
                    )?;
                }
                scratch.claimed.extend_from_slice(&scratch.nets.claimed);
                scratch.claimed.sort_unstable();
            }
        }
        Ok(())
    }

    /// Routes one coded connection inside its cluster and writes the switches
    /// it programs.
    #[allow(clippy::too_many_arguments)]
    fn route_connection(
        &self,
        cluster: Coord,
        connection: &Connection,
        adj: &AdjTable,
        nets: &mut NetScratch,
        search: &mut SearchScratch,
        task: &mut TaskBitstream,
    ) -> Result<(), VbsError> {
        let source = self.io_node(cluster, connection.input)?;
        let target = self.io_node(cluster, connection.output)?;
        let graph = RrGraph::new(&self.geometry);
        let group = nets.group_of_endpoints(&graph, source, target);

        if source == target {
            return Ok(());
        }
        if !self.local_dijkstra(cluster, &graph, adj, source, target, group, search, nets) {
            return Err(VbsError::DecodeNoPath {
                cluster,
                connection: connection.to_string(),
            });
        }

        // Program the switches along the path and claim its wires.
        for window in search.path.windows(2) {
            let (a, b) = (window[0], window[1]);
            let switch =
                edge_to_switch(&self.geometry, a, b).map_err(|_| VbsError::DecodeConflict {
                    cluster,
                    connection: connection.to_string(),
                })?;
            let site = switch.site();
            if self.grid.cluster_of(site) != cluster {
                return Err(VbsError::DecodeConflict {
                    cluster,
                    connection: connection.to_string(),
                });
            }
            let mut frame = task.frame_mut(site);
            match switch {
                SwitchSetting::Crossing { pin, track, .. } => frame.set_crossing(pin, track, true),
                SwitchSetting::SwitchBox { track, pair, .. } => frame.set_sb(track, pair, true),
            }
        }
        for node in &search.path {
            if let RrNode::Wire(w) = node {
                nets.claim(&graph, *w, group);
            }
        }
        Ok(())
    }

    /// Maps a cluster I/O to its routing-resource node (task-relative).
    fn io_node(&self, cluster: Coord, io: ClusterIo) -> Result<RrNode, VbsError> {
        match io {
            ClusterIo::Null => Err(VbsError::Malformed {
                reason: format!("null i/o used as a connection endpoint in cluster {cluster}"),
            }),
            ClusterIo::Boundary { side, offset } => {
                let wire = self.grid.boundary_wire(cluster, side, offset)?;
                Ok(RrNode::Wire(wire))
            }
            ClusterIo::Pin { local, pin } => {
                let site = self
                    .grid
                    .macro_at(cluster, local)
                    .ok_or(VbsError::RecordOutOfTask { cluster })?;
                if pin >= self.vbs.spec().lb_pins() {
                    return Err(VbsError::InvalidIo {
                        index: pin as u32,
                        io_count: self.vbs.spec().lb_pins() as u32,
                    });
                }
                Ok(RrNode::Pin { site, pin })
            }
        }
    }

    /// Deterministic Dijkstra constrained to the cluster: boundary-crossing
    /// wires may only be used when they are an endpoint or already belong to
    /// the connection's net; interior wires are exclusive per net.
    ///
    /// Search state lives in `search` (dense arrays indexed by
    /// [`RrGraph::index`], reset through a generation stamp); on success the
    /// path is left in `search.path` and `true` is returned. The relaxation
    /// rules and tie-breaking are identical to the original map-based
    /// implementation, so decoded bits never depend on which scratch decoded
    /// them.
    #[allow(clippy::too_many_arguments)]
    fn local_dijkstra(
        &self,
        cluster: Coord,
        graph: &RrGraph<'_>,
        adj: &AdjTable,
        source: RrNode,
        target: RrNode,
        group: u32,
        search: &mut SearchScratch,
        nets: &NetScratch,
    ) -> bool {
        search.reserve(graph.node_count());
        search.begin();
        let SearchScratch {
            cost,
            parent,
            stamp,
            generation,
            heap,
            path,
            ..
        } = search;
        let generation = *generation;
        let cluster_key = AdjTable::pack(cluster.x, cluster.y);
        let group_root = nets.resolve(group);

        let si = graph.index(source);
        let ti = graph.index(target);
        stamp[si] = generation;
        cost[si] = 0.0;
        parent[si] = si as u32;
        heap.push(Entry {
            cost: 0.0,
            node: source,
            idx: si as u32,
        });

        while let Some(Entry {
            cost: node_cost,
            idx: ni,
            ..
        }) = heap.pop()
        {
            let ni = ni as usize;
            if stamp[ni] == generation && node_cost > cost[ni] {
                continue;
            }
            if ni == ti {
                // Rebuild the path.
                path.push(target);
                let mut cursor = ti;
                while cursor != si {
                    cursor = parent[cursor] as usize;
                    path.push(adj.nodes[cursor]);
                }
                path.reverse();
                return true;
            }
            // Pins other than the endpoints are never expanded through
            // (pin indices follow all wire indices).
            if ni >= adj.wire_nodes && ni != si {
                continue;
            }
            for &next_u in adj.neighbors_of(ni) {
                let next = next_u as usize;
                let step = if next >= adj.wire_nodes {
                    // A pin: only the target pin may terminate the path.
                    if next != ti {
                        continue;
                    }
                    1.0
                } else {
                    let meta = adj.wire_meta[next];
                    if meta.c0 != cluster_key && meta.c1 != cluster_key {
                        continue;
                    }
                    if nets.owner_gen[next] == nets.generation {
                        // A wire already carrying a different net can never
                        // be reused; resources of the same net are nearly
                        // free, which makes fanout share its trunk.
                        if nets.resolve(nets.owner_group[next]) != group_root {
                            continue;
                        }
                        0.1
                    } else if meta.interior {
                        1.0
                    } else {
                        // Unallocated boundary-crossing wire: strongly
                        // discouraged (it is shared with a neighbouring
                        // cluster), used only when no interior path exists.
                        // The encoder's feedback loop verifies such choices
                        // against the original routing.
                        6.0
                    }
                };
                let next_cost = node_cost + step;
                let better = if stamp[next] == generation {
                    next_cost < cost[next] - f32::EPSILON
                } else {
                    true
                };
                if better {
                    stamp[next] = generation;
                    cost[next] = next_cost;
                    parent[next] = ni as u32;
                    heap.push(Entry {
                        cost: next_cost,
                        node: adj.nodes[next],
                        idx: next_u,
                    });
                }
            }
        }
        false
    }
}

#[derive(Debug, PartialEq)]
struct Entry {
    cost: f32,
    node: RrNode,
    /// Dense index of `node` — carried so the pop path never recomputes it.
    /// Never compared: `node` determines it.
    idx: u32,
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .cost
            .total_cmp(&self.cost)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{ClusterRecord, ClusterRoutes};
    use vbs_arch::{ArchSpec, SbPair, Side};

    fn spec() -> ArchSpec {
        ArchSpec::paper_example()
    }

    fn record(connections: Vec<Connection>) -> ClusterRecord {
        ClusterRecord {
            position: Coord::new(1, 1),
            logic: vec![false; spec().lb_config_bits()],
            routes: ClusterRoutes::Coded(connections),
        }
    }

    fn decode_single(connections: Vec<Connection>) -> Result<TaskBitstream, VbsError> {
        let vbs = Vbs::new(spec(), 1, 4, 4, vec![record(connections)]).unwrap();
        decode(&vbs)
    }

    #[test]
    fn straight_through_connection_sets_one_sb_switch() {
        let task = decode_single(vec![Connection {
            input: ClusterIo::Boundary {
                side: Side::West,
                offset: 2,
            },
            output: ClusterIo::Boundary {
                side: Side::East,
                offset: 2,
            },
        }])
        .unwrap();
        let frame = task.frame(Coord::new(1, 1));
        assert!(frame.sb(2, SbPair::EastWest));
        assert_eq!(frame.popcount(), 1);
    }

    #[test]
    fn pin_hookup_from_south_uses_sb_and_crossing() {
        // South boundary to pin 1 (odd -> north channel): needs the
        // north-south pass switch plus the crossing.
        let task = decode_single(vec![Connection {
            input: ClusterIo::Boundary {
                side: Side::South,
                offset: 3,
            },
            output: ClusterIo::Pin { local: 0, pin: 1 },
        }])
        .unwrap();
        let frame = task.frame(Coord::new(1, 1));
        assert!(frame.sb(3, SbPair::NorthSouth));
        assert!(frame.crossing(1, 3));
        assert_eq!(frame.popcount(), 2);
    }

    #[test]
    fn fanout_reuses_already_routed_resources() {
        // One net entering west and leaving both east and to pin 0.
        let task = decode_single(vec![
            Connection {
                input: ClusterIo::Boundary {
                    side: Side::West,
                    offset: 0,
                },
                output: ClusterIo::Boundary {
                    side: Side::East,
                    offset: 0,
                },
            },
            Connection {
                input: ClusterIo::Boundary {
                    side: Side::West,
                    offset: 0,
                },
                output: ClusterIo::Pin { local: 0, pin: 0 },
            },
        ])
        .unwrap();
        let frame = task.frame(Coord::new(1, 1));
        assert!(frame.sb(0, SbPair::EastWest));
        assert!(frame.crossing(0, 0));
        assert_eq!(
            frame.popcount(),
            2,
            "the east wire is shared, not re-routed"
        );
    }

    #[test]
    fn shared_endpoints_are_one_electrical_net() {
        // Connections sharing the east[0] endpoint describe one net fanning
        // in/out through three boundaries: the decoder merges them instead of
        // duplicating resources.
        let task = decode_single(vec![
            Connection {
                input: ClusterIo::Boundary {
                    side: Side::West,
                    offset: 0,
                },
                output: ClusterIo::Boundary {
                    side: Side::East,
                    offset: 0,
                },
            },
            Connection {
                input: ClusterIo::Boundary {
                    side: Side::South,
                    offset: 0,
                },
                output: ClusterIo::Boundary {
                    side: Side::East,
                    offset: 0,
                },
            },
        ])
        .unwrap();
        let frame = task.frame(Coord::new(1, 1));
        assert!(frame.sb(0, SbPair::EastWest));
        assert!(frame.sb(0, SbPair::SouthEast));
        assert_eq!(frame.popcount(), 2);
    }

    #[test]
    fn two_nets_never_share_a_wire() {
        // Net 1 goes straight through on track 2; net 2 wants to reach pin 0
        // (an even pin, hooked through the macro's horizontal wires). The
        // decoder must hook pin 0 through a *different* track than net 1.
        let task = decode_single(vec![
            Connection {
                input: ClusterIo::Boundary {
                    side: Side::West,
                    offset: 2,
                },
                output: ClusterIo::Boundary {
                    side: Side::East,
                    offset: 2,
                },
            },
            Connection {
                input: ClusterIo::Boundary {
                    side: Side::South,
                    offset: 4,
                },
                output: ClusterIo::Pin { local: 0, pin: 0 },
            },
        ])
        .unwrap();
        let frame = task.frame(Coord::new(1, 1));
        assert!(frame.sb(2, SbPair::EastWest));
        // Net 2 must not use crossing(0, 2): track 2's horizontal wire belongs
        // to net 1.
        assert!(!frame.crossing(0, 2));
        assert!(frame.crossing(0, 4) || (0..5).any(|t| t != 2 && frame.crossing(0, t)));
    }

    #[test]
    fn different_tracks_do_not_conflict() {
        let task = decode_single(vec![
            Connection {
                input: ClusterIo::Boundary {
                    side: Side::West,
                    offset: 0,
                },
                output: ClusterIo::Boundary {
                    side: Side::East,
                    offset: 0,
                },
            },
            Connection {
                input: ClusterIo::Boundary {
                    side: Side::West,
                    offset: 1,
                },
                output: ClusterIo::Boundary {
                    side: Side::East,
                    offset: 1,
                },
            },
        ])
        .unwrap();
        let frame = task.frame(Coord::new(1, 1));
        assert!(frame.sb(0, SbPair::EastWest));
        assert!(frame.sb(1, SbPair::EastWest));
    }

    #[test]
    fn null_endpoints_are_malformed() {
        let result = decode_single(vec![Connection {
            input: ClusterIo::Null,
            output: ClusterIo::Pin { local: 0, pin: 0 },
        }]);
        assert!(matches!(result, Err(VbsError::Malformed { .. })));
    }

    #[test]
    fn dangling_boundary_is_reported() {
        // Cluster (0, 0) has no west neighbour: west boundary wires do not
        // exist there.
        let rec = ClusterRecord {
            position: Coord::new(0, 0),
            logic: vec![false; spec().lb_config_bits()],
            routes: ClusterRoutes::Coded(vec![Connection {
                input: ClusterIo::Boundary {
                    side: Side::West,
                    offset: 0,
                },
                output: ClusterIo::Pin { local: 0, pin: 0 },
            }]),
        };
        let vbs = Vbs::new(spec(), 1, 4, 4, vec![rec]).unwrap();
        assert!(matches!(
            decode(&vbs),
            Err(VbsError::DanglingBoundary { .. })
        ));
    }

    #[test]
    fn raw_records_restore_their_bits_verbatim() {
        let s = spec();
        let routing_bits = s.raw_bits_per_macro() - s.lb_config_bits();
        let pattern: Vec<bool> = (0..routing_bits).map(|i| i % 11 == 0).collect();
        let rec = ClusterRecord {
            position: Coord::new(2, 2),
            logic: (0..s.lb_config_bits()).map(|i| i % 3 == 0).collect(),
            routes: ClusterRoutes::Raw(pattern.clone()),
        };
        let vbs = Vbs::new(s, 1, 4, 4, vec![rec]).unwrap();
        let task = decode(&vbs).unwrap();
        let frame = task.frame(Coord::new(2, 2));
        for (i, &bit) in pattern.iter().enumerate() {
            assert_eq!(frame.bit(s.lb_config_bits() + i), bit);
        }
        assert!(frame.bit(0));
    }

    fn two_net_vbs() -> Vbs {
        Vbs::new(
            spec(),
            1,
            4,
            4,
            vec![record(vec![
                Connection {
                    input: ClusterIo::Boundary {
                        side: Side::West,
                        offset: 2,
                    },
                    output: ClusterIo::Boundary {
                        side: Side::East,
                        offset: 2,
                    },
                },
                Connection {
                    input: ClusterIo::Boundary {
                        side: Side::South,
                        offset: 4,
                    },
                    output: ClusterIo::Pin { local: 0, pin: 0 },
                },
            ])],
        )
        .unwrap()
    }

    #[test]
    fn decode_into_matches_buffered_decode_across_scratch_reuse() {
        let vbs = two_net_vbs();
        let buffered = decode(&vbs).unwrap();
        let devirt = Devirtualizer::new(&vbs).unwrap();
        let mut scratch = DecodeScratch::new();
        let mut task = TaskBitstream::empty(spec(), 1, 1);
        // Reuse the same scratch and buffer over and over; every iteration
        // must be bit-identical to the fresh decode.
        for _ in 0..3 {
            devirt.decode_into(&mut task, &mut scratch).unwrap();
            assert_eq!(task.diff_count(&buffered).unwrap(), 0);
        }
        // Interleave a different stream: the scratch carries no state over.
        let empty = Vbs::new(spec(), 1, 2, 2, Vec::new()).unwrap();
        Devirtualizer::new(&empty)
            .unwrap()
            .decode_into(&mut task, &mut scratch)
            .unwrap();
        assert_eq!(task.popcount(), 0);
        devirt.decode_into(&mut task, &mut scratch).unwrap();
        assert_eq!(task.diff_count(&buffered).unwrap(), 0);
    }

    /// A sink recording every emission so the tests can audit coverage.
    #[derive(Default)]
    struct RecordingSink {
        emits: Vec<(Coord, usize)>,
        image: Option<TaskBitstream>,
    }

    impl FrameSink for RecordingSink {
        fn emit(&mut self, at: Coord, frame: FrameRef<'_>) {
            self.emits.push((at, frame.popcount()));
            if let Some(image) = &mut self.image {
                image.frame_mut(at).copy_from(frame);
            }
        }
    }

    #[test]
    fn streaming_emits_every_frame_and_converges_to_the_buffered_image() {
        let vbs = two_net_vbs();
        let buffered = decode(&vbs).unwrap();
        let devirt = Devirtualizer::new(&vbs).unwrap();
        let mut scratch = DecodeScratch::new();
        let mut staging = TaskBitstream::empty(spec(), 1, 1);
        let mut sink = RecordingSink {
            image: Some(TaskBitstream::empty(spec(), 4, 4)),
            ..RecordingSink::default()
        };
        devirt
            .decode_streaming(&mut staging, &mut scratch, &mut sink)
            .unwrap();
        // Every macro of the 4x4 rectangle was emitted exactly once (no
        // duplicate cluster records in this stream).
        assert_eq!(sink.emits.len(), 16);
        let mut seen: Vec<Coord> = sink.emits.iter().map(|(c, _)| *c).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 16);
        // The sink reassembles the buffered image; the staging holds it too.
        assert_eq!(sink.image.unwrap().diff_count(&buffered).unwrap(), 0);
        assert_eq!(staging.diff_count(&buffered).unwrap(), 0);
        // The occupied cluster streamed before the empty remainder.
        assert_eq!(sink.emits[0].0, Coord::new(1, 1));
        assert!(sink.emits[0].1 > 0);
    }

    #[test]
    fn decode_record_with_reports_claimed_wires_in_scratch() {
        let vbs = two_net_vbs();
        let devirt = Devirtualizer::new(&vbs).unwrap();
        let mut scratch = DecodeScratch::new();
        let mut task = TaskBitstream::empty(spec(), 4, 4);
        devirt
            .decode_record_with(&vbs.records()[0], &mut task, &mut scratch)
            .unwrap();
        let claimed = scratch.claimed_wires();
        assert!(!claimed.is_empty());
        assert!(
            claimed.windows(2).all(|w| w[0] < w[1]),
            "sorted and deduplicated: {claimed:?}"
        );
        // The stream holds one record, so expanding it is the whole decode.
        assert_eq!(task.diff_count(&decode(&vbs).unwrap()).unwrap(), 0);
    }
}
