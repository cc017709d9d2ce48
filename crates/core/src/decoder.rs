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
//! independently, in any order (`tests/decode_differential.rs` pins this).
//!
//! # A record is expanded inside its cluster
//!
//! The nodes a record's connections can use — the wires touching its
//! cluster and the pins of its macros — and the switches between them are
//! the same for every cluster of the same shape, wherever it sits in
//! whatever task. The decoder therefore never builds the routing-resource
//! graph of a task: it keeps one `ClusterPattern` per cluster shape of
//! the current `(architecture, cluster size)` (the full `k × k` shape plus
//! at most three shapes cut by the east / north task edge) and works in the
//! pattern's local ids throughout. A cluster I/O index maps to its id
//! through a per-index table of the pattern, net ownership and search state are arrays of a few dozen to
//! a few hundred entries, every edge carries the frame bit it programs, and
//! task coordinates appear only when a bit is written (cluster origin plus
//! the switch's offset).
//!
//! Expanding one connection:
//!
//! * if its endpoints are one node, or one switch joins them — every route
//!   of a `k = 1` stream, about a third to a half at `k = 2 / 3` — that
//!   switch is the route. No search runs: the direct hop costs exactly the
//!   target's own step, every detour pays that same last step plus at least
//!   0.1 more, so it is the unique minimum the search below would return.
//!   Nothing else is done: the hop claims no wire but its endpoints;
//! * otherwise a Dijkstra over the pattern finds the cheapest path:
//!   resources of the connection's own net cost 0.1 (fanout shares its
//!   trunk), free interior wires 1.0, unallocated boundary crossings 6.0,
//!   wires of other nets are barred, ties go to the smaller node in
//!   [`vbs_arch::RrNode`] order — which local ids preserve.
//!
//! Only the search reads net groups (which wires belong to which net), so
//! they are built on demand: the first connection that searches (or whose
//! endpoints need the I/O path below) first lets every single hop before
//! it join its endpoints' group, in record order, re-reading their indices
//! from the record. The union-find then holds, at every search, exactly
//! the state an eager build would have. A `k = 1` stream therefore decodes
//! with no net bookkeeping at all.
//!
//! [`DecodeScratch::route_counts`] reports how many routes were expanded
//! and how many of them needed the search, as exact counts.
//!
//! One routine expands a record for every caller: the whole-stream decodes,
//! [`Devirtualizer::decode_record_with`], and the encoder's offline feedback
//! loop (Section III-B of the paper), which keeps a record if and only if
//! it expands.
//!
//! # A stream is read where it lies
//!
//! [`Devirtualizer`] takes an owned [`Vbs`] or a [`crate::VbsView`] of
//! serialized bytes, and sees every record as the same
//! [`crate::RecordRef`], so one routine expands both. Logic and raw routing
//! payloads are bit ranges, copied into the frame a word at a time. A
//! connection's two I/O indices — one word read from a packed record,
//! computed for an owned one — become pattern nodes through that table;
//! anything it does not resolve to a plain node (a missing west / south
//! wire, a cut side, an invalid I/O) goes through [`ClusterIo`], which is
//! where every endpoint error is reported, for both forms alike.
//!
//! # The zero-allocation hot path
//!
//! The paper's performance claim is that de-virtualization can run "as fast
//! as the hardware allows", which means the software model must not spend
//! its time in the allocator. Two pieces make that possible:
//!
//! * [`DecodeScratch`] — a reusable arena holding every buffer the decode
//!   needs (the cluster patterns, the search state and the per-record net
//!   bookkeeping). A warm scratch makes
//!   [`Devirtualizer::decode_into`] perform **zero heap allocations** per
//!   load; a cold scratch derives its patterns and sizes every buffer from
//!   them before the first record is expanded.
//! * [`FrameSink`] — a push interface through which
//!   [`Devirtualizer::decode_streaming`] emits each macro frame as soon as
//!   its cluster record has been expanded, so a run-time controller can
//!   begin configuration-memory writes long before the whole stream is
//!   decoded.

use crate::bitio::BitRange;
use crate::cluster::{ClusterGrid, ClusterIo};
use crate::error::VbsError;
use crate::format::{Connection, RecordRef, RoutesRef, Vbs, VbsHeader};
use crate::pattern::{self, ClusterPattern};
use crate::view::{Records, VbsRef};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use vbs_arch::{ArchSpec, Coord, Device, Side};
use vbs_bitstream::{FrameMut, FrameRef, TaskBitstream};

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
/// * A **warm** scratch (one that has already decoded a stream of the same
///   architecture, cluster size and cluster shapes — any task whose edges
///   leave the same remainders modulo the cluster size) performs zero
///   heap allocations in [`Devirtualizer::decode_into`] /
///   [`Devirtualizer::decode_streaming`], whatever the task's geometry.
/// * A **cold** scratch derives the cluster patterns of the stream (a
///   handful of small arrays each) and allocates every working buffer at
///   most once, sized by the largest pattern, before decoding starts.
/// * A scratch is intentionally cheap to construct ([`DecodeScratch::new`]
///   allocates nothing); one long-lived scratch reused by every decode is
///   the intended usage (held by one decode at a time, never shared).
#[derive(Debug, Default)]
pub struct DecodeScratch {
    search: SearchScratch,
    nets: NetScratch,
    patterns: PatternSet,
    emitted: Vec<bool>,
    /// Coded connections expanded (how many ran the search is counted by
    /// the search itself).
    routes: u64,
}

impl DecodeScratch {
    /// Creates an empty scratch. No allocation happens until the first
    /// decode (which derives the stream's cluster patterns and sizes every
    /// buffer from them).
    pub fn new() -> Self {
        DecodeScratch::default()
    }

    /// `(routes, searches)` over the life of this scratch: the coded
    /// connections it expanded, and how many of them were not a single
    /// switch and ran the cluster search. Exact and repeatable, unlike a
    /// timing: a decode that got slower at equal counts was slowed, one
    /// with more searches had more work.
    pub fn route_counts(&self) -> (u64, u64) {
        (self.routes, self.search.runs)
    }

    /// Index (in `self.patterns.shapes`) of the pattern of a `shape.0 ×
    /// shape.1` cluster, derived on first use, with every working buffer
    /// sized for records of that shape holding up to `routes` connections.
    /// Allocates nothing once pattern and buffers exist.
    fn pattern_for(
        &mut self,
        spec: &ArchSpec,
        k: u16,
        shape: (u16, u16),
        routes: usize,
    ) -> Result<usize, VbsError> {
        let index = self.patterns.ensure(spec, k, shape)?;
        let pattern = &self.patterns.shapes[index];
        self.search.fit(pattern);
        self.nets.fit(pattern, routes);
        Ok(index)
    }
}

/// Grows `buffer` to hold `total` elements. `Vec::reserve` counts from the
/// current *length*, which is stale between records, so the amount is
/// computed against it.
fn reserve_total<T>(buffer: &mut Vec<T>, total: usize) {
    if buffer.capacity() < total {
        buffer.reserve(total - buffer.len());
    }
}

/// The cluster patterns of one `(architecture, cluster size)`: the full
/// shape and whichever cut shapes the decoded tasks have needed so far.
/// A stream of another architecture or cluster size starts the set over.
#[derive(Debug, Default)]
struct PatternSet {
    key: Option<(ArchSpec, u16)>,
    shapes: Vec<ClusterPattern>,
}

impl PatternSet {
    /// Index of the pattern of a `shape.0 × shape.1` cluster, derived on
    /// first use.
    fn ensure(&mut self, spec: &ArchSpec, k: u16, shape: (u16, u16)) -> Result<usize, VbsError> {
        if self.key != Some((*spec, k)) {
            self.shapes.clear();
            self.key = Some((*spec, k));
        }
        if let Some(i) = self.shapes.iter().position(|p| p.shape() == shape) {
            return Ok(i);
        }
        self.shapes
            .push(ClusterPattern::build(*spec, k, shape.0, shape.1)?);
        Ok(self.shapes.len() - 1)
    }
}

/// Dijkstra search state, indexed by pattern node id and reset in O(1)
/// through a generation stamp.
#[derive(Debug, Default)]
struct SearchScratch {
    cost: Vec<f32>,
    /// Predecessor node and the edge taken from it.
    parent: Vec<u32>,
    via: Vec<u32>,
    stamp: Vec<u32>,
    generation: u32,
    /// The frontier as packed [`search_key`]s, cheapest first.
    heap: BinaryHeap<Reverse<u64>>,
    /// The edges of the route found, source to target.
    path: Vec<u32>,
    /// Searches run over the life of the scratch.
    runs: u64,
}

impl SearchScratch {
    fn fit(&mut self, pattern: &ClusterPattern) {
        let nodes = pattern.node_count();
        if self.cost.len() < nodes {
            self.cost.resize(nodes, 0.0);
            self.parent.resize(nodes, 0);
            self.via.resize(nodes, 0);
            self.stamp.resize(nodes, 0);
        }
        // A node is expanded once, so at most one entry per edge is pushed.
        if self.heap.capacity() < pattern.edge_count() {
            self.heap.reserve(pattern.edge_count() - self.heap.len());
        }
        reserve_total(&mut self.path, nodes);
    }

    /// Cheapest path from `source` to `target` for net `group`, left in
    /// `self.path`; `false` when the target cannot be reached.
    ///
    /// Boundary-crossing wires are only used when they are an endpoint or
    /// already belong to the connection's net (or, at a steep price, when
    /// nothing else reaches); interior wires are exclusive per net. Costs,
    /// the improvement threshold and the `(cost, node order)` pop order are
    /// those of every stream ever encoded: the encoder's feedback loop kept
    /// a record only if *this* search expanded it.
    fn dijkstra(
        &mut self,
        pattern: &ClusterPattern,
        absent: u8,
        source: usize,
        target: usize,
        group: u32,
        nets: &NetScratch,
    ) -> bool {
        self.runs += 1;
        if self.generation == u32::MAX {
            self.stamp.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
        self.heap.clear();
        self.path.clear();
        let SearchScratch {
            cost,
            parent,
            via,
            stamp,
            generation,
            heap,
            path,
            ..
        } = self;
        let generation = *generation;
        let wires = pattern.wire_count();
        let group_root = nets.resolve(group);

        stamp[source] = generation;
        cost[source] = 0.0;
        heap.push(Reverse(search_key(0.0, source as u32)));

        while let Some(Reverse(key)) = heap.pop() {
            let (node_cost, id) = split_key(key);
            let node = id as usize;
            if node_cost > cost[node] {
                continue;
            }
            if node == target {
                let mut cursor = target;
                while cursor != source {
                    path.push(via[cursor]);
                    cursor = parent[cursor] as usize;
                }
                path.reverse();
                return true;
            }
            // Pins other than the endpoints are never expanded through.
            if node >= wires && node != source {
                continue;
            }
            for edge in pattern.row(node) {
                let next = pattern.target(edge);
                let step = if next >= wires {
                    // A pin: only the target pin may terminate the path.
                    if next != target {
                        continue;
                    }
                    1.0
                } else {
                    let flags = pattern.flags(next);
                    if flags & absent != 0 {
                        continue;
                    }
                    match nets.owner(next) {
                        // A wire already carrying a different net can never
                        // be reused; resources of the same net are nearly
                        // free, which makes fanout share its trunk.
                        Some(owner) if nets.resolve(owner) != group_root => continue,
                        Some(_) => 0.1,
                        None if flags & pattern::INTERIOR != 0 => 1.0,
                        // Unallocated boundary-crossing wire: strongly
                        // discouraged (it is shared with a neighbouring
                        // cluster), used only when no interior path exists.
                        // No encoded record's route takes one (see the
                        // encoder's module docs).
                        None => 6.0,
                    }
                };
                let next_cost = node_cost + step;
                if stamp[next] != generation || next_cost < cost[next] - f32::EPSILON {
                    stamp[next] = generation;
                    cost[next] = next_cost;
                    parent[next] = id;
                    via[next] = edge as u32;
                    heap.push(Reverse(search_key(next_cost, next as u32)));
                }
            }
        }
        false
    }
}

/// A search frontier entry packed into one integer: the cost's bits above
/// the node id. Costs are finite sums of non-negative steps, and the bits
/// of a non-negative `f32` order as its values do, so the smallest key is
/// the cheapest entry, ties to the smaller id (= the smaller node).
fn search_key(cost: f32, id: u32) -> u64 {
    u64::from(cost.to_bits()) << 32 | u64::from(id)
}

/// The `(cost, id)` a [`search_key`] packs.
fn split_key(key: u64) -> (f32, u32) {
    (f32::from_bits((key >> 32) as u32), key as u32)
}

/// Per-record net bookkeeping: which net group each node belongs to — for a
/// wire the net that claimed it, for a pin the net of the connections naming
/// it — with union-find over groups (fanout merging).
///
/// Dense arrays by pattern node id, reset in O(1) through a generation
/// stamp: the search consults the owner once per wire neighbour.
#[derive(Debug, Default)]
struct NetScratch {
    tagged: Vec<u32>,
    group: Vec<u32>,
    generation: u32,
    parent: Vec<u32>,
}

impl NetScratch {
    fn fit(&mut self, pattern: &ClusterPattern, routes: usize) {
        if self.tagged.len() < pattern.node_count() {
            self.tagged.resize(pattern.node_count(), 0);
            self.group.resize(pattern.node_count(), 0);
        }
        // Every connection opens at most one group.
        reserve_total(&mut self.parent, routes);
    }

    fn clear(&mut self) {
        if self.generation == u32::MAX {
            self.tagged.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
        self.parent.clear();
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
        let g = self.parent.len() as u32;
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

    /// Resolves the net group of a connection from its two endpoints and
    /// claims both endpoints for it.
    ///
    /// Connections sharing an endpoint (transitively) describe the same
    /// electrical net — an I/O can only carry one signal — so their groups
    /// are merged; a fresh group is created when neither endpoint is known.
    fn group_of_endpoints(&mut self, source: usize, target: usize) -> u32 {
        let group = match (self.owner(source), self.owner(target)) {
            (None, None) => self.fresh(),
            (Some(g), None) | (None, Some(g)) => self.find(g),
            (Some(a), Some(b)) => self.union(a, b),
        };
        self.claim(source, group);
        self.claim(target, group);
        group
    }

    /// The group `node` was last given this record, if any.
    fn owner(&self, node: usize) -> Option<u32> {
        (self.tagged[node] == self.generation).then(|| self.group[node])
    }

    /// Gives `node` to net `group` for the rest of the record.
    fn claim(&mut self, node: usize, group: u32) {
        self.tagged[node] = self.generation;
        self.group[node] = group;
    }
}

/// Copies `bits` into the frame bits from `at` on, a word at a time.
fn copy_bits(frame: &mut FrameMut<'_>, at: usize, bits: BitRange<'_>) {
    for (offset, width, value) in bits.words() {
        frame.set_field(at + offset, width, value);
    }
}

/// Where one record's cluster sits: its pattern, and what translating the
/// pattern to this position needs.
struct ClusterSite<'p> {
    pattern: &'p ClusterPattern,
    /// Cluster coordinate (for error reports).
    cluster: Coord,
    /// The cluster's lower-left macro, task-relative.
    origin: Coord,
    /// [`pattern::WEST`] / [`pattern::SOUTH`] when the cluster sits in
    /// column / row 0 of the task, where those boundary wires do not exist.
    absent: u8,
}

impl ClusterSite<'_> {
    /// The node I/O index `index` names when it is a plain endpoint of this
    /// cluster: in the shape, and not a west / south wire the cluster lacks.
    /// Everything else — errors included — is resolved by
    /// [`Devirtualizer::route_io`].
    fn node_of(&self, index: u32) -> Option<usize> {
        let node = self.pattern.io_node(index)?;
        (node >= self.pattern.wire_count() || self.pattern.flags(node) & self.absent == 0)
            .then_some(node)
    }

    /// Programs a connection that needs no net state: its endpoints are one
    /// node, or one switch joins them — that hop is the unique cheapest path
    /// (see the module docs). `Ok(false)` when it needs the search.
    fn hop(
        &self,
        source: usize,
        target: usize,
        task: &mut TaskBitstream,
    ) -> Result<bool, RouteFailure> {
        if source == target {
            return Ok(true);
        }
        let Some(edge) = self.pattern.edge_between(source, target) else {
            return Ok(false);
        };
        self.program(edge, task)?;
        Ok(true)
    }

    /// Sets the frame bit of the switch on pattern edge `edge`.
    fn program(&self, edge: usize, task: &mut TaskBitstream) -> Result<(), RouteFailure> {
        let switch = self.pattern.switch(edge).ok_or(RouteFailure::Conflict)?;
        task.frame_mut(Coord::new(
            self.origin.x + switch.dx,
            self.origin.y + switch.dy,
        ))
        .set_bit(switch.bit as usize, true);
        Ok(())
    }

    /// Routes one connection between two nodes of the pattern, joins its
    /// endpoints' net group and writes the switches it programs.
    fn route(
        &self,
        source: usize,
        target: usize,
        nets: &mut NetScratch,
        search: &mut SearchScratch,
        task: &mut TaskBitstream,
    ) -> Result<(), RouteFailure> {
        if self.hop(source, target, task)? {
            // A hop claims no wire but its endpoints.
            nets.group_of_endpoints(source, target);
            return Ok(());
        }
        self.search(source, target, nets, search, task)
    }

    /// Routes a connection that no single switch carries: joins its
    /// endpoints' net group, searches the cheapest path, programs its
    /// switches and claims the wires it passes.
    fn search(
        &self,
        source: usize,
        target: usize,
        nets: &mut NetScratch,
        search: &mut SearchScratch,
        task: &mut TaskBitstream,
    ) -> Result<(), RouteFailure> {
        let pattern = self.pattern;
        let group = nets.group_of_endpoints(source, target);
        if !search.dijkstra(pattern, self.absent, source, target, group, nets) {
            return Err(RouteFailure::NoPath);
        }
        for &edge in &search.path {
            self.program(edge as usize, task)?;
        }
        // The path's last node is the target, already the net's.
        for &edge in &search.path {
            nets.claim(pattern.target(edge as usize), group);
        }
        Ok(())
    }
}

/// Why a connection between two nodes could not be programmed.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RouteFailure {
    NoPath,
    /// The path takes a switch outside the cluster.
    Conflict,
}

/// Why a record did not expand, as [`Devirtualizer::expand_record`]
/// reports it: no text is formatted for a connection that cannot be
/// routed.
#[derive(Debug)]
pub(crate) enum RecordFailure {
    /// Connection `index` of the record could not be routed.
    Route { index: usize, kind: RouteFailure },
    /// The record is malformed or lies outside the task, or an endpoint is
    /// invalid.
    Invalid(VbsError),
}

impl From<VbsError> for RecordFailure {
    fn from(error: VbsError) -> Self {
        RecordFailure::Invalid(error)
    }
}

impl RecordFailure {
    /// The error [`Devirtualizer::decode_record_with`] reports for this
    /// failure of `record`: a routing failure names the connection by its
    /// `Display` text.
    fn into_error(self, record: RecordRef<'_>) -> VbsError {
        match self {
            RecordFailure::Invalid(error) => error,
            RecordFailure::Route { index, kind } => {
                let RoutesRef::Coded(connections) = record.routes else {
                    unreachable!("only coded records route connections");
                };
                let connection = connections
                    .get(index)
                    .expect("a routed connection is valid");
                kind.error(record.position, &connection)
            }
        }
    }
}

impl RouteFailure {
    fn error(self, cluster: Coord, connection: &Connection) -> VbsError {
        let connection = connection.to_string();
        match self {
            RouteFailure::NoPath => VbsError::DecodeNoPath {
                cluster,
                connection,
            },
            RouteFailure::Conflict => VbsError::DecodeConflict {
                cluster,
                connection,
            },
        }
    }
}

/// A resolved connection endpoint.
enum Endpoint {
    /// A node of the cluster's pattern.
    Node(usize),
    /// A pin whose local index lies past the cluster's `k²` macros but
    /// still inside the task (only hand-built records can name one): it
    /// belongs to a cluster further north, and nothing that touches this
    /// cluster reaches it.
    Elsewhere,
}

/// The de-virtualization engine for one Virtual Bit-Stream, owned or
/// viewed in its serialized bytes (anything that converts into a
/// [`VbsRef`]).
///
/// The engine borrows the stream and expands records on demand; use
/// [`Devirtualizer::decode_into`] for the whole task (zero allocations on a
/// warm scratch), [`Devirtualizer::decode_streaming`] to emit frames as they
/// complete, or [`Devirtualizer::decode_record_with`] to expand a single
/// record. All three, and the encoder's feedback loop, expand each record
/// through one crate-private routine.
#[derive(Debug)]
pub struct Devirtualizer<'a> {
    stream: VbsRef<'a>,
    header: VbsHeader,
    grid: ClusterGrid,
}

impl<'a> Devirtualizer<'a> {
    /// Prepares the decoding of `stream`.
    ///
    /// # Errors
    ///
    /// Returns [`VbsError::Arch`] if the task dimensions are degenerate.
    pub fn new(stream: impl Into<VbsRef<'a>>) -> Result<Self, VbsError> {
        let stream = stream.into();
        let header = stream.header();
        Device::new(header.spec, header.width, header.height)?;
        Ok(Devirtualizer {
            stream,
            header,
            grid: ClusterGrid::new(
                header.spec,
                header.cluster_size,
                header.width,
                header.height,
            )?,
        })
    }

    /// The stream's records, in stream order.
    pub fn records(&self) -> Records<'a> {
        self.stream.records()
    }

    /// Number of records of the stream.
    pub fn record_count(&self) -> usize {
        self.stream.record_count()
    }

    /// The decoded task's width and height.
    fn task_shape(&self) -> (u16, u16) {
        (self.header.width, self.header.height)
    }

    /// Derives the pattern of every cluster shape the task's tiling has
    /// (full, cut by the east edge, by the north edge, by both) and sizes
    /// `scratch` for the largest, so the records decode without allocating.
    fn reserve(&self, scratch: &mut DecodeScratch) -> Result<(), VbsError> {
        let k = self.grid.cluster_size();
        // Along one axis: the full (or task-capped) extent and the cut
        // remainder; 0 means no such cluster.
        let extents = |len: u16| [len.min(k), len % k];
        for cols in extents(self.grid.width()) {
            for rows in extents(self.grid.height()) {
                if cols > 0 && rows > 0 {
                    let routes = self.header.max_routes_per_record();
                    scratch.pattern_for(&self.header.spec, k, (cols, rows), routes)?;
                }
            }
        }
        Ok(())
    }

    /// Decodes every record into `task` (reshaped in place to the stream's
    /// dimensions) reusing `scratch` — the zero-allocation steady-state
    /// load path: with a warm scratch and a right-sized `task`, no heap
    /// allocation happens at all.
    ///
    /// Each record is expanded as [`Devirtualizer::decode_record_with`]
    /// expands it; a single-switch connection costs one table lookup and
    /// one bit (see the module docs).
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
        let (w, h) = self.task_shape();
        task.reset(self.header.spec, w, h);
        self.reserve(scratch)?;
        for record in self.records() {
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
        let (w, h) = self.task_shape();
        staging.reset(self.header.spec, w, h);
        self.reserve(scratch)?;
        scratch.emitted.clear();
        scratch.emitted.resize(w as usize * h as usize, false);
        let k = self.grid.cluster_size();
        for record in self.records() {
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
    /// touched) with every working buffer taken from `scratch`. Records are
    /// independent, so expanding every record of a stream this way, in any
    /// order, programs the image [`Devirtualizer::decode_into`] does.
    ///
    /// # Errors
    ///
    /// Returns [`VbsError::DecodeConflict`], [`VbsError::DecodeNoPath`],
    /// [`VbsError::DanglingBoundary`], [`VbsError::RecordOutOfTask`] or
    /// [`VbsError::Malformed`] when the record cannot be expanded.
    pub fn decode_record_with<'r>(
        &self,
        record: impl Into<RecordRef<'r>>,
        task: &mut TaskBitstream,
        scratch: &mut DecodeScratch,
    ) -> Result<(), VbsError> {
        let record = record.into();
        self.expand_record(record, task, scratch)
            .map_err(|failure| failure.into_error(record))
    }

    /// [`Devirtualizer::decode_record_with`] without formatting a routing
    /// failure: a connection that cannot be routed is reported by its index
    /// in the record and the kind of failure. The encoder's feedback loop
    /// expands every candidate record this way and needs no text.
    pub(crate) fn expand_record(
        &self,
        record: RecordRef<'_>,
        task: &mut TaskBitstream,
        scratch: &mut DecodeScratch,
    ) -> Result<(), RecordFailure> {
        let cluster = record.position;
        let k = self.grid.cluster_size();
        let spec = &self.header.spec;
        let lb_bits = spec.lb_config_bits();

        if record.logic.len() != self.header.logic_bits_per_record() {
            return Err(RecordFailure::Invalid(VbsError::Malformed {
                reason: format!(
                    "record at {cluster} carries {} logic bits, expected {}",
                    record.logic.len(),
                    self.header.logic_bits_per_record()
                ),
            }));
        }
        // The part of the cluster inside the task (edge clusters may be
        // cut): its lower-left macro and its extent.
        let x0 = u32::from(cluster.x) * u32::from(k);
        let y0 = u32::from(cluster.y) * u32::from(k);
        let (width, height) = (u32::from(self.grid.width()), u32::from(self.grid.height()));
        if x0 >= width || y0 >= height {
            return Err(RecordFailure::Invalid(VbsError::RecordOutOfTask {
                cluster,
            }));
        }
        let origin = Coord::new(x0 as u16, y0 as u16);
        let cols = (width - x0).min(u32::from(k)) as u16;
        let rows = (height - y0).min(u32::from(k)) as u16;
        // (macro, its index among the record's k² payload slots)
        let macros = (0..rows).flat_map(|dy| {
            (0..cols).map(move |dx| {
                let site = Coord::new(origin.x + dx, origin.y + dy);
                (site, dy as usize * k as usize + dx as usize)
            })
        });

        // 1. Logic sections.
        for (site, local) in macros.clone() {
            let bits = record.logic.slice(local * lb_bits, lb_bits);
            copy_bits(&mut task.frame_mut(site), 0, bits);
        }

        // 2. Routing sections.
        match record.routes {
            RoutesRef::Raw(raw) => {
                if raw.len() != self.header.raw_routing_bits_per_record() {
                    return Err(RecordFailure::Invalid(VbsError::Malformed {
                        reason: format!(
                            "raw record at {cluster} carries {} routing bits, expected {}",
                            raw.len(),
                            self.header.raw_routing_bits_per_record()
                        ),
                    }));
                }
                let per_macro = spec.raw_bits_per_macro() - lb_bits;
                for (site, local) in macros {
                    let bits = raw.slice(local * per_macro, per_macro);
                    copy_bits(&mut task.frame_mut(site), lb_bits, bits);
                }
            }
            RoutesRef::Coded(connections) => {
                let index = scratch.pattern_for(spec, k, (cols, rows), connections.len())?;
                let DecodeScratch {
                    search,
                    nets,
                    patterns,
                    routes,
                    ..
                } = scratch;
                let site = ClusterSite {
                    pattern: &patterns.shapes[index],
                    cluster,
                    origin,
                    absent: if x0 == 0 { pattern::WEST } else { 0 }
                        | if y0 == 0 { pattern::SOUTH } else { 0 },
                };
                nets.clear();
                let endpoints = |i: usize| {
                    let (input, output) = connections.indices(i, spec, k);
                    let node = |index: Option<u32>| index.and_then(|index| site.node_of(index));
                    (node(input), node(output))
                };
                // Net groups are built only when a search reads them: the
                // connections from `grouped` up to the current one were
                // single hops, and their endpoints join their groups then,
                // in record order, as each would have on its own turn.
                let mut grouped = 0;
                let join = |range: std::ops::Range<usize>, nets: &mut NetScratch| {
                    for i in range {
                        if let (Some(source), Some(target)) = endpoints(i) {
                            nets.group_of_endpoints(source, target);
                        }
                    }
                };
                for i in 0..connections.len() {
                    // A plain endpoint pair is two table lookups; anything
                    // else takes the I/O path, which also reports errors.
                    let failed = |kind| RecordFailure::Route { index: i, kind };
                    let (Some(source), Some(target)) = endpoints(i) else {
                        let connection = connections.get(i)?;
                        *routes += 1;
                        join(grouped..i, nets);
                        grouped = i + 1;
                        self.route_io(&site, (i, &connection), nets, search, task)?;
                        continue;
                    };
                    *routes += 1;
                    if site.hop(source, target, task).map_err(failed)? {
                        continue;
                    }
                    join(grouped..i, nets);
                    grouped = i + 1;
                    site.search(source, target, nets, search, task)
                        .map_err(failed)?;
                }
            }
        }
        Ok(())
    }

    /// Expands one connection named by its cluster I/Os: every connection
    /// of an owned record, and those of a packed record whose endpoints are
    /// not both plain nodes ([`ClusterSite::node_of`]).
    fn route_io(
        &self,
        site: &ClusterSite<'_>,
        (index, connection): (usize, &Connection),
        nets: &mut NetScratch,
        search: &mut SearchScratch,
        task: &mut TaskBitstream,
    ) -> Result<(), RecordFailure> {
        let source = self.endpoint(site, connection.input)?;
        let target = self.endpoint(site, connection.output)?;
        match (source, target) {
            (Endpoint::Node(source), Endpoint::Node(target)) => site
                .route(source, target, nets, search, task)
                .map_err(|kind| RecordFailure::Route { index, kind }),
            _ if connection.input == connection.output => Ok(()),
            _ => Err(RecordFailure::Route {
                index,
                kind: RouteFailure::NoPath,
            }),
        }
    }

    /// Maps a cluster I/O to its pattern node.
    fn endpoint(&self, site: &ClusterSite<'_>, io: ClusterIo) -> Result<Endpoint, VbsError> {
        let cluster = site.cluster;
        let (cols, rows) = site.pattern.shape();
        let spec = &self.header.spec;
        match io {
            ClusterIo::Null => Err(VbsError::Malformed {
                reason: format!("null i/o used as a connection endpoint in cluster {cluster}"),
            }),
            ClusterIo::Boundary { side, offset } => {
                let w = spec.channel_width();
                let (along, track) = (offset / w, offset % w);
                let (extent, flag) = match side {
                    Side::East => (rows, 0),
                    Side::West => (rows, pattern::WEST),
                    Side::North => (cols, 0),
                    Side::South => (cols, pattern::SOUTH),
                };
                // Past the cluster's (possibly cut) side, or a west / south
                // wire of a cluster on the task's west / south edge.
                if along >= extent || site.absent & flag != 0 {
                    return Err(VbsError::DanglingBoundary {
                        cluster,
                        io: format!("{side}[{offset}]"),
                    });
                }
                Ok(Endpoint::Node(site.pattern.boundary(side, along, track)))
            }
            ClusterIo::Pin { local, pin } => {
                let k = self.grid.cluster_size();
                let (dx, dy) = (local % k, local / k);
                if dx >= cols
                    || u32::from(site.origin.y) + u32::from(dy) >= self.grid.height().into()
                {
                    return Err(VbsError::RecordOutOfTask { cluster });
                }
                if pin >= spec.lb_pins() {
                    return Err(VbsError::InvalidIo {
                        index: pin as u32,
                        io_count: spec.lb_pins() as u32,
                    });
                }
                if dy >= rows {
                    return Ok(Endpoint::Elsewhere);
                }
                Ok(Endpoint::Node(site.pattern.pin(dx, dy, pin)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::PackedBits;
    use crate::format::{ClusterRecord, ClusterRoutes};
    use vbs_arch::{ArchSpec, SbPair, Side};

    fn spec() -> ArchSpec {
        ArchSpec::paper_example()
    }

    fn record(connections: Vec<Connection>) -> ClusterRecord {
        ClusterRecord {
            position: Coord::new(1, 1),
            logic: PackedBits::zeros(spec().lb_config_bits()),
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
            logic: PackedBits::zeros(spec().lb_config_bits()),
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
            routes: ClusterRoutes::Raw(pattern.iter().copied().collect()),
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

    /// A connection that cannot be routed is reported by index and kind
    /// inside the crate, and by its text through the public method.
    #[test]
    fn routing_failures_name_the_connection_by_index_and_by_text() {
        let boundary = |side, offset| ClusterIo::Boundary { side, offset };
        let vbs = Vbs::new(
            spec(),
            1,
            4,
            4,
            vec![record(vec![
                Connection {
                    input: boundary(Side::West, 0),
                    output: boundary(Side::East, 0),
                },
                // A switch box joins equal tracks only.
                Connection {
                    input: boundary(Side::West, 1),
                    output: boundary(Side::East, 2),
                },
            ])],
        )
        .unwrap();
        let devirt = Devirtualizer::new(&vbs).unwrap();
        let mut scratch = DecodeScratch::new();
        let mut task = TaskBitstream::empty(spec(), 4, 4);
        let record = RecordRef::from(&vbs.records()[0]);
        assert!(matches!(
            devirt.expand_record(record, &mut task, &mut scratch),
            Err(RecordFailure::Route {
                index: 1,
                kind: RouteFailure::NoPath
            })
        ));
        let error = devirt
            .decode_record_with(record, &mut task, &mut scratch)
            .unwrap_err();
        assert_eq!(
            error.to_string(),
            VbsError::DecodeNoPath {
                cluster: Coord::new(1, 1),
                connection: "west[1] -> east[2]".into(),
            }
            .to_string()
        );
    }

    /// Packed search keys pop in the order of the `(cost, id)` entries
    /// they replaced: by `f32::total_cmp` on the cost, then by id. The
    /// costs are every sum of up to four 0.1 / 1.0 / 6.0 steps, added in
    /// every order, so equal values reached along different sums (and
    /// sums that round apart) both occur.
    #[test]
    fn search_keys_pop_by_cost_then_id() {
        let mut costs = vec![0.0f32];
        let mut frontier = vec![0.0f32];
        for _ in 0..4 {
            frontier = frontier
                .iter()
                .flat_map(|&c| [c + 0.1, c + 1.0, c + 6.0])
                .collect();
            costs.extend(&frontier);
        }
        let entries: Vec<(f32, u32)> = costs
            .iter()
            .enumerate()
            .flat_map(|(i, &cost)| [(cost, (i * 7 % 13) as u32), (cost, 500 - i as u32)])
            .collect();
        let mut heap: BinaryHeap<Reverse<u64>> = entries
            .iter()
            .map(|&(cost, id)| Reverse(search_key(cost, id)))
            .collect();
        let mut popped = Vec::new();
        while let Some(Reverse(key)) = heap.pop() {
            popped.push(split_key(key));
        }
        let mut expected = entries;
        expected.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let bits = |list: &[(f32, u32)]| -> Vec<(u32, u32)> {
            list.iter().map(|&(c, id)| (c.to_bits(), id)).collect()
        };
        assert_eq!(bits(&popped), bits(&expected));
        // Equal costs along different sums tie on the id alone.
        let (a, b) = (0.1f32 + 1.0 + 1.0, 1.0f32 + 1.0 + 0.1);
        assert_eq!(a, b);
        assert!(search_key(a, 3) < search_key(b, 4));
    }

    /// One-switch hops resolve no net group when they are expanded; the
    /// search after them must still see the groups they would have built.
    /// Here two hops that share the wire north[3] put pin 1, north[3] and
    /// east[3] into one net before that net's pin 1 → pin 0 connection
    /// needs the search, which then reuses track 3 (0.1 a wire) instead of
    /// the first free track (6.0 a wire). A third hop gives south[4] →
    /// north[4] to another net, so pin 3 → west[4] cannot pass through
    /// north[4] and finds no path.
    #[test]
    fn hops_before_a_search_join_their_nets_first() {
        let boundary = |side, offset| ClusterIo::Boundary { side, offset };
        let (pin0, pin1) = (
            ClusterIo::Pin { local: 0, pin: 0 },
            ClusterIo::Pin { local: 0, pin: 1 },
        );
        let connection = |input, output| Connection { input, output };
        let reuse = vec![
            connection(pin1, boundary(Side::North, 3)),
            connection(boundary(Side::North, 3), boundary(Side::East, 3)),
            connection(boundary(Side::South, 4), boundary(Side::North, 4)),
            connection(pin1, pin0),
        ];
        let task = decode_single(reuse.clone()).unwrap();
        let frame = task.frame(Coord::new(1, 1));
        assert!(frame.crossing(1, 3) && frame.sb(3, SbPair::NorthEast));
        assert!(frame.crossing(0, 3), "pin 0 joins the net on track 3");
        assert!(frame.sb(4, SbPair::NorthSouth));
        assert_eq!(frame.popcount(), 4, "no other track is taken");

        let mut blocked = reuse;
        let pin3 = ClusterIo::Pin { local: 0, pin: 3 };
        blocked.push(connection(pin3, boundary(Side::West, 4)));
        assert!(matches!(
            decode_single(blocked),
            Err(VbsError::DecodeNoPath { .. })
        ));
    }
}
