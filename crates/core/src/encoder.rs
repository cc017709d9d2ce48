//! The `vbsgen` backend: encoding a placed-and-routed task into a Virtual
//! Bit-Stream.
//!
//! The encoder walks every route tree, assigns each programmed switch to the
//! cluster that owns it, and abstracts the per-cluster routing into a
//! connection list: for every connected piece of a net inside a cluster it
//! emits one connection from the piece's entry I/O to every other black-box
//! I/O the piece touches (boundary-crossing wires and logic-block pins).
//! Wires that stay strictly inside a cluster never appear in the list — that
//! is the clustering gain of Section IV-B.
//!
//! A tree is read by its own indices. Each edge `(parent, child)` is tagged
//! once with the id of the cluster owning its switch, and the edges are
//! grouped by sorting `(cluster id, child index)`. Within one cluster's
//! group a piece's entry is the node whose own parent edge lies elsewhere
//! (or the net source), and a node's nearest I/O ancestor is carried down
//! from its parent, which the index order visits first. Pieces are emitted
//! in order of their smallest node, each piece's connections in the
//! canonical order: boundary-to-boundary first, then boundary destinations,
//! then boundary sources, then the rest, and within a rank by the byte
//! order of the connection's `Display` text (`east[12]` before `east[1]`).
//! That order is part of the stream; the checked-in corpus holds it. The
//! text's bytes are written straight into a fixed key, no formatter runs,
//! and the text is only written when two connections of one piece tie on
//! rank.
//!
//! Following Section III-B, every coded record goes through the offline
//! **feedback loop**: it is expanded by the same routine the run-time
//! de-virtualization uses, through the decoder's crate-private entry point,
//! which reports a failing connection by its index and kind and formats no
//! error text. A record is kept if and only if it expands. The paper also
//! requires the expansion to stay within the wires the routing allocated to
//! the cluster, and here that follows from success: in a cluster's pattern
//! a boundary crossing meets one switch box, plus its owner macro's pins
//! for an east / north crossing, so a decode takes a crossing only as an
//! endpoint or to hook such a pin, and the encoder always names the
//! crossing that feeds such a pin. A decode therefore never claims a
//! crossing its record does not name (`tests/encode_differential.rs`
//! asserts it, against an oracle encoder that still applies the check).
//! Only when the record's own order fails is the list re-sorted into the
//! canonical order and tried once more; as a last resort the record falls
//! back to the raw coding of the cluster (which also happens when the list
//! would be larger than the raw frames). Logic and raw payloads are
//! gathered from the set bits of the frames.

use crate::bitio::PackedBits;
use crate::cluster::{ClusterGrid, ClusterIo};
use crate::decoder::{DecodeScratch, Devirtualizer};
use crate::error::VbsError;
use crate::format::{ClusterRecord, ClusterRoutes, Connection, RecordRef, RoutesRef, Vbs};
use std::ops::Range;
use vbs_arch::{ArchSpec, Coord, Device, RrNode, Side, WireRef};
use vbs_bitstream::{BitstreamError, TaskBitstream};
use vbs_route::{RouteTree, Routing};

/// The Virtual Bit-Stream encoder (the paper's `vbsgen`).
#[derive(Debug, Clone)]
pub struct VbsEncoder {
    spec: ArchSpec,
    cluster_size: u16,
}

impl VbsEncoder {
    /// Creates an encoder for the given architecture and cluster size
    /// (`cluster_size = 1` is the finest grain, one macro per record).
    ///
    /// # Errors
    ///
    /// Returns [`VbsError::InvalidClusterSize`] when `cluster_size` is zero.
    pub fn new(spec: ArchSpec, cluster_size: u16) -> Result<Self, VbsError> {
        if cluster_size == 0 {
            return Err(VbsError::InvalidClusterSize { cluster_size });
        }
        Ok(VbsEncoder { spec, cluster_size })
    }

    /// The cluster size this encoder produces.
    pub const fn cluster_size(&self) -> u16 {
        self.cluster_size
    }

    /// Encodes a task whose placement region starts at the device origin
    /// (the common case when the whole device is the task).
    ///
    /// # Errors
    ///
    /// See [`VbsEncoder::encode_with_origin`].
    pub fn encode(&self, raw: &TaskBitstream, routing: &Routing) -> Result<Vbs, VbsError> {
        self.encode_with_origin(raw, routing, Coord::new(0, 0))
    }

    /// Encodes a task whose raw bit-stream is `raw` and whose routing was
    /// computed at device-absolute coordinates; `origin` is the lower-left
    /// corner of the task on that device, used to translate the routing into
    /// task-relative coordinates.
    ///
    /// # Errors
    ///
    /// * [`VbsError::EncoderInputMismatch`] if the raw bit-stream and the
    ///   routing target different architectures, or a routing node lies
    ///   west or south of `origin`;
    /// * [`VbsError::InvalidClusterSize`] if the cluster does not fit the
    ///   task;
    /// * any decoding error that survives the feedback loop (which indicates
    ///   a bug rather than an input problem, since raw fallback always
    ///   succeeds).
    pub fn encode_with_origin(
        &self,
        raw: &TaskBitstream,
        routing: &Routing,
        origin: Coord,
    ) -> Result<Vbs, VbsError> {
        if raw.spec() != &self.spec {
            return Err(VbsError::EncoderInputMismatch {
                reason: "raw bit-stream architecture differs from the encoder's".into(),
            });
        }
        if routing.spec() != &self.spec {
            return Err(VbsError::EncoderInputMismatch {
                reason: "routing channel width differs from the encoder's architecture".into(),
            });
        }
        let width = raw.width();
        let height = raw.height();
        let grid = ClusterGrid::new(self.spec, self.cluster_size, width, height)?;

        // 1. Group the programmed switches by cluster into connections in
        //    net order and, within a net, in piece order, each tagged with
        //    the id of its cluster (row-major, the order of
        //    `ClusterGrid::iter_clusters`).
        let geometry = Device::new(self.spec, width, height)?;
        let mut connections = Vec::new();
        let mut trees = TreeScratch::default();
        for (_, tree) in routing.iter_trees() {
            if !tree.is_empty() {
                trees.add_tree(&grid, &geometry, tree, origin, &mut connections)?;
            }
        }
        // Cluster by cluster, nets in order (the sort is stable).
        connections.sort_by_key(|&(id, _)| id);

        // 2. Build one record per occupied cluster, applying the size bound
        //    and the decode feedback loop.
        let template = Vbs::new(self.spec, self.cluster_size, width, height, Vec::new())?;
        let devirtualizer = Devirtualizer::new(&template)?;
        let mut image = TaskBitstream::empty(self.spec, width, height);
        // One decode arena shared by every feedback-loop check of this
        // encode, so candidate verification stays allocation-free.
        let mut decode_scratch = DecodeScratch::new();
        let header = template.header();
        let raw_bits = header.raw_routing_bits_per_record();

        let mut records: Vec<ClusterRecord> = Vec::new();
        let mut rest = connections.as_slice();
        for (id, cluster) in grid.iter_clusters().enumerate() {
            let id = id as u32;
            let count = rest.iter().take_while(|&&(c, _)| c == id).count();
            let (run, tail) = rest.split_at(count);
            rest = tail;
            let logic = self.logic_bits(&grid, raw, cluster);
            if run.is_empty() && logic.as_range().words().all(|(_, _, bits)| bits == 0) {
                // Empty cluster: no record at all (this is where sparse
                // regions gain the most).
                continue;
            }

            let coded_bits =
                header.route_count_bits() as usize + 2 * header.io_bits() as usize * run.len();
            let routes = if run.is_empty() {
                ClusterRoutes::Coded(Vec::new())
            } else if run.len() > header.max_routes_per_record() || coded_bits >= raw_bits {
                self.raw_routes(&grid, raw, cluster)
            } else {
                // Feedback loop: keep the candidate record if it decodes.
                let mut connections: Vec<Connection> = run.iter().map(|&(_, c)| c).collect();
                let mut decodes_safely = |connections: &[Connection]| {
                    let record = RecordRef {
                        position: cluster,
                        logic: logic.as_range(),
                        routes: RoutesRef::Coded(connections.into()),
                    };
                    devirtualizer
                        .expand_record(record, &mut image, &mut decode_scratch)
                        .is_ok()
                };
                let mut accepted = decodes_safely(&connections);
                if !accepted {
                    order_connections(&mut connections);
                    accepted = decodes_safely(&connections);
                }
                if accepted {
                    ClusterRoutes::Coded(connections)
                } else {
                    self.raw_routes(&grid, raw, cluster)
                }
            };

            records.push(ClusterRecord {
                position: cluster,
                logic,
                routes,
            });
        }

        Vbs::new(self.spec, self.cluster_size, width, height, records)
    }

    /// Collects the logic bits of a cluster from the raw frames.
    fn logic_bits(&self, grid: &ClusterGrid, raw: &TaskBitstream, cluster: Coord) -> PackedBits {
        let lb = self.spec.lb_config_bits();
        self.gather(grid, raw, cluster, 0..lb)
    }

    /// The raw fallback payload of a cluster: the routing sections of its
    /// frames, verbatim.
    fn raw_routes(&self, grid: &ClusterGrid, raw: &TaskBitstream, cluster: Coord) -> ClusterRoutes {
        let lb = self.spec.lb_config_bits();
        ClusterRoutes::Raw(self.gather(grid, raw, cluster, lb..self.spec.raw_bits_per_macro()))
    }

    /// Frame bits `section` of every macro of a cluster, back to back in
    /// local macro order (a macro outside the task contributes zeros).
    /// Frames are sparse, so only their set bits are visited.
    fn gather(
        &self,
        grid: &ClusterGrid,
        raw: &TaskBitstream,
        cluster: Coord,
        section: Range<usize>,
    ) -> PackedBits {
        let k = self.cluster_size as usize;
        let per_macro = section.len();
        let mut bits = PackedBits::zeros(k * k * per_macro);
        for local in 0..(k * k) {
            if let Some(site) = grid.macro_at(cluster, local as u16) {
                let words = raw.frame(site).words().iter().enumerate();
                let span = words
                    .take(section.end.div_ceil(64))
                    .skip(section.start / 64);
                for (w, &word) in span {
                    let mut word = word;
                    while word != 0 {
                        let bit = w * 64 + word.trailing_zeros() as usize;
                        word &= word - 1;
                        if section.contains(&bit) {
                            bits.set(local * per_macro + bit - section.start, true);
                        }
                    }
                }
            }
        }
        bits
    }
}

/// Step 1's working buffers, reused from tree to tree. The per-node arrays
/// are indexed by tree index.
#[derive(Debug, Default)]
struct TreeScratch {
    /// The tree's nodes in task-relative coordinates.
    nodes: Vec<RrNode>,
    /// `(cluster id, child, parent)` of every edge, sorted.
    edges: Vec<(u32, u32, u32)>,
    /// One more than the cluster id of the edge entering the node, once
    /// the node has been visited; 0 otherwise.
    visited: Vec<u32>,
    /// The entry of the node's piece.
    entry: Vec<u32>,
    /// The nearest I/O at or above the node within its piece.
    reach: Vec<Option<ClusterIo>>,
    /// For an entry: the smallest node of its piece.
    smallest: Vec<RrNode>,
    /// One group's connections: `(entry, connection)`.
    pending: Vec<(u32, Connection)>,
}

impl TreeScratch {
    /// Adds the connections of one route tree to `connections`, each
    /// tagged with the id of its cluster.
    fn add_tree(
        &mut self,
        grid: &ClusterGrid,
        geometry: &Device,
        tree: &RouteTree,
        origin: Coord,
        connections: &mut Vec<(u32, Connection)>,
    ) -> Result<(), VbsError> {
        self.nodes.clear();
        self.nodes.reserve(tree.len());
        for &node in tree.nodes() {
            self.nodes.push(rel_node(node, origin)?);
        }
        let (cols, rows) = (grid.cluster_cols(), grid.cluster_rows());
        let mut edges = std::mem::take(&mut self.edges);
        edges.clear();
        for child in 0..tree.len() {
            let Some(parent) = tree.parent(child) else {
                continue;
            };
            let (from, to) = (self.nodes[parent], self.nodes[child]);
            let switch = geometry.switch_between(from, to).ok_or_else(|| {
                VbsError::Bitstream(BitstreamError::UnmappableEdge {
                    edge: format!("{from} <-> {to}"),
                })
            })?;
            let cluster = grid.cluster_of(switch.site());
            // A switch outside the tiling belongs to no record.
            if cluster.x < cols && cluster.y < rows {
                let id = u32::from(cluster.y) * u32::from(cols) + u32::from(cluster.x);
                edges.push((id, child as u32, parent as u32));
            }
        }
        edges.sort_unstable();

        let len = self.nodes.len();
        self.visited.clear();
        self.visited.resize(len, 0);
        self.entry.resize(len, 0);
        self.reach.resize(len, None);
        self.smallest.clone_from(&self.nodes);
        for group in edges.chunk_by(|a, b| a.0 == b.0) {
            let id = group[0].0;
            let cluster = Coord::new((id % u32::from(cols)) as u16, (id / u32::from(cols)) as u16);
            self.add_group(grid, cluster, id, group, connections);
        }
        self.edges = edges;
        Ok(())
    }

    /// Adds the connections of the tree edges `group` (sorted by child
    /// index), whose switches all lie in `cluster`.
    fn add_group(
        &mut self,
        grid: &ClusterGrid,
        cluster: Coord,
        id: u32,
        group: &[(u32, u32, u32)],
        connections: &mut Vec<(u32, Connection)>,
    ) {
        for &(_, child, parent) in group {
            let (child, parent) = (child as usize, parent as usize);
            // A parent visited in this group is inside the piece; any other
            // parent is the piece's entry.
            let (entry, input) = if self.visited[parent] == id + 1 {
                (self.entry[parent], self.reach[parent])
            } else {
                self.smallest[parent] = self.nodes[parent];
                (parent as u32, node_io(grid, cluster, self.nodes[parent]))
            };
            // Every I/O of the piece gets one connection from its nearest
            // I/O ancestor in the piece (often the entry). Interior wires
            // never appear, which is the clustering gain; keeping the
            // ancestor relation keeps the tree's branching, so the
            // de-virtualization reproduces it.
            let io = node_io(grid, cluster, self.nodes[child]);
            if let (Some(input), Some(output)) = (input, io) {
                let connection = Connection { input, output };
                self.pending.push((entry, connection));
            }
            self.visited[child] = id + 1;
            self.entry[child] = entry;
            self.reach[child] = io.or(input);
        }
        for &(_, child, _) in group {
            let entry = self.entry[child as usize] as usize;
            self.smallest[entry] = self.smallest[entry].min(self.nodes[child as usize]);
        }
        // Pieces in order of their smallest node; boundary outputs first
        // within a piece, so the decoder allocates the shared wires before
        // hooking pins through them. A piece's connections mostly differ
        // in rank, so their texts are only written when the ranks tie.
        let smallest = &self.smallest;
        self.pending.sort_unstable_by(|a, b| {
            smallest[a.0 as usize]
                .cmp(&smallest[b.0 as usize])
                .then_with(|| rank(&a.1).cmp(&rank(&b.1)))
                .then_with(|| order_key(&a.1).cmp(&order_key(&b.1)))
        });
        connections.extend(self.pending.drain(..).map(|(_, c)| (id, c)));
    }
}

/// Maps a task-relative routing node to the black-box I/O of `cluster` it
/// represents, or `None` for wires interior to the cluster.
fn node_io(grid: &ClusterGrid, cluster: Coord, node: RrNode) -> Option<ClusterIo> {
    match node {
        RrNode::Pin { site, pin } => {
            (grid.cluster_of(site) == cluster).then(|| grid.pin_io(site, pin))
        }
        RrNode::Wire(w) => grid.wire_io(cluster, w),
    }
}

/// A connection's place in the canonical order: its rank, then the bytes of
/// its `Display` text, zero-padded (the longest text,
/// `m65535.pin255 -> m65535.pin255`, is 30 bytes).
type OrderKey = (u8, [u8; 40]);

fn order_key(connection: &Connection) -> OrderKey {
    let mut text = KeyText {
        bytes: [0; 40],
        len: 0,
    };
    text.io(connection.input);
    text.push(b" -> ");
    text.io(connection.output);
    (rank(connection), text.bytes)
}

/// A connection's rank in the canonical order.
fn rank(connection: &Connection) -> u8 {
    match (&connection.input, &connection.output) {
        (ClusterIo::Boundary { .. }, ClusterIo::Boundary { .. }) => 0,
        (_, ClusterIo::Boundary { .. }) => 1,
        (ClusterIo::Boundary { .. }, _) => 2,
        _ => 3,
    }
}

/// The `Display` text of a connection, written straight into its key's
/// bytes without a formatter.
struct KeyText {
    bytes: [u8; 40],
    len: usize,
}

impl KeyText {
    fn push(&mut self, text: &[u8]) {
        self.bytes[self.len..self.len + text.len()].copy_from_slice(text);
        self.len += text.len();
    }

    /// Decimal digits, as `{}` writes them.
    fn number(&mut self, mut value: u16) {
        let mut digits = [0; 5];
        let mut start = digits.len();
        loop {
            start -= 1;
            digits[start] = b'0' + (value % 10) as u8;
            value /= 10;
            if value == 0 {
                break;
            }
        }
        self.push(&digits[start..]);
    }

    /// `null`, `{side}[{offset}]` or `m{local}.pin{pin}`.
    fn io(&mut self, io: ClusterIo) {
        match io {
            ClusterIo::Null => self.push(b"null"),
            ClusterIo::Boundary { side, offset } => {
                self.push(match side {
                    Side::North => b"north",
                    Side::East => b"east",
                    Side::South => b"south",
                    Side::West => b"west",
                });
                self.push(b"[");
                self.number(offset);
                self.push(b"]");
            }
            ClusterIo::Pin { local, pin } => {
                self.push(b"m");
                self.number(local);
                self.push(b".pin");
                self.number(pin.into());
            }
        }
    }
}

/// Canonical connection order: boundary-to-boundary first, then boundary
/// destinations, then boundary sources, then the rest; within a rank, the
/// byte order of the connections' `Display` text, so `east[12]` sorts before
/// `east[1]` and `m10.pin3` before `m2.pin3`. This order is part of the
/// stream: every piece's connections are emitted in it, and the checked-in
/// corpus bytes hold it.
fn order_connections(connections: &mut [Connection]) {
    connections.sort_by_cached_key(order_key);
}

/// Translates a device-absolute routing node into task-relative coordinates,
/// refusing one that lies west or south of the task's `origin`.
fn rel_node(node: RrNode, origin: Coord) -> Result<RrNode, VbsError> {
    let relative = |at: Coord| match (at.x.checked_sub(origin.x), at.y.checked_sub(origin.y)) {
        (Some(x), Some(y)) => Ok(Coord::new(x, y)),
        _ => Err(VbsError::EncoderInputMismatch {
            reason: format!("routing node {node} lies west or south of the task origin {origin}"),
        }),
    };
    Ok(match node {
        RrNode::Pin { site, pin } => RrNode::Pin {
            site: relative(site)?,
            pin,
        },
        RrNode::Wire(w) => RrNode::Wire(WireRef {
            owner: relative(w.owner)?,
            ..w
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::decode;
    use proptest::prelude::*;
    use vbs_arch::{ArchSpec, Device};
    use vbs_netlist::generate::SyntheticSpec;
    use vbs_place::{place, PlacerConfig};
    use vbs_route::{route, RouterConfig};

    fn flow(luts: usize, grid: u16, w: u16, seed: u64) -> (Device, TaskBitstream, Routing) {
        let netlist = SyntheticSpec::new("enc", luts, 5, 5)
            .with_seed(seed)
            .build()
            .unwrap();
        let device = Device::new(ArchSpec::new(w, 6).unwrap(), grid, grid).unwrap();
        let placement = place(&netlist, &device, &PlacerConfig::fast(seed)).unwrap();
        let routing = route(&netlist, &device, &placement, &RouterConfig::fast()).unwrap();
        let raw =
            vbs_bitstream::generate_bitstream(&netlist, &device, &placement, &routing).unwrap();
        (device, raw, routing)
    }

    #[test]
    fn encoding_compresses_and_decodes_to_consistent_bits() {
        let (device, raw, routing) = flow(30, 8, 10, 1);
        let encoder = VbsEncoder::new(*device.spec(), 1).unwrap();
        let vbs = encoder.encode(&raw, &routing).unwrap();
        assert!(
            vbs.size_bits() < raw.size_bits(),
            "VBS ({}) should be smaller than raw ({})",
            vbs.size_bits(),
            raw.size_bits()
        );
        let decoded = decode(&vbs).unwrap();
        assert_eq!(decoded.width(), raw.width());
        assert_eq!(decoded.height(), raw.height());
        // The finest grain decode is fully forced, so the frames match the
        // original raw bit-stream exactly.
        assert_eq!(decoded.diff_count(&raw).unwrap(), 0);
    }

    #[test]
    fn cluster_sizes_reduce_connection_counts() {
        let (device, raw, routing) = flow(40, 9, 10, 2);
        let fine = VbsEncoder::new(*device.spec(), 1)
            .unwrap()
            .encode(&raw, &routing)
            .unwrap();
        let coarse = VbsEncoder::new(*device.spec(), 3)
            .unwrap()
            .encode(&raw, &routing)
            .unwrap();
        let count = |v: &Vbs| -> usize { v.records().iter().map(|r| r.routes.route_count()).sum() };
        assert!(
            count(&coarse) < count(&fine),
            "clustering must internalize connections ({} !< {})",
            count(&coarse),
            count(&fine)
        );
        // Clustered streams must still decode.
        decode(&coarse).unwrap();
    }

    #[test]
    fn encoded_stream_roundtrips_through_bytes() {
        let (device, raw, routing) = flow(25, 8, 10, 3);
        let vbs = VbsEncoder::new(*device.spec(), 2)
            .unwrap()
            .encode(&raw, &routing)
            .unwrap();
        let back = Vbs::from_bytes(&vbs.to_bytes()).unwrap();
        assert_eq!(vbs, back);
    }

    #[test]
    fn mismatched_architectures_are_rejected() {
        let (device, raw, routing) = flow(20, 8, 10, 4);
        let other = ArchSpec::new(12, 6).unwrap();
        let encoder = VbsEncoder::new(other, 1).unwrap();
        assert!(matches!(
            encoder.encode(&raw, &routing),
            Err(VbsError::EncoderInputMismatch { .. })
        ));
        assert!(VbsEncoder::new(*device.spec(), 0).is_err());
    }

    #[test]
    fn empty_clusters_produce_no_records() {
        let (device, raw, routing) = flow(12, 9, 10, 5);
        let vbs = VbsEncoder::new(*device.spec(), 1)
            .unwrap()
            .encode(&raw, &routing)
            .unwrap();
        assert!(
            vbs.records().len() < 81,
            "an almost-empty task must skip empty macros"
        );
        assert!(!vbs.records().is_empty());
    }

    /// One endpoint drawn from `(variant, side, number choice, number,
    /// pin choice, pin)`: a choice below the extremes' count takes that
    /// extreme, any other the drawn number.
    fn io(
        (variant, side, choice, number, pin_choice, pin): (u8, usize, usize, u16, usize, u8),
    ) -> ClusterIo {
        const EXTREMES: [u16; 6] = [0, 9, 10, 99, 255, 65535];
        let number = EXTREMES.get(choice).copied().unwrap_or(number);
        let pin = EXTREMES.get(pin_choice).map_or(pin, |&e| e.min(255) as u8);
        match variant {
            0 => ClusterIo::Null,
            1 => ClusterIo::Boundary {
                side: Side::ALL[side],
                offset: number,
            },
            _ => ClusterIo::Pin { local: number, pin },
        }
    }

    proptest! {
        /// The order key is the connection's rank, then its `Display`
        /// bytes zero-padded to the key's length.
        #[test]
        fn order_key_is_rank_then_display_text(
            input in (0u8..3, 0usize..4, 0usize..12, 0u16..=u16::MAX, 0usize..12, 0u8..=u8::MAX),
            output in (0u8..3, 0usize..4, 0usize..12, 0u16..=u16::MAX, 0usize..12, 0u8..=u8::MAX),
        ) {
            let connection = Connection { input: io(input), output: io(output) };
            let boundary = |io| matches!(io, ClusterIo::Boundary { .. });
            let rank = match (boundary(connection.input), boundary(connection.output)) {
                (true, true) => 0,
                (false, true) => 1,
                (true, false) => 2,
                (false, false) => 3,
            };
            let mut text = [0; 40];
            let display = connection.to_string();
            text[..display.len()].copy_from_slice(display.as_bytes());
            prop_assert_eq!(order_key(&connection), (rank, text), "{}", display);
        }
    }

    /// A routing node west or south of the task origin lies outside the
    /// task: refused by name, in every build, instead of wrapping around.
    #[test]
    fn nodes_west_or_south_of_the_origin_are_refused() {
        let (device, raw, routing) = flow(20, 7, 10, 1);
        let encoder = VbsEncoder::new(*device.spec(), 1).unwrap();
        let error = encoder
            .encode_with_origin(&raw, &routing, Coord::new(5, 5))
            .unwrap_err();
        let VbsError::EncoderInputMismatch { reason } = error else {
            panic!("expected an input mismatch, got {error:?}");
        };
        assert!(
            reason.contains("west or south of the task origin (5, 5)"),
            "{reason}"
        );
    }

    /// The canonical order, pinned literally: boundary destinations first,
    /// then by text, not by number.
    #[test]
    fn order_connections_prefers_boundary_destinations() {
        let boundary = |side, offset| ClusterIo::Boundary { side, offset };
        let pin = |local, pin| ClusterIo::Pin { local, pin };
        let (east1, east12) = (boundary(Side::East, 1), boundary(Side::East, 12));
        let (north3, west0) = (boundary(Side::North, 3), boundary(Side::West, 0));
        let (m2, m10) = (pin(2, 3), pin(10, 3));
        let connection = |input, output| Connection { input, output };
        let mut connections = vec![
            connection(m2, m10),
            connection(ClusterIo::Null, m2),
            connection(west0, m2),
            connection(west0, m10),
            connection(m2, east1),
            connection(m10, east12),
            connection(west0, east1),
            connection(west0, east12),
            connection(north3, west0),
            connection(m10, m2),
            connection(ClusterIo::Null, east1),
        ];
        order_connections(&mut connections);
        let text: Vec<String> = connections.iter().map(ToString::to_string).collect();
        assert_eq!(
            text,
            [
                // Boundary to boundary.
                "north[3] -> west[0]",
                "west[0] -> east[12]",
                "west[0] -> east[1]",
                // Into a boundary from anything else.
                "m10.pin3 -> east[12]",
                "m2.pin3 -> east[1]",
                "null -> east[1]",
                // From a boundary into a pin.
                "west[0] -> m10.pin3",
                "west[0] -> m2.pin3",
                // Everything else.
                "m10.pin3 -> m2.pin3",
                "m2.pin3 -> m10.pin3",
                "null -> m2.pin3",
            ]
        );
    }
}
