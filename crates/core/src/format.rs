//! The Virtual Bit-Stream binary format (Table I of the paper).
//!
//! A VBS is a header followed by one record per *occupied* cluster (a cluster
//! with at least one route or one configured logic block); empty clusters are
//! simply absent, which is where most of the compression of sparse regions
//! comes from. Every field is bit-packed:
//!
//! | field | width |
//! |---|---|
//! | preamble (version, `k`, `K`, `W`, task width/height, record count) | 69 bits, fixed |
//! | per record: position X, Y (cluster units) | `⌈log2(max(cols, rows))⌉` each |
//! | per record: coding mode | 1 bit (`0` = connection list, `1` = raw fallback) |
//! | per record: logic data | `k² · N_LB` bits |
//! | coded records: route count | `⌈log2(2·W·k²)⌉` bits |
//! | coded records: connections | `2 · M_k` bits each |
//! | raw records: routing sections of the `k²` frames | `k² · (N_raw − N_LB)` bits |
//!
//! Differences with the literal Table I are limited to the fixed preamble
//! (the paper leaves the architecture parameters implicit) and the explicit
//! mode bit for the raw-macro fallback the paper describes in Section III-B.
//! The preamble lets a stream be parsed without knowing its architecture in
//! advance, and the mode bit is the one bit that tells a decoder which of the
//! two record bodies follows; together they cost a handful of bits per task.
//!
//! Two forms of a stream share one record shape. An owned [`Vbs`] is what
//! the encoder produces and [`Vbs::to_bytes`] serializes; its payloads are
//! [`PackedBits`] in stream order. A [`crate::VbsView`] reads the same
//! records where they lie in the serialized bytes. Either way the decoder
//! sees each record as a [`RecordRef`]: the logic and raw payloads as
//! [`BitRange`]s, the connection list as [`Connections`].

use crate::bitio::{BitRange, BitWriter, PackedBits};
use crate::cluster::{ClusterGrid, ClusterIo};
use crate::error::VbsError;
use crate::view::VbsView;
use serde::{Deserialize, Serialize};
use vbs_arch::{ceil_log2, ArchSpec, Coord};

/// Format version written in the preamble.
pub const FORMAT_VERSION: u8 = 1;

/// Format version of the checksummed framing ([`Vbs::to_bytes_checked`]):
/// the version-1 body followed by a CRC-32 footer over every preceding
/// byte. [`Vbs::from_bytes`] accepts both versions.
pub const FORMAT_VERSION_CHECKED: u8 = 2;

/// One coded connection: the signal enters the cluster at `input` and must
/// reach `output`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Connection {
    /// Where the signal enters (a boundary crossing or a driving pin).
    pub input: ClusterIo,
    /// Where the signal must be delivered.
    pub output: ClusterIo,
}

impl std::fmt::Display for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} -> {}", self.input, self.output)
    }
}

/// The routing part of a cluster record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ClusterRoutes {
    /// The abstract connection list (the normal, compressed case).
    Coded(Vec<Connection>),
    /// Raw fallback: the routing sections of the cluster's frames, verbatim
    /// (`k² · (N_raw − N_LB)` bits). Used when the feedback loop cannot find
    /// a decodable connection list or when the list would be larger than the
    /// raw coding.
    Raw(PackedBits),
}

impl ClusterRoutes {
    /// Number of coded connections (zero for raw records).
    pub fn route_count(&self) -> usize {
        match self {
            ClusterRoutes::Coded(c) => c.len(),
            ClusterRoutes::Raw(_) => 0,
        }
    }

    /// Whether this record uses the raw fallback.
    pub fn is_raw(&self) -> bool {
        matches!(self, ClusterRoutes::Raw(_))
    }
}

/// One record of the VBS: the configuration of one occupied cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterRecord {
    /// Cluster position within the task, in cluster units.
    pub position: Coord,
    /// Logic data of the `k²` macros (row-major local order), `N_LB` bits
    /// each.
    pub logic: PackedBits,
    /// Routing description.
    pub routes: ClusterRoutes,
}

/// A record as the decoder reads it, borrowed from an owned
/// [`ClusterRecord`] or from the bytes of a [`crate::VbsView`].
#[derive(Debug, Clone, Copy)]
pub struct RecordRef<'a> {
    /// Cluster position within the task, in cluster units.
    pub position: Coord,
    /// Logic data of the `k²` macros (row-major local order), `N_LB` bits
    /// each.
    pub logic: BitRange<'a>,
    /// Routing description.
    pub routes: RoutesRef<'a>,
}

/// The routing part of a [`RecordRef`].
#[derive(Debug, Clone, Copy)]
pub enum RoutesRef<'a> {
    /// The connection list.
    Coded(Connections<'a>),
    /// The raw routing sections of the cluster's frames.
    Raw(BitRange<'a>),
}

/// A borrowed connection list: an owned `[Connection]` or the packed
/// `2 · M_k`-bit identifier pairs of a serialized record.
#[derive(Debug, Clone, Copy)]
pub struct Connections<'a>(ConnectionSource<'a>);

#[derive(Debug, Clone, Copy)]
enum ConnectionSource<'a> {
    Owned(&'a [Connection]),
    Packed(PackedConnections<'a>),
}

/// `count` identifier pairs of `io_bits` each, at the start of `bits`.
#[derive(Debug, Clone, Copy)]
struct PackedConnections<'a> {
    bits: BitRange<'a>,
    count: usize,
    io_bits: u32,
    spec: ArchSpec,
    cluster_size: u16,
}

impl PackedConnections<'_> {
    /// The raw I/O indices of connection `i`, input first: one word read
    /// (an identifier is at most 32 bits wide).
    fn indices(&self, i: usize) -> (u32, u32) {
        let io = self.io_bits;
        let pair = self.bits.word(2 * i * io as usize, 2 * io);
        ((pair & ((1 << io) - 1)) as u32, (pair >> io) as u32)
    }

    /// Connection `i`, both identifiers checked against the I/O count.
    fn get(&self, i: usize) -> Result<Connection, VbsError> {
        let (input, output) = self.indices(i);
        let io = |index| ClusterIo::from_index(&self.spec, self.cluster_size, index);
        Ok(Connection {
            input: io(input)?,
            output: io(output)?,
        })
    }
}

impl<'a> Connections<'a> {
    /// `count` packed identifier pairs of `io_bits` each, at the start of
    /// `bits`.
    pub(crate) fn packed(bits: BitRange<'a>, count: usize, header: &VbsHeader) -> Self {
        Connections(ConnectionSource::Packed(PackedConnections {
            bits,
            count,
            io_bits: header.io_bits(),
            spec: header.spec,
            cluster_size: header.cluster_size,
        }))
    }

    /// Number of connections.
    pub fn len(&self) -> usize {
        match self.0 {
            ConnectionSource::Owned(list) => list.len(),
            ConnectionSource::Packed(packed) => packed.count,
        }
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The connections, in stream order. A packed identifier outside the
    /// cluster's I/O range — only a view built from another stream's layout
    /// can hold one — yields [`VbsError::InvalidIo`].
    pub fn iter(&self) -> impl Iterator<Item = Result<Connection, VbsError>> + 'a {
        let list = *self;
        (0..self.len()).map(move |i| list.get(i))
    }

    /// Connection `i` (see [`Connections::iter`]).
    pub(crate) fn get(&self, i: usize) -> Result<Connection, VbsError> {
        match self.0 {
            ConnectionSource::Owned(list) => Ok(list[i]),
            ConnectionSource::Packed(packed) => packed.get(i),
        }
    }

    /// The I/O indices of connection `i` for a cluster of size `k` of
    /// `spec`, input first: read straight from a packed list, computed for
    /// an owned one — where an I/O with a field out of range has none.
    pub(crate) fn indices(&self, i: usize, spec: &ArchSpec, k: u16) -> (Option<u32>, Option<u32>) {
        match self.0 {
            ConnectionSource::Owned(list) => (
                list[i].input.checked_index(spec, k),
                list[i].output.checked_index(spec, k),
            ),
            ConnectionSource::Packed(packed) => {
                let (input, output) = packed.indices(i);
                (Some(input), Some(output))
            }
        }
    }
}

impl<'a> From<&'a [Connection]> for Connections<'a> {
    fn from(list: &'a [Connection]) -> Self {
        Connections(ConnectionSource::Owned(list))
    }
}

impl<'a> From<&'a ClusterRecord> for RecordRef<'a> {
    fn from(record: &'a ClusterRecord) -> Self {
        RecordRef {
            position: record.position,
            logic: record.logic.as_range(),
            routes: match &record.routes {
                ClusterRoutes::Coded(list) => RoutesRef::Coded(list.as_slice().into()),
                ClusterRoutes::Raw(raw) => RoutesRef::Raw(raw.as_range()),
            },
        }
    }
}

impl RecordRef<'_> {
    /// Copies the record out: the payloads a word at a time, the
    /// connection list into exactly the room it needs.
    ///
    /// # Errors
    ///
    /// Returns [`VbsError::InvalidIo`] for a packed identifier outside the
    /// cluster's I/O range (see [`Connections::iter`]).
    pub fn to_owned(self) -> Result<ClusterRecord, VbsError> {
        let routes = match self.routes {
            RoutesRef::Coded(list) => {
                let mut connections = Vec::with_capacity(list.len());
                for connection in list.iter() {
                    connections.push(connection?);
                }
                ClusterRoutes::Coded(connections)
            }
            RoutesRef::Raw(raw) => ClusterRoutes::Raw(raw.into()),
        };
        Ok(ClusterRecord {
            position: self.position,
            logic: self.logic.into(),
            routes,
        })
    }
}

/// A complete Virtual Bit-Stream: the relocatable, compressed configuration
/// of one hardware task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Vbs {
    spec: ArchSpec,
    cluster_size: u16,
    width: u16,
    height: u16,
    records: Vec<ClusterRecord>,
}

/// The shape of a [`Vbs`] without its records: everything placement and a
/// decode-cache lookup need, small enough to keep per stored stream, and
/// the widths of every record field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VbsHeader {
    /// The architecture the stream targets.
    pub spec: ArchSpec,
    /// Cluster size `k` used by the coding.
    pub cluster_size: u16,
    /// Task width in macros.
    pub width: u16,
    /// Task height in macros.
    pub height: u16,
}

impl VbsHeader {
    /// Number of cluster columns and rows of the task.
    pub(crate) fn cluster_dims(&self) -> (u16, u16) {
        let k = self.cluster_size.max(1);
        (self.width.div_ceil(k), self.height.div_ceil(k))
    }

    /// Width of the position fields: `⌈log2(max(cols, rows))⌉`, at least 1.
    pub fn coord_bits(&self) -> u32 {
        let (cols, rows) = self.cluster_dims();
        ceil_log2(u32::from(cols.max(rows))).max(1)
    }

    /// Width of the route-count field: `⌈log2(2·W·k²)⌉`, the generalization
    /// of Table I's `⌈log2(2W)⌉` to clusters.
    pub fn route_count_bits(&self) -> u32 {
        let k = u32::from(self.cluster_size);
        ceil_log2(2 * u32::from(self.spec.channel_width()) * k * k).max(1)
    }

    /// Maximum number of connections a coded record can hold.
    pub fn max_routes_per_record(&self) -> usize {
        (1usize << self.route_count_bits()) - 1
    }

    /// Width of one I/O identifier (`M` for `k = 1`).
    pub fn io_bits(&self) -> u32 {
        ClusterIo::io_bits(&self.spec, self.cluster_size)
    }

    /// Number of logic-data bits per record (`k² · N_LB`).
    pub fn logic_bits_per_record(&self) -> usize {
        let k = self.cluster_size as usize;
        k * k * self.spec.lb_config_bits()
    }

    /// Number of raw routing bits per record (`k² · (N_raw − N_LB)`).
    pub fn raw_routing_bits_per_record(&self) -> usize {
        let k = self.cluster_size as usize;
        k * k * (self.spec.raw_bits_per_macro() - self.spec.lb_config_bits())
    }
}

impl Vbs {
    /// The stream's shape (see [`VbsHeader`]).
    pub const fn header(&self) -> VbsHeader {
        VbsHeader {
            spec: self.spec,
            cluster_size: self.cluster_size,
            width: self.width,
            height: self.height,
        }
    }

    /// Assembles a VBS from its parts. Intended for the encoder; most users
    /// obtain a [`Vbs`] from [`crate::VbsEncoder::encode`] or
    /// [`Vbs::from_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`VbsError::Arch`] for a zero-area task, and
    /// [`VbsError::InvalidClusterSize`] or [`VbsError::RecordOutOfTask`]
    /// when the parts are inconsistent.
    pub fn new(
        spec: ArchSpec,
        cluster_size: u16,
        width: u16,
        height: u16,
        records: Vec<ClusterRecord>,
    ) -> Result<Self, VbsError> {
        let grid = ClusterGrid::new(spec, cluster_size, width, height)?;
        for record in &records {
            if record.position.x >= grid.cluster_cols() || record.position.y >= grid.cluster_rows()
            {
                return Err(VbsError::RecordOutOfTask {
                    cluster: record.position,
                });
            }
        }
        Ok(Vbs {
            spec,
            cluster_size,
            width,
            height,
            records,
        })
    }

    /// The architecture the stream targets.
    pub const fn spec(&self) -> &ArchSpec {
        &self.spec
    }

    /// Cluster size `k` used by the coding.
    pub const fn cluster_size(&self) -> u16 {
        self.cluster_size
    }

    /// Task width in macros (Table I's "task width").
    pub const fn width(&self) -> u16 {
        self.width
    }

    /// Task height in macros.
    pub const fn height(&self) -> u16 {
        self.height
    }

    /// The records, one per occupied cluster.
    pub fn records(&self) -> &[ClusterRecord] {
        &self.records
    }

    /// The cluster tiling of the task.
    pub fn grid(&self) -> ClusterGrid {
        ClusterGrid::new(self.spec, self.cluster_size, self.width, self.height)
            .expect("validated at construction")
    }

    /// Size of the fixed preamble in bits.
    pub const fn preamble_bits() -> usize {
        4 + 8 + 4 + 9 + 12 + 12 + 20
    }

    /// Total size of the serialized stream, in bits.
    pub fn size_bits(&self) -> u64 {
        let header = self.header();
        let mut bits = Self::preamble_bits() as u64;
        let coord = header.coord_bits() as u64;
        let io = header.io_bits() as u64;
        let rc = header.route_count_bits() as u64;
        let logic = header.logic_bits_per_record() as u64;
        for record in &self.records {
            bits += 2 * coord + 1 + logic;
            bits += match &record.routes {
                ClusterRoutes::Coded(connections) => rc + 2 * io * connections.len() as u64,
                ClusterRoutes::Raw(raw) => raw.len() as u64,
            };
        }
        bits
    }

    /// Total size of the serialized stream, in whole bytes (rounded up).
    pub fn size_bytes(&self) -> u64 {
        self.size_bits().div_ceil(8)
    }

    /// Compression ratio against a raw bit-stream of `raw_bits` bits
    /// (`VBS size / raw size`, the percentage plotted in Figures 4 and 5).
    #[cfg(test)]
    fn compression_ratio(&self, raw_bits: u64) -> f64 {
        self.size_bits() as f64 / raw_bits as f64
    }

    /// Serializes the stream to bytes (format version 1, no checksum).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.body_bytes(FORMAT_VERSION)
    }

    /// Serializes the stream with the checksummed framing (format version
    /// 2): the same bit-packed body, followed by a little-endian CRC-32
    /// footer over every preceding byte. [`Vbs::from_bytes`] verifies the
    /// footer before parsing, so any corruption of a checked stream is
    /// rejected instead of decoding into a different task.
    pub fn to_bytes_checked(&self) -> Vec<u8> {
        let mut bytes = self.body_bytes(FORMAT_VERSION_CHECKED);
        let crc = vbs_bitstream::crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }

    fn body_bytes(&self, version: u8) -> Vec<u8> {
        let mut w = BitWriter::new();
        w.write_bits(version as u64, 4);
        w.write_bits(self.cluster_size as u64, 8);
        w.write_bits(self.spec.lut_size() as u64, 4);
        w.write_bits(self.spec.channel_width() as u64, 9);
        w.write_bits(self.width as u64, 12);
        w.write_bits(self.height as u64, 12);
        w.write_bits(self.records.len() as u64, 20);

        let header = self.header();
        let coord = header.coord_bits();
        let io = header.io_bits();
        let rc = header.route_count_bits();
        for record in &self.records {
            w.write_bits(record.position.x as u64, coord);
            w.write_bits(record.position.y as u64, coord);
            w.write_bits(u64::from(record.routes.is_raw()), 1);
            debug_assert_eq!(record.logic.len(), header.logic_bits_per_record());
            w.write_range(record.logic.as_range());
            match &record.routes {
                ClusterRoutes::Coded(connections) => {
                    w.write_bits(connections.len() as u64, rc);
                    for c in connections {
                        w.write_bits(c.input.index(&self.spec, self.cluster_size) as u64, io);
                        w.write_bits(c.output.index(&self.spec, self.cluster_size) as u64, io);
                    }
                }
                ClusterRoutes::Raw(raw) => {
                    debug_assert_eq!(raw.len(), header.raw_routing_bits_per_record());
                    w.write_range(raw.as_range());
                }
            }
        }
        w.into_bytes()
    }

    /// Parses a stream serialized by [`Vbs::to_bytes`] or
    /// [`Vbs::to_bytes_checked`] into owned records: the validating walk of
    /// [`VbsView::parse`], then a copy of what it found.
    ///
    /// # Errors
    ///
    /// Returns [`VbsError::Malformed`] on truncated, corrupted or
    /// inconsistent input (see [`VbsView::parse`]). Never panics, whatever
    /// the bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, VbsError> {
        VbsView::parse(bytes)?.to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbs_arch::Side;

    fn spec() -> ArchSpec {
        ArchSpec::paper_example()
    }

    fn sample_vbs() -> Vbs {
        let s = spec();
        let logic_bits = s.lb_config_bits();
        let records = vec![
            ClusterRecord {
                position: Coord::new(0, 0),
                logic: PackedBits::zeros(logic_bits),
                routes: ClusterRoutes::Coded(vec![
                    Connection {
                        input: ClusterIo::Pin { local: 0, pin: 6 },
                        output: ClusterIo::Boundary {
                            side: Side::East,
                            offset: 2,
                        },
                    },
                    Connection {
                        input: ClusterIo::Boundary {
                            side: Side::West,
                            offset: 1,
                        },
                        output: ClusterIo::Pin { local: 0, pin: 0 },
                    },
                ]),
            },
            ClusterRecord {
                position: Coord::new(2, 3),
                logic: (0..logic_bits).map(|i| i % 7 == 0).collect(),
                routes: ClusterRoutes::Raw(
                    std::iter::repeat_n(true, s.raw_bits_per_macro() - logic_bits).collect(),
                ),
            },
        ];
        Vbs::new(s, 1, 4, 4, records).unwrap()
    }

    #[test]
    fn field_widths_match_table_1() {
        let v = sample_vbs().header();
        // W = 5, L = 7: M = 5 bits, route count on ceil(log2(10)) = 4 bits.
        assert_eq!(v.io_bits(), 5);
        assert_eq!(v.route_count_bits(), 4);
        assert_eq!(v.coord_bits(), 2);
        assert_eq!(v.logic_bits_per_record(), 65);
        assert_eq!(v.raw_routing_bits_per_record(), 284 - 65);
    }

    /// A one-macro task's header at `k = 1`.
    fn macro_header(spec: ArchSpec) -> VbsHeader {
        VbsHeader {
            spec,
            cluster_size: 1,
            width: 1,
            height: 1,
        }
    }

    #[test]
    fn route_count_field_width_matches_table1() {
        // Table I: route count on ceil(log2(2W)) bits (2W = 10 and 40), and
        // M = ceil(log2(4W + L + 1)) (28 identifiers at W = 5, 88 at W = 20).
        let example = macro_header(ArchSpec::paper_example());
        let evaluation = macro_header(ArchSpec::paper_evaluation());
        assert_eq!(example.route_count_bits(), 4);
        assert_eq!(evaluation.route_count_bits(), 6);
        assert_eq!(example.io_bits(), 5);
        assert_eq!(evaluation.io_bits(), 7);
    }

    #[test]
    fn break_even_matches_section_ii() {
        // Section II-B: a W = 5 macro holds up to floor(N_raw / 2M) =
        // floor(284 / 10) = 28 coded connections before the list stops
        // being smaller than the raw frame.
        let header = macro_header(ArchSpec::paper_example());
        let n_raw = header.spec.raw_bits_per_macro();
        assert_eq!(n_raw / (2 * header.io_bits() as usize), 28);
    }

    #[test]
    fn size_accounting_matches_serialized_length() {
        let v = sample_vbs();
        let bytes = v.to_bytes();
        let bits = v.size_bits();
        assert_eq!(bytes.len(), (bits as usize).div_ceil(8));
    }

    #[test]
    fn byte_roundtrip_preserves_everything() {
        let v = sample_vbs();
        let bytes = v.to_bytes();
        let back = Vbs::from_bytes(&bytes).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn truncated_streams_are_rejected() {
        let v = sample_vbs();
        let bytes = v.to_bytes();
        for cut in [0, 4, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                Vbs::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} bytes must fail"
            );
        }
    }

    #[test]
    fn corrupted_version_is_rejected() {
        let v = sample_vbs();
        let mut bytes = v.to_bytes();
        bytes[0] ^= 0x0f;
        assert!(matches!(
            Vbs::from_bytes(&bytes),
            Err(VbsError::Malformed { .. })
        ));
    }

    #[test]
    fn checked_roundtrip_preserves_everything() {
        let v = sample_vbs();
        let bytes = v.to_bytes_checked();
        // 4 bits of version difference inside the body, 4 footer bytes.
        assert_eq!(bytes.len(), v.to_bytes().len() + 4);
        assert_eq!(Vbs::from_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn checked_streams_reject_any_bit_flip() {
        let v = sample_vbs();
        let bytes = v.to_bytes_checked();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut mutated = bytes.clone();
                mutated[i] ^= 1 << bit;
                match Vbs::from_bytes(&mutated) {
                    Err(_) => {}
                    // The only acceptable Ok is a bit-identical image.
                    Ok(back) => assert_eq!(back, v, "byte {i} bit {bit} decoded differently"),
                }
            }
        }
    }

    #[test]
    fn checked_streams_reject_truncation() {
        let v = sample_vbs();
        let bytes = v.to_bytes_checked();
        for cut in 0..bytes.len() {
            assert!(
                Vbs::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} bytes must fail"
            );
        }
    }

    #[test]
    fn records_outside_the_task_are_rejected() {
        let s = spec();
        let record = ClusterRecord {
            position: Coord::new(9, 0),
            logic: PackedBits::zeros(s.lb_config_bits()),
            routes: ClusterRoutes::Coded(Vec::new()),
        };
        assert!(matches!(
            Vbs::new(s, 1, 4, 4, vec![record]),
            Err(VbsError::RecordOutOfTask { .. })
        ));
    }

    #[test]
    fn compression_ratio_is_size_over_raw() {
        let v = sample_vbs();
        let raw = 16 * spec().raw_bits_per_macro() as u64;
        let ratio = v.compression_ratio(raw);
        assert!(ratio > 0.0 && ratio < 1.0);
        assert!((ratio - v.size_bits() as f64 / raw as f64).abs() < 1e-12);
    }
}
