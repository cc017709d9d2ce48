//! Reading a serialized Virtual Bit-Stream where it lies.
//!
//! [`VbsView::parse`] validates a stream in one front-to-back walk over its
//! bytes — the version nibble, the CRC footer of a checked stream, the
//! preamble, then every record field by field with a word-wise cursor — and
//! allocates nothing. It accepts exactly the byte strings
//! [`Vbs::from_bytes`] accepts and rejects the rest with the same
//! [`VbsError`], because `from_bytes` *is* this walk followed by
//! [`VbsView::to_owned`]. A view then hands its records out as borrowed
//! [`RecordRef`]s, so the decoder reads each field once, in place, the way
//! the paper's controller consumes the stream.
//!
//! What the walk learned is a [`VbsLayout`]: a few words a repository keeps
//! per stored stream and turns back into a view of the same bytes in O(1)
//! ([`VbsLayout::view`]) instead of walking them again on every load.
//!
//! The decoder reads either form of a stream through [`VbsRef`]: an owned
//! [`Vbs`] or a view.

use crate::bitio::BitReader;
use crate::cluster::ClusterGrid;
use crate::error::VbsError;
use crate::format::{
    ClusterRecord, Connections, RecordRef, RoutesRef, Vbs, VbsHeader, FORMAT_VERSION,
    FORMAT_VERSION_CHECKED,
};
use crate::ClusterIo;
use vbs_arch::{ArchSpec, Coord};

/// What validating a stream found: its header, its record count and where
/// its records end. Cheap to keep and to copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VbsLayout {
    header: VbsHeader,
    records: usize,
    /// Bytes of the body (a checked stream's CRC footer excluded).
    body_len: usize,
    /// Bits the preamble and the records occupy.
    bits: u64,
}

impl VbsLayout {
    /// The stream's shape.
    pub const fn header(&self) -> VbsHeader {
        self.header
    }

    /// A view of `bytes` as this layout describes them, without walking
    /// them: O(1). For the bytes the layout was taken from, the view is
    /// the one [`VbsView::parse`] returned. Over any other bytes it reads
    /// whatever lies where the layout says the fields are — wrong records,
    /// and decode or [`VbsView::to_owned`] errors, but never a panic.
    pub fn view<'a>(&self, bytes: &'a [u8]) -> VbsView<'a> {
        VbsView {
            layout: *self,
            body: &bytes[..self.body_len.min(bytes.len())],
        }
    }
}

/// A validated Virtual Bit-Stream, borrowed where it lies in its
/// serialized bytes (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct VbsView<'a> {
    layout: VbsLayout,
    body: &'a [u8],
}

impl<'a> VbsView<'a> {
    /// Validates a stream serialized by [`Vbs::to_bytes`] or
    /// [`Vbs::to_bytes_checked`] (the version nibble selects the framing;
    /// a checked stream has its CRC-32 footer verified before any field is
    /// interpreted). Every record must lie inside the task and name only
    /// I/Os of its cluster. Allocates nothing unless it fails.
    ///
    /// # Errors
    ///
    /// [`VbsError::Malformed`] on truncated, corrupted or inconsistent
    /// input, [`VbsError::InvalidClusterSize`], [`VbsError::InvalidIo`] or
    /// [`VbsError::RecordOutOfTask`] for a field out of its range — the
    /// first failure in stream order, except that a record outside the task
    /// is reported only once the walk has reached the end. Never panics,
    /// whatever the bytes.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, VbsError> {
        let version = BitReader::new(bytes).read_bits(4)? as u8;
        let body = match version {
            FORMAT_VERSION => bytes,
            FORMAT_VERSION_CHECKED => {
                if bytes.len() < 5 {
                    return Err(VbsError::Malformed {
                        reason: "checked stream shorter than its crc footer".to_string(),
                    });
                }
                let (body, footer) = bytes.split_at(bytes.len() - 4);
                let expected = u32::from_le_bytes([footer[0], footer[1], footer[2], footer[3]]);
                let actual = vbs_bitstream::crc32(body);
                if actual != expected {
                    return Err(VbsError::Malformed {
                        reason: format!(
                            "stream checksum mismatch: footer {expected:#010x}, \
                             contents digest {actual:#010x}"
                        ),
                    });
                }
                body
            }
            _ => {
                return Err(VbsError::Malformed {
                    reason: format!("unsupported format version {version}"),
                })
            }
        };

        let mut r = BitReader::new(body);
        let _version = r.read_bits(4)?;
        let cluster_size = r.read_bits(8)? as u16;
        let lut_size = r.read_bits(4)? as u8;
        let channel_width = r.read_bits(9)? as u16;
        let width = r.read_bits(12)? as u16;
        let height = r.read_bits(12)? as u16;
        let records = r.read_bits(20)? as usize;
        let spec = ArchSpec::new(channel_width, lut_size).map_err(|e| VbsError::Malformed {
            reason: format!("invalid architecture in preamble: {e}"),
        })?;
        ClusterGrid::new(spec, cluster_size, width, height)?;
        let header = VbsHeader {
            spec,
            cluster_size,
            width,
            height,
        };

        let (cols, rows) = header.cluster_dims();
        let mut walk = Walk::new(r, header);
        let mut outside = None;
        for _ in 0..records {
            let position = walk.record(true)?.position;
            if outside.is_none() && (position.x >= cols || position.y >= rows) {
                outside = Some(position);
            }
        }
        if let Some(cluster) = outside {
            return Err(VbsError::RecordOutOfTask { cluster });
        }
        let layout = VbsLayout {
            header,
            records,
            body_len: body.len(),
            bits: walk.reader.position() as u64,
        };
        Ok(VbsView { layout, body })
    }

    /// What the validating walk found, to rebuild this view in O(1) later
    /// ([`VbsLayout::view`]).
    pub const fn layout(&self) -> VbsLayout {
        self.layout
    }

    /// The stream's shape.
    pub const fn header(&self) -> VbsHeader {
        self.layout.header
    }

    /// Number of records.
    pub const fn record_count(&self) -> usize {
        self.layout.records
    }

    /// The records, borrowed from the bytes, in stream order.
    pub fn records(&self) -> Records<'a> {
        let header = self.layout.header;
        let reader = BitReader::at(self.body, Vbs::preamble_bits());
        Records(RecordSource::Packed {
            walk: Walk::new(reader, header),
            left: self.layout.records,
        })
    }

    /// Size of the stream in bits (a checked stream's footer excluded):
    /// [`Vbs::size_bits`] of the same stream.
    pub const fn size_bits(&self) -> u64 {
        self.layout.bits
    }

    /// [`VbsView::size_bits`] in whole bytes (rounded up).
    pub const fn size_bytes(&self) -> u64 {
        self.layout.bits.div_ceil(8)
    }

    /// Copies the stream out into owned records, reserving exactly the
    /// record count the validating walk proved.
    ///
    /// # Errors
    ///
    /// None for a view [`VbsView::parse`] returned. A view built from
    /// another stream's layout fails as [`RecordRef::to_owned`] does, or
    /// with [`VbsError::RecordOutOfTask`].
    pub fn to_owned(self) -> Result<Vbs, VbsError> {
        let mut records = Vec::with_capacity(self.layout.records);
        for record in self.records() {
            records.push(record.to_owned()?);
        }
        let h = self.layout.header;
        Vbs::new(h.spec, h.cluster_size, h.width, h.height, records)
    }
}

/// A stream as the decoder reads it: an owned [`Vbs`] or a [`VbsView`] of
/// serialized bytes. Both convert into it with `From`.
#[derive(Debug, Clone, Copy)]
pub enum VbsRef<'a> {
    /// The records of an owned stream.
    Owned(&'a Vbs),
    /// The records of a validated view.
    View(VbsView<'a>),
}

impl<'a> VbsRef<'a> {
    /// The stream's shape.
    pub fn header(&self) -> VbsHeader {
        match self {
            VbsRef::Owned(vbs) => vbs.header(),
            VbsRef::View(view) => view.header(),
        }
    }

    /// Number of records.
    pub fn record_count(&self) -> usize {
        match self {
            VbsRef::Owned(vbs) => vbs.records().len(),
            VbsRef::View(view) => view.record_count(),
        }
    }

    /// The records, in stream order.
    pub fn records(&self) -> Records<'a> {
        match self {
            VbsRef::Owned(vbs) => Records(RecordSource::Owned(vbs.records().iter())),
            VbsRef::View(view) => view.records(),
        }
    }
}

impl<'a> From<&'a Vbs> for VbsRef<'a> {
    fn from(vbs: &'a Vbs) -> Self {
        VbsRef::Owned(vbs)
    }
}

impl<'a> From<VbsView<'a>> for VbsRef<'a> {
    fn from(view: VbsView<'a>) -> Self {
        VbsRef::View(view)
    }
}

/// The records of a [`VbsRef`], in stream order.
#[derive(Debug, Clone)]
pub struct Records<'a>(RecordSource<'a>);

#[derive(Debug, Clone)]
enum RecordSource<'a> {
    Owned(std::slice::Iter<'a, ClusterRecord>),
    Packed { walk: Walk<'a>, left: usize },
}

impl<'a> Iterator for Records<'a> {
    type Item = RecordRef<'a>;

    fn next(&mut self) -> Option<RecordRef<'a>> {
        match &mut self.0 {
            RecordSource::Owned(records) => records.next().map(RecordRef::from),
            RecordSource::Packed { walk, left } => {
                *left = left.checked_sub(1)?;
                // A validated stream holds every record it counts; a view
                // over bytes its layout was not taken from ends where the
                // bytes do.
                let record = walk.record(false);
                if record.is_err() {
                    *left = 0;
                }
                record.ok()
            }
        }
    }
}

/// A cursor over the records of a body, with the field widths of its
/// header.
#[derive(Debug, Clone)]
struct Walk<'a> {
    reader: BitReader<'a>,
    header: VbsHeader,
    coord: u32,
    io: u32,
    io_count: u32,
    route_count: u32,
    logic: usize,
    raw: usize,
}

impl<'a> Walk<'a> {
    fn new(reader: BitReader<'a>, header: VbsHeader) -> Self {
        Walk {
            reader,
            header,
            coord: header.coord_bits(),
            io: header.io_bits(),
            io_count: ClusterIo::io_count(&header.spec, header.cluster_size),
            route_count: header.route_count_bits(),
            logic: header.logic_bits_per_record(),
            raw: header.raw_routing_bits_per_record(),
        }
    }

    /// Reads the next record. With `check`, the connection identifiers are
    /// read one at a time and each must name an I/O of the cluster — the
    /// validating parse, which reports a truncated or out-of-range field
    /// where it lies. Without, the list is taken as one range: the records
    /// of a validated stream are handed out without reading it twice.
    fn record(&mut self, check: bool) -> Result<RecordRef<'a>, VbsError> {
        let r = &mut self.reader;
        let x = r.read_bits(self.coord)? as u16;
        let y = r.read_bits(self.coord)? as u16;
        let is_raw = r.read_bool()?;
        let logic = r.read_range(self.logic)?;
        let routes = if is_raw {
            RoutesRef::Raw(r.read_range(self.raw)?)
        } else {
            let count = r.read_bits(self.route_count)? as usize;
            if check {
                let mut fields = r.clone();
                for _ in 0..2 * count {
                    let index = fields.read_bits(self.io)? as u32;
                    if index >= self.io_count {
                        return Err(VbsError::InvalidIo {
                            index,
                            io_count: self.io_count,
                        });
                    }
                }
            }
            let bits = r.read_range(2 * count * self.io as usize)?;
            RoutesRef::Coded(Connections::packed(bits, count, &self.header))
        };
        Ok(RecordRef {
            position: Coord::new(x, y),
            logic,
            routes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::PackedBits;
    use crate::format::{ClusterRoutes, Connection};
    use vbs_arch::Side;

    fn sample() -> Vbs {
        let spec = ArchSpec::paper_example();
        let logic = spec.lb_config_bits();
        let records = vec![
            ClusterRecord {
                position: Coord::new(1, 0),
                logic: (0..logic).map(|i| i % 5 == 1).collect(),
                routes: ClusterRoutes::Coded(vec![Connection {
                    input: ClusterIo::Boundary {
                        side: Side::West,
                        offset: 3,
                    },
                    output: ClusterIo::Pin { local: 0, pin: 2 },
                }]),
            },
            ClusterRecord {
                position: Coord::new(0, 2),
                logic: PackedBits::zeros(logic),
                routes: ClusterRoutes::Raw(
                    (0..spec.raw_bits_per_macro() - logic)
                        .map(|i| i % 9 == 0)
                        .collect(),
                ),
            },
        ];
        Vbs::new(spec, 1, 3, 3, records).unwrap()
    }

    #[test]
    fn a_view_reads_the_records_an_owned_parse_copies() {
        let vbs = sample();
        for bytes in [vbs.to_bytes(), vbs.to_bytes_checked()] {
            let view = VbsView::parse(&bytes).unwrap();
            assert_eq!(view.header(), vbs.header());
            assert_eq!(view.record_count(), 2);
            assert_eq!(view.size_bits(), vbs.size_bits());
            assert_eq!(view.to_owned().unwrap(), vbs);
            let rebuilt = view.layout().view(&bytes);
            assert_eq!(rebuilt.to_owned().unwrap(), vbs);
        }
    }
}
