//! The owned parse `VbsView::parse` replaced: every field through the
//! per-bit reader, every record copied out as it is read. The one change is
//! that the record list is not reserved up front from the untrusted 20-bit
//! count (that reservation was a bug: nine bytes could request 64 MiB);
//! values and errors are untouched.

use super::bitio::BitReader;
use vbs_arch::{ArchSpec, Coord};
use vbs_core::format::{FORMAT_VERSION, FORMAT_VERSION_CHECKED};
use vbs_core::{ClusterIo, ClusterRecord, ClusterRoutes, Connection, Vbs, VbsError};

/// `Vbs::from_bytes` as it was.
pub fn from_bytes(bytes: &[u8]) -> Result<Vbs, VbsError> {
    let mut r = BitReader::new(bytes);
    let version = r.read_bits(4)? as u8;
    match version {
        FORMAT_VERSION => parse_body(bytes),
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
            parse_body(body)
        }
        _ => Err(VbsError::Malformed {
            reason: format!("unsupported format version {version}"),
        }),
    }
}

fn parse_body(bytes: &[u8]) -> Result<Vbs, VbsError> {
    let mut r = BitReader::new(bytes);
    let _version = r.read_bits(4)?;
    let cluster_size = r.read_bits(8)? as u16;
    let lut_size = r.read_bits(4)? as u8;
    let channel_width = r.read_bits(9)? as u16;
    let width = r.read_bits(12)? as u16;
    let height = r.read_bits(12)? as u16;
    let record_count = r.read_bits(20)? as usize;
    let spec = ArchSpec::new(channel_width, lut_size).map_err(|e| VbsError::Malformed {
        reason: format!("invalid architecture in preamble: {e}"),
    })?;

    let header = Vbs::new(spec, cluster_size, width, height, Vec::new())?.header();
    let coord = header.coord_bits();
    let io = header.io_bits();
    let rc = header.route_count_bits();
    let logic_bits = header.logic_bits_per_record();
    let raw_bits = header.raw_routing_bits_per_record();

    let mut records = Vec::new();
    for _ in 0..record_count {
        let x = r.read_bits(coord)? as u16;
        let y = r.read_bits(coord)? as u16;
        let is_raw = r.read_bool()?;
        let logic = r.read_bools(logic_bits)?.into_iter().collect();
        let routes = if is_raw {
            ClusterRoutes::Raw(r.read_bools(raw_bits)?.into_iter().collect())
        } else {
            let count = r.read_bits(rc)? as usize;
            let mut connections = Vec::with_capacity(count);
            for _ in 0..count {
                let input = ClusterIo::from_index(&spec, cluster_size, r.read_bits(io)? as u32)?;
                let output = ClusterIo::from_index(&spec, cluster_size, r.read_bits(io)? as u32)?;
                connections.push(Connection { input, output });
            }
            ClusterRoutes::Coded(connections)
        };
        records.push(ClusterRecord {
            position: Coord::new(x, y),
            logic,
            routes,
        });
    }

    Vbs::new(spec, cluster_size, width, height, records)
}
