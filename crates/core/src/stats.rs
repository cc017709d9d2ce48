//! Size and composition statistics of a Virtual Bit-Stream.

use crate::format::{ClusterRoutes, Vbs};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Summary of a Virtual Bit-Stream's composition, used by the experiment
/// harnesses to report the Figure 4 / Figure 5 numbers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VbsStats {
    /// Cluster size `k` of the coding.
    pub cluster_size: u16,
    /// Number of records (occupied clusters).
    pub records: usize,
    /// Number of records using the connection-list coding.
    pub coded_records: usize,
    /// Number of records that fell back to raw coding.
    pub raw_records: usize,
    /// Total number of coded connections.
    pub connections: usize,
    /// Serialized VBS size in bits.
    pub vbs_bits: u64,
    /// Raw bit-stream size of the same task in bits.
    pub raw_bits: u64,
}

impl VbsStats {
    /// Computes the statistics of `vbs` against the raw size of the same task
    /// (`width · height · N_raw` bits).
    pub fn of(vbs: &Vbs) -> Self {
        let raw_bits =
            vbs.width() as u64 * vbs.height() as u64 * vbs.spec().raw_bits_per_macro() as u64;
        let mut coded_records = 0;
        let mut raw_records = 0;
        let mut connections = 0;
        for record in vbs.records() {
            match &record.routes {
                ClusterRoutes::Coded(c) => {
                    coded_records += 1;
                    connections += c.len();
                }
                ClusterRoutes::Raw(_) => raw_records += 1,
            }
        }
        VbsStats {
            cluster_size: vbs.cluster_size(),
            records: vbs.records().len(),
            coded_records,
            raw_records,
            connections,
            vbs_bits: vbs.size_bits(),
            raw_bits,
        }
    }

    /// Compression ratio `VBS size / raw size` (the percentage of Figures 4
    /// and 5; smaller is better).
    pub fn ratio(&self) -> f64 {
        self.vbs_bits as f64 / self.raw_bits as f64
    }

    /// Compression factor `raw size / VBS size` (the "2.5×" / "10×" numbers
    /// quoted in the paper's abstract and conclusion).
    pub fn factor(&self) -> f64 {
        self.raw_bits as f64 / self.vbs_bits as f64
    }
}

impl fmt::Display for VbsStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "k={}: {} records ({} coded, {} raw), {} connections, {} bits ({:.1}% of raw, {:.2}x)",
            self.cluster_size,
            self.records,
            self.coded_records,
            self.raw_records,
            self.connections,
            self.vbs_bits,
            100.0 * self.ratio(),
            self.factor()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::PackedBits;
    use crate::cluster::ClusterIo;
    use crate::format::{ClusterRecord, Connection};
    use vbs_arch::{ArchSpec, Coord, Side};

    #[test]
    fn stats_count_records_and_connections() {
        let spec = ArchSpec::paper_example();
        let records = vec![
            ClusterRecord {
                position: Coord::new(0, 0),
                logic: PackedBits::zeros(spec.lb_config_bits()),
                routes: ClusterRoutes::Coded(vec![Connection {
                    input: ClusterIo::Boundary {
                        side: Side::West,
                        offset: 0,
                    },
                    output: ClusterIo::Boundary {
                        side: Side::East,
                        offset: 0,
                    },
                }]),
            },
            ClusterRecord {
                position: Coord::new(1, 0),
                logic: PackedBits::zeros(spec.lb_config_bits()),
                routes: ClusterRoutes::Raw(PackedBits::zeros(
                    spec.raw_bits_per_macro() - spec.lb_config_bits(),
                )),
            },
        ];
        let vbs = Vbs::new(spec, 1, 3, 3, records).unwrap();
        let stats = VbsStats::of(&vbs);
        assert_eq!(stats.records, 2);
        assert_eq!(stats.coded_records, 1);
        assert_eq!(stats.raw_records, 1);
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.raw_bits, 9 * 284);
        assert!(stats.ratio() < 1.0);
        assert!(stats.factor() > 1.0);
        assert!(stats.to_string().contains("k=1"));
    }
}
