//! The pattern decoder against the whole-task reference search, record by
//! record and bit for bit.
//!
//! `Devirtualizer::decode_record_with` expands a record among the few dozen
//! nodes of its cluster's pattern and skips the search when one switch joins
//! the endpoints; `oracle::decode_record` runs the original Dijkstra over
//! the routing-resource graph of the whole task with nothing cached. After
//! every record the two must agree on the frames (word for word, including
//! what a failing record programmed before it failed), and on failure on
//! the error variant and its message. Inputs:
//!
//! * the nine checked-in corpus streams;
//! * every corpus circuit re-compiled through the CAD flow at cluster sizes
//!   1..=4 (7- and 9-wide grids: cut clusters of every remainder, clusters
//!   on all four task edges);
//! * the bit-flip mutation corpus of `corrupt_decode.rs`;
//! * seeded random connection lists on 1×1..3×3 clusters at interior, edge,
//!   corner and cut positions, where nets collide, fanout merges, boundary
//!   detours are taken and paths run out.
//!
//! At cluster size 1 the decoder settles a connection with one read of a
//! hop table indexed by its raw identifier pair, so one more pass decodes
//! a one-connection record for *every* `2·M`-bit pair value — null and
//! out-of-range identifiers included — at an interior, a column-0, a
//! row-0 and a corner cluster, on three architectures, from the packed
//! bytes and as an owned record.
//!
//! One more pass over the corpus streams and recompiles decodes each
//! stream's records in seeded random orders and requires the in-order
//! image: records are independent (Section II-C of the paper).
//!
//! The decoder resolves net groups only when a search reads them, so the
//! corpus streams (k = 1), the recompiles at every k and the random lists
//! are also decoded whole through `decode_into` and compared with their
//! record-by-record decode: same image, same result, same route counts.
//! Every k = 1 corpus stream decodes with no search at all.
//!
//! The proptest shim does not shrink, so a failing case prints its seed and
//! record.

mod oracle;

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use vbs_arch::{ArchSpec, Coord, Device};
use vbs_bitstream::TaskBitstream;
use vbs_core::{
    ClusterIo, ClusterRecord, ClusterRoutes, Connection, DecodeScratch, Devirtualizer, PackedBits,
    RoutesRef, Vbs, VbsError, VbsView,
};
use vbs_flow::{CadFlow, FlowResult};
use vbs_netlist::{blif, mcnc};

/// What a differential pass saw, for the coverage assertions.
#[derive(Debug, Default)]
struct Seen {
    records: usize,
    ok: usize,
    no_path: usize,
    dangling: usize,
    /// Records whose expansion claimed a boundary wire no endpoint names:
    /// the 6.0-cost detour.
    detours: usize,
}

/// Decodes every record of `vbs` both ways into two images and compares
/// after each one. `scratch` is the caller's so that it carries patterns
/// (and route counts) from stream to stream like a pooled scratch does.
fn compare(vbs: &Vbs, scratch: &mut DecodeScratch, label: &str, seen: &mut Seen) {
    let devirt = Devirtualizer::new(vbs).expect("task geometry");
    let (w, h) = (vbs.width().max(1), vbs.height().max(1));
    let mut decoded = TaskBitstream::empty(*vbs.spec(), w, h);
    let mut expected = TaskBitstream::empty(*vbs.spec(), w, h);
    let grid = vbs.grid();
    for (index, record) in vbs.records().iter().enumerate() {
        let context = || format!("{label}: record {index} {record:?}");
        let reference = oracle::decode_record(vbs, record, &mut expected);
        let result = devirt.decode_record_with(record, &mut decoded, scratch);
        match (&result, &reference) {
            (Ok(()), Ok(claimed)) => {
                seen.ok += 1;
                if let ClusterRoutes::Coded(connections) = &record.routes {
                    let named = |io| connections.iter().any(|c| c.input == io || c.output == io);
                    let detour = claimed.iter().any(|&wire| {
                        grid.wire_io(record.position, wire)
                            .is_some_and(|io| !named(io))
                    });
                    seen.detours += usize::from(detour);
                }
            }
            (Err(error), Err(expected)) => {
                assert_eq!(error, expected, "{}", context());
                assert_eq!(error.to_string(), expected.to_string());
                seen.no_path += usize::from(matches!(error, VbsError::DecodeNoPath { .. }));
                seen.dangling += usize::from(matches!(error, VbsError::DanglingBoundary { .. }));
            }
            _ => panic!("{}: decoder {result:?}, oracle {reference:?}", context()),
        }
        assert!(
            decoded.store().words() == expected.store().words(),
            "{}: frames differ in {} bits",
            context(),
            decoded.diff_count(&expected).expect("same shape")
        );
        seen.records += 1;
    }
}

/// Decodes `vbs` whole through `decode_into` and record by record through
/// `decode_record_with`, each on a fresh scratch. The two must agree on
/// the result, on the image word for word (up to the first failing record)
/// and on the route counts, which are returned.
fn compare_paths(vbs: &Vbs, label: &str) -> (u64, u64) {
    let devirt = Devirtualizer::new(vbs).expect("task geometry");
    let (mut whole, mut scratch) = (
        TaskBitstream::empty(*vbs.spec(), 1, 1),
        DecodeScratch::new(),
    );
    let result = devirt.decode_into(&mut whole, &mut scratch);

    let mut by_record = TaskBitstream::empty(*vbs.spec(), vbs.width(), vbs.height());
    let mut per_record = DecodeScratch::new();
    let expected = vbs
        .records()
        .iter()
        .try_for_each(|record| devirt.decode_record_with(record, &mut by_record, &mut per_record));
    assert_eq!(result, expected, "{label}");
    assert!(
        whole.store().words() == by_record.store().words(),
        "{label}: decode_into differs from the record decodes in {} bits",
        whole.diff_count(&by_record).expect("same shape")
    );
    assert_eq!(scratch.route_counts(), per_record.route_counts(), "{label}");
    scratch.route_counts()
}

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/traces/mcnc")
}

/// `(name, width, height)` of every `task` line of the corpus manifest
/// (`task <name> <file> <width> <height> <luts>`).
fn corpus_tasks() -> Vec<(String, u16, u16)> {
    let manifest = std::fs::read_to_string(corpus_dir().join("manifest.txt")).expect("manifest");
    manifest
        .lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            (fields.first() == Some(&"task")).then(|| {
                let edge = |i: usize| fields[i].parse().expect("task edge");
                (fields[1].to_string(), edge(3), edge(4))
            })
        })
        .collect()
}

fn corpus_stream(name: &str) -> Vec<u8> {
    std::fs::read(corpus_dir().join(format!("{name}.vbs"))).expect("corpus stream")
}

#[test]
fn corpus_streams_decode_identically_and_never_search() {
    let mut scratch = DecodeScratch::new();
    let mut seen = Seen::default();
    let tasks = corpus_tasks();
    assert_eq!(tasks.len(), 9);
    for (name, ..) in &tasks {
        let vbs = Vbs::from_bytes(&corpus_stream(name)).expect("corpus streams parse");
        compare(&vbs, &mut scratch, name, &mut seen);
        let (routes, searches) = compare_paths(&vbs, name);
        assert!(
            routes > 0 && searches == 0,
            "{name}: {routes} routes, {searches} searches"
        );
    }
    assert_eq!(seen.ok, seen.records, "every corpus record decodes");
    // Exact evidence for the fast path: at cluster size 1 every coded
    // route of the corpus is a single switch.
    assert_eq!(scratch.route_counts(), (5660, 0));
}

/// Places and routes a corpus circuit from its checked-in `.blif` exactly as
/// the corpus was built, so `vbs(1)` reproduces the checked-in stream.
fn recompile(name: &str, width: u16, height: u16) -> FlowResult {
    let text = std::fs::read_to_string(corpus_dir().join(format!("{name}.blif"))).unwrap();
    let netlist = blif::parse(&text, 6).expect("corpus blif parses");
    let base = name.split('@').next().unwrap();
    CadFlow::new(10, 6)
        .expect("flow")
        .with_grid(width, height)
        .with_seed(mcnc::by_name(base).expect("table ii circuit").seed())
        .fast()
        .run(&netlist)
        .expect("corpus circuits route")
}

#[test]
fn recompiled_corpus_circuits_decode_identically_at_every_cluster_size() {
    let mut seen = Seen::default();
    let mut alu4_k2 = (0, 0);
    for (name, width, height) in corpus_tasks() {
        let result = recompile(&name, width, height);
        for k in 1..=4 {
            let vbs = result.vbs(k).expect("encode");
            let mut scratch = DecodeScratch::new();
            compare(&vbs, &mut scratch, &format!("{name} k={k}"), &mut seen);
            compare_paths(&vbs, &format!("{name} k={k}"));
            if (name.as_str(), k) == ("alu4", 2) {
                alu4_k2 = scratch.route_counts();
            }
        }
    }
    assert_eq!(
        seen.ok, seen.records,
        "the encoder only emits decodable records"
    );
    // Past cluster size 1 some routes cross interior wires: the search
    // stays, it just stops being the common case.
    let (routes, searches) = alu4_k2;
    assert!(0 < searches && searches < routes, "alu4 k=2: {alu4_k2:?}");
}

/// Sets the `width` bits of `bytes` from stream bit `at` on to `value`,
/// LSB-first, as the stream writer lays out a field.
fn write_field(bytes: &mut [u8], at: usize, width: u32, value: u64) {
    for i in 0..width as usize {
        let (byte, bit) = ((at + i) / 8, (at + i) % 8);
        bytes[byte] = bytes[byte] & !(1 << bit) | (((value >> i) & 1) as u8) << bit;
    }
}

/// Every `2·M`-bit value a k = 1 connection can hold, in a one-connection
/// record at four positions of a 3×3 task (interior, column 0, row 0, the
/// corner) on the paper's example architecture (W = 5), the corpus one
/// (W = 10, K = 6) and the evaluation one (W = 20). The pair is written
/// into the packed bytes of one stream and read through that stream's
/// layout, so identifiers past the I/O count reach the decoder too.
///
/// Each decode must program the oracle's image (logic bits included) and
/// return its result and error text; a pair past the I/O count fails as
/// its first such identifier does, with the logic copied. The owned record
/// of an in-range pair decodes identically. The route counts are the
/// definition's: a route for every in-range pair, and a search exactly
/// when two distinct nodes that exist share no switch.
#[test]
fn every_k1_identifier_pair_decodes_as_the_oracle_does() {
    let positions = [(1, 1), (0, 1), (1, 0), (0, 0)].map(|(x, y)| Coord::new(x, y));
    let specs = [
        ArchSpec::paper_example(),
        ArchSpec::new(10, 6).expect("corpus arch"),
        ArchSpec::paper_evaluation(),
    ];
    let (mut seen, mut single_switches) = (Seen::default(), 0);
    let mut scratch = DecodeScratch::new();
    for spec in specs {
        let (io_count, io_bits) = (ClusterIo::io_count(&spec, 1), ClusterIo::io_bits(&spec, 1));
        let device = Device::new(spec, 3, 3).expect("device");
        let logic: PackedBits = (0..spec.lb_config_bits()).map(|i| i % 5 == 1).collect();
        for position in positions {
            let vbs_of = |connections| {
                let record = ClusterRecord {
                    position,
                    logic: logic.clone(),
                    routes: ClusterRoutes::Coded(connections),
                };
                Vbs::new(spec, 1, 3, 3, vec![record]).expect("record inside the task")
            };
            let null = Connection {
                input: ClusterIo::Null,
                output: ClusterIo::Null,
            };
            let mut bytes = vbs_of(vec![null]).to_bytes();
            let layout = VbsView::parse(&bytes).expect("template parses").layout();
            let header = layout.header();
            let at = Vbs::preamble_bits()
                + 2 * header.coord_bits() as usize
                + 1
                + header.logic_bits_per_record()
                + header.route_count_bits() as usize;
            let logic_only = {
                let vbs = vbs_of(Vec::new());
                let mut image = TaskBitstream::empty(spec, 3, 3);
                oracle::decode_record(&vbs, &vbs.records()[0], &mut image).expect("logic only");
                image
            };
            let (mut expected, mut decoded) = (
                TaskBitstream::empty(spec, 3, 3),
                TaskBitstream::empty(spec, 3, 3),
            );
            for pair in 0..1u64 << (2 * io_bits) {
                let label = format!("W = {} {position} pair {pair:#x}", spec.channel_width());
                let (input, output) = (
                    (pair & ((1 << io_bits) - 1)) as u32,
                    (pair >> io_bits) as u32,
                );
                write_field(&mut bytes, at, 2 * io_bits, pair);
                let view = layout.view(&bytes);
                let devirt = Devirtualizer::new(view).expect("task geometry");
                let record = devirt.records().next().expect("one record");
                decoded.reset(spec, 3, 3);
                let before = scratch.route_counts();
                let result = devirt.decode_record_with(record, &mut decoded, &mut scratch);
                let counts = scratch.route_counts();
                let counts = (counts.0 - before.0, counts.1 - before.1);

                let out_of_range = [input, output].into_iter().find(|&index| index >= io_count);
                if let Some(index) = out_of_range {
                    assert_eq!(
                        result,
                        Err(VbsError::InvalidIo { index, io_count }),
                        "{label}"
                    );
                    expected.clone_from(&logic_only);
                    assert_eq!(counts, (0, 0), "{label}");
                } else {
                    let io = |index| ClusterIo::from_index(&spec, 1, index).expect("in range");
                    let connection = Connection {
                        input: io(input),
                        output: io(output),
                    };
                    let RoutesRef::Coded(list) = record.routes else {
                        panic!("{label}: a coded record");
                    };
                    assert_eq!(list.iter().next(), Some(Ok(connection)), "{label}");
                    let vbs = vbs_of(vec![connection]);
                    expected.reset(spec, 3, 3);
                    let reference = oracle::decode_record(&vbs, &vbs.records()[0], &mut expected);
                    match (&result, &reference) {
                        (Ok(()), Ok(_)) => seen.ok += 1,
                        (Err(error), Err(reference)) => {
                            assert_eq!(error, reference, "{label}");
                            assert_eq!(error.to_string(), reference.to_string(), "{label}");
                            seen.no_path +=
                                usize::from(matches!(error, VbsError::DecodeNoPath { .. }));
                            seen.dangling +=
                                usize::from(matches!(error, VbsError::DanglingBoundary { .. }));
                        }
                        _ => panic!("{label}: decoder {result:?}, oracle {reference:?}"),
                    }
                    let mut owned = TaskBitstream::empty(spec, 3, 3);
                    let before = scratch.route_counts();
                    let owned_result = Devirtualizer::new(&vbs).and_then(|d| {
                        d.decode_record_with(&vbs.records()[0], &mut owned, &mut scratch)
                    });
                    let after = scratch.route_counts();
                    assert_eq!(owned_result, result, "{label}: owned record");
                    assert_eq!((after.0 - before.0, after.1 - before.1), counts, "{label}");
                    assert!(
                        owned.store().words() == decoded.store().words(),
                        "{label}: owned record"
                    );
                    let grid = vbs.grid();
                    let node = |io| oracle::io_node(&grid, position, io);
                    let search = match (node(connection.input), node(connection.output)) {
                        (Ok(a), Ok(b)) => a != b && device.switch_between(a, b).is_none(),
                        _ => false,
                    };
                    assert_eq!(counts, (1, u64::from(search)), "{label}");
                    single_switches += usize::from(!search && result.is_ok() && input != output);
                }
                assert!(
                    decoded.store().words() == expected.store().words(),
                    "{label}: frames differ in {} bits",
                    decoded.diff_count(&expected).expect("same shape")
                );
                seen.records += 1;
            }
        }
    }
    assert!(
        seen.ok > 1000 && seen.no_path > 100 && seen.dangling > 100 && single_switches > 1000,
        "the pairs no longer reach every outcome: {seen:?}, {single_switches} single switches"
    );
}

/// Seeded shuffles per stream in [`records_decode_identically_in_any_order`].
const SHUFFLES: u64 = 4;

/// The paper's Section II-C observation as a property: a record writes only
/// its own cluster's frames, so the records of a stream decode to the same
/// image in any order. Over the corpus streams and the k = 1..=4
/// recompiles, each stream's records are expanded in seeded random orders
/// into one image on one scratch and compared with the in-order decode,
/// word for word. At k = 1 that image is also the router's raw bitstream,
/// bit for bit. A larger cluster's record names only its connections and
/// the decoder picks the paths inside the cluster, so there the image may
/// program other (equivalent) switches than the router did.
#[test]
fn records_decode_identically_in_any_order() {
    let mut scratch = DecodeScratch::new();
    let mut shuffled = TaskBitstream::empty(ArchSpec::paper_example(), 1, 1);
    let mut in_order = TaskBitstream::empty(ArchSpec::paper_example(), 1, 1);
    let mut seed = 0;
    for (name, width, height) in corpus_tasks() {
        let result = recompile(&name, width, height);
        let stored = Vbs::from_bytes(&corpus_stream(&name)).expect("corpus streams parse");
        let recompiled = (1..=4).map(|k| (format!("{name} k={k}"), result.vbs(k).expect("encode")));
        for (label, vbs) in std::iter::once((format!("{name} stored"), stored)).chain(recompiled) {
            let devirt = Devirtualizer::new(&vbs).expect("task geometry");
            devirt
                .decode_into(&mut in_order, &mut scratch)
                .expect("in-order decode");
            if vbs.cluster_size() == 1 {
                let diff = in_order.diff_count(result.raw_bitstream());
                assert_eq!(diff, Ok(0), "{label}: the decode is not the raw bitstream");
            }
            let records = vbs.records();
            let mut order: Vec<usize> = (0..records.len()).collect();
            for _ in 0..SHUFFLES {
                seed += 1;
                let mut rng = Rng(seed);
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.below(i as u32 + 1) as usize);
                }
                shuffled.reset(*vbs.spec(), in_order.width(), in_order.height());
                for &index in &order {
                    devirt
                        .decode_record_with(&records[index], &mut shuffled, &mut scratch)
                        .unwrap_or_else(|e| panic!("{label}, seed {seed}: record {index}: {e}"));
                }
                assert!(
                    shuffled.store().words() == in_order.store().words(),
                    "{label}, seed {seed}: a shuffled decode differs from the in-order one \
                     in {} bits",
                    shuffled.diff_count(&in_order).expect("same shape")
                );
            }
        }
    }
}

/// A seeded splitmix64 stream for the random connection lists.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u32) -> u32 {
        (self.next() % u64::from(bound)) as u32
    }
}

/// One record of random connections on a random cluster of a small task:
/// cluster size 1..=3, task edges that are and are not multiples of it, the
/// cluster anywhere (interior, edges, corners, cut). Endpoints are valid
/// I/O ids in arbitrary order with duplicates; one list in eight also
/// carries an id only a hand-built record can hold (null, or a pin past the
/// cluster's macros).
fn random_stream(seed: u64) -> Vbs {
    let mut rng = Rng(seed);
    let spec = if rng.below(4) == 0 {
        ArchSpec::new(3, 4).expect("small arch")
    } else {
        ArchSpec::paper_example()
    };
    let k = 1 + rng.below(3) as u16;
    let width = k * (1 + rng.below(3) as u16) + rng.below(u32::from(k)) as u16;
    let height = k * (1 + rng.below(3) as u16) + rng.below(u32::from(k)) as u16;
    let position = Coord::new(
        rng.below(u32::from(width.div_ceil(k))) as u16,
        rng.below(u32::from(height.div_ceil(k))) as u16,
    );
    let io_count = ClusterIo::io_count(&spec, k);
    let odd = rng.below(8) == 0;
    let endpoint = |rng: &mut Rng| match rng.below(16) {
        0 if odd => ClusterIo::Null,
        1 if odd => ClusterIo::Pin {
            local: k * k + rng.below(2 * u32::from(k)) as u16,
            pin: rng.below(u32::from(spec.lb_pins()) + 1) as u8,
        },
        _ => ClusterIo::from_index(&spec, k, 1 + rng.below(io_count - 1)).expect("valid id"),
    };
    let connections = (0..1 + rng.below(14))
        .map(|_| Connection {
            input: endpoint(&mut rng),
            output: endpoint(&mut rng),
        })
        .collect();
    let record = ClusterRecord {
        position,
        logic: (0..usize::from(k) * usize::from(k) * spec.lb_config_bits())
            .map(|_| rng.below(2) == 1)
            .collect(),
        routes: ClusterRoutes::Coded(connections),
    };
    Vbs::new(spec, k, width, height, vec![record]).expect("record inside the task")
}

#[test]
fn random_connection_lists_reach_every_outcome_identically() {
    let mut scratch = DecodeScratch::new();
    let mut seen = Seen::default();
    for seed in 0..1500 {
        let vbs = random_stream(seed);
        let label = format!("seed {seed}");
        compare(&vbs, &mut scratch, &label, &mut seen);
        compare_paths(&vbs, &label);
    }
    let (routes, searches) = scratch.route_counts();
    assert!(
        seen.ok > 100 && seen.no_path > 100 && seen.dangling > 100 && seen.detours > 10,
        "the seeded lists no longer reach every outcome: {seen:?}"
    );
    assert!(
        searches > 1000 && routes - searches > 1000,
        "{routes} routes, {searches} searches"
    );
}

proptest! {
    /// Fresh seeds on every `PROPTEST_CASES` setting, beyond the fixed
    /// sweep above.
    #[test]
    fn random_connection_lists_decode_identically(seed in 0u64..u64::MAX) {
        let vbs = random_stream(seed);
        let label = format!("seed {seed}");
        compare(&vbs, &mut DecodeScratch::new(), &label, &mut Seen::default());
        compare_paths(&vbs, &label);
    }

    /// The mutation corpus of `corrupt_decode.rs`: two bit flips in a
    /// corpus stream; whatever still parses decodes (or fails) identically.
    #[test]
    fn mutated_corpus_streams_decode_identically(
        stream_sel in 0usize..9,
        byte_sel in 0usize..1 << 24,
        bit in 0u8..8,
        extra_sel in 0usize..1 << 24,
        extra_bit in 0u8..8,
    ) {
        let (name, ..) = &corpus_tasks()[stream_sel];
        let mut bytes = corpus_stream(name);
        let len = bytes.len();
        bytes[byte_sel % len] ^= 1 << bit;
        bytes[extra_sel % len] ^= 1 << extra_bit;
        if let Ok(vbs) = Vbs::from_bytes(&bytes) {
            // A flipped header can declare a task the reference graph
            // cannot hold in a test's time; the decoder has no such limit.
            prop_assume!(u32::from(vbs.width()) * u32::from(vbs.height()) <= 4096);
            if Devirtualizer::new(&vbs).is_ok() {
                let label = format!("{name} ^ {}.{bit} ^ {}.{extra_bit}", byte_sel % len, extra_sel % len);
                compare(&vbs, &mut DecodeScratch::new(), &label, &mut Seen::default());
                compare_paths(&vbs, &label);
            }
        }
    }
}
