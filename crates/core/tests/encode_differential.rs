//! The product encoder against the one it replaced, stream for stream.
//!
//! `VbsEncoder` reads a route tree by its indices; `oracle::encode` rebuilds
//! it as hash maps, floods each cluster's share into components and orders
//! connections by formatted `String`s. At cluster sizes 1..=4 both must
//! return the same `Vbs` and the same bytes, or both an error, and the same
//! one. Inputs:
//!
//! * every corpus circuit, compiled as `mcnc_corpus` compiles it (the
//!   manifest's `arch` line, the task's edge, the circuit's seed);
//! * `PROPTEST_CASES` seeded synthetic netlists on grids whose edges are no
//!   multiple of 2, 3 or 4 (cut east and north clusters at every k > 1),
//!   at channel widths 6, 8, 10 and 12 and LUT sizes 4 and 6;
//! * `4 × PROPTEST_CASES` seeded random routings: trees that turn, branch
//!   and dead-end anywhere on 4..7-wide devices with 2..4 tracks, which the
//!   decoder often cannot follow.
//!
//! The oracle's feedback loop still refuses a candidate whose decode claims
//! a boundary crossing the cluster's share of the routing never touched;
//! the product's keeps every candidate that decodes. Equal streams are
//! therefore the evidence that this verdict never refuses. Every coded
//! record of every stream is also decoded once more by the oracle decoder
//! to check that it claims no boundary crossing it does not name
//! ([`assert_crossing_claims_are_named`]). A failure prints its circuit or
//! seed and the cluster size.

mod oracle;

use oracle::encode::OracleEncoder;
use std::path::{Path, PathBuf};
use vbs_arch::{ArchSpec, Coord, Device, SwitchSetting};
use vbs_bitstream::TaskBitstream;
use vbs_core::{ClusterRoutes, DecodeScratch, Devirtualizer, Vbs, VbsEncoder};
use vbs_flow::{CadFlow, FlowResult};
use vbs_netlist::generate::SyntheticSpec;
use vbs_netlist::{blif, mcnc};
use vbs_route::{RouteTree, Routing};

/// Encodes `result` both ways at cluster size `k` and compares; returns
/// the record count, or `None` when both refused.
fn compare(result: &FlowResult, k: u16, label: &str) -> Option<usize> {
    let origin = result.placement().region().origin;
    compare_routing(result.raw_bitstream(), result.routing(), origin, k, label)
        .map(|(records, _)| records)
}

/// [`compare`] on a raw bit-stream and the routing it was generated from;
/// also returns how many routes of the stream's coded records the decoder
/// had to search.
fn compare_routing(
    raw: &TaskBitstream,
    routing: &Routing,
    origin: Coord,
    k: u16,
    label: &str,
) -> Option<(usize, u64)> {
    let spec = *raw.spec();
    let product = VbsEncoder::new(spec, k).and_then(|e| e.encode_with_origin(raw, routing, origin));
    let oracle =
        OracleEncoder::new(spec, k).and_then(|e| e.encode_with_origin(raw, routing, origin));
    match (product, oracle) {
        (Ok(product), Ok(oracle)) => {
            assert!(product == oracle, "{label} k={k}: streams differ");
            assert!(
                product.to_bytes() == oracle.to_bytes(),
                "{label} k={k}: bytes differ"
            );
            let searches = assert_crossing_claims_are_named(&product, &format!("{label} k={k}"));
            Some((product.records().len(), searches))
        }
        (Err(product), Err(oracle)) => {
            assert_eq!(product, oracle, "{label} k={k}");
            None
        }
        (product, oracle) => panic!("{label} k={k}: product {product:?}, oracle {oracle:?}"),
    }
}

/// Decodes every coded record of an encoded stream through the oracle
/// decoder and requires that each boundary crossing the decode claims is
/// an endpoint the record names.
///
/// This is why a record that decodes stays within its routed wires: in a
/// cluster's pattern a crossing meets one switch box, plus the pins of its
/// owner macro for an east / north one, so a search never passes through
/// it except to hook such a pin, and a route tree reaches such a pin only
/// through that crossing, which makes it an endpoint. Returns the searches
/// the product decoder runs over the stream.
fn assert_crossing_claims_are_named(vbs: &Vbs, label: &str) -> u64 {
    let mut task = TaskBitstream::empty(*vbs.spec(), vbs.width(), vbs.height());
    for record in vbs.records() {
        let ClusterRoutes::Coded(connections) = &record.routes else {
            continue;
        };
        let claimed = oracle::decode_record(vbs, record, &mut task)
            .unwrap_or_else(|e| panic!("{label}: an emitted record fails: {e}"));
        for wire in claimed {
            if let Some(io) = vbs.grid().wire_io(record.position, wire) {
                assert!(
                    connections.iter().any(|c| c.input == io || c.output == io),
                    "{label}: {} claims {wire} ({io}), which it does not name",
                    record.position
                );
            }
        }
    }
    let mut scratch = DecodeScratch::new();
    Devirtualizer::new(vbs)
        .and_then(|devirt| devirt.decode_into(&mut task, &mut scratch))
        .unwrap_or_else(|e| panic!("{label}: the stream fails: {e}"));
    scratch.route_counts().1
}

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/traces/mcnc")
}

#[test]
fn corpus_circuits_encode_identically() {
    let manifest = std::fs::read_to_string(corpus_dir().join("manifest.txt")).expect("manifest");
    let mut arch = None;
    let mut tasks = Vec::new();
    for line in manifest.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["arch", w, k] => arch = Some((w.parse().expect("W"), k.parse().expect("K"))),
            ["task", name, _, edge, ..] => tasks.push((*name, edge.parse().expect("edge"))),
            _ => {}
        }
    }
    let (channel_width, lut_size): (u16, u8) = arch.expect("manifest arch line");
    assert_eq!(tasks.len(), 9);
    let mut records = 0;
    for (name, edge) in tasks {
        let text = std::fs::read_to_string(corpus_dir().join(format!("{name}.blif"))).unwrap();
        let netlist = blif::parse(&text, lut_size).expect("corpus blif parses");
        let base = name.split('@').next().unwrap();
        let result = CadFlow::new(channel_width, lut_size)
            .expect("flow")
            .with_grid(edge, edge)
            .with_seed(mcnc::by_name(base).expect("table ii circuit").seed())
            .fast()
            .run(&netlist)
            .expect("corpus circuits route");
        for k in 1..=4 {
            records += compare(&result, k, name).expect("corpus circuits encode");
        }
    }
    assert!(records > 500, "{records} records compared");
}

/// A seeded splitmix64 stream for the synthetic parameters.
struct Rng(u64);

impl Rng {
    fn below(&mut self, bound: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % bound
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

#[test]
fn synthetic_netlists_encode_identically() {
    let cases = u64::from(proptest::test_runner::cases());
    let mut routed = 0;
    for seed in 0..cases {
        let mut rng = Rng(seed);
        let channel_width = rng.pick(&[6u16, 8, 10, 12]);
        let lut_size = rng.pick(&[4u8, 6]);
        let (width, height) = (rng.pick(&[5u16, 7, 11]), rng.pick(&[5u16, 7, 11]));
        let (inputs, outputs) = (2 + rng.below(3) as usize, 2 + rng.below(3) as usize);
        // At most half the sites plus a few: the blocks always fit.
        let sites = usize::from(width) * usize::from(height);
        let luts = outputs + 2 + rng.below((sites / 2 - inputs - outputs) as u64) as usize;
        let label = format!(
            "seed {seed} ({luts} luts on {width}x{height}, W = {channel_width}, K = {lut_size})"
        );
        let netlist = SyntheticSpec::new("diff", luts, inputs, outputs)
            .with_lut_size(lut_size)
            .with_seed(seed)
            .build()
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let flow = CadFlow::new(channel_width, lut_size)
            .expect("flow")
            .with_grid(width, height)
            .with_seed(seed)
            .fast();
        // A dense netlist on a narrow channel may not route; that is the
        // router's verdict, not the encoder's.
        let Ok(result) = flow.run(&netlist) else {
            continue;
        };
        routed += 1;
        for k in 1..=4 {
            compare(&result, k, &label);
        }
        // A cluster larger than the task: both refuse it alike.
        assert_eq!(compare(&result, width.max(height) + 1, &label), None);
    }
    assert!(
        routed * 4 >= cases * 3,
        "only {routed} of {cases} synthetic netlists routed"
    );
}

/// A routing of random trees, each wire used by at most one net, and its
/// raw bit-stream: every tree edge programs its switch. A tree starts at a
/// random pin and grows by random neighbours of its source and wires, so
/// it turns, branches and ends anywhere, unlike a router's shortest paths.
/// Decoding its clusters at k >= 2 often takes another track than the tree
/// did, so these are the streams where a decode could stray onto a
/// crossing that the cluster's share of the routing never touched while
/// the neighbour's share did: the oracle's verdict would refuse such a
/// record, and [`assert_crossing_claims_are_named`] checks that no kept
/// record claims one.
fn random_routing(seed: u64) -> (TaskBitstream, Routing) {
    let mut rng = Rng(seed);
    let spec = ArchSpec::new(rng.pick(&[2u16, 3, 4]), rng.pick(&[4u8, 6])).expect("arch");
    let (width, height) = (rng.pick(&[4u16, 5, 6, 7]), rng.pick(&[4u16, 5, 6, 7]));
    let device = Device::new(spec, width, height).expect("device");
    let mut used = vec![false; device.node_count()];
    let mut raw = TaskBitstream::empty(spec, width, height);
    let mut trees = Vec::new();
    let mut neighbors = Vec::new();
    for _ in 0..4 + rng.below(12) {
        let wires = device.wire_count() as u64;
        let source =
            device.node_at((wires + rng.below(device.node_count() as u64 - wires)) as usize);
        if used[device.node_index(source)] {
            continue;
        }
        used[device.node_index(source)] = true;
        let mut tree = RouteTree::new(source);
        for _ in 0..rng.below(16) {
            // Grow from the source or a wire; pins are leaves.
            let growing: Vec<usize> = (0..tree.len())
                .filter(|&i| i == 0 || tree.nodes()[i].is_wire())
                .collect();
            let parent = rng.pick(&growing);
            device.neighbors_into(tree.nodes()[parent], &mut neighbors);
            let next = rng.pick(&neighbors);
            if used[device.node_index(next)] {
                continue;
            }
            used[device.node_index(next)] = true;
            tree.push(next, parent);
            let switch = device
                .switch_between(tree.nodes()[parent], next)
                .expect("neighbours share a switch");
            let mut frame = raw.frame_mut(switch.site());
            match switch {
                SwitchSetting::Crossing { pin, track, .. } => frame.set_crossing(pin, track, true),
                SwitchSetting::SwitchBox { track, pair, .. } => frame.set_sb(track, pair, true),
            }
        }
        trees.push(tree);
    }
    (raw, Routing::new(spec, trees, 1))
}

#[test]
fn random_routings_encode_identically() {
    let cases = u64::from(proptest::test_runner::cases());
    let (mut records, mut searches) = (0, 0);
    for seed in 0..4 * cases {
        let (raw, routing) = random_routing(seed);
        for k in 1..=4 {
            let label = format!("random routing {seed}");
            let (r, s) = compare_routing(&raw, &routing, Coord::new(0, 0), k, &label)
                .expect("every cluster size fits a 4x4 task");
            (records, searches) = (records + r, searches + s);
        }
    }
    // The crossing check is not vacuous: the decodes search, and searches
    // are where a claim could stray.
    assert!(
        records as u64 > 20 * cases && searches > 10 * cases,
        "{records} records, {searches} searches"
    );
}
