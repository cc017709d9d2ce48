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
//!   at channel widths 6, 8, 10 and 12 and LUT sizes 4 and 6.
//!
//! A failure prints its circuit or seed and the cluster size.

mod oracle;

use oracle::encode::OracleEncoder;
use std::path::{Path, PathBuf};
use vbs_core::VbsEncoder;
use vbs_flow::{CadFlow, FlowResult};
use vbs_netlist::generate::SyntheticSpec;
use vbs_netlist::{blif, mcnc};

/// Encodes `result` both ways at cluster size `k` and compares; returns
/// the record count, or `None` when both refused.
fn compare(result: &FlowResult, k: u16, label: &str) -> Option<usize> {
    let spec = *result.device().spec();
    let origin = result.placement().region().origin;
    let (raw, routing) = (result.raw_bitstream(), result.routing());
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
            Some(product.records().len())
        }
        (Err(product), Err(oracle)) => {
            assert_eq!(product, oracle, "{label} k={k}");
            None
        }
        (product, oracle) => panic!("{label} k={k}: product {product:?}, oracle {oracle:?}"),
    }
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
