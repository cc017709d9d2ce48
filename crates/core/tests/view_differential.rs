//! `VbsView` against the owned parse it replaced, and decoding a view
//! against decoding the owned stream.
//!
//! * `VbsView::parse(bytes)` followed by `to_owned` must equal
//!   `oracle::parse::from_bytes(bytes)` — the per-bit parse `Vbs::from_bytes`
//!   ran before — value for value, and on failure error for error (variant,
//!   fields and message).
//! * Where both parse, decoding through the view and through the owned
//!   stream must agree record by record: frames word for word, errors.
//! * A view a repository rebuilds from one stream's remembered layout over
//!   other bytes (another stream, a mutant) reads garbage but never panics.
//!
//! Inputs: the nine corpus streams in both framings, every corpus circuit
//! re-compiled through the CAD flow at cluster sizes 1..=4, and the flip /
//! truncate / splice mutants of the corpus. The proptest shim does not
//! shrink, so a failure names its stream and mutation.

mod oracle;

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use vbs_bitstream::TaskBitstream;
use vbs_core::{DecodeScratch, Devirtualizer, Vbs, VbsError, VbsView};
use vbs_flow::CadFlow;
use vbs_netlist::{blif, mcnc};

/// Largest task the decode comparisons expand (a flipped header can claim
/// a 4095 × 4095 task, which would only test the allocator).
const MAX_DECODED_MACROS: u32 = 4096;

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/traces/mcnc")
}

/// `(name, width, height)` of every `task` line of the corpus manifest.
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

/// The nine corpus streams, in manifest order.
fn corpus_streams() -> &'static [(String, Vec<u8>)] {
    static STREAMS: std::sync::OnceLock<Vec<(String, Vec<u8>)>> = std::sync::OnceLock::new();
    STREAMS.get_or_init(|| {
        corpus_tasks()
            .into_iter()
            .map(|(name, ..)| {
                let bytes = std::fs::read(corpus_dir().join(format!("{name}.vbs"))).unwrap();
                (name, bytes)
            })
            .collect()
    })
}

fn assert_same_error(got: &VbsError, expected: &VbsError, label: &str) {
    assert_eq!(got, expected, "{label}");
    assert_eq!(got.to_string(), expected.to_string(), "{label}");
}

/// Parses `bytes` both ways and compares; where they parse, also compares
/// the decodes. Returns whether the bytes parsed.
fn compare(bytes: &[u8], label: &str) -> bool {
    let expected = oracle::parse::from_bytes(bytes);
    let view = VbsView::parse(bytes);
    let owned = view.clone().and_then(VbsView::to_owned);
    match (&owned, &expected) {
        (Ok(got), Ok(expected)) => assert_eq!(got, expected, "{label}"),
        (Err(got), Err(expected)) => assert_same_error(got, expected, label),
        _ => panic!("{label}: view {owned:?}, oracle {expected:?}"),
    }
    match (Vbs::from_bytes(bytes), &owned) {
        (Ok(a), Ok(b)) => assert_eq!(&a, b, "{label}: from_bytes"),
        (Err(a), Err(b)) => assert_same_error(&a, b, label),
        (a, _) => panic!("{label}: from_bytes {a:?} disagrees with the view"),
    }
    let (Ok(view), Ok(vbs)) = (view, owned) else {
        return false;
    };
    assert_eq!(view.header(), vbs.header(), "{label}");
    assert_eq!(view.record_count(), vbs.records().len(), "{label}");
    assert_eq!(view.size_bits(), vbs.size_bits(), "{label}");
    let rebuilt = view.layout().view(bytes);
    assert_eq!(rebuilt.to_owned().as_ref(), Ok(&vbs), "{label}: layout");
    if u32::from(vbs.width()) * u32::from(vbs.height()) <= MAX_DECODED_MACROS {
        compare_decodes(view, &vbs, label);
    }
    true
}

/// Decodes the view and the owned stream record by record into two images
/// and compares after each record, then both whole streams.
fn compare_decodes(view: VbsView<'_>, vbs: &Vbs, label: &str) {
    let (viewed, owned) = match (Devirtualizer::new(view), Devirtualizer::new(vbs)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(a), Err(b)) => return assert_same_error(&a, &b, label),
        (a, b) => panic!("{label}: devirtualizer {a:?} against {b:?}"),
    };
    let (w, h) = (vbs.width().max(1), vbs.height().max(1));
    let mut left = (
        DecodeScratch::new(),
        TaskBitstream::empty(*vbs.spec(), w, h),
    );
    let mut right = (
        DecodeScratch::new(),
        TaskBitstream::empty(*vbs.spec(), w, h),
    );
    assert_eq!(viewed.records().count(), vbs.records().len(), "{label}");
    for (index, (a, b)) in viewed.records().zip(vbs.records()).enumerate() {
        let context = format!("{label}: record {index} {b:?}");
        let got = viewed.decode_record_with(a, &mut left.1, &mut left.0);
        let expected = owned.decode_record_with(b, &mut right.1, &mut right.0);
        match (&got, &expected) {
            (Ok(()), Ok(())) => {}
            (Err(got), Err(expected)) => assert_same_error(got, expected, &context),
            _ => panic!("{context}: view {got:?}, owned {expected:?}"),
        }
        assert!(
            left.1.store().words() == right.1.store().words(),
            "{context}: frames differ"
        );
    }
    assert_eq!(left.0.route_counts(), right.0.route_counts(), "{label}");

    let got = viewed.decode_into(&mut left.1, &mut left.0);
    let expected = owned.decode_into(&mut right.1, &mut right.0);
    match (&got, &expected) {
        (Ok(()), Ok(())) => {}
        (Err(got), Err(expected)) => assert_same_error(got, expected, label),
        _ => panic!("{label}: view {got:?}, owned {expected:?}"),
    }
    assert!(left.1.store().words() == right.1.store().words(), "{label}");
}

/// Everything a view rebuilt from `layout_of`'s layout over `bytes` can be
/// asked, none of which may panic.
fn probe_foreign_layout(layout_of: &[u8], bytes: &[u8], label: &str) {
    let layout = VbsView::parse(layout_of).expect(label).layout();
    let view = layout.view(bytes);
    for record in view.records() {
        let _ = record.to_owned();
    }
    let _ = view.to_owned();
    let header = view.header();
    if u32::from(header.width) * u32::from(header.height) <= MAX_DECODED_MACROS {
        if let Ok(devirt) = Devirtualizer::new(view) {
            let (w, h) = (header.width.max(1), header.height.max(1));
            let mut task = TaskBitstream::empty(header.spec, w, h);
            let mut scratch = DecodeScratch::new();
            for record in devirt.records() {
                let _ = devirt.decode_record_with(record, &mut task, &mut scratch);
            }
            let _ = devirt.decode_into(&mut task, &mut scratch);
        }
    }
}

#[test]
fn corpus_streams_parse_and_decode_identically() {
    let streams = corpus_streams();
    assert_eq!(streams.len(), 9);
    for (name, bytes) in streams {
        assert!(compare(bytes, name), "{name} parses");
        let checked = Vbs::from_bytes(bytes).unwrap().to_bytes_checked();
        assert!(compare(&checked, &format!("{name} (checked)")));
        for (other, other_bytes) in streams {
            probe_foreign_layout(bytes, other_bytes, &format!("{name} layout over {other}"));
        }
    }
}

#[test]
fn recompiled_corpus_circuits_parse_and_decode_identically_at_every_cluster_size() {
    for (name, width, height) in corpus_tasks() {
        let text = std::fs::read_to_string(corpus_dir().join(format!("{name}.blif"))).unwrap();
        let netlist = blif::parse(&text, 6).expect("corpus blif parses");
        let base = name.split('@').next().unwrap();
        let result = CadFlow::new(10, 6)
            .expect("flow")
            .with_grid(width, height)
            .with_seed(mcnc::by_name(base).expect("table ii circuit").seed())
            .fast()
            .run(&netlist)
            .expect("corpus circuits route");
        for k in 1..=4 {
            let vbs = result.vbs(k).expect("encode");
            let label = format!("{name} k={k}");
            assert!(compare(&vbs.to_bytes(), &label), "{label} parses");
            assert!(compare(&vbs.to_bytes_checked(), &label));
        }
    }
}

/// The nine-byte stream whose preamble claims 2²⁰ − 1 records on a 10 × 10
/// task: rejected the same way, without a record-count-sized reservation
/// (`zero_alloc.rs` pins the bytes).
#[test]
fn a_record_count_past_the_bytes_is_rejected_alike() {
    let mut w = vbs_core::bitio::BitWriter::new();
    for (value, width) in [
        (1, 4),
        (1, 8),
        (6, 4),
        (10, 9),
        (10, 12),
        (10, 12),
        ((1 << 20) - 1, 20),
    ] {
        w.write_bits(value, width);
    }
    let bytes = w.into_bytes();
    assert_eq!(bytes.len(), 9);
    assert!(!compare(&bytes, "record-count bomb"));
    assert!(matches!(
        VbsView::parse(&bytes),
        Err(VbsError::Malformed { .. })
    ));
}

proptest! {
    /// Two bit flips in a corpus stream, in either framing.
    #[test]
    fn flipped_corpus_streams_parse_and_decode_identically(
        stream_sel in 0usize..9,
        checked in any::<bool>(),
        byte_sel in 0usize..1 << 24,
        bit in 0u8..8,
        extra_sel in 0usize..1 << 24,
        extra_bit in 0u8..8,
    ) {
        let (name, original) = &corpus_streams()[stream_sel];
        let mut bytes = if checked {
            Vbs::from_bytes(original).unwrap().to_bytes_checked()
        } else {
            original.clone()
        };
        let len = bytes.len();
        bytes[byte_sel % len] ^= 1 << bit;
        bytes[extra_sel % len] ^= 1 << extra_bit;
        let label = format!(
            "{name} (checked: {checked}) ^ {}.{bit} ^ {}.{extra_bit}",
            byte_sel % len,
            extra_sel % len
        );
        compare(&bytes, &label);
        probe_foreign_layout(original, &bytes, &label);
    }

    /// A corpus stream cut short.
    #[test]
    fn truncated_corpus_streams_parse_identically(
        stream_sel in 0usize..9,
        cut_sel in 0usize..1 << 24,
    ) {
        let (name, bytes) = &corpus_streams()[stream_sel];
        let cut = cut_sel % bytes.len();
        let label = format!("{name}[..{cut}]");
        compare(&bytes[..cut], &label);
        probe_foreign_layout(bytes, &bytes[..cut], &label);
    }

    /// The head of one corpus stream joined to the tail of another.
    #[test]
    fn spliced_corpus_streams_parse_and_decode_identically(
        head_sel in 0usize..9,
        tail_sel in 0usize..9,
        cut_sel in 0usize..1 << 24,
        resume_sel in 0usize..1 << 24,
    ) {
        let streams = corpus_streams();
        let ((head, a), (tail, b)) = (&streams[head_sel], &streams[tail_sel]);
        let (cut, resume) = (cut_sel % a.len(), resume_sel % b.len());
        let bytes = [&a[..cut], &b[resume..]].concat();
        let label = format!("{head}[..{cut}] + {tail}[{resume}..]");
        compare(&bytes, &label);
        probe_foreign_layout(a, &bytes, &label);
    }
}
