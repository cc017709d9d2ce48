//! `blif::parse` never panics: every mutant of a corpus BLIF file comes back
//! as `Ok` or `Err`.
//!
//! Seeds `0..PROPTEST_CASES` each mutate every checked-in corpus `.blif`
//! once — a byte flip (a random byte or a structural character:
//! newline, `.`, `\`, `-`, `0`, `1`, space), a truncation, a splice of a
//! slice of another corpus file, or a cut range — and parse the result at
//! K = 4 and K = 6 inside `catch_unwind`. Bytes that stop being UTF-8 are
//! replaced (`from_utf8_lossy`), as a reader of untrusted files would. A
//! failure prints its seed, file and mutation.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use vbs_netlist::blif;

/// A seeded splitmix64 stream.
struct Rng(u64);

impl Rng {
    fn below(&mut self, bound: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % bound as u64) as usize
    }
}

fn corpus() -> Vec<(String, Vec<u8>)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/traces/mcnc");
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
        .expect("corpus directory")
        .map(|entry| entry.expect("corpus entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "blif"))
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).expect("corpus blif"))
        })
        .collect();
    files.sort();
    files
}

/// One seeded mutant of `files[target]` and what was done to it.
fn mutate(files: &[(String, Vec<u8>)], target: usize, rng: &mut Rng) -> (Vec<u8>, String) {
    let mut bytes = files[target].1.clone();
    let at = rng.below(bytes.len());
    match rng.below(4) {
        0 => {
            const STRUCTURAL: &[u8] = b"\n.\\-01 ";
            let byte = if rng.below(2) == 0 {
                rng.below(256) as u8
            } else {
                STRUCTURAL[rng.below(STRUCTURAL.len())]
            };
            bytes[at] = byte;
            (bytes, format!("flip byte {at} to {byte:#04x}"))
        }
        1 => {
            bytes.truncate(at);
            (bytes, format!("truncate at {at}"))
        }
        2 => {
            let donor = &files[rng.below(files.len())].1;
            let start = rng.below(donor.len());
            let end = start + rng.below(donor.len() - start + 1);
            bytes.splice(at..at, donor[start..end].iter().copied());
            (bytes, format!("splice {start}..{end} of a donor at {at}"))
        }
        _ => {
            let end = at + rng.below(bytes.len() - at + 1);
            bytes.drain(at..end);
            (bytes, format!("cut {at}..{end}"))
        }
    }
}

#[test]
fn mutated_corpus_blif_never_panics() {
    let files = corpus();
    assert_eq!(files.len(), 9, "the corpus holds nine circuits");
    let seeds = u64::from(proptest::test_runner::cases());
    let mut rejected = 0;
    for seed in 0..seeds {
        let mut rng = Rng(seed);
        for (target, (name, _)) in files.iter().enumerate() {
            let (bytes, mutation) = mutate(&files, target, &mut rng);
            let text = String::from_utf8_lossy(&bytes);
            for lut_size in [4, 6] {
                let parsed = catch_unwind(AssertUnwindSafe(|| blif::parse(&text, lut_size)));
                let Ok(result) = parsed else {
                    panic!("seed {seed}: {name}, {mutation}, K = {lut_size}: blif::parse panicked");
                };
                rejected += usize::from(result.is_err());
            }
        }
    }
    // The mutants reach the error paths, not only the happy one.
    assert!(seeds < 8 || rejected > 0, "no mutant was rejected");
}
