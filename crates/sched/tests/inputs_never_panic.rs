//! The scheduler's text inputs never panic: every mutant of a corpus trace,
//! a chaos fault plan or the corpus manifest comes back as `Ok` or `Err`,
//! and every trace that parses writes back to text that parses to it again.
//!
//! Seeds `0..PROPTEST_CASES` each mutate every text input eight times and
//! the manifest once — a byte flip (a random byte or a structural
//! character: newline, space, `#`, `-`, a digit), a structural character
//! over the first byte of a field, a truncation, a splice of a slice of
//! another input, or a cut range. Traces go through `Trace::from_text` and, when they parse,
//! `to_text` and back; fault plans through `FaultPlan::parse`; a mutated
//! `manifest.txt` is written next to a copy of the corpus files, loaded
//! with `McncCorpus::load`, and a corpus that loads builds its single and
//! fleet schedulers. Everything runs inside `catch_unwind`; bytes that stop
//! being UTF-8 are replaced (`from_utf8_lossy`), as a reader of untrusted
//! files would. A failure prints its seed, input and mutation.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use vbs_sched::{FaultPlan, McncCorpus, Trace};

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

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/traces/mcnc")
}

/// The inputs, each `(name, bytes)`: the two corpus traces, the two chaos
/// plans and the manifest. Every mutant may splice from any of them.
fn inputs() -> Vec<(String, Vec<u8>)> {
    let dir = corpus_dir();
    let read = |file: &str| std::fs::read(dir.join(file)).expect("corpus file");
    let mut inputs = vec![
        ("steady.trace".to_string(), read("steady.trace")),
        ("variant.trace".to_string(), read("variant.trace")),
    ];
    for (i, plan) in McncCorpus::CHAOS_PLANS.iter().enumerate() {
        inputs.push((format!("chaos plan {i}"), plan.as_bytes().to_vec()));
    }
    inputs.push(("manifest.txt".to_string(), read("manifest.txt")));
    inputs
}

/// One seeded mutant of `inputs[target]` and what was done to it.
fn mutate(inputs: &[(String, Vec<u8>)], target: usize, rng: &mut Rng) -> (Vec<u8>, String) {
    const STRUCTURAL: &[u8] = b"\n #-0129";
    let mut bytes = inputs[target].1.clone();
    let at = rng.below(bytes.len());
    match rng.below(5) {
        0 => {
            let byte = if rng.below(2) == 0 {
                rng.below(256) as u8
            } else {
                STRUCTURAL[rng.below(STRUCTURAL.len())]
            };
            bytes[at] = byte;
            (bytes, format!("flip byte {at} to {byte:#04x}"))
        }
        1 => {
            let start = bytes[..at]
                .iter()
                .rposition(u8::is_ascii_whitespace)
                .map_or(0, |i| i + 1);
            let byte = STRUCTURAL[rng.below(STRUCTURAL.len())];
            bytes[start] = byte;
            (bytes, format!("flip field start {start} to {byte:#04x}"))
        }
        2 => {
            bytes.truncate(at);
            (bytes, format!("truncate at {at}"))
        }
        3 => {
            let donor = &inputs[rng.below(inputs.len())].1;
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

/// Runs `f` on `rounds` seeded mutants per seed of every input `targets`
/// names, with the mutant as text and a label naming its seed, input and
/// mutation.
fn for_each_mutant(targets: &[&str], rounds: usize, mut f: impl FnMut(&str, &str)) {
    let inputs = inputs();
    let seeds = u64::from(proptest::test_runner::cases());
    for seed in 0..seeds {
        let mut rng = Rng(seed);
        for (target, (name, _)) in inputs.iter().enumerate() {
            if !targets.contains(&name.as_str()) {
                continue;
            }
            for _ in 0..rounds {
                let (bytes, mutation) = mutate(&inputs, target, &mut rng);
                let text = String::from_utf8_lossy(&bytes);
                f(&text, &format!("seed {seed}: {name}, {mutation}"));
            }
        }
    }
}

#[test]
fn mutated_traces_never_panic_and_round_trip() {
    let mut rejected = 0;
    for_each_mutant(&["steady.trace", "variant.trace"], 8, |text, label| {
        let parsed = catch_unwind(AssertUnwindSafe(|| Trace::from_text(text)));
        let Ok(result) = parsed else {
            panic!("{label}: Trace::from_text panicked");
        };
        let Ok(trace) = result else {
            rejected += 1;
            return;
        };
        let written = trace
            .to_text()
            .unwrap_or_else(|e| panic!("{label}: a parsed trace does not write back: {e}"));
        let reread = Trace::from_text(&written)
            .unwrap_or_else(|e| panic!("{label}: a written trace does not parse: {e}"));
        assert_eq!(reread, trace, "{label}: the trace changed through its text");
    });
    let seeds = proptest::test_runner::cases();
    assert!(seeds < 8 || rejected > 0, "no trace mutant was rejected");
}

#[test]
fn mutated_fault_plans_never_panic() {
    let mut rejected = 0;
    for_each_mutant(&["chaos plan 0", "chaos plan 1"], 8, |text, label| {
        let parsed = catch_unwind(AssertUnwindSafe(|| FaultPlan::parse(text)));
        let Ok(result) = parsed else {
            panic!("{label}: FaultPlan::parse panicked");
        };
        rejected += usize::from(result.is_err());
    });
    let seeds = proptest::test_runner::cases();
    assert!(seeds < 8 || rejected > 0, "no plan mutant was rejected");
}

/// A copy of the corpus directory that removes itself when dropped.
struct CorpusCopy(PathBuf);

impl Drop for CorpusCopy {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn mutated_manifest_never_panics() {
    let copy = CorpusCopy(
        Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("inputs-never-panic-{}", std::process::id())),
    );
    std::fs::create_dir_all(&copy.0).expect("corpus copy");
    for entry in std::fs::read_dir(corpus_dir()).expect("corpus directory") {
        let path = entry.expect("corpus entry").path();
        std::fs::copy(&path, copy.0.join(path.file_name().expect("file name")))
            .expect("copy corpus file");
    }
    let mut loaded = 0;
    for_each_mutant(&["manifest.txt"], 1, |text, label| {
        std::fs::write(copy.0.join("manifest.txt"), text).expect("write manifest");
        let built = catch_unwind(AssertUnwindSafe(|| {
            let Ok(corpus) = McncCorpus::load(&copy.0) else {
                return false;
            };
            corpus.single_scheduler();
            corpus
                .fleet_scheduler("least-loaded")
                .expect("least-loaded resolves");
            true
        }));
        let Ok(built) = built else {
            panic!("{label}: loading the corpus or building its schedulers panicked");
        };
        loaded += usize::from(built);
    });
    // Mutants that leave the manifest intact (a flip inside a comment, a
    // splice of whitespace) still load: the happy path runs too.
    let seeds = proptest::test_runner::cases();
    assert!(seeds < 8 || loaded > 0, "no manifest mutant loaded");
}
