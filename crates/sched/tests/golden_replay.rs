//! Golden replay tests: two checked-in traces (`tests/traces/` at the
//! workspace root) replayed against a two-fabric fleet under every shard
//! policy, with exact counter expectations stored next to the traces
//! (`tests/traces/*.golden`). A change to shard routing, migration,
//! eviction or compaction behavior shows up here as an explicit diff of the
//! expected numbers.
//!
//! To update the expectations deliberately (a counter-changing PR), run the
//! regeneration helper and commit the rewritten `.golden` files:
//!
//! ```text
//! cargo test -p vbs-sched --test golden_replay -- --ignored regen
//! ```
//!
//! See `crates/sched/README.md` for the full workflow.

mod common;

use common::fleet;
use vbs_runtime::FirstFit;
use vbs_sched::{replay_multi, shard_policy_by_name, SchedulerConfig, Trace, SHARD_POLICY_NAMES};

/// Exact counters of one (trace, policy) replay.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    accepted: u64,
    rejected: u64,
    migrations: u64,
    evictions: u64,
    relocations: u64,
    /// Loads accepted per shard, in fabric order.
    per_fabric_accepted: [u64; 2],
}

fn traces_dir() -> String {
    format!("{}/../../tests/traces", env!("CARGO_MANIFEST_DIR"))
}

fn load_trace(name: &str) -> Trace {
    let path = format!("{}/{name}", traces_dir());
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    Trace::from_text(&text).expect("trace parses")
}

fn replay_golden(trace: &Trace, policy: &str) -> Golden {
    let config = SchedulerConfig {
        eviction_limit: 1,
        compaction: true,
        ..SchedulerConfig::default()
    };
    let mut multi = fleet(
        2,
        8,
        8,
        shard_policy_by_name(policy).unwrap(),
        || Box::new(FirstFit),
        config,
    );
    let report = replay_multi(&mut multi, trace);
    Golden {
        accepted: report.multi.loads_accepted,
        rejected: report.multi.loads_rejected,
        migrations: report.multi.migrations,
        evictions: report.fabrics.iter().map(|f| f.sched.evictions).sum(),
        relocations: report.fabrics.iter().map(|f| f.sched.relocations).sum(),
        per_fabric_accepted: [
            report.fabrics[0].sched.loads_accepted,
            report.fabrics[1].sched.loads_accepted,
        ],
    }
}

/// One golden file line: `policy accepted rejected migrations evictions
/// relocations fabric0_accepted fabric1_accepted`.
fn golden_line(policy: &str, golden: &Golden) -> String {
    format!(
        "{policy} {} {} {} {} {} {} {}",
        golden.accepted,
        golden.rejected,
        golden.migrations,
        golden.evictions,
        golden.relocations,
        golden.per_fabric_accepted[0],
        golden.per_fabric_accepted[1],
    )
}

fn parse_golden(text: &str, path: &str) -> Vec<(String, Golden)> {
    text.lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| {
            let mut fields = line.split_whitespace();
            let policy = fields.next().expect("policy name").to_string();
            let mut next = || -> u64 {
                fields
                    .next()
                    .and_then(|f| f.parse().ok())
                    .unwrap_or_else(|| panic!("malformed golden line in {path}: {line}"))
            };
            let golden = Golden {
                accepted: next(),
                rejected: next(),
                migrations: next(),
                evictions: next(),
                relocations: next(),
                per_fabric_accepted: [next(), next()],
            };
            (policy, golden)
        })
        .collect()
}

fn check_trace_against_golden(trace_name: &str) {
    let trace = load_trace(trace_name);
    let golden_path = format!(
        "{}/{}.golden",
        traces_dir(),
        trace_name.trim_end_matches(".trace")
    );
    let text = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!("read {golden_path}: {e} — regenerate with the regen_golden_counters helper")
    });
    let expectations = parse_golden(&text, &golden_path);
    for &policy in SHARD_POLICY_NAMES {
        assert_eq!(
            expectations.iter().filter(|(p, _)| p == policy).count(),
            1,
            "{golden_path} must cover shard policy {policy} exactly once"
        );
    }
    assert_eq!(
        expectations.len(),
        SHARD_POLICY_NAMES.len(),
        "{golden_path} must not carry unknown policies"
    );
    for (policy, expected) in &expectations {
        let actual = replay_golden(&trace, policy);
        assert_eq!(&actual, expected, "{trace_name} / {policy}");
    }
}

#[test]
fn steady_trace_counters_are_golden() {
    check_trace_against_golden("steady.trace");
}

#[test]
fn burst_trace_counters_are_golden() {
    check_trace_against_golden("burst.trace");
}

/// Regeneration helper (deliberately `#[ignore]`d): deterministically
/// rewrites the `.golden` counter files from a fresh replay of every trace
/// under every shard policy. Run it when a PR intentionally changes
/// counter-visible behavior, review the diff, and commit the files:
///
/// ```text
/// cargo test -p vbs-sched --test golden_replay -- --ignored regen
/// ```
#[test]
#[ignore = "rewrites tests/traces/*.golden; run explicitly after intended counter changes"]
fn regen_golden_counters() {
    for trace_name in ["steady.trace", "burst.trace"] {
        let trace = load_trace(trace_name);
        let mut lines = vec![
            format!(
                "# Golden counters for {trace_name}: policy accepted rejected \
                 migrations evictions relocations fabric0_accepted fabric1_accepted."
            ),
            "# Regenerate: cargo test -p vbs-sched --test golden_replay -- --ignored regen"
                .to_string(),
        ];
        for &policy in SHARD_POLICY_NAMES {
            let golden = replay_golden(&trace, policy);
            lines.push(golden_line(policy, &golden));
        }
        let path = format!(
            "{}/{}.golden",
            traces_dir(),
            trace_name.trim_end_matches(".trace")
        );
        std::fs::write(&path, lines.join("\n") + "\n")
            .unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("regenerated {path}");
    }
}
