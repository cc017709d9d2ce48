//! Scheduler throughput experiment.
//!
//! Single-fabric mode (default) replays a seeded synthetic workload through
//! every placement-policy / compaction combination and reports acceptance,
//! eviction, fragmentation, cache and throughput numbers.
//!
//! Multi-fabric mode (`--fabrics K` with K > 1) shards the same workload
//! over a K-device fleet per shard policy, compares it against K
//! *independent* single-fabric schedulers each facing the full stream, and
//! reports per-fabric utilization and migrations.
//!
//! Usage: `cargo run --release -p vbs-bench --bin scheduler --
//!         [--loads N] [--fabric WxH] [--seed S]
//!         [--fabrics K] [--shard-policy P|all]`
//! with P one of `round-robin`, `least-loaded`, `cache-affinity`.

use std::time::Instant;
use vbs_bench::sched_workload::{sched_fleet, sched_repository, sched_scheduler, sched_trace};
use vbs_runtime::{BestFit, BottomLeftSkyline, FirstFit, PlacementPolicy, VbsRepository};
use vbs_sched::{
    replay, replay_multi, shard_policy_by_name, SchedulerConfig, Trace, SHARD_POLICY_NAMES,
};

struct Options {
    loads: usize,
    fabric: (u16, u16),
    seed: u64,
    fabrics: usize,
    shard_policy: String,
}

fn parse_args() -> Options {
    let mut options = Options {
        loads: 500,
        fabric: (11, 11),
        seed: 2015,
        fabrics: 1,
        shard_policy: "all".to_string(),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--loads" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    // The trace generator requires at least one load.
                    options.loads = 1usize.max(v);
                    i += 1;
                }
            }
            "--seed" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    options.seed = v;
                    i += 1;
                }
            }
            "--fabric" => {
                if let Some((w, h)) = args
                    .get(i + 1)
                    .and_then(|s| s.split_once('x'))
                    .and_then(|(w, h)| Some((w.parse().ok()?, h.parse().ok()?)))
                {
                    options.fabric = (w, h);
                    i += 1;
                }
            }
            "--fabrics" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    options.fabrics = 1usize.max(v);
                    i += 1;
                }
            }
            "--shard-policy" => {
                if let Some(v) = args.get(i + 1) {
                    options.shard_policy = v.clone();
                    i += 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    options
}

fn single_fabric_matrix(options: &Options, repository: &VbsRepository, trace: &Trace) {
    println!(
        "{:<28} {:>8} {:>8} {:>8} {:>8} {:>9} {:>8} {:>10}",
        "configuration", "accept%", "evict", "reloc", "hit%", "decode µs", "frag", "events/s"
    );

    type PolicyMaker = fn() -> Box<dyn PlacementPolicy>;
    let policies: Vec<(&str, PolicyMaker)> = vec![
        ("first-fit", || Box::new(FirstFit)),
        ("best-fit", || Box::new(BestFit)),
        ("skyline", || Box::new(BottomLeftSkyline)),
    ];
    for (policy_name, make_policy) in &policies {
        for compaction in [false, true] {
            let mut scheduler = sched_scheduler(
                repository,
                options.fabric.0,
                options.fabric.1,
                make_policy(),
                SchedulerConfig {
                    eviction_limit: 1,
                    compaction,
                    ..SchedulerConfig::default()
                },
            );
            let start = Instant::now();
            let report = replay(&mut scheduler, trace);
            let elapsed = start.elapsed();
            let label = format!(
                "{policy_name}{}",
                if compaction { " + compaction" } else { "" }
            );
            println!(
                "{:<28} {:>7.1}% {:>8} {:>8} {:>7.1}% {:>9.1} {:>8.3} {:>10.0}",
                label,
                100.0 * report.acceptance_rate(),
                report.sched.evictions,
                report.sched.relocations,
                100.0 * report.cache.hit_rate(),
                report.sched.mean_decode_micros(),
                report.sched.mean_fragmentation(),
                report.events as f64 / elapsed.as_secs_f64(),
            );
        }
    }
}

fn multi_fabric_comparison(options: &Options, repository: &VbsRepository, trace: &Trace) {
    let config = SchedulerConfig {
        eviction_limit: 1,
        compaction: true,
        ..SchedulerConfig::default()
    };
    let k = options.fabrics;

    // Baseline: K independent single-fabric schedulers, each replaying the
    // full overloaded stream. Aggregate acceptance = accepted / submitted
    // across all of them (equals the mean single-fabric acceptance).
    let mut independent_accepted = 0u64;
    let mut independent_submitted = 0u64;
    let baseline_start = Instant::now();
    for _ in 0..k {
        let mut single = sched_scheduler(
            repository,
            options.fabric.0,
            options.fabric.1,
            Box::new(BestFit),
            config,
        );
        let report = replay(&mut single, trace);
        independent_accepted += report.sched.loads_accepted;
        independent_submitted += report.sched.loads_submitted;
    }
    let baseline_elapsed = baseline_start.elapsed();
    let independent_rate = independent_accepted as f64 / independent_submitted as f64;
    println!(
        "{k} independent fabrics         {:>7.1}% aggregate acceptance ({independent_accepted}/{independent_submitted} loads, {:.2}s)",
        100.0 * independent_rate,
        baseline_elapsed.as_secs_f64()
    );
    println!();

    let policies: Vec<&str> = if options.shard_policy == "all" {
        SHARD_POLICY_NAMES.to_vec()
    } else {
        vec![options.shard_policy.as_str()]
    };
    for policy_name in policies {
        let shard = shard_policy_by_name(policy_name).expect("validated in main");
        let mut multi = sched_fleet(
            repository,
            k,
            options.fabric,
            shard,
            &|| Box::new(BestFit),
            config,
        );
        let start = Instant::now();
        let report = replay_multi(&mut multi, trace);
        let elapsed = start.elapsed();
        println!(
            "== sharded x{k}, {policy_name} == ({:.0} events/s, vs independents {:+.1}%)",
            report.events as f64 / elapsed.as_secs_f64(),
            100.0 * (report.acceptance_rate() - independent_rate),
        );
        print!("{report}");
        println!();
    }
}

fn main() {
    let options = parse_args();
    // Reject a bad shard policy before any replay work happens.
    if options.shard_policy != "all" && shard_policy_by_name(&options.shard_policy).is_none() {
        eprintln!(
            "unknown shard policy {:?} (expected \"all\" or one of {SHARD_POLICY_NAMES:?})",
            options.shard_policy
        );
        std::process::exit(2);
    }
    let repository = sched_repository();
    let trace = sched_trace(options.loads, options.seed);
    println!(
        "# Scheduler throughput — {} events on {}x {}x{} fabric(s) (seed {})",
        trace.len(),
        options.fabrics,
        options.fabric.0,
        options.fabric.1,
        options.seed
    );
    if options.fabrics <= 1 {
        single_fabric_matrix(&options, &repository, &trace);
    } else {
        multi_fabric_comparison(&options, &repository, &trace);
    }
}
