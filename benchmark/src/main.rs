//! The repo's benchmark: five workloads over the checked-in MCNC corpus,
//! end-to-end metrics from untraced repetitions, per-layer metrics from a
//! traced pass, every output checked. See `README.md`.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! benchmark selfcheck [--seed N] [--seconds S]
//! ```
//!
//! `--workload`, `--seed`, `--seconds` and `--trace` are the arguments the
//! benchmark driver passes. The last line of standard output is one JSON
//! object with the keys `correct`, `attempted`, `failed` and `metrics`; the
//! exit code is 0 only when every correctness check passed.

mod api;
mod json;
mod layers;
mod setup;
mod spans;
mod stats;
mod workloads;

use layers::{metric, ManagerProbe, Metric};
use setup::SetUp;
use spans::{Recorder, SelfTime};
use stats::Latencies;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::rc::Rc;
use std::time::{Duration, Instant};
use workloads::{Rep, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Enough for the longest traced repetition (`churn_replay`, ~60 k spans).
const SPAN_CAPACITY: usize = 1 << 17;
/// Runs per workload in each of `selfcheck`'s two sets.
const SELFCHECK_RUNS: usize = 3;
/// Functions of logical ticks and bit counts, not of host time: two runs on
/// one seed must agree on them exactly.
const EXACT: [&str; 3] = ["ok_ratio", "deadline_met_ratio", "vbs_ratio"];

#[derive(Debug, Clone)]
struct Args {
    selfcheck: bool,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// `Some(false)`: end-to-end metrics only; `Some(true)`: per-layer
    /// metrics only; `None`: both.
    trace: Option<bool>,
    smoke: bool,
}

fn manifest() -> Result<json::Value, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        selfcheck: false,
        workload: None,
        seed: 2015,
        seconds: f64::NAN,
        trace: None,
        smoke: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "selfcheck" => args.selfcheck = true,
            "--smoke" => args.smoke = true,
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.seconds.is_nan() {
        args.seconds = manifest()?
            .get("run_seconds")
            .and_then(json::Value::as_f64)
            .ok_or("BENCHMARK.json: no run_seconds")?;
    }
    if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be a positive number".into());
    }
    if let Some(name) = &args.workload {
        if !workloads::NAMES.contains(&name.as_str()) {
            return Err(format!(
                "unknown workload `{name}` (one of {})",
                workloads::NAMES.join(", ")
            ));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        if args.selfcheck {
            selfcheck(&args)
        } else if let Some(name) = &args.workload {
            measure(&args, name)
        } else {
            // Each workload in a process of its own, one after the other, so
            // that `peak_rss_mb` is that of a process that ran only it.
            let mut all_correct = true;
            for name in workloads::NAMES {
                let status = this_program(&args, name, args.seed)?
                    .status()
                    .map_err(|e| format!("{name}: {e}"))?;
                all_correct &= status.success();
            }
            Ok(all_correct)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// This program again, on one workload.
fn this_program(args: &Args, workload: &str, seed: u64) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()]);
    if let Some(trace) = args.trace {
        command.args(["--trace", if trace { "1" } else { "0" }]);
    }
    if args.smoke {
        command.arg("--smoke");
    }
    Ok(command)
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Keeps this process, and every thread it starts from here on, on the CPU
/// it is running on, and returns that CPU.
///
/// `fleet_replay` is the one workload whose code under test starts threads
/// (the fleet opens a thread scope in every round, ~13 k threads a second).
/// Left to both vCPUs of this guest, every round wakes a halted vCPU once or
/// twice, and what that costs is the host's doing: whole runs read 3.5 k
/// instead of 9 k loads/s. On one CPU nothing halts inside a round, so the
/// run measures the fleet's dispatch, thread creation and hand-off, and not
/// the hypervisor.
fn pin_to_current_cpu() -> Result<usize, String> {
    // Both are in the C library `std` already links on Linux.
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    // SAFETY: no arguments, no memory touched.
    let cpu = usize::try_from(unsafe { sched_getcpu() })
        .map_err(|_| format!("sched_getcpu: {}", std::io::Error::last_os_error()))?;
    let word = mask
        .get_mut(cpu / 64)
        .ok_or(format!("CPU {cpu} is beyond a cpu_set_t"))?;
    *word = 1 << (cpu % 64);
    // SAFETY: `mask` is a live array of the size passed; pid 0 is the caller.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// Repetitions of one kind with their per-operation latencies.
#[derive(Debug, Default)]
struct Reps {
    reps: Vec<Rep>,
    /// Every operation's latency, pooled over the repetitions.
    latencies: Latencies,
}

impl Reps {
    fn push(
        &mut self,
        rep: impl FnOnce(&mut Latencies) -> Result<Rep, String>,
    ) -> Result<(), String> {
        self.reps.push(rep(&mut self.latencies)?);
        Ok(())
    }

    /// Median host time of a repetition; 0 if none ran.
    fn elapsed_ns(&self) -> f64 {
        self.median_of(|r| r.elapsed_ns as f64)
    }

    fn sum(&self, field: impl Fn(&Rep) -> u64) -> u64 {
        self.reps.iter().map(field).sum()
    }

    /// Median over repetitions of a per-repetition quantity; 0 if none ran.
    fn median_of(&self, f: impl Fn(&Rep) -> f64) -> f64 {
        stats::median_or_zero(&self.reps.iter().map(f).collect::<Vec<_>>())
    }

    /// Whether the logical-tick outcome was the same in every repetition.
    fn repeats_exactly(&self) -> bool {
        let key = |r: &Rep| {
            (
                r.attempted,
                r.ok,
                r.deadline_missed,
                r.counters.rejected,
                r.counters.evictions,
                r.counters.relocations,
            )
        };
        self.reps.windows(2).all(|w| key(&w[0]) == key(&w[1]))
    }
}

struct Run {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// One run of one workload: set-up, then the untraced repetitions, the
/// traced pass, or both.
fn measure(args: &Args, name: &str) -> Result<bool, String> {
    let min_reps = if args.smoke { 1 } else { 3 };
    let budget = Duration::from_secs_f64(if args.smoke { 0.0 } else { args.seconds });
    if name == "fleet_replay" {
        // Not a wrong output: a run that cannot be pinned is only noisier.
        match pin_to_current_cpu() {
            Ok(cpu) => eprintln!("benchmark: {name} runs on CPU {cpu} only"),
            Err(e) => eprintln!("benchmark: {name} is not pinned to one CPU: {e}"),
        }
    }

    // Set-up, several times over; the last one is kept.
    let mut setup_s = Vec::new();
    let mut workload = None;
    for _ in 0..if args.smoke { 1 } else { SETUPS } {
        let start = Instant::now();
        let setup = Rc::new(SetUp::new(name == "flow_compile")?);
        let mut fresh = Workload::new(name, setup, args.seed, args.smoke)?;
        // Warm-up: one discarded repetition (caches fill, lazy set-up ends).
        let warm_up = fresh.rep(&mut Latencies::default(), None)?;
        if warm_up.failed > 0 {
            return Err(format!(
                "{} wrong outputs in the warm-up repetition",
                warm_up.failed
            ));
        }
        setup_s.push(start.elapsed().as_secs_f64());
        workload = Some(fresh);
    }
    let mut workload = workload.expect("at least one set-up ran");

    println!("== {name} (seed {}, {} s) ==", args.seed, args.seconds);
    let mut run = Run {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    if args.trace != Some(true) {
        end_to_end(&mut workload, &setup_s, budget, min_reps, &mut run)?;
    }
    if args.trace != Some(false) {
        per_layer(&mut workload, budget, min_reps, &mut run)?;
    }
    let (checked, mismatched) = workload.final_readback()?;
    run.attempted += checked;
    run.failed += mismatched;
    run.correct &= run.failed == 0;

    println!("metrics");
    for m in &run.metrics {
        println!("  {:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(&run));
    Ok(run.correct)
}

fn account(run: &mut Run, reps: &Reps, what: &str) {
    run.attempted += reps.sum(|r| r.attempted);
    run.failed += reps.sum(|r| r.failed);
    if !reps.repeats_exactly() {
        eprintln!("benchmark: the {what} repetitions disagree on accepted / rejected / deadline_missed / evictions / relocations");
        run.correct = false;
    }
}

fn end_to_end(
    workload: &mut Workload,
    setup_s: &[f64],
    budget: Duration,
    min_reps: usize,
    run: &mut Run,
) -> Result<(), String> {
    let mut reps = Reps::default();
    let start = Instant::now();
    while reps.reps.len() < min_reps || start.elapsed() < budget {
        reps.push(|latencies| workload.rep(latencies, None))?;
    }
    account(run, &reps, "untraced");

    let throughput: Vec<f64> = reps
        .reps
        .iter()
        .map(|r| r.ok as f64 * 1e9 / r.elapsed_ns as f64)
        .collect();
    let t = stats::summarize(&throughput);
    let s = stats::summarize(setup_s);
    let operations = reps.latencies.seen();
    let [op_q1_us, op_p50_us, op_q3_us] =
        [0.25, 0.5, 0.75].map(|q| reps.latencies.quantile_ns(q) / 1e3);
    println!("end-to-end (untraced): median [q1 .. q3] over n samples");
    println!(
        "  ops_per_s  {:.1} [{:.1} .. {:.1}] 1/s over {} repetitions (best decile {:.1})",
        t.median,
        t.q1,
        t.q3,
        t.n,
        stats::quantile(&stats::sorted(&throughput), 0.9)
    );
    println!(
        "  op_p50_us  {op_p50_us:.2} [{op_q1_us:.2} .. {op_q3_us:.2}] us over {operations} operations, pooled"
    );
    println!(
        "  setup_s    {:.3} [{:.3} .. {:.3}] s over {} set-ups",
        s.median, s.q1, s.q3, s.n
    );

    let attempted = reps.sum(|r| r.attempted) as f64;
    run.metrics.extend([
        metric("setup_s", s.median, "s"),
        metric("ops_per_s", t.median, "1/s"),
        metric("op_p50_us", op_p50_us, "us"),
        metric("ok_ratio", reps.sum(|r| r.ok) as f64 / attempted, "ratio"),
        metric(
            "deadline_met_ratio",
            1.0 - reps.sum(|r| r.deadline_missed) as f64 / attempted,
            "ratio",
        ),
        metric("peak_rss_mb", peak_rss_mb()?, "MB"),
        metric("vbs_ratio", workload.setup.vbs_ratio(), "ratio"),
    ]);
    Ok(())
}

/// Self time per span name, one map per repetition.
type SelfTimes = Vec<BTreeMap<&'static str, SelfTime>>;

/// Median over repetitions of a span name's self time, per repetition and
/// per span; 0 where the repetitions have no such span.
fn span_ns(times: &SelfTimes, name: &str) -> (f64, f64) {
    let of = |f: fn(&SelfTime) -> f64| {
        let per_rep: Vec<f64> = times
            .iter()
            .filter_map(|rep| rep.get(name).map(f))
            .collect();
        stats::median_or_zero(&per_rep)
    };
    (
        of(|t| t.self_ns as f64),
        of(|t| t.self_ns as f64 / t.count as f64),
    )
}

/// The traced pass. An untraced and a traced repetition take turns with
/// what else the workload's layers call for: a pass of stepwise loads at a
/// replay's geometry, a round of the manager probe, `hot_replay` with
/// telemetry on, the fleet's trace on one fabric. Every ratio therefore
/// compares repetitions that ran side by side.
fn per_layer(
    workload: &mut Workload,
    budget: Duration,
    min_reps: usize,
    run: &mut Run,
) -> Result<(), String> {
    let name = workload.name;
    let setup = Rc::clone(&workload.setup);
    // The workloads whose loads go through `TaskManager` relocation or pay a
    // whole `TaskManager::load` each.
    let probes = matches!(name, "cold_load" | "churn_replay");
    let mut probe = ManagerProbe::new(&setup)?;

    let mut base = Reps::default();
    let mut traced = Reps::default();
    let mut layer_pass = Reps::default();
    let mut with_telemetry = Reps::default();
    let mut single_fabric = Reps::default();
    let mut recorder = Recorder::with_capacity(SPAN_CAPACITY);
    let mut self_times: SelfTimes = Vec::new();
    let mut layer_times: SelfTimes = Vec::new();
    let start = Instant::now();
    while base.reps.len() < min_reps.min(2) || start.elapsed() < budget {
        if probes {
            probe.round()?;
        }
        recorder.clear();
        if let Some(rep) = workload.layer_rep(&mut recorder)? {
            layer_pass.reps.push(rep);
            layer_times.push(recorder.self_times());
            recorder.clear();
        }
        base.push(|latencies| workload.rep(latencies, None))?;
        traced.push(|latencies| workload.rep(latencies, Some(&mut recorder)))?;
        self_times.push(recorder.self_times());
        if name == "hot_replay" {
            with_telemetry.push(|latencies| workload.rep_with_telemetry(latencies))?;
        }
        if name == "fleet_replay" {
            single_fabric.push(|latencies| workload.rep_on_single_fabric(latencies))?;
        }
    }
    for (reps, what) in [
        (&base, "untraced"),
        (&traced, "traced"),
        (&layer_pass, "layer-pass"),
        (&with_telemetry, "telemetry"),
        (&single_fabric, "single-fabric"),
    ] {
        account(run, reps, what);
    }

    let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
        .join(format!("trace-{name}.json"));
    recorder
        .write_json(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;

    // Stage table: each stage's median self time over the traced repetitions.
    let base_ns = base.elapsed_ns();
    let op_p50_ns = base.latencies.quantile_ns(0.5);
    let op_p99_ns = base.latencies.quantile_ns(0.99);
    println!(
        "stage table (traced pass, {} repetitions; spans of the last one in {})",
        self_times.len(),
        path.display()
    );
    println!(
        "  {:<26} {:>10} {:>14} {:>10} {:>12}",
        "stage", "spans/rep", "self ns/span", "% of op", "% of rep"
    );
    let mut covered_ns = 0.0;
    for (&stage, first) in &self_times[0] {
        let (per_rep, per_span) = span_ns(&self_times, stage);
        println!(
            "  {:<26} {:>10} {:>14.0} {:>9.1}% {:>11.1}%",
            stage,
            first.count,
            per_span,
            100.0 * per_span / op_p50_ns,
            100.0 * per_rep / base_ns,
        );
        // The root spans only hold loop overhead, and an untraced
        // `cold_load` never verifies: neither is part of the untraced time
        // the stages are meant to add up to.
        if !matches!(stage, "load" | "round" | "compile" | "bitstream.verify") {
            covered_ns += per_rep;
        }
    }

    // The run-time stages: `cold_load`'s traced repetitions are made of the
    // stepwise loads a replay runs as its layer pass.
    let stepwise = if layer_times.is_empty() {
        &self_times
    } else {
        &layer_times
    };
    let stage = |name: &str| span_ns(stepwise, name).1;
    let tasks = &setup.tasks;
    let per_task = |total: f64| total / tasks.len() as f64;
    let mut bytes = 0.0;
    for task in tasks {
        bytes += setup.corpus.stream(&task.name)?.len() as f64;
    }
    let bytes = per_task(bytes);
    let routes = per_task(tasks.iter().map(|t| api::route_count(&t.vbs) as f64).sum());
    let emitted: f64 = tasks.iter().map(|t| t.frames as f64).sum();
    let frames = per_task(
        tasks
            .iter()
            .map(|t| f64::from(t.width) * f64::from(t.height))
            .sum(),
    );
    let (parse, decode) = (stage("core.parse"), stage("core.decode"));

    // The compile stages, and the compression ratio per cluster size.
    let compile_us = |name: &str| span_ns(&self_times, name).1 / 1e3;
    let mut ratios = [0.0; 3];
    if name == "flow_compile" {
        for (k, ratio) in ratios.iter_mut().enumerate() {
            let mut per_circuit = Vec::new();
            for circuit in &setup.circuits {
                let vbs = circuit.compiled.vbs(k as u16 + 1)?;
                per_circuit.push(api::size_bits(&vbs) as f64 / circuit.compiled.raw_bits() as f64);
            }
            *ratio = stats::geomean(&per_circuit);
        }
    }

    let last = base.reps.last().expect("at least one repetition");
    let scheduled = workload.trace().is_some();
    let fleet = name == "fleet_replay";
    let per_event = base_ns / last.events as f64;
    let share =
        |micros: fn(&Rep) -> u64| base.median_of(|r| micros(r) as f64 * 1e3 / r.elapsed_ns as f64);
    let per_fabric = &last.counters.accepted_per_fabric;
    let skew = match (per_fabric.iter().max(), per_fabric.iter().min()) {
        (Some(&max), Some(&min)) if fleet => {
            (max - min) as f64 * per_fabric.len() as f64 / per_fabric.iter().sum::<u64>() as f64
        }
        _ => 0.0,
    };
    // 0 where the comparison does not apply to the workload.
    let ratio = |over: &Reps, under: &Reps| {
        if over.reps.is_empty() || under.reps.is_empty() {
            0.0
        } else {
            over.elapsed_ns() / under.elapsed_ns()
        }
    };
    let count = |value: u64| value as f64;
    let c = &last.counters;
    run.metrics.extend([
        metric("core.parse_ns", parse, "ns"),
        metric("core.parse_ns_per_byte", parse / bytes, "ns/B"),
        metric("core.decode_ns", decode, "ns"),
        metric(
            "core.decode_ns_per_frame",
            decode * tasks.len() as f64 / emitted,
            "ns/frame",
        ),
        metric("core.decode_ns_per_route", decode / routes, "ns/route"),
        metric(
            "core.decode_frames",
            if decode > 0.0 { emitted } else { 0.0 },
            "count",
        ),
        metric("core.encode_us", compile_us("core.encode"), "us"),
        metric("core.encode.ratio_k1", ratios[0], "ratio"),
        metric("core.encode.ratio_k2", ratios[1], "ratio"),
        metric("core.encode.ratio_k3", ratios[2], "ratio"),
        metric("netlist.parse_us", compile_us("netlist.parse"), "us"),
        metric("place.us", compile_us("place"), "us"),
        metric("route.us", compile_us("route"), "us"),
        metric(
            "bitstream.generate_us",
            compile_us("bitstream.generate"),
            "us",
        ),
        metric(
            "bitstream.write_ns_per_frame",
            stage("bitstream.write") / frames,
            "ns/frame",
        ),
        metric(
            "bitstream.clear_ns_per_frame",
            stage("bitstream.clear") / frames,
            "ns/frame",
        ),
        metric(
            "bitstream.verify_ns_per_frame",
            stage("bitstream.verify") / frames,
            "ns/frame",
        ),
        metric("runtime.place_ns", stage("runtime.place"), "ns"),
    ]);
    run.metrics.extend(probe.finish());
    run.metrics.extend([
        metric(
            "sched.submit_ns",
            span_ns(&self_times, "sched.submit").0 / last.events as f64,
            "ns",
        ),
        metric(
            "sched.round_ns_per_event",
            if scheduled && !fleet { per_event } else { 0.0 },
            "ns",
        ),
        metric(
            "sched.load_p99_ns",
            if scheduled { op_p99_ns } else { 0.0 },
            "ns",
        ),
        metric("sched.accepted", count(c.accepted), "count"),
        metric("sched.rejected", count(c.rejected), "count"),
        metric("sched.deadline_missed", count(c.deadline_missed), "count"),
        metric("sched.decodes", count(c.decodes), "count"),
        metric(
            "sched.decode_share",
            share(|r| r.counters.decode_micros),
            "ratio",
        ),
        metric("sched.evictions", count(c.evictions), "count"),
        metric("sched.relocations", count(c.relocations), "count"),
        metric(
            "sched.compaction_passes",
            count(c.compaction_passes),
            "count",
        ),
        metric(
            "sched.compaction_share",
            share(|r| r.counters.compaction_micros),
            "ratio",
        ),
        // Under a finite cache budget admission uses measured decode
        // microseconds, so the cache counters vary run to run: medians.
        metric(
            "sched.cache.hit_ratio",
            base.median_of(|r| {
                let lookups = r.counters.cache_hits + r.counters.cache_misses;
                r.counters.cache_hits as f64 / lookups.max(1) as f64
            }),
            "ratio",
        ),
        metric(
            "sched.cache.warm_hits",
            base.median_of(|r| r.counters.warm_hits as f64),
            "count",
        ),
        metric(
            "sched.cache.demotions",
            base.median_of(|r| r.counters.demotions as f64),
            "count",
        ),
        metric(
            "sched.cache.resident_bytes",
            base.median_of(|r| r.counters.cache_resident_bytes as f64),
            "B",
        ),
        metric(
            "sched.multi.round_ns_per_event",
            if fleet { per_event } else { 0.0 },
            "ns",
        ),
        metric("sched.multi.migrations", count(c.migrations), "count"),
        metric("sched.multi.accept_skew", skew, "ratio"),
        // Host time of the fleet over host time of one fabric, same trace.
        metric(
            "sched.multi.vs_single_ratio",
            ratio(&base, &single_fabric),
            "ratio",
        ),
        metric(
            "telemetry.overhead_ratio",
            ratio(&with_telemetry, &base),
            "ratio",
        ),
        metric("trace.coverage", covered_ns / base_ns, "ratio"),
        metric("trace.overhead_ratio", ratio(&traced, &base), "ratio"),
    ]);
    Ok(())
}

fn result_json(run: &Run) -> String {
    let metrics: Vec<String> = run
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.correct,
        run.attempted,
        run.failed,
        metrics.join(", ")
    )
}

/// Two full sets of runs back to back, on the same seeds. Fails when the
/// two medians of an end-to-end metric differ by more than the bound
/// `BENCHMARK.json` gives it, or differ at all for a metric in `EXACT`.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let manifest = manifest()?;
    let bounds: Vec<(String, f64)> = manifest
        .get("end_to_end")
        .map(json::Value::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect();
    if bounds.is_empty() {
        return Err("BENCHMARK.json: no end_to_end metrics".into());
    }

    let args = Args {
        trace: Some(false),
        ..args.clone()
    };
    // sets[set][workload][metric] = median over the set's runs
    let mut sets: Vec<Vec<Vec<f64>>> = Vec::new();
    for set in 0..2 {
        let mut per_workload = Vec::new();
        for name in workloads::NAMES {
            let mut samples = vec![Vec::new(); bounds.len()];
            for run in 0..SELFCHECK_RUNS {
                eprintln!(
                    "selfcheck: set {} of 2, {name}, run {} of {SELFCHECK_RUNS}",
                    set + 1,
                    run + 1,
                );
                let output = this_program(&args, name, args.seed + run as u64)?
                    .stdout(Stdio::piped())
                    .output()
                    .map_err(|e| format!("{name}: {e}"))?;
                if !output.status.success() {
                    return Err(format!("{name}: the run failed ({})", output.status));
                }
                let stdout = String::from_utf8_lossy(&output.stdout);
                let result = json::parse(stdout.lines().last().unwrap_or_default())
                    .map_err(|e| format!("{name}: result line: {e}"))?;
                for ((metric, _), samples) in bounds.iter().zip(&mut samples) {
                    let value = result
                        .get("metrics")
                        .and_then(|m| m.get(metric))
                        .and_then(|m| m.get("value"))
                        .and_then(json::Value::as_f64)
                        .ok_or_else(|| format!("{name}: no `{metric}` in the result"))?;
                    samples.push(value);
                }
            }
            per_workload.push(samples.iter().map(|s| stats::median(s)).collect());
        }
        sets.push(per_workload);
    }

    let mut within = true;
    println!(
        "{:<14} {:<20} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "first", "second", "differ", "bound"
    );
    for (w, name) in workloads::NAMES.iter().enumerate() {
        for (m, (metric, bound)) in bounds.iter().enumerate() {
            let (first, second) = (sets[0][w][m], sets[1][w][m]);
            let differ = (second - first).abs() / first.abs();
            let bound = if EXACT.contains(&metric.as_str()) {
                0.0
            } else {
                *bound
            };
            let ok = differ <= bound;
            within &= ok;
            println!(
                "{name:<14} {metric:<20} {first:>14.4} {second:>14.4} {:>7.2}% {:>6.1}%{}",
                100.0 * differ,
                100.0 * bound,
                if ok { "" } else { "  <-- beyond its bound" }
            );
        }
    }
    Ok(within)
}
