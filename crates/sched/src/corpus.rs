//! The checked-in MCNC trace corpus: loader and deterministic golden
//! replay.
//!
//! `tests/traces/mcnc/` (workspace root) holds the output of running the
//! MCNC circuit set end-to-end through the CAD flow — BLIF text, encoded
//! `.vbs` streams, workload traces and a `manifest.txt` tying them
//! together. This module loads that corpus into a [`VbsRepository`] and
//! replays its traces through the single- and multi-fabric schedulers with
//! the exact configuration the golden counters were recorded under, so the
//! corpus test, the drift-checking CI binary and the benchmarks all share
//! one definition of "the MCNC replay".
//!
//! Manifest format (line-oriented, `#` comments):
//!
//! ```text
//! arch <channel_width> <lut_size>
//! single <width> <height>
//! fleet <k> <width> <height>
//! task <name> <file> <grid_width> <grid_height> <luts>
//! trace <name> <file>
//! ```
//!
//! All tasks share the one `arch` line — the config memory rejects foreign
//! layouts, so a corpus mixing architectures could never replay.

use crate::evict::LruEviction;
use crate::fault::{FaultInjector, FaultPlan};
use crate::multi::MultiFabricScheduler;
use crate::scheduler::{Scheduler, SchedulerConfig};
use crate::shard::{shard_policy_by_name, SHARD_POLICY_NAMES};
use crate::sim::{replay, replay_multi};
use crate::trace::{Trace, TraceError, TraceEvent, TraceOp};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use vbs_arch::{ArchSpec, Device};
use vbs_runtime::{FirstFit, ReconfigurationController, TaskManager, VbsRepository};

/// Errors raised while loading a corpus directory.
#[derive(Debug)]
pub enum CorpusError {
    /// A file could not be read.
    Io {
        /// The offending path.
        path: PathBuf,
        /// The underlying error message.
        message: String,
    },
    /// The manifest did not parse.
    Manifest {
        /// 1-based manifest line.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// A trace file did not parse.
    Trace {
        /// The trace name from the manifest.
        name: String,
        /// The underlying trace error.
        error: TraceError,
    },
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Io { path, message } => {
                write!(f, "corpus file {}: {message}", path.display())
            }
            CorpusError::Manifest { line, reason } => {
                write!(f, "corpus manifest line {line}: {reason}")
            }
            CorpusError::Trace { name, error } => {
                write!(f, "corpus trace `{name}`: {error}")
            }
        }
    }
}

impl std::error::Error for CorpusError {}

/// One task entry of the corpus manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusTask {
    /// Repository name (`alu4`, or `alu4@s` for a variant).
    pub name: String,
    /// The `.vbs` file, relative to the corpus directory.
    pub file: String,
    /// Placed grid width in macro columns.
    pub width: u16,
    /// Placed grid height in macro rows.
    pub height: u16,
    /// LUT count of the circuit behind the stream.
    pub luts: usize,
}

/// The parsed corpus: architecture, fabric shapes, task streams and traces.
#[derive(Debug, Clone)]
pub struct McncCorpus {
    /// Channel width (`W`) every stream was encoded for.
    pub channel_width: u16,
    /// LUT size (`K`) every stream was encoded for.
    pub lut_size: u8,
    /// Single-fabric replay device shape.
    pub single: (u16, u16),
    /// Fleet replay shape: `(k, width, height)`.
    pub fleet: (usize, u16, u16),
    /// Task entries, in manifest order.
    pub tasks: Vec<CorpusTask>,
    /// The serialized streams, keyed by task name.
    pub repository: VbsRepository,
    /// `(name, trace)` pairs, in manifest order.
    pub traces: Vec<(String, Trace)>,
}

/// The manifest with file references still unresolved.
#[derive(Debug)]
struct Manifest {
    channel_width: u16,
    lut_size: u8,
    single: (u16, u16),
    fleet: (usize, u16, u16),
    tasks: Vec<CorpusTask>,
    traces: Vec<(String, String)>,
}

/// Parses the manifest and checks the geometry it declares: the `arch`
/// line must name a valid [`ArchSpec`], `single` and `fleet` valid
/// [`Device`] shapes on it, and the fleet at least one fabric — so every
/// corpus that loads can build its schedulers.
fn parse_manifest(text: &str) -> Result<Manifest, CorpusError> {
    // Each shape line with its 1-based line number, for the geometry errors.
    let mut arch: Option<(usize, u16, u8)> = None;
    let mut single: Option<(usize, u16, u16)> = None;
    let mut fleet: Option<(usize, usize, u16, u16)> = None;
    let mut tasks = Vec::new();
    let mut traces = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let n = idx + 1;
        let err = |reason: String| CorpusError::Manifest { line: n, reason };
        let fields: Vec<&str> = line.split_whitespace().collect();
        // Each number parses into its field's own type, so an out-of-range
        // value is an error instead of a silent truncation.
        let bad = |field: &str, what: &str| err(format!("invalid {what} `{field}`"));
        match fields.as_slice() {
            ["arch", w, k] => {
                let w = w.parse().map_err(|_| bad(w, "channel width"))?;
                arch = Some((n, w, k.parse().map_err(|_| bad(k, "lut size"))?));
            }
            ["single", w, h] => {
                let w = w.parse().map_err(|_| bad(w, "width"))?;
                single = Some((n, w, h.parse().map_err(|_| bad(h, "height"))?));
            }
            ["fleet", k, w, h] => {
                let k = k.parse().map_err(|_| bad(k, "fleet size"))?;
                let w = w.parse().map_err(|_| bad(w, "width"))?;
                fleet = Some((n, k, w, h.parse().map_err(|_| bad(h, "height"))?));
            }
            ["task", name, file, w, h, luts] => {
                tasks.push(CorpusTask {
                    name: (*name).to_string(),
                    file: (*file).to_string(),
                    width: w.parse().map_err(|_| bad(w, "width"))?,
                    height: h.parse().map_err(|_| bad(h, "height"))?,
                    luts: luts.parse().map_err(|_| bad(luts, "lut count"))?,
                });
            }
            ["trace", name, file] => {
                traces.push(((*name).to_string(), (*file).to_string()));
            }
            _ => return Err(err(format!("unrecognized manifest line `{line}`"))),
        }
    }
    let missing = |what: &str| CorpusError::Manifest {
        line: 0,
        reason: format!("missing `{what}` line"),
    };
    let invalid = |line: usize, reason: &dyn fmt::Display| CorpusError::Manifest {
        line,
        reason: reason.to_string(),
    };
    let (line, channel_width, lut_size) = arch.ok_or_else(|| missing("arch"))?;
    let spec = ArchSpec::new(channel_width, lut_size).map_err(|e| invalid(line, &e))?;
    let (line, width, height) = single.ok_or_else(|| missing("single"))?;
    Device::new(spec, width, height).map_err(|e| invalid(line, &e))?;
    let single = (width, height);
    let (line, k, width, height) = fleet.ok_or_else(|| missing("fleet"))?;
    if k == 0 {
        return Err(invalid(line, &"a fleet needs at least one fabric"));
    }
    Device::new(spec, width, height).map_err(|e| invalid(line, &e))?;
    Ok(Manifest {
        channel_width,
        lut_size,
        single,
        fleet: (k, width, height),
        tasks,
        traces,
    })
}

impl McncCorpus {
    /// Loads the corpus from `dir` (the directory holding `manifest.txt`).
    ///
    /// # Errors
    ///
    /// Returns a [`CorpusError`] when a file is unreadable, the manifest
    /// does not parse or declares an invalid architecture or fabric shape,
    /// or a trace does not parse.
    pub fn load(dir: impl AsRef<Path>) -> Result<McncCorpus, CorpusError> {
        let dir = dir.as_ref();
        let read = |path: PathBuf| -> Result<Vec<u8>, CorpusError> {
            std::fs::read(&path).map_err(|e| CorpusError::Io {
                path,
                message: e.to_string(),
            })
        };
        let manifest_text = read(dir.join("manifest.txt"))?;
        let manifest = parse_manifest(&String::from_utf8_lossy(&manifest_text))?;
        let mut repository = VbsRepository::new();
        for task in &manifest.tasks {
            repository.store_bytes(task.name.clone(), read(dir.join(&task.file))?);
        }
        let mut traces = Vec::with_capacity(manifest.traces.len());
        for (name, file) in &manifest.traces {
            let text = read(dir.join(file))?;
            let trace = Trace::from_text(&String::from_utf8_lossy(&text)).map_err(|error| {
                CorpusError::Trace {
                    name: name.clone(),
                    error,
                }
            })?;
            traces.push((name.clone(), trace));
        }
        Ok(McncCorpus {
            channel_width: manifest.channel_width,
            lut_size: manifest.lut_size,
            single: manifest.single,
            fleet: manifest.fleet,
            tasks: manifest.tasks,
            repository,
            traces,
        })
    }

    /// Looks up a trace by manifest name.
    pub fn trace(&self, name: &str) -> Option<&Trace> {
        self.traces.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }

    /// The replay scheduler configuration the golden counters are recorded
    /// under (mirrors the `tests/traces/*.golden` fleet configuration).
    pub fn replay_config() -> SchedulerConfig {
        SchedulerConfig {
            eviction_limit: 1,
            compaction: true,
            ..SchedulerConfig::default()
        }
    }

    fn device(&self, width: u16, height: u16) -> Device {
        let spec = ArchSpec::new(self.channel_width, self.lut_size).expect("corpus arch spec");
        Device::new(spec, width, height).expect("corpus device")
    }

    /// The single-fabric replay scheduler over the corpus repository.
    pub fn single_scheduler(&self) -> Scheduler {
        self.single_scheduler_with(Self::replay_config())
    }

    /// The single-fabric replay scheduler under an explicit configuration —
    /// the finite-cache-budget replays verify their goldens through this.
    pub fn single_scheduler_with(&self, config: SchedulerConfig) -> Scheduler {
        let (width, height) = self.single;
        self.scheduler_over(self.repository.clone(), width, height, config)
    }

    /// A replay scheduler over an explicit repository (e.g. the scaled
    /// instance population of [`McncCorpus::scaled_repository`]) on an
    /// arbitrary fabric shape.
    pub fn scheduler_over(
        &self,
        repository: VbsRepository,
        width: u16,
        height: u16,
        config: SchedulerConfig,
    ) -> Scheduler {
        let manager = TaskManager::new(
            ReconfigurationController::new(self.device(width, height)),
            repository,
        )
        .with_policy(Box::new(FirstFit));
        Scheduler::with_config(manager, Box::new(LruEviction), config)
    }

    /// The corpus circuits without their `@` variants — the base library a
    /// scaled fleet population draws from.
    fn base_tasks(&self) -> Vec<&CorpusTask> {
        self.tasks
            .iter()
            .filter(|t| !t.name.contains('@'))
            .collect()
    }

    fn instance_name(base: &str, i: usize) -> String {
        format!("{base}#{i:02}")
    }

    /// A production-scale task population: `instances` instance names
    /// (`circuit#NN`, round-robin over the corpus base circuits), each
    /// backed by that circuit's checked-in stream bytes — a fleet serving
    /// many deployed tasks compiled from a small circuit library.
    ///
    /// # Panics
    ///
    /// Panics if `instances` is 0.
    pub fn scaled_repository(&self, instances: usize) -> VbsRepository {
        assert!(instances > 0, "population needs at least one instance");
        let bases = self.base_tasks();
        let mut repository = VbsRepository::new();
        for i in 0..instances {
            let base = &bases[i % bases.len()];
            let bytes = self
                .repository
                .bytes(&base.name)
                .expect("base stream present")
                .to_vec();
            repository.store_bytes(Self::instance_name(&base.name, i), bytes);
        }
        repository
    }

    /// The steady-state trace over that population: `loads` arrivals where
    /// a 4-member dominant working set (the head) draws ~94% of the traffic
    /// and the remaining ~6% spreads uniformly over the cold tail — the
    /// steady-fleet texture, where a few tasks cycle constantly while the
    /// long tail of registered instances is touched only occasionally.
    /// Uniform inter-arrival and resident-duration draws like
    /// [`Trace::synthetic`]. Same `(instances, loads, seed)` →
    /// bit-identical trace.
    ///
    /// # Panics
    ///
    /// Panics if `instances` or `loads` is 0.
    pub fn scaled_steady_trace(&self, instances: usize, loads: usize, seed: u64) -> Trace {
        assert!(instances > 0, "population needs at least one instance");
        assert!(loads > 0, "workload needs at least one load");
        let bases = self.base_tasks();
        let names: Vec<String> = (0..instances)
            .map(|i| Self::instance_name(&bases[i % bases.len()].name, i))
            .collect();
        // Head ranks split 940k total weight, tail ranks split 60k: with
        // the default 48-instance population that is a ~172:1 per-rank
        // odds ratio between a head member and a tail member.
        let head = 4usize.min(instances);
        let tail = (instances - head).max(1) as u64;
        let weights: Vec<u64> = (0..instances)
            .map(|r| {
                if r < head {
                    940_000 / head as u64
                } else {
                    (60_000 / tail).max(1)
                }
            })
            .collect();
        let total: u64 = weights.iter().sum();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5ca1_ab1e_f1ee_7000);
        let mut events = Vec::with_capacity(loads * 2);
        let mut tick = 0u64;
        for job in 1..=loads as u64 {
            tick += rng.gen_range(1u64..=6);
            let mut pick = rng.gen_range(0..total);
            let mut rank = 0usize;
            while pick >= weights[rank] {
                pick -= weights[rank];
                rank += 1;
            }
            events.push(TraceEvent {
                tick,
                op: TraceOp::Load {
                    job,
                    task: names[rank].clone(),
                    priority: (job % 4) as u8,
                    deadline: Some(tick + 64),
                },
            });
            events.push(TraceEvent {
                tick: tick + rng.gen_range(1u64..=48),
                op: TraceOp::Unload { job },
            });
        }
        let mut trace = Trace { events };
        trace.normalize();
        trace
    }

    /// The fleet replay scheduler, dispatching through the shard policy
    /// named `policy` (`None` for unknown names).
    pub fn fleet_scheduler(&self, policy: &str) -> Option<MultiFabricScheduler> {
        self.fleet_scheduler_with(policy, Self::replay_config())
    }

    /// The fleet replay scheduler under an explicit per-fabric scheduler
    /// configuration.
    fn fleet_scheduler_with(
        &self,
        policy: &str,
        config: SchedulerConfig,
    ) -> Option<MultiFabricScheduler> {
        let shard = shard_policy_by_name(policy)?;
        let (k, width, height) = self.fleet;
        let fabrics = (0..k)
            .map(|_| self.scheduler_over(self.repository.clone(), width, height, config))
            .collect();
        Some(MultiFabricScheduler::new(fabrics, shard))
    }

    /// Deterministically replays every corpus trace through the single
    /// scheduler and the fleet under every shard policy, and renders one
    /// counter line per replay:
    ///
    /// ```text
    /// <trace> single <accepted> <rejected> <deadline_missed> <evictions> <relocations>
    /// <trace> fleet:<policy> <accepted> <rejected> <migrations> <evictions> <relocations> <per-fabric accepted...>
    /// ```
    ///
    /// These lines are the corpus goldens: the replay test and the CI drift
    /// check compare them verbatim against `replay.golden`.
    pub fn golden_lines(&self) -> Vec<String> {
        self.golden_lines_with(Self::replay_config())
    }

    /// [`Self::golden_lines`] under an explicit scheduler configuration.
    ///
    /// The golden counters pin only budget-invariant behavior (accepted,
    /// rejected, migrations, evictions, relocations, deadlines), so a
    /// finite-cache-budget replay must reproduce them line for line — as
    /// long as the warm tier is roomy enough to retain every task name,
    /// since [`crate::CacheAffinity`] routes on name retention. The
    /// finite-budget re-verification tests call this.
    pub fn golden_lines_with(&self, config: SchedulerConfig) -> Vec<String> {
        let mut lines = Vec::new();
        for (name, trace) in &self.traces {
            let mut single = self.single_scheduler_with(config);
            let report = replay(&mut single, trace);
            lines.push(format!(
                "{name} single {} {} {} {} {}",
                report.sched.loads_accepted,
                report.sched.loads_rejected,
                report.sched.deadline_missed,
                report.sched.evictions,
                report.sched.relocations,
            ));
            for &policy in SHARD_POLICY_NAMES {
                let mut fleet = self
                    .fleet_scheduler_with(policy, config)
                    .expect("SHARD_POLICY_NAMES are resolvable");
                let report = replay_multi(&mut fleet, trace);
                let mut line = format!(
                    "{name} fleet:{policy} {} {} {} {} {}",
                    report.multi.loads_accepted,
                    report.multi.loads_rejected,
                    report.multi.migrations,
                    report
                        .fabrics
                        .iter()
                        .map(|f| f.sched.evictions)
                        .sum::<u64>(),
                    report
                        .fabrics
                        .iter()
                        .map(|f| f.sched.relocations)
                        .sum::<u64>(),
                );
                for fabric in &report.fabrics {
                    line.push_str(&format!(" {}", fabric.sched.loads_accepted));
                }
                lines.push(line);
            }
        }
        lines
    }

    /// The seeded fault schedules of the chaos replay, one plan per fleet
    /// fabric (see `crate::fault` for the format). Fabric 0 suffers
    /// scattered write faults plus a whole-fabric outage over the middle of
    /// the steady trace; fabric 1 stays reachable but flaky, so the
    /// survivors' self-healing (retry, scrub, re-placement) is exercised
    /// while it absorbs the evacuated residents.
    pub const CHAOS_PLANS: [&'static str; 2] = [
        "seed 42\nwrite 3 transient\nwrite 9 corrupt\nwrite 14 persistent\noutage 55 90\n",
        "seed 43\nwrite 5 transient\nwrite 11 corrupt\nwrite 20 transient\n",
    ];

    /// The fleet replay scheduler with the chaos fault schedules installed:
    /// readback verification on, one [`FaultInjector`] per fabric replaying
    /// [`Self::CHAOS_PLANS`].
    pub fn chaos_fleet_scheduler(&self) -> MultiFabricScheduler {
        self.chaos_fleet_scheduler_with(Self::replay_config())
    }

    /// [`Self::chaos_fleet_scheduler`] under an explicit per-fabric
    /// configuration — the finite-cache-budget chaos re-verification
    /// replays the chaos goldens through this.
    fn chaos_fleet_scheduler_with(&self, config: SchedulerConfig) -> MultiFabricScheduler {
        let mut fleet = self
            .fleet_scheduler_with("round-robin", config)
            .expect("round-robin resolves");
        for (i, plan) in Self::CHAOS_PLANS
            .iter()
            .enumerate()
            .take(fleet.fabric_count())
        {
            let plan = FaultPlan::parse(plan).expect("chaos plans parse");
            let fabric = fleet.fabric_mut(i);
            fabric.set_verify(true);
            fabric.set_fault_hook(Some(Arc::new(FaultInjector::new(plan))));
        }
        fleet
    }

    /// Replays the steady trace through the fleet under the chaos fault
    /// schedules and renders deterministic counter lines — the chaos
    /// goldens. Two runs of this function must produce identical lines;
    /// the chaos test and the `chaos` CI binary both pin that.
    ///
    /// ```text
    /// chaos steady fleet <accepted> <rejected> <migrations> <quarantines> <recoveries> <requeued> <degraded>
    /// chaos steady fabric<i> <accepted> <rejected> <write_faults> <write_retries> <crc_mismatches> <verify_scrubs>
    /// ```
    pub fn chaos_lines(&self) -> Vec<String> {
        self.chaos_lines_with(Self::replay_config())
    }

    /// [`Self::chaos_lines`] under an explicit per-fabric configuration —
    /// the finite-cache-budget chaos re-verification replays the chaos
    /// goldens through this. Every pinned chaos counter (faults, retries,
    /// CRC mismatches, scrubs included) is budget-invariant: a warm re-
    /// decode still fetches and writes through the same faultable path.
    pub fn chaos_lines_with(&self, config: SchedulerConfig) -> Vec<String> {
        let mut fleet = self.chaos_fleet_scheduler_with(config);
        let trace = self.trace("steady").expect("steady trace present");
        let report = replay_multi(&mut fleet, trace);
        let mut lines = vec![format!(
            "chaos steady fleet {} {} {} {} {} {} {}",
            report.multi.loads_accepted,
            report.multi.loads_rejected,
            report.multi.migrations,
            report.multi.quarantines,
            report.multi.recoveries,
            report.multi.residents_requeued,
            report.multi.degraded_accepts,
        )];
        for (i, fabric) in report.fabrics.iter().enumerate() {
            lines.push(format!(
                "chaos steady fabric{i} {} {} {} {} {} {}",
                fabric.sched.loads_accepted,
                fabric.sched.loads_rejected,
                fabric.sched.write_faults,
                fabric.sched.write_retries,
                fabric.sched.crc_mismatches,
                fabric.sched.verify_scrubs,
            ));
        }
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MANIFEST: &str = "\
# vbs mcnc corpus v1
arch 10 6
single 14 14
fleet 2 12 12

task alu4 alu4.vbs 7 7 61
task tseng tseng.vbs 6 6 44
trace steady steady.trace
";

    #[test]
    fn manifest_parses() {
        let m = parse_manifest(MANIFEST).expect("manifest");
        assert_eq!((m.channel_width, m.lut_size), (10, 6));
        assert_eq!(m.single, (14, 14));
        assert_eq!(m.fleet, (2, 12, 12));
        assert_eq!(m.tasks.len(), 2);
        assert_eq!(m.tasks[0].name, "alu4");
        assert_eq!(m.tasks[0].luts, 61);
        assert_eq!(
            m.traces,
            vec![("steady".to_string(), "steady.trace".to_string())]
        );
    }

    #[test]
    fn manifest_rejects_garbage_with_line_numbers() {
        let err = parse_manifest("arch 10 6\nbogus line here\n").unwrap_err();
        assert!(
            matches!(err, CorpusError::Manifest { line: 2, .. }),
            "{err:?}"
        );
        let err = parse_manifest("arch ten 6\n").unwrap_err();
        assert!(err.to_string().contains("channel width"), "{err}");
        let err = parse_manifest("single 14 14\n").unwrap_err();
        assert!(err.to_string().contains("arch"), "{err}");
    }

    /// Values the builders would refuse (or that used to wrap on a cast)
    /// are refused at load, on their own line, so `single_scheduler` and
    /// `fleet_scheduler` cannot panic on a corpus that loaded.
    #[test]
    fn manifest_rejects_invalid_geometry() {
        for (line, bad, what) in [
            (2, "arch 10 262", "lut size"),
            (2, "arch 10 9", "LUT size"),
            (2, "arch 1 6", "channel width"),
            (3, "single 0 14", "device size"),
            (3, "single 70000 14", "width"),
            (4, "fleet 0 12 12", "at least one fabric"),
            (4, "fleet 2 12 0", "device size"),
        ] {
            let keyword = bad.split(' ').next().unwrap();
            let text: String = MANIFEST
                .lines()
                .map(|l| if l.starts_with(keyword) { bad } else { l })
                .map(|l| format!("{l}\n"))
                .collect();
            let err = parse_manifest(&text).unwrap_err();
            assert!(
                matches!(err, CorpusError::Manifest { line: l, .. } if l == line),
                "`{bad}`: {err:?}"
            );
            assert!(err.to_string().contains(what), "`{bad}`: {err}");
        }
    }
}
