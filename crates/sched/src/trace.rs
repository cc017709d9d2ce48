//! Workload traces: a deterministic event stream the simulator replays.
//!
//! A trace is a tick-ordered list of `load` / `unload` events referencing
//! tasks by repository name and jobs by a caller-chosen id. Traces come from
//! two places: [`Trace::synthetic`] generates one from a seeded RNG (the
//! reproducible heavy-traffic workloads of the benchmarks), and
//! [`Trace::from_text`] parses the line-oriented format below so real
//! workloads can be captured and replayed:
//!
//! ```text
//! # vbs-sched trace v1
//! load <tick> <job> <task> <priority> [deadline]
//! unload <tick> <job>
//! swap <tick> <job> <task> <priority> [deadline]
//! ```
//!
//! `swap` atomically replaces the resident configuration of a live job with
//! a different pre-encoded variant of it (the ForgeMorph-style scenario:
//! one task encoded at several sizes/latencies, exchanged on the fly under
//! a deadline). Within a tick the simulator orders `unload` < `swap` <
//! `load`, so a swap can reuse the area its own job just vacated before
//! new arrivals compete for it. [`Trace::variant_swap`] generates such a
//! scenario, optionally over a background workload.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// One event of a workload trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Tick the event fires at.
    pub tick: u64,
    /// What happens.
    pub op: TraceOp,
}

/// The operation of a [`TraceEvent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceOp {
    /// A task arrives and wants the fabric.
    Load {
        /// Trace-local job id (unique per trace).
        job: u64,
        /// Task name in the repository.
        task: String,
        /// Request priority.
        priority: u8,
        /// Optional absolute-tick deadline.
        deadline: Option<u64>,
    },
    /// A previously arrived job departs.
    Unload {
        /// The trace-local job id that departs.
        job: u64,
    },
    /// A live job exchanges its resident configuration for another
    /// pre-encoded variant (unload + load under one trace-local job id).
    Swap {
        /// The trace-local job id being morphed.
        job: u64,
        /// Repository name of the variant to load.
        task: String,
        /// Priority of the replacement load.
        priority: u8,
        /// Optional absolute-tick deadline for the replacement load.
        deadline: Option<u64>,
    },
}

/// Errors raised while parsing or serializing a trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// A line did not match the expected syntax.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// A task name cannot be represented in the whitespace-separated line
    /// format (empty, contains whitespace, or starts with `#`).
    BadTaskName {
        /// The offending name.
        name: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Malformed { line, reason } => {
                write!(f, "trace line {line}: {reason}")
            }
            TraceError::BadTaskName { name } => {
                write!(f, "task name {name:?} cannot appear in a trace file")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// Parameters of the synthetic workload generator.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Task names to draw from (uniformly).
    pub tasks: Vec<String>,
    /// Number of load events to generate (each gets a matching unload).
    pub loads: usize,
    /// Mean ticks between arrivals (inter-arrival is uniform in
    /// `1..=2*mean`).
    pub mean_interarrival: u64,
    /// Mean resident duration in ticks (uniform in `1..=2*mean`).
    pub mean_duration: u64,
    /// Priorities are drawn uniformly from `0..priority_levels` (min 1).
    pub priority_levels: u8,
    /// When set, every load gets `deadline = arrival + slack`.
    pub deadline_slack: Option<u64>,
    /// RNG seed; the same spec always yields the same trace.
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            tasks: Vec::new(),
            loads: 100,
            mean_interarrival: 4,
            mean_duration: 20,
            priority_levels: 4,
            deadline_slack: None,
            seed: 1,
        }
    }
}

/// Parameters of the variant-swap scenario generator
/// ([`Trace::variant_swap`]): one logical task pre-encoded as several
/// variants (sizes/latencies), exchanged on the fly under a deadline while
/// an optional background workload keeps the fabric contended.
#[derive(Debug, Clone, PartialEq)]
pub struct VariantSwapSpec {
    /// Repository names of the variants, cycled through in order. The
    /// first is loaded at `start`; each swap advances to the next.
    pub variants: Vec<String>,
    /// Number of swap events after the initial load.
    pub swaps: usize,
    /// Ticks between consecutive swaps.
    pub period: u64,
    /// Every load/swap gets `deadline = tick + slack` when set.
    pub deadline_slack: Option<u64>,
    /// Priority of the variant job's load and swap requests.
    pub priority: u8,
    /// Tick of the initial variant load.
    pub start: u64,
    /// Optional background workload merged into the trace (its job ids are
    /// `1..=loads`; the variant job comes after them).
    pub background: Option<WorkloadSpec>,
}

impl Default for VariantSwapSpec {
    fn default() -> Self {
        VariantSwapSpec {
            variants: Vec::new(),
            swaps: 8,
            period: 16,
            deadline_slack: Some(4),
            priority: 3,
            start: 1,
            background: None,
        }
    }
}

/// A tick-ordered workload trace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    /// The events, sorted by tick (unloads before loads within a tick).
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Generates a deterministic synthetic trace: `spec.loads` arrivals with
    /// uniform inter-arrival times, each followed by a departure after a
    /// uniform duration.
    ///
    /// # Panics
    ///
    /// Panics if `spec.tasks` is empty or `spec.loads` is 0.
    pub fn synthetic(spec: &WorkloadSpec) -> Trace {
        assert!(!spec.tasks.is_empty(), "workload needs at least one task");
        assert!(spec.loads > 0, "workload needs at least one load");
        let mut rng = SmallRng::seed_from_u64(spec.seed ^ 0x7ace_5eed_0000_cafe);
        let mut events = Vec::with_capacity(spec.loads * 2);
        let mut tick = 0u64;
        for job in 1..=spec.loads as u64 {
            tick += rng.gen_range(1..=spec.mean_interarrival.max(1) * 2);
            let task = spec.tasks[rng.gen_range(0..spec.tasks.len())].clone();
            let priority = rng.gen_range(0..spec.priority_levels.max(1));
            let deadline = spec.deadline_slack.map(|s| tick + s);
            events.push(TraceEvent {
                tick,
                op: TraceOp::Load {
                    job,
                    task,
                    priority,
                    deadline,
                },
            });
            let departure = tick + rng.gen_range(1..=spec.mean_duration.max(1) * 2);
            events.push(TraceEvent {
                tick: departure,
                op: TraceOp::Unload { job },
            });
        }
        let mut trace = Trace { events };
        trace.normalize();
        trace
    }

    /// Generates the deterministic variant-swap scenario: one long-lived
    /// job loads `variants[0]` at `spec.start`, then swaps to the next
    /// variant (cycling) every `spec.period` ticks, `spec.swaps` times, and
    /// finally departs one period after the last swap. When
    /// `spec.background` is set, that synthetic workload is merged in; its
    /// job ids stay `1..=loads` and the variant job id comes after them.
    ///
    /// # Panics
    ///
    /// Panics if `spec.variants` is empty or `spec.period` is 0.
    pub fn variant_swap(spec: &VariantSwapSpec) -> Trace {
        assert!(
            !spec.variants.is_empty(),
            "variant swap needs at least one variant"
        );
        assert!(spec.period > 0, "variant swap needs a non-zero period");
        let mut trace = match &spec.background {
            Some(bg) => Trace::synthetic(bg),
            None => Trace::default(),
        };
        let job = spec.background.as_ref().map_or(0, |bg| bg.loads as u64) + 1;
        let deadline = |tick: u64| spec.deadline_slack.map(|s| tick + s);
        // The background arrives with exactly its own capacity: without this
        // the first push doubles a vector that needs `swaps + 2` more slots.
        trace.events.reserve_exact(spec.swaps + 2);
        trace.events.push(TraceEvent {
            tick: spec.start,
            op: TraceOp::Load {
                job,
                task: spec.variants[0].clone(),
                priority: spec.priority,
                deadline: deadline(spec.start),
            },
        });
        let mut tick = spec.start;
        for i in 1..=spec.swaps {
            tick += spec.period;
            let task = spec.variants[i % spec.variants.len()].clone();
            trace.events.push(TraceEvent {
                tick,
                op: TraceOp::Swap {
                    job,
                    task,
                    priority: spec.priority,
                    deadline: deadline(tick),
                },
            });
        }
        trace.events.push(TraceEvent {
            tick: tick + spec.period,
            op: TraceOp::Unload { job },
        });
        trace.normalize();
        trace
    }

    /// Sorts events by tick; within a tick departures come first, then
    /// swaps, then arrivals (so swaps can reuse freed area before new
    /// loads compete for it), each class by job id. A well-formed trace
    /// gives a job at most one event of a class in a tick, so the key is
    /// unique per event and the in-place unstable sort orders it as a
    /// stable one would — without a scratch buffer the size of the trace.
    pub fn normalize(&mut self) {
        self.events.sort_unstable_by_key(|e| {
            (
                e.tick,
                match &e.op {
                    TraceOp::Unload { .. } => 0u8,
                    TraceOp::Swap { .. } => 1,
                    TraceOp::Load { .. } => 2,
                },
                match &e.op {
                    TraceOp::Load { job, .. }
                    | TraceOp::Unload { job }
                    | TraceOp::Swap { job, .. } => *job,
                },
            )
        });
    }

    /// Serializes the trace to the line format of the module docs.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::BadTaskName`] when a task name cannot survive
    /// the whitespace-separated format (repository names are arbitrary
    /// strings; trace files only support names without whitespace that
    /// don't start with `#`).
    pub fn to_text(&self) -> Result<String, TraceError> {
        let mut out = String::from("# vbs-sched trace v1\n");
        for event in &self.events {
            match &event.op {
                TraceOp::Load {
                    job,
                    task,
                    priority,
                    deadline,
                } => {
                    check_task_name(task)?;
                    out.push_str(&format!(
                        "load {} {} {} {}",
                        event.tick, job, task, priority
                    ));
                    if let Some(d) = deadline {
                        out.push_str(&format!(" {d}"));
                    }
                    out.push('\n');
                }
                TraceOp::Unload { job } => {
                    out.push_str(&format!("unload {} {}\n", event.tick, job));
                }
                TraceOp::Swap {
                    job,
                    task,
                    priority,
                    deadline,
                } => {
                    check_task_name(task)?;
                    out.push_str(&format!(
                        "swap {} {} {} {}",
                        event.tick, job, task, priority
                    ));
                    if let Some(d) = deadline {
                        out.push_str(&format!(" {d}"));
                    }
                    out.push('\n');
                }
            }
        }
        Ok(out)
    }

    /// Parses the line format of the module docs. Blank lines and `#`
    /// comments are ignored; events are re-sorted by tick.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Malformed`] with the offending line number.
    pub fn from_text(text: &str) -> Result<Trace, TraceError> {
        let mut events = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let malformed = |reason: &str| TraceError::Malformed {
                line: idx + 1,
                reason: reason.to_string(),
            };
            let mut fields = line.split_whitespace();
            let op = fields.next().expect("non-empty line has a first field");
            match op {
                "load" | "swap" => {
                    let tick = parse_u64(fields.next(), "tick").map_err(|e| malformed(&e))?;
                    let job = parse_u64(fields.next(), "job").map_err(|e| malformed(&e))?;
                    let task = fields
                        .next()
                        .ok_or_else(|| malformed("missing task name"))?;
                    check_task_name(task).map_err(|e| malformed(&e.to_string()))?;
                    let task = task.to_string();
                    let priority = parse_u64(fields.next(), "priority")
                        .map_err(|e| malformed(&e))?
                        .try_into()
                        .map_err(|_| malformed("priority exceeds u8"))?;
                    let deadline = match fields.next() {
                        Some(d) => Some(parse_u64(Some(d), "deadline").map_err(|e| malformed(&e))?),
                        None => None,
                    };
                    if fields.next().is_some() {
                        return Err(malformed("trailing fields"));
                    }
                    let op = if op == "load" {
                        TraceOp::Load {
                            job,
                            task,
                            priority,
                            deadline,
                        }
                    } else {
                        TraceOp::Swap {
                            job,
                            task,
                            priority,
                            deadline,
                        }
                    };
                    events.push(TraceEvent { tick, op });
                }
                "unload" => {
                    let tick = parse_u64(fields.next(), "tick").map_err(|e| malformed(&e))?;
                    let job = parse_u64(fields.next(), "job").map_err(|e| malformed(&e))?;
                    if fields.next().is_some() {
                        return Err(malformed("trailing fields"));
                    }
                    events.push(TraceEvent {
                        tick,
                        op: TraceOp::Unload { job },
                    });
                }
                other => return Err(malformed(&format!("unknown op `{other}`"))),
            }
        }
        let mut trace = Trace { events };
        trace.normalize();
        Ok(trace)
    }
}

fn check_task_name(task: &str) -> Result<(), TraceError> {
    if task.is_empty() || task.starts_with('#') || task.chars().any(char::is_whitespace) {
        return Err(TraceError::BadTaskName {
            name: task.to_string(),
        });
    }
    Ok(())
}

fn parse_u64(field: Option<&str>, what: &str) -> Result<u64, String> {
    field
        .ok_or_else(|| format!("missing {what}"))?
        .parse()
        .map_err(|_| format!("invalid {what}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            tasks: vec!["a".into(), "b".into()],
            loads: 25,
            deadline_slack: Some(7),
            ..WorkloadSpec::default()
        }
    }

    #[test]
    fn synthetic_is_deterministic_and_paired() {
        let t1 = Trace::synthetic(&spec());
        let t2 = Trace::synthetic(&spec());
        assert_eq!(t1, t2);
        assert_eq!(t1.len(), 50);
        let loads = t1
            .events
            .iter()
            .filter(|e| matches!(e.op, TraceOp::Load { .. }))
            .count();
        assert_eq!(loads, 25);
        // Ticks are sorted.
        assert!(t1.events.windows(2).all(|w| w[0].tick <= w[1].tick));
    }

    #[test]
    fn text_roundtrip_preserves_the_trace() {
        let trace = Trace::synthetic(&spec());
        let text = trace.to_text().unwrap();
        let back = Trace::from_text(&text).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn serialization_rejects_unrepresentable_task_names() {
        let mut trace = Trace::default();
        trace.events.push(TraceEvent {
            tick: 1,
            op: TraceOp::Load {
                job: 1,
                task: "my task".into(),
                priority: 0,
                deadline: None,
            },
        });
        assert!(matches!(
            trace.to_text(),
            Err(TraceError::BadTaskName { .. })
        ));
    }

    #[test]
    fn swap_roundtrips_and_orders_between_unload_and_load() {
        let mut trace = Trace::default();
        trace.events.push(TraceEvent {
            tick: 5,
            op: TraceOp::Load {
                job: 1,
                task: "a".into(),
                priority: 2,
                deadline: None,
            },
        });
        trace.events.push(TraceEvent {
            tick: 5,
            op: TraceOp::Swap {
                job: 2,
                task: "b".into(),
                priority: 1,
                deadline: Some(9),
            },
        });
        trace.events.push(TraceEvent {
            tick: 5,
            op: TraceOp::Unload { job: 3 },
        });
        trace.normalize();
        assert!(matches!(trace.events[0].op, TraceOp::Unload { .. }));
        assert!(matches!(trace.events[1].op, TraceOp::Swap { .. }));
        assert!(matches!(trace.events[2].op, TraceOp::Load { .. }));
        let text = trace.to_text().unwrap();
        assert!(text.contains("swap 5 2 b 1 9\n"), "{text}");
        assert_eq!(Trace::from_text(&text).unwrap(), trace);
    }

    #[test]
    fn variant_swap_generates_the_scenario() {
        let spec = VariantSwapSpec {
            variants: vec!["t@s".into(), "t@m".into(), "t@l".into()],
            swaps: 5,
            period: 10,
            deadline_slack: Some(3),
            priority: 2,
            start: 4,
            background: None,
        };
        let trace = Trace::variant_swap(&spec);
        // 1 load + 5 swaps + 1 unload.
        assert_eq!(trace.len(), 7);
        assert_eq!(
            trace.events[0].op,
            TraceOp::Load {
                job: 1,
                task: "t@s".into(),
                priority: 2,
                deadline: Some(7),
            }
        );
        // Swaps cycle through the variants.
        assert_eq!(
            trace.events[1].op,
            TraceOp::Swap {
                job: 1,
                task: "t@m".into(),
                priority: 2,
                deadline: Some(17),
            }
        );
        assert_eq!(trace.events[6].op, TraceOp::Unload { job: 1 });
        assert_eq!(trace.events[6].tick, 4 + 6 * 10);
        // Deterministic.
        assert_eq!(trace, Trace::variant_swap(&spec));
    }

    #[test]
    fn variant_swap_merges_background_after_its_job_ids() {
        let spec = VariantSwapSpec {
            variants: vec!["v".into()],
            background: Some(super::super::trace::WorkloadSpec {
                tasks: vec!["bg".into()],
                loads: 10,
                ..WorkloadSpec::default()
            }),
            ..VariantSwapSpec::default()
        };
        let trace = Trace::variant_swap(&spec);
        // Background jobs 1..=10, the variant job is 11.
        let swap_jobs: Vec<u64> = trace
            .events
            .iter()
            .filter_map(|e| match &e.op {
                TraceOp::Swap { job, .. } => Some(*job),
                _ => None,
            })
            .collect();
        assert!(swap_jobs.iter().all(|&j| j == 11), "{swap_jobs:?}");
        assert_eq!(trace.len(), 10 * 2 + 1 + spec.swaps + 1);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(matches!(
            Trace::from_text("load 1 2"),
            Err(TraceError::Malformed { line: 1, .. })
        ));
        assert!(matches!(
            Trace::from_text("# ok\nnop 3 4"),
            Err(TraceError::Malformed { line: 2, .. })
        ));
        assert!(matches!(
            Trace::from_text("unload 1 2 3"),
            Err(TraceError::Malformed { .. })
        ));
        // A name `to_text` could not write back is refused on the way in.
        assert!(matches!(
            Trace::from_text("load 0 1 fir 0\nload 1 2 #x 0"),
            Err(TraceError::Malformed { line: 2, .. })
        ));
        let ok = Trace::from_text("\n# comment\nload 3 1 fir 2 9\nunload 5 1\n").unwrap();
        assert_eq!(ok.len(), 2);
        assert_eq!(
            ok.events[0].op,
            TraceOp::Load {
                job: 1,
                task: "fir".into(),
                priority: 2,
                deadline: Some(9),
            }
        );
    }
}
