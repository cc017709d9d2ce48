//! The five workloads. Each is a closed loop with one client: the next
//! tick's requests are submitted only after the previous round completed.
//! Trace ticks are logical, so there is no host-time arrival schedule.
//!
//! A repetition runs either untraced (end-to-end numbers) or traced (spans
//! recorded around every call into a layer); both do the same work.

use crate::api::{
    self, Coord, Corpus, Counters, DecodeLane, Manager, Memory, Outcome, Rect, Repository, Request,
    Target, Trace, TraceOp,
};
use crate::setup::{SetUp, Task};
use crate::spans::Recorder;
use crate::stats::{splitmix64, Latencies};
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::time::Instant;

pub const NAMES: [&str; 5] = [
    "cold_load",
    "hot_replay",
    "churn_replay",
    "fleet_replay",
    "flow_compile",
];

/// What one repetition submits at full size; `--smoke` runs a tenth.
const COLD_LOADS: usize = 900;
const HOT_LOADS: usize = 4000;
const CHURN_SWAPS: usize = 3000;
const CHURN_BACKGROUND: usize = 5000;
const FLEET_LOADS: usize = 1000;
/// Stepwise loads in one layer pass of a replay (a multiple of the corpus).
const LAYER_LOADS: usize = 90;

/// What one repetition did.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    pub elapsed_ns: u64,
    /// Loads submitted, or circuits compiled.
    pub attempted: u64,
    /// Loads accepted, or circuits whose stream came out right.
    pub ok: u64,
    pub deadline_missed: u64,
    /// Errors and failed correctness checks (never a scheduling verdict).
    pub failed: u64,
    /// Trace events, or operations, the repetition processed.
    pub events: u64,
    /// Scheduler counters of the repetition (default where none runs).
    pub counters: Counters,
}

/// What `cold_load` keeps across repetitions.
#[derive(Debug)]
struct Cold {
    loads: usize,
    order: Vec<usize>,
    manager: Manager,
    // The traced pass performs `manager.load` step by step.
    stepwise: Stepwise,
}

/// What a load is made of, performed step by step from outside the product
/// so that each stage gets its own span. This is the one place the run-time
/// stages are timed: `cold_load`'s traced repetitions are made of these
/// loads, and the replays run a pass of them at their own fabric geometry.
#[derive(Debug)]
struct Stepwise {
    lane: DecodeLane,
    memory: Memory,
    // The verify stage needs a controller with its checksum sidecar on.
    verifier: Manager,
}

impl Stepwise {
    fn new(corpus: &Corpus, (width, height): (u16, u16)) -> Result<Stepwise, String> {
        Ok(Stepwise {
            lane: DecodeLane::new(),
            memory: corpus.memory(width, height)?,
            verifier: corpus.manager(true)?,
        })
    }

    /// `loads` loads over the corpus streams in `order`: parse → place →
    /// decode → write → verify → clear under one `load` parent each. `place`
    /// is `find_free_region` on the occupancy the workload's loads meet.
    fn rep(
        &mut self,
        setup: &SetUp,
        order: &[usize],
        loads: usize,
        place: impl Fn(u16, u16) -> Option<Coord>,
        rec: &mut Recorder,
    ) -> Result<Rep, String> {
        let mut failed = 0;
        // Only the `load` spans count as the repetition's time: readying the
        // verify stage between them is no part of a load.
        let mut elapsed_ns = 0;
        for i in 0..loads {
            let task = &setup.tasks[order[i % order.len()]];
            let (load_ns, right) = self.load(setup, task, i as u64, &place, rec)?;
            elapsed_ns += load_ns;
            failed += u64::from(!right);
        }
        Ok(Rep {
            elapsed_ns,
            attempted: loads as u64,
            ok: loads as u64 - failed,
            failed,
            events: loads as u64,
            ..Rep::default()
        })
    }

    /// One load; returns the `load` span's duration and whether the written
    /// region read back as the task's set-up decode.
    fn load(
        &mut self,
        setup: &SetUp,
        task: &Task,
        request: u64,
        place: impl Fn(u16, u16) -> Option<Coord>,
        rec: &mut Recorder,
    ) -> Result<(u64, bool), String> {
        let Stepwise {
            lane,
            memory,
            verifier,
        } = self;
        let bytes = setup.corpus.stream(&task.name)?;
        // The task is put on the verifying controller outside the span.
        let verified = verifier.load(&task.name)?;
        let verified_region = verifier.last_region().expect("just loaded");

        let load = rec.open("load", None, request);
        let vbs = rec.child("core.parse", load, request, || api::parse_vbs(bytes))?;
        // A contended fabric may have no room: the write then goes to the
        // corner of the (blank) probe memory, the scan is timed all the same.
        let origin = rec
            .child("runtime.place", load, request, || {
                place(task.width, task.height)
            })
            .unwrap_or(Coord::new(0, 0));
        rec.child("core.decode", load, request, || lane.decode(&vbs))?;
        let image = lane.image().expect("a decode leaves its image");
        rec.child("bitstream.write", load, request, || {
            memory.write(image, origin)
        })?;
        rec.child("bitstream.verify", load, request, || {
            verifier.verify(verified_region)
        })?;
        let region = Rect::new(origin, task.width, task.height);
        let right = memory.read(region)? == task.image;
        rec.child("bitstream.clear", load, request, || memory.clear(region))?;
        let load_ns = rec.close(load);

        verifier.unload(verified)?;
        Ok((load_ns, right))
    }
}

/// What a replay workload keeps across repetitions.
#[derive(Debug)]
struct Replay {
    which: Which,
    trace: Trace,
    /// For the layer pass, built on first use: stepwise loads at the
    /// workload's geometry, placed against the occupancy the first half of
    /// the trace leaves behind.
    layers: Option<(Stepwise, Box<dyn Target>)>,
}

#[derive(Debug)]
enum Which {
    /// With its instance population.
    Hot(Repository),
    Churn,
    Fleet,
}

impl Replay {
    /// A fresh scheduler or fleet, built outside the timed region: a reused
    /// scheduler's logical clock sits past the trace's ticks.
    fn target(&self, corpus: &Corpus) -> Result<Box<dyn Target>, String> {
        Ok(match &self.which {
            Which::Hot(repository) => Box::new(corpus.hot_scheduler(repository)),
            Which::Churn => Box::new(corpus.churn_scheduler()),
            Which::Fleet => Box::new(corpus.fleet()?),
        })
    }

    /// The shape of the fabric the loads land on.
    fn fabric(&self, corpus: &Corpus) -> (u16, u16) {
        match self.which {
            Which::Hot(_) => api::HOT_FABRIC,
            Which::Churn => corpus.single_shape(),
            Which::Fleet => {
                let (_, width, height) = corpus.fleet_shape();
                (width, height)
            }
        }
    }
}

#[derive(Debug)]
enum Kind {
    Cold(Box<Cold>),
    Replay(Box<Replay>),
    Flow { order: Vec<usize> },
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub setup: Rc<SetUp>,
    kind: Kind,
}

fn shuffled(len: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut order: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        order.swap(i, (splitmix64(&mut state) % (i as u64 + 1)) as usize);
    }
    order
}

impl Workload {
    /// Builds the workload's inputs from `seed`: the same seed gives the
    /// same inputs. `smoke` shrinks a repetition to a tenth.
    pub fn new(name: &str, setup: Rc<SetUp>, seed: u64, smoke: bool) -> Result<Workload, String> {
        let corpus = &setup.corpus;
        let sized = |full: usize| if smoke { full / 10 } else { full };
        let replay = |which, trace| {
            Kind::Replay(Box::new(Replay {
                which,
                trace,
                layers: None,
            }))
        };
        let (name, kind) = match name {
            "cold_load" => (
                NAMES[0],
                Kind::Cold(Box::new(Cold {
                    loads: sized(COLD_LOADS),
                    order: shuffled(setup.tasks.len(), seed),
                    manager: corpus.manager(false)?,
                    stepwise: Stepwise::new(corpus, corpus.single_shape())?,
                })),
            ),
            "hot_replay" => (
                NAMES[1],
                replay(
                    Which::Hot(corpus.hot_repository()),
                    corpus.hot_trace(sized(HOT_LOADS), seed),
                ),
            ),
            "churn_replay" => (
                NAMES[2],
                replay(
                    Which::Churn,
                    corpus.churn_trace(sized(CHURN_SWAPS), sized(CHURN_BACKGROUND), seed),
                ),
            ),
            "fleet_replay" => (
                NAMES[3],
                replay(Which::Fleet, corpus.fleet_trace(sized(FLEET_LOADS), seed)),
            ),
            "flow_compile" => (
                NAMES[4],
                Kind::Flow {
                    order: shuffled(setup.circuits.len(), seed),
                },
            ),
            other => return Err(format!("unknown workload `{other}`")),
        };
        Ok(Workload { name, setup, kind })
    }

    /// Runs one repetition, appending one host latency per operation to
    /// `latencies`. With a recorder the repetition is traced.
    pub fn rep(
        &mut self,
        latencies: &mut Latencies,
        recorder: Option<&mut Recorder>,
    ) -> Result<Rep, String> {
        let setup = &*self.setup;
        match &mut self.kind {
            Kind::Cold(cold) => match recorder {
                None => cold_rep(setup, cold, latencies),
                Some(rec) => {
                    let Cold {
                        loads,
                        order,
                        manager,
                        stepwise,
                    } = &mut **cold;
                    let place = |w, h| manager.find_free_region(w, h);
                    stepwise.rep(setup, order, *loads, place, rec)
                }
            },
            Kind::Replay(replay) => {
                let mut target = replay.target(&setup.corpus)?;
                replay_rep(setup, &mut *target, &replay.trace, latencies, recorder)
            }
            Kind::Flow { order } => flow_rep(setup, order, latencies, recorder),
        }
    }

    /// The layer pass of a replay: stepwise loads at the workload's fabric
    /// geometry, their spans recorded in `rec`. `None` for the workloads
    /// whose traced repetition already times their layers.
    pub fn layer_rep(&mut self, rec: &mut Recorder) -> Result<Option<Rep>, String> {
        let setup = &*self.setup;
        let Kind::Replay(replay) = &mut self.kind else {
            return Ok(None);
        };
        if replay.layers.is_none() {
            let mut occupied = replay.target(&setup.corpus)?;
            let events = &replay.trace.events;
            let first_half = Trace {
                events: events[..events.len() / 2].to_vec(),
            };
            replay_rep(
                setup,
                &mut *occupied,
                &first_half,
                &mut Latencies::default(),
                None,
            )?;
            let stepwise = Stepwise::new(&setup.corpus, replay.fabric(&setup.corpus))?;
            replay.layers = Some((stepwise, occupied));
        }
        let (stepwise, occupied) = replay.layers.as_mut().expect("just built");
        let order: Vec<usize> = (0..setup.tasks.len()).collect();
        let place = |w, h| occupied.find_free_region(w, h);
        stepwise
            .rep(setup, &order, LAYER_LOADS, place, rec)
            .map(Some)
    }

    /// The trace a replay workload drives (`None` for the others).
    pub fn trace(&self) -> Option<&Trace> {
        match &self.kind {
            Kind::Replay(replay) => Some(&replay.trace),
            _ => None,
        }
    }

    /// `hot_replay` again, with a live telemetry registry installed.
    pub fn rep_with_telemetry(&mut self, latencies: &mut Latencies) -> Result<Rep, String> {
        let no_variant = || format!("{} has no telemetry variant", self.name);
        let Kind::Replay(replay) = &self.kind else {
            return Err(no_variant());
        };
        let Which::Hot(repository) = &replay.which else {
            return Err(no_variant());
        };
        let mut target = self.setup.corpus.hot_scheduler(repository);
        target.enable_telemetry();
        replay_rep(&self.setup, &mut target, &replay.trace, latencies, None)
    }

    /// The workload's trace through the corpus single-fabric scheduler —
    /// what the fleet is compared against.
    pub fn rep_on_single_fabric(&mut self, latencies: &mut Latencies) -> Result<Rep, String> {
        let Some(trace) = self.trace() else {
            return Err(format!("{} has no single-fabric variant", self.name));
        };
        let mut target = self.setup.corpus.single_scheduler();
        replay_rep(&self.setup, &mut target, trace, latencies, None)
    }

    /// After the timed repetitions: every corpus stream is loaded once more
    /// and its readback compared with the set-up decode (a `cold_load`
    /// repetition ends on an empty fabric, so there is nothing resident to
    /// read back otherwise). Returns `(checked, mismatched)`.
    pub fn final_readback(&mut self) -> Result<(u64, u64), String> {
        let Kind::Cold(cold) = &mut self.kind else {
            return Ok((0, 0));
        };
        let mut mismatched = 0;
        for task in &self.setup.tasks {
            let handle = cold.manager.load(&task.name)?;
            mismatched += self.setup.mismatches(&cold.manager.residents()?);
            cold.manager.unload(handle)?;
        }
        Ok((self.setup.tasks.len() as u64, mismatched))
    }
}

fn cold_rep(setup: &SetUp, cold: &mut Cold, latencies: &mut Latencies) -> Result<Rep, String> {
    let loads = cold.loads;
    let start = Instant::now();
    for i in 0..loads {
        let name = &setup.tasks[cold.order[i % cold.order.len()]].name;
        let submit = Instant::now();
        let handle = cold.manager.load(name)?;
        latencies.push(submit.elapsed().as_nanos() as u64);
        cold.manager.unload(handle)?;
    }
    Ok(Rep {
        elapsed_ns: start.elapsed().as_nanos() as u64,
        attempted: loads as u64,
        ok: loads as u64,
        events: loads as u64,
        ..Rep::default()
    })
}

/// Replays `trace` on a fresh `target`, one timed round per tick: advance
/// the logical clock, submit the tick's requests, process them. Every load
/// of a round gets that round's duration as its latency. Afterwards (not
/// timed) every resident is read back and compared with the set-up decode
/// of its task.
fn replay_rep(
    setup: &SetUp,
    target: &mut dyn Target,
    trace: &Trace,
    latencies: &mut Latencies,
    mut recorder: Option<&mut Recorder>,
) -> Result<Rep, String> {
    // trace job → scheduler job, as `vbs_sched::replay` keeps them.
    let mut job_map: HashMap<u64, u64> = HashMap::new();
    let mut round_loads: Vec<(u64, u64)> = Vec::new();
    let mut deferred: HashSet<u64> = HashSet::new();
    let mut errors = 0u64;
    let mut note = |outcome: &Outcome| {
        if let Outcome::Rejected { reason, .. } = outcome {
            if !matches!(
                reason,
                api::RejectReason::NoCapacity | api::RejectReason::DeadlineMissed
            ) {
                errors += 1;
            }
        }
    };

    let events = &trace.events;
    let start = Instant::now();
    let mut index = 0;
    while index < events.len() {
        let tick = events[index].tick;
        let round_start = Instant::now();
        let round = recorder.as_mut().map(|rec| rec.open("round", None, tick));
        let stage = |rec: &mut Option<&mut Recorder>, name: &'static str| {
            rec.as_mut().map(|rec| rec.open(name, round, tick))
        };
        let close = |rec: &mut Option<&mut Recorder>, id: Option<u32>| {
            if let (Some(rec), Some(id)) = (rec.as_mut(), id) {
                rec.close(id);
            }
        };

        let span = stage(&mut recorder, "sched.advance");
        target.advance_to(tick);
        close(&mut recorder, span);

        let span = stage(&mut recorder, "sched.submit");
        round_loads.clear();
        while index < events.len() && events[index].tick == tick {
            match &events[index].op {
                TraceOp::Unload { job } => match job_map.remove(job) {
                    Some(id) => {
                        target.submit(Request::Unload { job: id });
                    }
                    None => {
                        deferred.insert(*job);
                    }
                },
                // A swap vacates the job's current variant, then loads the
                // next one under the same trace job.
                op @ (TraceOp::Load {
                    job,
                    task,
                    priority,
                    deadline,
                }
                | TraceOp::Swap {
                    job,
                    task,
                    priority,
                    deadline,
                }) => {
                    if matches!(op, TraceOp::Swap { .. }) {
                        if let Some(id) = job_map.remove(job) {
                            target.submit(Request::Unload { job: id });
                        }
                    }
                    let id = target.submit(Request::Load {
                        task: task.clone(),
                        priority: *priority,
                        deadline: *deadline,
                    });
                    round_loads.push((id, *job));
                }
            }
            index += 1;
        }
        close(&mut recorder, span);

        let span = stage(&mut recorder, "sched.process");
        let busy_before = span.map(|_| target.busy_micros());
        for outcome in target.process() {
            note(&outcome);
            if let Outcome::Loaded { job, .. } = outcome {
                if let Some(&(_, trace_job)) = round_loads.iter().find(|(id, _)| *id == job) {
                    job_map.insert(trace_job, job);
                }
            }
        }
        // A zero-duration job departs in the tick it arrived.
        let mut follow_up = false;
        for &(id, trace_job) in &round_loads {
            if deferred.remove(&trace_job) && job_map.remove(&trace_job).is_some() {
                target.submit(Request::Unload { job: id });
                follow_up = true;
            }
        }
        if follow_up {
            for outcome in target.process() {
                note(&outcome);
            }
        }
        close(&mut recorder, span);
        if let (Some(rec), Some(span), Some((decode, compaction))) =
            (recorder.as_mut(), span, busy_before)
        {
            // The scheduler's own decode and compaction clocks split the
            // process span; the intervals are laid at its start.
            let (decode_after, compaction_after) = target.busy_micros();
            let at = rec.start_ns(span);
            let mut lay = |name, micros: u64| {
                if micros > 0 {
                    rec.push(name, at, at + micros * 1000, Some(span), tick);
                }
            };
            lay("sched.process.decode", decode_after - decode);
            lay("sched.process.compaction", compaction_after - compaction);
        }
        close(&mut recorder, round);

        let round_ns = round_start.elapsed().as_nanos() as u64;
        for _ in &round_loads {
            latencies.push(round_ns);
        }
    }
    let elapsed_ns = start.elapsed().as_nanos() as u64;

    let counters = target.counters();
    let mismatched = setup.mismatches(&target.residents()?);
    Ok(Rep {
        elapsed_ns,
        attempted: counters.submitted,
        ok: counters.accepted,
        deadline_missed: counters.deadline_missed,
        failed: errors + mismatched,
        events: events.len() as u64,
        counters,
    })
}

/// One pass over the compile set: BLIF text → netlist → place → route →
/// raw bit-stream → VBS at cluster sizes 1, 2 and 3. The k = 1 stream must
/// serialize to the set-up's reference bytes.
fn flow_rep(
    setup: &SetUp,
    order: &[usize],
    latencies: &mut Latencies,
    mut recorder: Option<&mut Recorder>,
) -> Result<Rep, String> {
    let lut_size = setup.corpus.lut_size();
    let mut failed = 0;
    let start = Instant::now();
    for (request, &i) in order.iter().enumerate() {
        let circuit = &setup.circuits[i];
        let request = request as u64;
        let submit = Instant::now();
        let bytes = match recorder.as_mut() {
            None => {
                let netlist = api::parse_blif(&circuit.blif, lut_size)?;
                let compiled = circuit.flow.run(&netlist)?;
                let bytes = api::vbs_to_bytes(&compiled.vbs(1)?);
                compiled.vbs(2)?;
                compiled.vbs(3)?;
                bytes
            }
            Some(rec) => {
                // Stage by stage; the encoder only takes a whole flow
                // result, so it encodes the set-up's (identical) one.
                let compile = rec.open("compile", None, request);
                let netlist = rec.child("netlist.parse", compile, request, || {
                    api::parse_blif(&circuit.blif, lut_size)
                })?;
                let placement =
                    rec.child("place", compile, request, || circuit.flow.place(&netlist))?;
                let routed = rec.child("route", compile, request, || {
                    circuit.flow.route(&netlist, &placement)
                })?;
                rec.child("bitstream.generate", compile, request, || {
                    circuit.flow.generate(&netlist, &placement, &routed)
                })?;
                let bytes = rec.child("core.encode", compile, request, || {
                    let bytes = api::vbs_to_bytes(&circuit.compiled.vbs(1)?);
                    circuit.compiled.vbs(2)?;
                    circuit.compiled.vbs(3)?;
                    Ok::<_, String>(bytes)
                })?;
                rec.close(compile);
                bytes
            }
        };
        latencies.push(submit.elapsed().as_nanos() as u64);
        if bytes != circuit.reference_bytes {
            failed += 1;
        }
    }
    let attempted = order.len() as u64;
    Ok(Rep {
        elapsed_ns: start.elapsed().as_nanos() as u64,
        attempted,
        ok: attempted - failed,
        failed,
        events: attempted,
        ..Rep::default()
    })
}
