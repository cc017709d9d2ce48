//! What no span can time from outside: `TaskManager`'s own load, relocate
//! and unload, a region move, and a decode on a cold scratch. The other
//! layer timings are self times of spans (`main`). Only the workloads whose
//! loads take these paths run the probe; elsewhere its metrics read 0.

use crate::api::{Coord, DecodeLane, Manager, Memory, Rect};
use crate::setup::SetUp;
use crate::stats;
use std::time::Instant;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

pub fn metric(name: &str, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
    }
}

fn time_ns<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (out, start.elapsed().as_nanos() as u64)
}

/// A destination for `from` that stays on a fabric `width` macros wide:
/// beside it when there is room, else one row up (overlapping the source).
fn shifted(from: Rect, width: u16) -> Coord {
    if from.origin.x + 2 * from.width <= width {
        Coord::new(from.origin.x + from.width, from.origin.y)
    } else {
        Coord::new(from.origin.x, from.origin.y + 1)
    }
}

/// What one pass over the nine corpus streams cost, in ns.
#[derive(Debug, Default, Clone, Copy)]
struct Pass {
    load: u64,
    relocate: u64,
    unload: u64,
    moved: u64,
}

/// Passes per round: a pass takes ~3 ms.
const PASSES: usize = 10;

#[derive(Debug)]
pub struct ManagerProbe<'a> {
    setup: &'a SetUp,
    manager: Manager,
    memory: Memory,
    passes: Vec<Pass>,
    loads_ns: Vec<u64>,
    /// Mean ns of a cold decode, one sample per round.
    decode_cold: Vec<f64>,
}

impl<'a> ManagerProbe<'a> {
    /// Probes on the corpus single fabric.
    pub fn new(setup: &'a SetUp) -> Result<Self, String> {
        let (width, height) = setup.corpus.single_shape();
        Ok(ManagerProbe {
            setup,
            manager: setup.corpus.manager(false)?,
            memory: setup.corpus.memory(width, height)?,
            passes: Vec::new(),
            loads_ns: Vec::new(),
            decode_cold: Vec::new(),
        })
    }

    fn pass(&mut self) -> Result<(), String> {
        let (fabric_width, _) = self.setup.corpus.single_shape();
        let mut pass = Pass::default();
        for task in &self.setup.tasks {
            let (handle, ns) = time_ns(|| self.manager.load(&task.name));
            let handle = handle?;
            pass.load += ns;
            self.loads_ns.push(ns);
            let region = self.manager.last_region().expect("just loaded");
            let to = shifted(region, fabric_width);
            let (done, ns) = time_ns(|| self.manager.relocate(handle, to));
            done?;
            pass.relocate += ns;
            let (done, ns) = time_ns(|| self.manager.unload(handle));
            done?;
            pass.unload += ns;

            let region = Rect::new(Coord::new(0, 0), task.width, task.height);
            self.memory.write(&task.image, region.origin)?;
            let to = shifted(region, fabric_width);
            let (done, ns) = time_ns(|| self.memory.move_region(region, to));
            done?;
            pass.moved += ns;
            let landed = Rect::new(to, task.width, task.height);
            if self.memory.read(landed)? != task.image {
                return Err(format!("{}: a moved region reads back wrong", task.name));
            }
            self.memory.clear(landed)?;
        }
        self.passes.push(pass);
        Ok(())
    }

    /// First decode of each distinct task shape on a fresh lane: the
    /// shape's adjacency is built inside it.
    fn cold_decodes(&mut self) -> Result<(), String> {
        let mut shapes: Vec<(u16, u16)> = Vec::new();
        let mut cold_ns = 0;
        for task in &self.setup.tasks {
            if !shapes.contains(&(task.width, task.height)) {
                shapes.push((task.width, task.height));
                let mut lane = DecodeLane::new();
                let (done, ns) = time_ns(|| lane.decode(&task.vbs));
                done?;
                cold_ns += ns;
            }
        }
        self.decode_cold.push(cold_ns as f64 / shapes.len() as f64);
        Ok(())
    }

    /// One round of the probe (~35 ms), run between the workload's
    /// repetitions so that it samples the whole pass.
    pub fn round(&mut self) -> Result<(), String> {
        for _ in 0..PASSES {
            self.pass()?;
        }
        self.cold_decodes()
    }

    /// Medians over the passes run so far; 0 if the probe never ran.
    pub fn finish(mut self) -> Vec<Metric> {
        let streams = self.setup.tasks.len() as f64;
        let task_frames: f64 = self
            .setup
            .tasks
            .iter()
            .map(|t| f64::from(t.width) * f64::from(t.height))
            .sum();
        let passes = &self.passes;
        let of = |field: fn(&Pass) -> u64| {
            stats::median_or_zero(&passes.iter().map(|p| field(p) as f64).collect::<Vec<_>>())
        };
        let load_p99_ns = if self.loads_ns.is_empty() {
            0.0
        } else {
            stats::quantile_ns(&mut self.loads_ns, 0.99)
        };
        vec![
            metric("runtime.load_ns", of(|p| p.load) / streams, "ns"),
            metric("runtime.load_p99_ns", load_p99_ns, "ns"),
            metric("runtime.unload_ns", of(|p| p.unload) / streams, "ns"),
            metric("runtime.relocate_ns", of(|p| p.relocate) / streams, "ns"),
            metric(
                "bitstream.move_ns_per_frame",
                of(|p| p.moved) / task_frames,
                "ns/frame",
            ),
            metric(
                "core.decode_cold_ns",
                stats::median_or_zero(&self.decode_cold),
                "ns",
            ),
        ]
    }
}
