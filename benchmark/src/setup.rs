//! Set-up shared by every workload, and the correctness oracle.
//!
//! Each corpus stream is rebuilt from its `.blif` through the CAD flow and
//! must equal the checked-in `.vbs` byte for byte; its decode must then
//! implement the netlist (`verify_against_netlist`). The decoded images
//! kept here are what every later readback is compared against, so "right"
//! means "implements its netlist", not "matches a sibling code path".

use crate::api::{self, Compiled, Corpus, Flow, Netlist, Resident, TaskBitstream, Vbs};

/// One corpus task with its verified reference decode.
#[derive(Debug)]
pub struct Task {
    pub name: String,
    pub width: u16,
    pub height: u16,
    pub vbs: Vbs,
    /// The set-up decode: functionally verified against the netlist.
    pub image: TaskBitstream,
    /// Frames that decode emitted.
    pub frames: u64,
}

/// One circuit of the compile workload, with its reference encodings.
#[derive(Debug)]
pub struct Circuit {
    pub name: String,
    pub blif: String,
    pub flow: Flow,
    pub netlist: Netlist,
    pub compiled: Compiled,
    /// `vbs(1)` serialized: what every timed compile must reproduce.
    pub reference_bytes: Vec<u8>,
    /// VBS bits / raw bits at cluster size 1 (the paper's Table II axis).
    pub ratio: f64,
}

#[derive(Debug)]
pub struct SetUp {
    pub corpus: Corpus,
    pub tasks: Vec<Task>,
    pub circuits: Vec<Circuit>,
}

/// The two Table II circuits the compile workload adds to the corpus set.
/// Both route at W = 10 in fast mode at this scale; `alu4` at 0.2 does not
/// converge, so stay at or below 0.1.
const SCALED: &[(&str, f64)] = &[("tseng", 0.1), ("alu4", 0.1)];

fn compile(
    corpus: &Corpus,
    name: &str,
    blif: String,
    edge: u16,
    seed: u64,
) -> Result<Circuit, String> {
    let flow = Flow::new(corpus, edge, seed)?;
    let netlist = api::parse_blif(&blif, corpus.lut_size())?;
    let compiled = flow.run(&netlist)?;
    let vbs = compiled.vbs(1)?;
    let reference_bytes = api::vbs_to_bytes(&vbs);
    let ratio = api::size_bits(&vbs) as f64 / compiled.raw_bits() as f64;
    Ok(Circuit {
        name: name.to_string(),
        blif,
        flow,
        netlist,
        compiled,
        reference_bytes,
        ratio,
    })
}

/// Decodes `vbs` on a fresh lane and checks the image against the netlist;
/// returns the image and the frames the decode emitted.
fn verified_decode(vbs: &Vbs, circuit: &Circuit) -> Result<(TaskBitstream, u64), String> {
    let mut lane = api::DecodeLane::new();
    let frames = lane.decode(vbs)?;
    let image = lane.image().expect("a decode leaves its image").clone();
    api::functional_check(&image, &circuit.netlist, circuit.compiled.placement())
        .map_err(|e| format!("{}: {e}", circuit.name))?;
    Ok((image, frames))
}

impl SetUp {
    /// Loads the corpus, rebuilds and verifies every stream. With
    /// `scaled_circuits` the two larger compile-only circuits are built and
    /// verified at cluster sizes 1 to 3 as well.
    pub fn new(scaled_circuits: bool) -> Result<SetUp, String> {
        let corpus = Corpus::load()?;
        let mut tasks = Vec::new();
        let mut circuits = Vec::new();
        for entry in corpus.tasks() {
            let circuit = compile(
                &corpus,
                &entry.name,
                corpus.blif_text(&entry.name)?,
                entry.width,
                api::corpus_seed(&entry.name)?,
            )?;
            let bytes = corpus.stream(&entry.name)?;
            if circuit.reference_bytes != bytes {
                return Err(format!(
                    "{}: a rebuild from the .blif differs from the checked-in .vbs",
                    entry.name
                ));
            }
            let vbs = api::parse_vbs(bytes)?;
            let (image, frames) = verified_decode(&vbs, &circuit)?;
            tasks.push(Task {
                name: entry.name,
                width: entry.width,
                height: entry.height,
                vbs,
                image,
                frames,
            });
            circuits.push(circuit);
        }
        if scaled_circuits {
            for &(name, scale) in SCALED {
                let (blif, edge, seed) = api::scaled_circuit(name, scale)?;
                let circuit = compile(&corpus, &format!("{name}x{scale}"), blif, edge, seed)?;
                for k in 1..=3 {
                    verified_decode(&circuit.compiled.vbs(k)?, &circuit)?;
                }
                circuits.push(circuit);
            }
        }
        Ok(SetUp {
            corpus,
            tasks,
            circuits,
        })
    }

    /// The reference image behind a repository name (`alu4#07` is an
    /// instance of `alu4`).
    pub fn image_of(&self, name: &str) -> Option<&TaskBitstream> {
        let base = name.split('#').next().unwrap_or(name);
        self.tasks.iter().find(|t| t.name == base).map(|t| &t.image)
    }

    /// Counts residents whose readback differs from the set-up decode of
    /// their task.
    pub fn mismatches(&self, residents: &[Resident]) -> u64 {
        residents
            .iter()
            .filter(|r| self.image_of(&r.name) != Some(&r.image))
            .count() as u64
    }

    /// Geometric mean over the set-up circuits of VBS bits / raw bits at
    /// cluster size 1.
    pub fn vbs_ratio(&self) -> f64 {
        let ratios: Vec<f64> = self.circuits.iter().map(|c| c.ratio).collect();
        crate::stats::geomean(&ratios)
    }
}
