//! Run-time relocation: one Virtual Bit-Stream, loaded at several positions
//! of a larger fabric by the reconfiguration controller, and verified to
//! implement the original circuit at every position.
//!
//! This exercises the head-line capability of the paper: the VBS is
//! abstracted from its final position, so the same stream relocates without
//! any offline re-implementation.
//!
//! Run with: `cargo run --release --example relocation`

use vbs_repro::arch::{ArchSpec, Coord, Device, Rect};
use vbs_repro::fabric_sim::verify_against_netlist;
use vbs_repro::flow::CadFlow;
use vbs_repro::netlist::generate::SyntheticSpec;
use vbs_repro::runtime::{ReconfigurationController, TaskManager, VbsRepository};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Implement a task once, offline.
    let netlist = SyntheticSpec::new("relocatable", 30, 6, 6)
        .with_seed(7)
        .build()?;
    let result = CadFlow::new(12, 6)?
        .with_grid(7, 7)
        .with_seed(7)
        .fast()
        .run(&netlist)?;
    let vbs = result.vbs(1)?;
    println!(
        "task footprint {}x{}, VBS {} bits ({}% of raw)",
        vbs.width(),
        vbs.height(),
        vbs.size_bits(),
        100 * vbs.size_bits() / result.raw_bitstream().size_bits()
    );

    // A larger device managed at run time.
    let device = Device::new(ArchSpec::new(12, 6)?, 24, 16)?;
    let mut repository = VbsRepository::new();
    repository.store("relocatable", &vbs);
    let mut manager = TaskManager::new(ReconfigurationController::new(device), repository);

    // Load the same stream at three different positions.
    for origin in [Coord::new(0, 0), Coord::new(9, 3), Coord::new(16, 8)] {
        let handle = manager.load_at("relocatable", origin)?;
        let region = Rect::new(origin, vbs.width(), vbs.height());
        let readback = manager.controller().memory().read_region(region)?;
        // The decoded configuration at this position still implements the
        // original netlist (connectivity + logic checked from the bits).
        verify_against_netlist(&readback, &netlist, result.placement())?;
        println!("loaded at {origin} (handle {handle:?}) and verified");
    }

    // Relocate the first instance somewhere else at run time — a pure bulk
    // move of the configured frames; the compressed stream is not consulted.
    let first = manager.loaded_tasks()[0].handle;
    manager.relocate(first, Coord::new(0, 9))?;
    println!(
        "relocated the first instance to (0, 9); {} tasks loaded",
        manager.loaded_tasks().len()
    );

    // The three loads decoded on the controller's own scratch and
    // ScratchPool; after the first load, the staging buffer recycles.
    let pool = manager.controller().scratch_pool().stats();
    println!(
        "decode pool: {} buffer reuses, {} fresh buffers",
        pool.reused, pool.fresh
    );
    Ok(())
}
