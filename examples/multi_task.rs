//! Multi-task run-time management: several compressed tasks stored in the
//! external memory, loaded, evicted and relocated on one fabric by the task
//! manager — the dynamic partial reconfiguration scenario that motivates the
//! paper's introduction.
//!
//! Run with: `cargo run --release --example multi_task`

use vbs_repro::arch::{ArchSpec, Device};
use vbs_repro::flow::CadFlow;
use vbs_repro::netlist::generate::SyntheticSpec;
use vbs_repro::runtime::{ReconfigurationController, RuntimeError, TaskManager, VbsRepository};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Offline: implement three differently-sized tasks and store their VBS.
    let mut repository = VbsRepository::new();
    for (name, luts, grid, seed) in [
        ("fir_filter", 40, 8u16, 1u64),
        ("crc_engine", 24, 6, 2),
        ("huffman", 56, 9, 3),
    ] {
        let netlist = SyntheticSpec::new(name, luts, 6, 6)
            .with_seed(seed)
            .build()?;
        let result = CadFlow::new(10, 6)?
            .with_grid(grid, grid)
            .with_seed(seed)
            .fast()
            .run(&netlist)?;
        let vbs = result.vbs(1)?;
        let bytes = repository.store(name, &vbs);
        println!(
            "{name:<12} {}x{} macros, VBS {bytes} bytes ({}% of raw)",
            vbs.width(),
            vbs.height(),
            100 * vbs.size_bits() / result.raw_bitstream().size_bits()
        );
    }

    // Run time: a 26x12 fabric managed dynamically.
    let device = Device::new(ArchSpec::new(10, 6)?, 26, 12)?;
    let mut manager = TaskManager::new(ReconfigurationController::new(device), repository);

    let fir = manager.load("fir_filter")?;
    let crc = manager.load("crc_engine")?;
    let huff = manager.load("huffman")?;
    println!("\nloaded {} tasks:", manager.loaded_tasks().len());
    for task in manager.loaded_tasks() {
        println!("  {:<12} at {}", task.name, task.region);
    }

    // Evict the CRC engine and load a fresh instance into the 6x6 hole it
    // left (the first-fit scan lands exactly there).
    manager.unload(crc)?;
    let crc2 = manager.load("crc_engine")?;
    println!("\nafter evicting crc_engine and loading a second crc_engine:");
    for task in manager.loaded_tasks() {
        println!("  {:<12} at {}", task.name, task.region);
    }

    // Keep loading until the fabric is full, then report the clean error.
    loop {
        match manager.load("huffman") {
            Ok(_) => {}
            Err(RuntimeError::NoFreeRegion { width, height }) => {
                println!("\nfabric full: no free {width}x{height} region left");
                break;
            }
            Err(other) => return Err(other.into()),
        }
    }
    let _ = (fir, huff, crc2);
    println!("{} tasks resident at the end", manager.loaded_tasks().len());

    // Every decode above ran on the controller's own scratch and
    // ScratchPool: the staging buffers recycle instead of being allocated
    // per load.
    let pool = manager.controller().scratch_pool().stats();
    println!(
        "decode pool: {} buffer reuses, {} fresh buffers",
        pool.reused, pool.fresh
    );
    Ok(())
}
