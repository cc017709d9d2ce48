//! Shared fixture of the scheduler integration tests: a repository of
//! CAD-flow-built tasks (expensive, so built once per test binary) and
//! helpers assembling single- and multi-fabric schedulers over it.

// Each test binary compiles its own copy and uses a different subset.
#![allow(dead_code)]

use std::sync::OnceLock;
use vbs_arch::{ArchSpec, Coord, Device};
use vbs_flow::CadFlow;
use vbs_netlist::generate::SyntheticSpec;
use vbs_runtime::{PlacementPolicy, ReconfigurationController, TaskManager, VbsRepository};
use vbs_sched::{LruEviction, MultiFabricScheduler, Scheduler, SchedulerConfig, ShardPolicy};

/// Task set: (name, LUTs, grid edge, seed). Grid edge = footprint in macros.
pub const TASKS: &[(&str, usize, u16, u64)] = &[
    ("fir4", 9, 4, 11),
    ("crc4", 8, 4, 12),
    ("aes5", 16, 5, 13),
    ("fft6", 24, 6, 14),
];

pub const CHANNEL_WIDTH: u16 = 9;
pub const LUT_SIZE: u8 = 6;

/// The shared repository, built through the full CAD flow once.
pub fn repository() -> &'static VbsRepository {
    static REPO: OnceLock<VbsRepository> = OnceLock::new();
    REPO.get_or_init(|| {
        let mut repo = VbsRepository::new();
        for &(name, luts, edge, seed) in TASKS {
            let netlist = SyntheticSpec::new(name, luts, 3, 3)
                .with_seed(seed)
                .build()
                .expect("netlist generation");
            let result = CadFlow::new(CHANNEL_WIDTH, LUT_SIZE)
                .expect("flow")
                .with_grid(edge, edge)
                .with_seed(seed)
                .fast()
                .run(&netlist)
                .expect("cad flow");
            repo.store(name, &result.vbs(1).expect("encode"));
        }
        repo
    })
}

/// A device of the fixture architecture.
pub fn device(width: u16, height: u16) -> Device {
    Device::new(
        ArchSpec::new(CHANNEL_WIDTH, LUT_SIZE).unwrap(),
        width,
        height,
    )
    .unwrap()
}

/// One single-fabric scheduler over the shared repository.
pub fn scheduler(
    width: u16,
    height: u16,
    policy: Box<dyn PlacementPolicy>,
    config: SchedulerConfig,
) -> Scheduler {
    let manager = TaskManager::new(
        ReconfigurationController::new(device(width, height)),
        repository().clone(),
    )
    .with_policy(policy);
    Scheduler::with_config(manager, Box::new(LruEviction), config)
}

/// A K-fabric fleet of identical `width` × `height` devices.
pub fn fleet(
    k: usize,
    width: u16,
    height: u16,
    shard: Box<dyn ShardPolicy>,
    make_placement: fn() -> Box<dyn PlacementPolicy>,
    config: SchedulerConfig,
) -> MultiFabricScheduler {
    let fabrics = (0..k)
        .map(|_| scheduler(width, height, make_placement(), config))
        .collect();
    MultiFabricScheduler::new(fabrics, shard)
}

/// Asserts one fabric's physical invariants: resident regions pairwise
/// disjoint and in bounds, occupied area within capacity, and nothing
/// configured in the config memory outside a resident region.
pub fn assert_fabric_invariants(sched: &Scheduler) {
    let manager = sched.manager();
    let device = manager.controller().device();
    let tasks = manager.loaded_tasks();
    let mut occupied_area = 0u32;
    for (i, a) in tasks.iter().enumerate() {
        assert!(
            a.region.origin.x as u32 + a.region.width as u32 <= device.width() as u32
                && a.region.origin.y as u32 + a.region.height as u32 <= device.height() as u32,
            "region {} out of bounds",
            a.region
        );
        occupied_area += a.region.area();
        for b in tasks.iter().skip(i + 1) {
            assert!(
                !a.region.intersects(&b.region),
                "regions {} and {} overlap",
                a.region,
                b.region
            );
        }
    }
    assert!(
        occupied_area <= device.width() as u32 * device.height() as u32,
        "resident area {} exceeds fabric capacity",
        occupied_area
    );
    for y in 0..device.height() {
        for x in 0..device.width() {
            let at = Coord::new(x, y);
            if !tasks.iter().any(|t| t.region.contains(at)) {
                assert!(
                    manager.controller().memory().frame(at).is_empty(),
                    "macro {at} configured outside any resident region"
                );
            }
        }
    }
}
