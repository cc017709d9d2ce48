//! Shared workload fixture for the `scheduler` throughput bin and the
//! allocation tests (`tests/zero_alloc.rs`): a small repository of synthetic
//! tasks plus the device they target.

use vbs_arch::{ArchSpec, Device};
use vbs_flow::CadFlow;
use vbs_netlist::generate::SyntheticSpec;
use vbs_runtime::{PlacementPolicy, ReconfigurationController, TaskManager, VbsRepository};
use vbs_sched::{
    LruEviction, MultiFabricScheduler, Scheduler, SchedulerConfig, ShardPolicy, Trace, WorkloadSpec,
};

/// Channel width of the scheduler workload fabric.
pub const SCHED_CHANNEL_WIDTH: u16 = 9;
/// LUT size of the scheduler workload fabric.
pub const SCHED_LUT_SIZE: u8 = 6;

/// The task mix: (name, LUTs, grid edge, seed).
const SCHED_TASKS: &[(&str, usize, u16, u64)] = &[
    ("fir_filter", 9, 4, 21),
    ("crc_engine", 8, 4, 22),
    ("aes_round", 16, 5, 23),
    ("fft_stage", 24, 6, 24),
];

/// Builds the repository of `SCHED_TASKS` through the full CAD flow.
///
/// # Panics
///
/// Panics when the flow fails — the fixture is deterministic, so that only
/// happens if the flow itself regresses.
pub fn sched_repository() -> VbsRepository {
    let mut repo = VbsRepository::new();
    for &(name, luts, edge, seed) in SCHED_TASKS {
        let netlist = SyntheticSpec::new(name, luts, 3, 3)
            .with_seed(seed)
            .build()
            .expect("netlist generation");
        let result = CadFlow::new(SCHED_CHANNEL_WIDTH, SCHED_LUT_SIZE)
            .expect("flow construction")
            .with_grid(edge, edge)
            .with_seed(seed)
            .fast()
            .run(&netlist)
            .expect("cad flow");
        repo.store(name, &result.vbs(1).expect("vbs encoding"));
    }
    repo
}

/// A `width` × `height` device on the workload architecture.
///
/// # Panics
///
/// Panics on degenerate dimensions.
pub fn sched_device(width: u16, height: u16) -> Device {
    Device::new(
        ArchSpec::new(SCHED_CHANNEL_WIDTH, SCHED_LUT_SIZE).expect("arch spec"),
        width,
        height,
    )
    .expect("device")
}

/// One single-fabric scheduler over the workload repository, with LRU
/// eviction.
pub fn sched_scheduler(
    repository: &VbsRepository,
    width: u16,
    height: u16,
    policy: Box<dyn PlacementPolicy>,
    config: SchedulerConfig,
) -> Scheduler {
    let manager = TaskManager::new(
        ReconfigurationController::new(sched_device(width, height)),
        repository.clone(),
    )
    .with_policy(policy);
    Scheduler::with_config(manager, Box::new(LruEviction), config)
}

/// A K-fabric fleet of identical `fabric`-sized (width, height) devices
/// over the workload repository, dispatching through `shard`.
pub fn sched_fleet(
    repository: &VbsRepository,
    k: usize,
    fabric: (u16, u16),
    shard: Box<dyn ShardPolicy>,
    make_policy: &dyn Fn() -> Box<dyn PlacementPolicy>,
    config: SchedulerConfig,
) -> MultiFabricScheduler {
    let fabrics = (0..k)
        .map(|_| sched_scheduler(repository, fabric.0, fabric.1, make_policy(), config))
        .collect();
    MultiFabricScheduler::new(fabrics, shard)
}

/// A seeded synthetic trace over the workload task mix.
pub fn sched_trace(loads: usize, seed: u64) -> Trace {
    Trace::synthetic(&WorkloadSpec {
        tasks: SCHED_TASKS.iter().map(|t| t.0.to_string()).collect(),
        loads,
        mean_interarrival: 3,
        mean_duration: 24,
        priority_levels: 4,
        deadline_slack: None,
        seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_fixture_is_deterministic() {
        assert_eq!(sched_trace(10, 7), sched_trace(10, 7));
        assert_eq!(sched_trace(10, 7).len(), 20);
    }
}
