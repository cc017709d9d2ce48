//! Observability end to end: replay a bursty trace through a two-fabric
//! fleet with a shared telemetry registry installed, then export what the
//! pipeline did — a human-readable latency summary per stage on stdout, a
//! machine-readable metrics snapshot, and a `chrome://tracing` / Perfetto
//! trace with one process track per fabric (and one for the fleet
//! dispatcher).
//!
//! Run with: `cargo run --release --example telemetry [-- OUT_DIR]`
//!
//! Open `telemetry_trace.json` at <https://ui.perfetto.dev> (or
//! `chrome://tracing`) to see queue waits, decode spans, frame
//! writes, compaction pauses and cross-fabric migrations on one timeline.

use vbs_repro::arch::{ArchSpec, Device};
use vbs_repro::flow::CadFlow;
use vbs_repro::netlist::generate::SyntheticSpec;
use vbs_repro::runtime::{BestFit, ReconfigurationController, TaskManager, VbsRepository};
use vbs_repro::sched::{
    replay_multi, LeastLoaded, LruEviction, MultiFabricScheduler, Scheduler, SchedulerConfig,
    Trace, WorkloadSpec,
};
use vbs_repro::telemetry::export::{chrome_trace, metrics_json, summary_table};
use vbs_repro::telemetry::Telemetry;

const CHANNEL_WIDTH: u16 = 9;
const LUT_SIZE: u8 = 6;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_dir = std::env::args().nth(1).unwrap_or_else(|| ".".to_string());

    // Offline: implement four differently-sized tasks and store their VBS.
    let mut repository = VbsRepository::new();
    for (name, luts, edge, seed) in [
        ("fir_filter", 9usize, 4u16, 21u64),
        ("crc_engine", 8, 4, 22),
        ("aes_round", 16, 5, 23),
        ("fft_stage", 24, 6, 24),
    ] {
        let netlist = SyntheticSpec::new(name, luts, 3, 3)
            .with_seed(seed)
            .build()?;
        let result = CadFlow::new(CHANNEL_WIDTH, LUT_SIZE)?
            .with_grid(edge, edge)
            .with_seed(seed)
            .fast()
            .run(&netlist)?;
        repository.store(name, &result.vbs(1)?);
    }

    // A two-fabric fleet under a deterministic 500-load burst, compaction
    // on — every pipeline stage gets exercised.
    let fabric = |w, h| -> Result<Scheduler, Box<dyn std::error::Error>> {
        let device = Device::new(ArchSpec::new(CHANNEL_WIDTH, LUT_SIZE)?, w, h)?;
        let manager = TaskManager::new(ReconfigurationController::new(device), repository.clone())
            .with_policy(Box::new(BestFit));
        Ok(Scheduler::with_config(
            manager,
            Box::new(LruEviction),
            SchedulerConfig {
                eviction_limit: 1,
                compaction: true,
                ..SchedulerConfig::default()
            },
        ))
    };
    let mut fleet =
        MultiFabricScheduler::new(vec![fabric(11, 11)?, fabric(9, 9)?], Box::new(LeastLoaded));

    // One shared registry for the whole fleet: the dispatcher tags its
    // events with the fleet fabric, each scheduler and its controller's
    // decodes with the fabric's index.
    let telemetry = Telemetry::new();
    fleet.set_telemetry(telemetry.clone());

    let trace = Trace::synthetic(&WorkloadSpec {
        tasks: vec![
            "fir_filter".into(),
            "crc_engine".into(),
            "aes_round".into(),
            "fft_stage".into(),
        ],
        loads: 500,
        mean_interarrival: 2,
        mean_duration: 20,
        priority_levels: 4,
        deadline_slack: None,
        seed: 2015,
    });
    println!("replaying {} events over 2 fabrics\n", trace.len());
    let report = replay_multi(&mut fleet, &trace);
    println!("{report}");

    // Exporters: the latency summary for humans, the snapshot for scripts,
    // the trace-event JSON for the Perfetto timeline.
    println!("{}", summary_table(&telemetry));

    let metrics_path = format!("{out_dir}/telemetry_metrics.json");
    std::fs::write(&metrics_path, metrics_json(&telemetry))?;
    let trace_path = format!("{out_dir}/telemetry_trace.json");
    std::fs::write(&trace_path, chrome_trace(&telemetry))?;
    println!("wrote {metrics_path} and {trace_path} (open the trace at https://ui.perfetto.dev)");
    Ok(())
}
