//! Cluster-size sweep on one MCNC-calibrated benchmark: the Figure 5
//! experiment on a single circuit, showing the size/decoding-effort
//! trade-off of Section IV-B.
//!
//! Run with: `cargo run --release --example clustering_sweep [circuit] [scale]`

use vbs_repro::bitstream::TaskBitstream;
use vbs_repro::runtime::ReconfigurationController;
use vbs_repro::vbs::VbsStats;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map(String::as_str).unwrap_or("dsip");
    let scale: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(0.15);

    let circuit = vbs_repro::netlist::mcnc::by_name(name)
        .ok_or_else(|| format!("unknown MCNC circuit `{name}`"))?;
    println!(
        "circuit {} (scale {scale}): {} LBs on a {}x{} array in the paper",
        circuit.name, circuit.logic_blocks, circuit.size, circuit.size
    );

    let netlist = circuit.build_scaled(scale)?;
    let edge = circuit.scaled_size(scale);
    let flow = vbs_repro::flow::CadFlow::paper_evaluation()
        .with_grid(edge, edge)
        .with_seed(circuit.seed())
        .fast();
    let result = flow.run(&netlist)?;
    println!(
        "raw bit-stream: {} bits ({} macros x {} bits)",
        result.raw_bitstream().size_bits(),
        result.raw_bitstream().macro_count(),
        result.device().spec().raw_bits_per_macro()
    );

    println!(
        "\n{:>7} {:>12} {:>9} {:>9} {:>12} {:>14}",
        "cluster", "VBS (bits)", "ratio", "factor", "connections", "decode (us)"
    );
    for k in [1u16, 2, 3, 4, 6] {
        if k > edge {
            break;
        }
        let vbs = result.vbs(k)?;
        let stats = VbsStats::of(&vbs);
        let mut controller = ReconfigurationController::new(result.device().clone());
        let mut decoded = TaskBitstream::empty(*vbs.spec(), 0, 0);
        let report = controller.decode_into(&vbs, &mut decoded)?;
        println!(
            "{:>7} {:>12} {:>8.1}% {:>8.2}x {:>12} {:>14}",
            k,
            stats.vbs_bits,
            100.0 * stats.ratio(),
            stats.factor(),
            stats.connections,
            report.micros
        );
    }
    Ok(())
}
