//! Criterion bench of the run-time controller: de-virtualization throughput,
//! sequentially and with a worker pool (Section II-C notes the decode is
//! parallelizable macro by macro), plus the zero-allocation scratch-reuse
//! path and the frame-emitting `decode_streaming` variant.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vbs_arch::Coord;
use vbs_bench::run_circuit;
use vbs_bitstream::{FrameRef, TaskBitstream};
use vbs_core::{DecodeScratch, Devirtualizer, FrameSink};
use vbs_runtime::ReconfigurationController;

struct CountingSink(u64);

impl FrameSink for CountingSink {
    fn emit(&mut self, _at: Coord, _frame: FrameRef<'_>) {
        self.0 += 1;
    }
}

fn decode_throughput(c: &mut Criterion) {
    let circuit = vbs_netlist::mcnc::by_name("s298").expect("table entry");
    let run = run_circuit(circuit, 0.1, 20).expect("flow");
    let vbs = run.result.vbs(1).expect("encode");
    let device = run.result.device().clone();

    let mut group = c.benchmark_group("decode");
    group.sample_size(20);
    let mut staging = TaskBitstream::empty(*vbs.spec(), 1, 1);
    for workers in [1usize, 4] {
        let controller = ReconfigurationController::new(device.clone()).with_workers(workers);
        group.bench_with_input(
            BenchmarkId::new("decode_into (controller lanes)", workers),
            &workers,
            |b, _| b.iter(|| controller.decode_into(&vbs, &mut staging).expect("decode")),
        );
    }

    // Scratch reuse: steady-state zero-allocation decode into a recycled
    // buffer.
    let devirt = Devirtualizer::new(&vbs).expect("devirtualizer");
    let mut scratch = DecodeScratch::new();
    group.bench_function("decode_into (scratch reuse)", |b| {
        b.iter(|| {
            devirt
                .decode_into(&mut staging, &mut scratch)
                .expect("decode")
        })
    });

    // Frames pushed to a sink as each cluster record completes.
    group.bench_function("decode_streaming (counting sink)", |b| {
        b.iter(|| {
            let mut sink = CountingSink(0);
            devirt
                .decode_streaming(&mut staging, &mut scratch, &mut sink)
                .expect("decode");
            sink.0
        })
    });
    group.finish();
}

criterion_group!(benches, decode_throughput);
criterion_main!(benches);
