use vbs_arch::{ArchSpec, Coord, Device};
use vbs_core::{decode, ClusterRecord, ClusterRoutes, Vbs, VbsEncoder};
use vbs_netlist::generate::SyntheticSpec;
use vbs_place::{place, PlacerConfig};
use vbs_route::{route, RouterConfig};

#[test]
fn fine_grain_roundtrip_is_bit_exact() {
    let netlist = SyntheticSpec::new("enc", 30, 5, 5)
        .with_seed(1)
        .build()
        .unwrap();
    let device = Device::new(ArchSpec::new(10, 6).unwrap(), 8, 8).unwrap();
    let placement = place(&netlist, &device, &PlacerConfig::fast(1)).unwrap();
    let routing = route(&netlist, &device, &placement, &RouterConfig::fast()).unwrap();
    let raw = vbs_bitstream::generate_bitstream(&netlist, &device, &placement, &routing).unwrap();
    let encoder = VbsEncoder::new(*device.spec(), 1).unwrap();
    let vbs = encoder.encode(&raw, &routing).unwrap();
    let decoded = decode(&vbs).unwrap();
    let mut n_raw_records = 0;
    for r in vbs.records() {
        if matches!(r.routes, ClusterRoutes::Raw(_)) {
            n_raw_records += 1;
        }
    }
    eprintln!("raw records: {} / {}", n_raw_records, vbs.records().len());
    for (coord, frame) in raw.iter_frames() {
        let d = decoded.frame(coord);
        let diff = frame.diff_count(d);
        if diff > 0 {
            eprintln!(
                "macro {coord}: {diff} differing bits, orig popcount {}, decoded popcount {}",
                frame.popcount(),
                d.popcount()
            );
            let layout = frame.layout();
            for i in 0..frame.len() {
                if frame.bit(i) != d.bit(i) {
                    let section = if i < layout.lb_config_range().end {
                        "logic"
                    } else if i < layout.sb_range().end {
                        "sb"
                    } else {
                        "crossing"
                    };
                    eprintln!(
                        "   bit {i} ({section}): orig={} dec={}",
                        frame.bit(i),
                        d.bit(i)
                    );
                }
            }
            for r in vbs.records() {
                if r.position == coord {
                    if let ClusterRoutes::Coded(c) = &r.routes {
                        for conn in c {
                            eprintln!("   conn: {conn}");
                        }
                    }
                }
            }
        }
    }
    assert_eq!(decoded.diff_count(&raw).unwrap(), 0);
}

/// An empty task (no occupied cluster at all — a region reserved but never
/// programmed) survives serialization and decodes to an all-zero bit-stream
/// of the right shape.
#[test]
fn empty_task_bitstream_roundtrips() {
    let spec = ArchSpec::paper_example();
    for (w, h) in [(1u16, 1u16), (1, 7), (6, 1), (5, 4)] {
        let vbs = Vbs::new(spec, 1, w, h, Vec::new()).unwrap();
        let back = Vbs::from_bytes(&vbs.to_bytes()).unwrap();
        assert_eq!(back, vbs, "{w}x{h}");
        let task = decode(&back).unwrap();
        assert_eq!(task.width(), w);
        assert_eq!(task.height(), h);
        assert_eq!(task.popcount(), 0, "{w}x{h} decodes non-blank");
        assert_eq!(task.occupied_macros(), 0);
    }
}

/// A single-frame task — 1x1 macros, so every field width and coordinate in
/// the format collapses to its minimum — stays bit-exact through encode,
/// serialize, parse and decode.
#[test]
fn single_frame_task_is_bit_exact() {
    let spec = ArchSpec::paper_example();
    let logic_bits = spec.lb_config_bits();
    let routing_bits = spec.raw_bits_per_macro() - logic_bits;
    let logic: Vec<bool> = (0..logic_bits).map(|i| i % 3 == 1).collect();
    let routing: Vec<bool> = (0..routing_bits).map(|i| i % 5 == 2).collect();
    let record = ClusterRecord {
        position: Coord::new(0, 0),
        logic: logic.iter().copied().collect(),
        routes: ClusterRoutes::Raw(routing.iter().copied().collect()),
    };
    let vbs = Vbs::new(spec, 1, 1, 1, vec![record]).unwrap();
    let back = Vbs::from_bytes(&vbs.to_bytes()).unwrap();
    assert_eq!(back, vbs);

    let task = decode(&back).unwrap();
    assert_eq!((task.width(), task.height()), (1, 1));
    let frame = task.frame(Coord::new(0, 0));
    for (i, &bit) in logic.iter().enumerate() {
        assert_eq!(frame.bit(i), bit, "logic bit {i}");
    }
    for (i, &bit) in routing.iter().enumerate() {
        assert_eq!(frame.bit(logic_bits + i), bit, "routing bit {i}");
    }
}

/// Frames programmed at the maximum wordline offsets — the very first and
/// very last bit of the frame, in the record at the task's far corner —
/// survive the roundtrip. This guards the bit-packing at both ends of the
/// frame layout and the widest coordinate values a record can carry.
#[test]
fn max_wordline_offset_frames_roundtrip() {
    let spec = ArchSpec::paper_example();
    let logic_bits = spec.lb_config_bits();
    let n_raw = spec.raw_bits_per_macro();
    let routing_bits = n_raw - logic_bits;

    // Only the extreme offsets are programmed: logic bit 0, the last logic
    // bit, the first routing bit and the last routing bit (= frame bit
    // N_raw - 1, the maximum wordline offset of Equation (1)).
    let mut logic = vec![false; logic_bits];
    logic[0] = true;
    logic[logic_bits - 1] = true;
    let mut routing = vec![false; routing_bits];
    routing[0] = true;
    routing[routing_bits - 1] = true;

    let (w, h) = (4u16, 4u16);
    let corner = Coord::new(w - 1, h - 1);
    let record = ClusterRecord {
        position: corner,
        logic: logic.iter().copied().collect(),
        routes: ClusterRoutes::Raw(routing.iter().copied().collect()),
    };
    let vbs = Vbs::new(spec, 1, w, h, vec![record]).unwrap();
    let back = Vbs::from_bytes(&vbs.to_bytes()).unwrap();
    assert_eq!(back, vbs);

    let task = decode(&back).unwrap();
    let frame = task.frame(corner);
    assert!(frame.bit(0), "first logic bit lost");
    assert!(frame.bit(logic_bits - 1), "last logic bit lost");
    assert!(frame.bit(logic_bits), "first routing bit lost");
    assert!(frame.bit(n_raw - 1), "maximum-offset bit lost");
    assert_eq!(frame.popcount(), 4, "stray bits appeared");
    // Every other macro of the task stays blank.
    assert_eq!(task.occupied_macros(), 1);
}
