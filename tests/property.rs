//! Property-based tests on the core data structures and invariants.

use proptest::prelude::*;
use std::sync::OnceLock;
use vbs_repro::arch::{ArchSpec, Coord, Device, Side};
use vbs_repro::flow::CadFlow;
use vbs_repro::netlist::generate::SyntheticSpec;
use vbs_repro::netlist::TruthTable;
use vbs_repro::runtime::{
    BestFit, BottomLeftSkyline, FabricView, FirstFit, PlacementPolicy, ReconfigurationController,
    TaskManager, VbsRepository,
};
use vbs_repro::sched::{
    LruEviction, Outcome, PriorityEviction, Request, Scheduler, SchedulerConfig,
};
use vbs_repro::vbs::bitio::{BitReader, BitWriter};
use vbs_repro::vbs::{ClusterIo, Vbs, VbsHeader};

/// Two small tasks used by the scheduler sequence property, built through
/// the CAD flow once per test binary.
fn sched_repository() -> &'static VbsRepository {
    static REPO: OnceLock<VbsRepository> = OnceLock::new();
    REPO.get_or_init(|| {
        let mut repo = VbsRepository::new();
        for (name, luts, edge, seed) in [("tiny", 5usize, 3u16, 31u64), ("small", 9, 4, 32)] {
            let netlist = SyntheticSpec::new(name, luts, 2, 2)
                .with_seed(seed)
                .build()
                .expect("netlist generation");
            let result = CadFlow::new(9, 6)
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

/// Asserts the scheduler's fabric invariants: loaded regions are pairwise
/// disjoint, in bounds, and the configuration memory is blank outside them.
fn assert_fabric_invariants(sched: &Scheduler) {
    let manager = sched.manager();
    let device = manager.controller().device();
    let tasks = manager.loaded_tasks();
    for (i, a) in tasks.iter().enumerate() {
        assert!(
            a.region.origin.x as u32 + a.region.width as u32 <= device.width() as u32
                && a.region.origin.y as u32 + a.region.height as u32 <= device.height() as u32,
            "region {} out of bounds",
            a.region
        );
        for b in tasks.iter().skip(i + 1) {
            assert!(
                !a.region.intersects(&b.region),
                "regions {} and {} overlap",
                a.region,
                b.region
            );
        }
    }
    for y in 0..device.height() {
        for x in 0..device.width() {
            let at = Coord::new(x, y);
            if !tasks.iter().any(|t| t.region.contains(at)) {
                assert!(
                    manager.controller().memory().frame(at).is_empty(),
                    "macro {at} configured outside any loaded region"
                );
            }
        }
    }
}

proptest! {
    /// Bit-level serialization is lossless for arbitrary field sequences.
    #[test]
    fn bitio_roundtrips(fields in proptest::collection::vec((0u64..u32::MAX as u64, 1u32..33), 1..64)) {
        let mut writer = BitWriter::new();
        for (value, width) in &fields {
            let masked = value & ((1u64 << width) - 1);
            writer.write_bits(masked, *width);
        }
        let bytes = writer.into_bytes();
        let mut reader = BitReader::new(&bytes);
        for (value, width) in &fields {
            let masked = value & ((1u64 << width) - 1);
            prop_assert_eq!(reader.read_bits(*width).unwrap(), masked);
        }
    }

    /// Every macro I/O index (cluster I/O at `k = 1`) decodes back to the
    /// I/O that produced it, for any supported channel width and LUT size.
    #[test]
    fn macro_io_index_roundtrip(w in 2u16..40, k in 2u8..9, idx_seed in 0u32..10_000) {
        let spec = ArchSpec::new(w, k).unwrap();
        let idx = idx_seed % ClusterIo::io_count(&spec, 1);
        let io = ClusterIo::from_index(&spec, 1, idx).unwrap();
        prop_assert_eq!(io.index(&spec, 1), idx);
    }

    /// Cluster I/O numbering is a bijection for every cluster size.
    #[test]
    fn cluster_io_index_roundtrip(w in 2u16..24, cluster in 1u16..5, idx_seed in 0u32..100_000) {
        let spec = ArchSpec::new(w, 6).unwrap();
        let idx = idx_seed % ClusterIo::io_count(&spec, cluster);
        let io = ClusterIo::from_index(&spec, cluster, idx).unwrap();
        prop_assert_eq!(io.index(&spec, cluster), idx);
    }

    /// Equation (1) never undercounts: the raw frame is always strictly
    /// larger than the logic section and grows monotonically with W.
    #[test]
    fn equation_1_is_monotone(w in 2u16..128, k in 2u8..9) {
        let spec = ArchSpec::new(w, k).unwrap();
        prop_assert!(spec.raw_bits_per_macro() > spec.lb_config_bits());
        if w > 2 {
            let smaller = ArchSpec::new(w - 1, k).unwrap();
            prop_assert!(spec.raw_bits_per_macro() > smaller.raw_bits_per_macro());
        }
        // The break-even point of Section II-B, floor(N_raw / 2M), is always
        // at least one connection: coding a single route never loses
        // against raw.
        let header = VbsHeader { spec, cluster_size: 1, width: 1, height: 1 };
        prop_assert!(spec.raw_bits_per_macro() / (2 * header.io_bits() as usize) >= 1);
    }

    /// Truth tables evaluate consistently with their entry encoding.
    #[test]
    fn truth_table_eval_matches_entries(bits in proptest::collection::vec(any::<bool>(), 64), probe in 0usize..64) {
        let table = TruthTable::from_bits(6, bits.iter().copied());
        let inputs: Vec<bool> = (0..6).map(|i| (probe >> i) & 1 == 1).collect();
        prop_assert_eq!(table.evaluate(&inputs), bits[probe]);
    }

    /// Widening a truth table never changes the function on the original
    /// inputs.
    #[test]
    fn truth_table_widen_preserves_function(bits in proptest::collection::vec(any::<bool>(), 16), probe in 0usize..16) {
        let narrow = TruthTable::from_bits(4, bits.iter().copied());
        let wide = narrow.widen(6);
        let inputs: Vec<bool> = (0..4).map(|i| (probe >> i) & 1 == 1).collect();
        prop_assert_eq!(wide.evaluate(&inputs), narrow.evaluate(&inputs));
    }

    /// An empty VBS serializes and parses back for any task shape, and its
    /// size accounting matches the byte length.
    #[test]
    fn empty_vbs_roundtrips(w in 1u16..64, h in 1u16..64, cluster in 1u16..5) {
        prop_assume!(cluster <= w.max(h));
        let spec = ArchSpec::paper_evaluation();
        let vbs = Vbs::new(spec, cluster, w, h, Vec::new()).unwrap();
        let bytes = vbs.to_bytes();
        prop_assert_eq!(bytes.len(), (vbs.size_bits() as usize).div_ceil(8));
        prop_assert_eq!(Vbs::from_bytes(&bytes).unwrap(), vbs);
    }

    /// Rectangle intersection is symmetric and consistent with containment.
    #[test]
    fn rect_intersection_properties(ax in 0u16..32, ay in 0u16..32, aw in 1u16..16, ah in 1u16..16,
                                     bx in 0u16..32, by in 0u16..32, bw in 1u16..16, bh in 1u16..16) {
        use vbs_repro::arch::Rect;
        let a = Rect::new(Coord::new(ax, ay), aw, ah);
        let b = Rect::new(Coord::new(bx, by), bw, bh);
        prop_assert_eq!(a.intersects(&b), b.intersects(&a));
        if a.contains_rect(&b) {
            prop_assert!(a.intersects(&b));
        }
        // A rectangle always intersects itself and contains itself.
        prop_assert!(a.intersects(&a));
        prop_assert!(a.contains_rect(&a));
    }

    /// A hand-built occupancy may hold anything — rectangles off the fabric,
    /// reaching past `u16`, or on top of each other: the view clips them, its
    /// metrics stay in range and every policy answers with a free in-bounds
    /// position or none, without a panic.
    #[test]
    fn fabric_view_tolerates_any_rectangles(
        w in 0u16..20,
        h in 0u16..20,
        rects in proptest::collection::vec((0u16..24, 0u16..24, 0u16..12, 0u16..12, 0u8..4), 0..6),
        task in (1u16..8, 1u16..8),
    ) {
        use vbs_repro::arch::Rect;
        let occupied: Vec<Rect> = rects
            .iter()
            .map(|&(x, y, rw, rh, stretch)| {
                let (rw, rh) = if stretch == 0 { (u16::MAX, u16::MAX - rh) } else { (rw, rh) };
                Rect::new(Coord::new(x, y), rw, rh)
            })
            .collect();
        let view = FabricView::new(w, h, occupied.clone());
        prop_assert_eq!(view.occupied().len(), occupied.len());
        prop_assert!(view.occupied().iter().all(|r| view.in_bounds(r)));

        let busy = |x: u16, y: u16| occupied.iter().any(|r| {
            (r.origin.x as u32..r.origin.x as u32 + r.width as u32).contains(&(x as u32))
                && (r.origin.y as u32..r.origin.y as u32 + r.height as u32).contains(&(y as u32))
        });
        let free_cells = (0..h).flat_map(|y| (0..w).map(move |x| (x, y)))
            .filter(|&(x, y)| !busy(x, y))
            .count() as u32;
        let disjoint = view.occupied().iter().enumerate().all(|(i, a)| {
            view.occupied()[i + 1..].iter().all(|b| !a.intersects(b))
        });
        prop_assert!(view.free_area() <= free_cells);
        if disjoint {
            prop_assert_eq!(view.free_area(), free_cells);
        }
        prop_assert!(view.largest_free_rect_area() <= free_cells);
        prop_assert!((0.0..=1.0).contains(&view.fragmentation()));
        for free in view.free_rectangles() {
            prop_assert!(view.is_free(&free), "{} is not free in {:?}", free, view);
        }

        let (tw, th) = task;
        for policy in [&FirstFit as &dyn PlacementPolicy, &BestFit, &BottomLeftSkyline] {
            if let Some(origin) = policy.place(tw, th, &view) {
                let region = Rect::new(origin, tw, th);
                prop_assert!(view.is_free(&region), "{} put {} on {:?}", policy.name(), region, view);
                prop_assert!(region.iter().all(|at| !busy(at.x, at.y)));
            }
        }
    }

    /// Sides: opposite is an involution and preserves the channel axis.
    #[test]
    fn side_opposite_involution(side_idx in 0usize..4) {
        let side = Side::ALL[side_idx];
        prop_assert_eq!(side.opposite().opposite(), side);
        prop_assert_eq!(side.is_horizontal(), side.opposite().is_horizontal());
    }

    /// Arbitrary load/unload/relocate/evict/compact sequences through the
    /// scheduler keep the fabric consistent: no two loaded regions
    /// intersect, every loaded region is in bounds, nothing is configured
    /// outside a loaded region, and the memory is blank once everything is
    /// unloaded.
    #[test]
    fn scheduler_sequences_preserve_fabric_invariants(
        policy_idx in 0usize..3,
        evict_idx in 0usize..2,
        ops in proptest::collection::vec((0u8..5, 0u8..4, 0u16..10, 0u16..8), 1..24),
    ) {
        let policy: Box<dyn PlacementPolicy> = match policy_idx {
            0 => Box::new(FirstFit),
            1 => Box::new(BestFit),
            _ => Box::new(BottomLeftSkyline),
        };
        let device = Device::new(ArchSpec::new(9, 6).unwrap(), 9, 7).unwrap();
        let manager = TaskManager::new(
            ReconfigurationController::new(device),
            sched_repository().clone(),
        )
        .with_policy(policy);
        let eviction: Box<dyn vbs_repro::sched::EvictionPolicy> = if evict_idx == 0 {
            Box::new(LruEviction)
        } else {
            Box::new(PriorityEviction)
        };
        let mut sched = Scheduler::with_config(
            manager,
            eviction,
            SchedulerConfig {
                eviction_limit: 2,
                compaction: true,
                ..SchedulerConfig::default()
            },
        );

        let mut jobs: Vec<u64> = Vec::new();
        for (tick, &(op, priority, x, y)) in ops.iter().enumerate() {
            sched.advance_to(tick as u64);
            match op {
                0 | 1 => {
                    let task = if op == 0 { "tiny" } else { "small" };
                    let outcome = sched.execute(Request::Load {
                        task: task.into(),
                        priority,
                        deadline: None,
                    });
                    if let Outcome::Loaded { job, .. } = outcome {
                        jobs.push(job);
                    }
                }
                2 => {
                    if !jobs.is_empty() {
                        let job = jobs[(x as usize + y as usize) % jobs.len()];
                        sched.execute(Request::Unload { job });
                    }
                }
                3 => {
                    if !jobs.is_empty() {
                        let job = jobs[(x as usize) % jobs.len()];
                        // May fail (busy/out of bounds) — invariants must
                        // hold either way.
                        sched.execute(Request::Relocate { job, to: Coord::new(x, y) });
                    }
                }
                _ => {
                    sched.compact();
                }
            }
            assert_fabric_invariants(&sched);
        }

        // Drain everything: the fabric must come back blank.
        for info in sched.residents() {
            sched.execute(Request::Unload { job: info.job });
        }
        assert_fabric_invariants(&sched);
        prop_assert_eq!(sched.manager().controller().memory().occupied_macros(), 0);
        let view = sched.manager().fabric_view();
        prop_assert_eq!(view.free_area(), 9 * 7);
        prop_assert_eq!(view.fragmentation(), 0.0);
    }
}
