//! On-line task management: placing, loading, relocating and evicting
//! hardware tasks on the fabric at run time.

use crate::controller::{DecodeReport, ReconfigurationController};
use crate::error::RuntimeError;
use crate::placement::{FabricView, FirstFit, PlacementPolicy};
use crate::repository::VbsRepository;
use vbs_arch::{Coord, Rect};
use vbs_bitstream::TaskBitstream;

/// Identifier of a loaded task instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskHandle(pub u64);

/// A task currently configured on the fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadedTask {
    /// Handle identifying this instance.
    pub handle: TaskHandle,
    /// Name of the task in the repository.
    pub name: String,
    /// Region of the fabric the task occupies.
    pub region: Rect,
}

/// The on-line manager: keeps track of which rectangles of the fabric are
/// busy, picks a position for each incoming task through a pluggable
/// [`PlacementPolicy`] (first-fit bottom-left by default) and drives the
/// [`ReconfigurationController`] to load, unload and relocate tasks.
/// Relocation reuses the *same* Virtual Bit-Stream — no offline
/// re-implementation is needed, which is the head-line capability of the
/// paper.
#[derive(Debug)]
pub struct TaskManager {
    controller: ReconfigurationController,
    repository: VbsRepository,
    loaded: Vec<LoadedTask>,
    /// The occupancy every placement and metric query reads: its `i`-th
    /// rectangle is `loaded[i].region`, updated wherever `loaded` changes.
    view: FabricView,
    next_handle: u64,
    policy: Box<dyn PlacementPolicy>,
}

impl TaskManager {
    /// Creates a manager over a controller and a task repository, placing
    /// with [`FirstFit`].
    pub fn new(controller: ReconfigurationController, repository: VbsRepository) -> Self {
        let device = controller.device();
        let view = FabricView::new(device.width(), device.height(), Vec::new());
        TaskManager {
            controller,
            repository,
            loaded: Vec::new(),
            view,
            next_handle: 1,
            policy: Box::new(FirstFit),
        }
    }

    /// Replaces the placement policy used by [`TaskManager::load`].
    pub fn with_policy(mut self, policy: Box<dyn PlacementPolicy>) -> Self {
        self.policy = policy;
        self
    }

    /// The active placement policy.
    pub fn policy(&self) -> &dyn PlacementPolicy {
        self.policy.as_ref()
    }

    /// The fabric occupancy (device size + loaded regions), maintained as
    /// tasks are loaded, moved and removed — reading it copies nothing.
    pub fn fabric_view(&self) -> &FabricView {
        &self.view
    }

    /// The tasks currently loaded, in load order.
    pub fn loaded_tasks(&self) -> &[LoadedTask] {
        &self.loaded
    }

    /// Read access to the repository.
    pub fn repository(&self) -> &VbsRepository {
        &self.repository
    }

    /// Mutable access to the repository (to register new tasks at run time).
    pub fn repository_mut(&mut self) -> &mut VbsRepository {
        &mut self.repository
    }

    /// Read access to the controller (and through it the config memory).
    pub fn controller(&self) -> &ReconfigurationController {
        &self.controller
    }

    /// Mutable access to the controller — the seam the scheduler uses to
    /// install a fault hook, enable integrity tracking and scrub-rewrite a
    /// resident after a readback mismatch.
    pub fn controller_mut(&mut self) -> &mut ReconfigurationController {
        &mut self.controller
    }

    /// Forgets every resident without touching the hardware — the
    /// evacuation path when the fabric itself has failed: there is nothing
    /// to clear (the device is unreachable), but the bookkeeping must be
    /// emptied so the survivors of a later recovery start from a blank
    /// fabric. Returns the abandoned residents, oldest first, so the
    /// caller can re-place them elsewhere.
    pub fn evacuate(&mut self) -> Vec<LoadedTask> {
        self.view.clear();
        std::mem::take(&mut self.loaded)
    }

    /// De-virtualizes the stored stream of `name` onto a staging image
    /// from the controller's scratch pool, without writing it — the decode
    /// behind a scheduler's cache miss. The image is the caller's to keep;
    /// [`ReconfigurationController::recycle`] takes it back.
    ///
    /// # Errors
    ///
    /// Returns the fetch or decode error.
    pub fn decode(&mut self, name: &str) -> Result<(TaskBitstream, DecodeReport), RuntimeError> {
        let view = self.repository.view(name)?;
        self.controller.decode_staged(view)
    }

    /// Loads a task at an explicit position.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::RegionBusy`] when the target rectangle
    /// overlaps a loaded task, plus any fetch/decode/memory error.
    pub fn load_at(&mut self, name: &str, origin: Coord) -> Result<TaskHandle, RuntimeError> {
        let view = self.repository.view(name)?;
        let header = view.header();
        let region = Rect::new(origin, header.width, header.height);
        self.ensure_region_free(&region, None)?;
        self.controller.load(view, origin)?;
        Ok(self.register(name, region))
    }

    /// Loads an already-decoded task bit-stream at an explicit position —
    /// the cache-hit path of the scheduler: a repeated load of the same task
    /// skips the fetch and de-virtualization entirely.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::RegionBusy`] when the target rectangle
    /// overlaps a loaded task, plus any memory error.
    pub fn load_decoded_at(
        &mut self,
        name: &str,
        task: &TaskBitstream,
        origin: Coord,
    ) -> Result<TaskHandle, RuntimeError> {
        let region = Rect::new(origin, task.width(), task.height());
        self.ensure_region_free(&region, None)?;
        self.controller.load_decoded(task, origin)?;
        Ok(self.register(name, region))
    }

    /// Loads a task wherever it fits (bottom-left first-fit scan).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::NoFreeRegion`] when the fabric cannot host the
    /// task, plus any fetch/decode/memory error.
    pub fn load(&mut self, name: &str) -> Result<TaskHandle, RuntimeError> {
        let header = self.repository.header(name)?;
        let origin = self.find_free_region(header.width, header.height).ok_or(
            RuntimeError::NoFreeRegion {
                width: header.width,
                height: header.height,
            },
        )?;
        self.load_at(name, origin)
    }

    /// Unloads a task and clears its region of the configuration memory.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::UnknownHandle`] for stale handles.
    pub fn unload(&mut self, handle: TaskHandle) -> Result<(), RuntimeError> {
        let index = self
            .loaded
            .iter()
            .position(|t| t.handle == handle)
            .ok_or(RuntimeError::UnknownHandle { id: handle.0 })?;
        let task = self.loaded.remove(index);
        self.view.remove(index);
        self.controller.unload(task.region)?;
        Ok(())
    }

    /// Relocates a loaded task to a new origin — the "fast relocation" use
    /// case of the paper. The task's frames already sit decoded in the
    /// configuration memory, so relocation is one bulk word-arena move
    /// ([`ReconfigurationController::move_region`]): no re-decode, no
    /// staging buffer, and destinations overlapping the task's own current
    /// region (the common small shift during defragmentation) are handled
    /// by the overlap-safe row ordering of the copy itself.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::RegionBusy`] if the destination overlaps
    /// another task, [`RuntimeError::UnknownHandle`] for stale handles, plus
    /// any memory error. On error the task stays where it was.
    pub fn relocate(&mut self, handle: TaskHandle, origin: Coord) -> Result<(), RuntimeError> {
        let index = self
            .loaded
            .iter()
            .position(|t| t.handle == handle)
            .ok_or(RuntimeError::UnknownHandle { id: handle.0 })?;
        self.relocate_resident_at(index, origin)
    }

    fn relocate_resident_at(&mut self, index: usize, origin: Coord) -> Result<(), RuntimeError> {
        let old_region = self.loaded[index].region;
        let new_region = Rect::new(origin, old_region.width, old_region.height);
        if new_region == old_region {
            return Ok(());
        }
        let handle = self.loaded[index].handle;
        self.ensure_region_free(&new_region, Some(handle))?;
        self.controller.move_region(old_region, origin)?;
        self.loaded[index].region = new_region;
        self.view.replace(index, new_region);
        Ok(())
    }

    /// Runs the active policy's [`FabricView::compaction_plan`], each move a
    /// [`TaskManager::relocate`]. A move onto a task not yet moved is retried
    /// after the others; a round without progress abandons the rest, leaving
    /// the fabric consistent. Returns the moves made, in order.
    pub fn compact(&mut self) -> Vec<(TaskHandle, Rect)> {
        let mut plan = self.view.compaction_plan(self.policy.as_ref());
        let mut moves = Vec::with_capacity(plan.len());
        while !plan.is_empty() {
            let before = moves.len();
            plan.retain(|&(index, region)| {
                let blocked = self.relocate_resident_at(index, region.origin).is_err();
                if !blocked {
                    moves.push((self.loaded[index].handle, region));
                }
                blocked
            });
            if moves.len() == before {
                break;
            }
        }
        moves
    }

    /// Searches a free `width` × `height` rectangle with the active
    /// placement policy.
    pub fn find_free_region(&self, width: u16, height: u16) -> Option<Coord> {
        self.policy.place(width, height, &self.view)
    }

    /// As [`TaskManager::find_free_region`], with `avoid` counted busy too:
    /// the re-placement of a load whose target region refused or corrupted
    /// its writes, so an answer is always a different spot.
    pub fn find_free_region_avoiding(&self, width: u16, height: u16, avoid: Rect) -> Option<Coord> {
        let mut masked = self.view.clone();
        masked.push(avoid);
        self.policy.place(width, height, &masked)
    }

    fn ensure_region_free(
        &self,
        region: &Rect,
        ignoring: Option<TaskHandle>,
    ) -> Result<(), RuntimeError> {
        if let Some(busy) = self
            .loaded
            .iter()
            .find(|t| Some(t.handle) != ignoring && t.region.intersects(region))
        {
            return Err(RuntimeError::RegionBusy {
                region: busy.region,
            });
        }
        Ok(())
    }

    fn register(&mut self, name: &str, region: Rect) -> TaskHandle {
        let handle = TaskHandle(self.next_handle);
        self.next_handle += 1;
        self.view.push(region);
        self.loaded.push(LoadedTask {
            handle,
            name: name.to_string(),
            region,
        });
        handle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultAction, FaultHook};
    use crate::placement::{BestFit, BottomLeftSkyline};
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
    use std::sync::atomic::{AtomicU8, Ordering};
    use std::sync::{Arc, OnceLock};
    use vbs_arch::{ArchSpec, Device};
    use vbs_core::Vbs;
    use vbs_flow::CadFlow;
    use vbs_netlist::generate::SyntheticSpec;

    fn manager() -> TaskManager {
        let netlist = SyntheticSpec::new("task_a", 18, 4, 4)
            .with_seed(21)
            .build()
            .unwrap();
        let flow = CadFlow::new(9, 6)
            .unwrap()
            .with_grid(6, 6)
            .with_seed(21)
            .fast();
        let result = flow.run(&netlist).unwrap();
        let mut repo = VbsRepository::new();
        repo.store("task_a", &result.vbs(1).unwrap());
        repo.store("task_b", &result.vbs(2).unwrap());
        let device = Device::new(ArchSpec::new(9, 6).unwrap(), 16, 8).unwrap();
        TaskManager::new(ReconfigurationController::new(device), repo)
    }

    #[test]
    fn first_fit_loads_tasks_side_by_side() {
        let mut m = manager();
        let a = m.load("task_a").unwrap();
        let b = m.load("task_b").unwrap();
        assert_eq!(m.loaded_tasks().len(), 2);
        let ra = m
            .loaded_tasks()
            .iter()
            .find(|t| t.handle == a)
            .unwrap()
            .region;
        let rb = m
            .loaded_tasks()
            .iter()
            .find(|t| t.handle == b)
            .unwrap()
            .region;
        assert!(!ra.intersects(&rb));
        assert!(m.controller().memory().occupied_macros() > 0);
    }

    #[test]
    fn overlapping_explicit_loads_are_rejected() {
        let mut m = manager();
        m.load_at("task_a", Coord::new(0, 0)).unwrap();
        assert!(matches!(
            m.load_at("task_b", Coord::new(1, 1)),
            Err(RuntimeError::RegionBusy { .. })
        ));
    }

    #[test]
    fn unload_frees_the_region() {
        let mut m = manager();
        let a = m.load("task_a").unwrap();
        assert!(m.controller().memory().occupied_macros() > 0);
        m.unload(a).unwrap();
        assert_eq!(m.controller().memory().occupied_macros(), 0);
        assert!(matches!(
            m.unload(a),
            Err(RuntimeError::UnknownHandle { .. })
        ));
    }

    #[test]
    fn relocation_moves_the_configuration() {
        let mut m = manager();
        let a = m.load_at("task_a", Coord::new(0, 0)).unwrap();
        let before = m
            .controller()
            .memory()
            .read_region(Rect::new(Coord::new(0, 0), 6, 6))
            .unwrap();
        m.relocate(a, Coord::new(9, 2)).unwrap();
        let after = m
            .controller()
            .memory()
            .read_region(Rect::new(Coord::new(9, 2), 6, 6))
            .unwrap();
        assert_eq!(before.diff_count(&after).unwrap(), 0);
        // The old region is blank again.
        let old = m
            .controller()
            .memory()
            .read_region(Rect::new(Coord::new(0, 0), 6, 6))
            .unwrap();
        assert_eq!(old.popcount(), 0);
    }

    #[test]
    fn relocation_onto_own_region_is_not_corrupted() {
        // Regression test: a destination overlapping the task's current
        // region used to decode into the new origin and then clear the
        // overlap away while unloading the old region.
        let mut m = manager();
        let a = m.load_at("task_a", Coord::new(0, 0)).unwrap();
        let region = m.loaded_tasks()[0].region;
        let before = m.controller().memory().read_region(region).unwrap();

        // Shift one macro to the right: maximal self-overlap.
        m.relocate(a, Coord::new(1, 0)).unwrap();
        let shifted = Rect::new(Coord::new(1, 0), region.width, region.height);
        let after = m.controller().memory().read_region(shifted).unwrap();
        assert_eq!(before.diff_count(&after).unwrap(), 0);

        // The vacated column is blank and nothing else is configured.
        let vacated = m
            .controller()
            .memory()
            .read_region(Rect::new(Coord::new(0, 0), 1, region.height))
            .unwrap();
        assert_eq!(vacated.popcount(), 0);
        assert_eq!(
            m.controller().memory().occupied_macros(),
            after.occupied_macros()
        );

        // Diagonal self-overlap keeps working too.
        m.relocate(a, Coord::new(0, 1)).unwrap();
        let diagonal = Rect::new(Coord::new(0, 1), region.width, region.height);
        let moved = m.controller().memory().read_region(diagonal).unwrap();
        assert_eq!(before.diff_count(&moved).unwrap(), 0);
    }

    #[test]
    fn relocation_to_same_origin_is_a_noop() {
        let mut m = manager();
        let a = m.load_at("task_a", Coord::new(2, 1)).unwrap();
        let region = m.loaded_tasks()[0].region;
        let before = m.controller().memory().read_region(region).unwrap();
        m.relocate(a, Coord::new(2, 1)).unwrap();
        let after = m.controller().memory().read_region(region).unwrap();
        assert_eq!(before.diff_count(&after).unwrap(), 0);
    }

    /// A fault model the tests flip between healthy (0), refusing every
    /// write transiently (1) or for good (3), and offline (2).
    #[derive(Debug, Default)]
    struct ModeHook(AtomicU8);

    impl FaultHook for ModeHook {
        fn on_region_write(&self, _region: Rect) -> FaultAction {
            match self.0.load(Ordering::Relaxed) {
                1 => FaultAction::FailTransient,
                3 => FaultAction::FailPersistent,
                _ => FaultAction::Pass,
            }
        }

        fn offline(&self) -> bool {
            self.0.load(Ordering::Relaxed) == 2
        }
    }

    proptest! {
        /// 64 calls a case (4096 at the default case count), refused ones
        /// included: whatever a call did to `loaded`, the maintained view
        /// answers like a view built from scratch, and a masked
        /// re-placement like a view built with the masked rectangle busy.
        #[test]
        fn maintained_view_tracks_the_loaded_tasks(
            ops in proptest::collection::vec((0u8..16, 0u16..18, 0u16..10, 0usize..64), 64),
        ) {
            static FIXTURE: OnceLock<(TaskManager, TaskBitstream)> = OnceLock::new();
            let (template, task) = FIXTURE.get_or_init(|| {
                let mut m = manager();
                let (task, _) = m.decode("task_a").unwrap();
                (m, task)
            });
            let device = template.controller().device().clone();
            let policies: [Box<dyn PlacementPolicy>; 3] =
                [Box::new(FirstFit), Box::new(BestFit), Box::new(BottomLeftSkyline)];
            let policy = policies.into_iter().nth(usize::from(ops[0].0 % 3)).unwrap();
            let mut m = TaskManager::new(
                ReconfigurationController::new(device),
                template.repository().clone(),
            )
            .with_policy(policy);
            let hook = Arc::new(ModeHook::default());
            m.controller_mut().set_fault_hook(Some(hook.clone()));

            let (mut handles, mut refused) = (Vec::new(), 0);
            for (step, &(op, x, y, pick)) in ops.iter().enumerate() {
                let origin = Coord::new(x, y);
                let handle = handles.get(pick % handles.len().max(1)).copied();
                let result = match (op, handle) {
                    // Origins reach past the 16x8 fabric and onto residents.
                    (0..=6, _) => m.load_decoded_at("task_a", task, origin).map(|h| handles.push(h)),
                    (7..=9, Some(handle)) => m.unload(handle),
                    (10..=12, Some(handle)) => m.relocate(handle, origin),
                    (13, _) => {
                        m.evacuate();
                        Ok(())
                    }
                    _ => {
                        hook.0.store(op % 3, Ordering::Relaxed);
                        Ok(())
                    }
                };
                refused += usize::from(result.is_err());

                let regions: Vec<Rect> = m.loaded_tasks().iter().map(|t| t.region).collect();
                let rebuilt = FabricView::new(16, 8, regions);
                let view = m.fabric_view();
                prop_assert_eq!(view, &rebuilt, "step {} of {:?}", step, ops);
                prop_assert_eq!(view.free_area(), rebuilt.free_area(), "step {} of {:?}", step, ops);
                prop_assert_eq!(
                    view.fragmentation().to_bits(),
                    rebuilt.fragmentation().to_bits(),
                    "step {} of {:?}", step, ops
                );

                // Avoided rectangles reach past the fabric and onto residents.
                let avoid = Rect::new(origin, 1 + u16::from(op) % 6, 1 + y % 5);
                let (w, h) = (1 + (pick % 8) as u16, 1 + (pick / 8) as u16);
                let found = m.find_free_region_avoiding(w, h, avoid);
                let busy = rebuilt.occupied().iter().copied().chain([avoid]).collect();
                let masked = FabricView::new(16, 8, busy);
                prop_assert_eq!(found, m.policy().place(w, h, &masked), "step {} of {:?}", step, ops);
                prop_assert!(
                    found.is_none_or(|at| !Rect::new(at, w, h).intersects(&avoid)),
                    "step {} of {:?}", step, ops
                );
            }
            prop_assert!(refused > 0, "no call was refused in {:?}", ops);
        }
    }

    /// Every `.vbs` stream of the checked-in MCNC corpus, in name order —
    /// the population `vbs-core`'s `corrupt_decode` suite mutates.
    fn corpus_streams() -> Vec<Vec<u8>> {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/traces/mcnc");
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .expect("corpus directory present")
            .map(|entry| entry.expect("corpus dir entry").path())
            .filter(|path| path.extension().is_some_and(|e| e == "vbs"))
            .collect();
        paths.sort();
        paths
            .iter()
            .map(|path| std::fs::read(path).expect("corpus stream readable"))
            .collect()
    }

    /// A load that fails leaves the fabric exactly as it was: memory,
    /// bookkeeping, occupancy and the checksum sidecar. The failing loads
    /// are corpus streams with two flipped bits that still parse but no
    /// longer de-virtualize (the `corrupt_decode` mutation), a write the
    /// fault model refuses for good, and an origin off the device.
    #[test]
    fn a_failed_load_leaves_the_fabric_untouched() {
        let streams = corpus_streams();
        let spec = *Vbs::from_bytes(&streams[0]).expect("corpus parses").spec();
        let mut repo = VbsRepository::new();
        repo.store_bytes("left", streams[0].clone());
        repo.store_bytes("right", streams[1].clone());
        let device = Device::new(spec, 30, 10).unwrap();
        let mut m = TaskManager::new(ReconfigurationController::new(device), repo);
        m.controller_mut().enable_integrity();
        let hook = Arc::new(ModeHook::default());
        m.controller_mut().set_fault_hook(Some(hook.clone()));
        m.load_at("left", Coord::new(0, 0)).unwrap();
        m.load_at("right", Coord::new(10, 0)).unwrap();

        let whole = Rect::at_origin(30, 10);
        let memory = m.controller().memory().read_region(whole).unwrap();
        let loaded = m.loaded_tasks().to_vec();
        let view = m.fabric_view().clone();
        let assert_untouched = |m: &TaskManager, context: &str| {
            let now = m.controller().memory().read_region(whole).unwrap();
            assert_eq!(memory.diff_count(&now).unwrap(), 0, "{context}: memory");
            assert_eq!(m.loaded_tasks(), loaded, "{context}: residents");
            assert_eq!(m.fabric_view(), &view, "{context}: occupancy");
            for task in &loaded {
                m.controller()
                    .verify_region(task.region)
                    .unwrap_or_else(|e| panic!("{context}: {} fails verify: {e}", task.name));
            }
        };

        // Free, in bounds for every corpus shape (the largest is 9x9).
        let target = Coord::new(20, 0);
        let mut decode_failures = 0;
        for seed in 0..200 {
            // Replayable from the printed seed alone.
            let mut rng = TestRng::from_name(&format!("mutant {seed}"));
            let index = rng.next_u64() as usize % streams.len();
            let mut bytes = streams[index].clone();
            for _ in 0..2 {
                let at = rng.next_u64() as usize % bytes.len();
                bytes[at] ^= 1 << (rng.next_u64() % 8);
            }
            if Vbs::from_bytes(&bytes).is_err() {
                continue;
            }
            let context = format!("seed {seed}, stream {index}");
            m.repository_mut().store_bytes("mutant", bytes);
            match m.load_at("mutant", target) {
                // The mutation spared the routing: a real load. Take it
                // back off, which must restore the same fabric too.
                Ok(handle) => m.unload(handle).unwrap(),
                Err(e) => decode_failures += usize::from(matches!(e, RuntimeError::Decode(_))),
            }
            assert_untouched(&m, &context);
        }
        assert!(
            decode_failures >= 50,
            "only {decode_failures} mutants parsed and then failed to decode"
        );

        hook.0.store(3, Ordering::Relaxed);
        assert!(matches!(
            m.load_at("left", target),
            Err(RuntimeError::WriteFault {
                transient: false,
                ..
            })
        ));
        assert_untouched(&m, "persistent write fault");
        hook.0.store(0, Ordering::Relaxed);

        assert!(matches!(
            m.load_at("left", Coord::new(24, 4)),
            Err(RuntimeError::Memory(_))
        ));
        assert_untouched(&m, "out-of-bounds origin");
    }

    #[test]
    fn fabric_exhaustion_is_reported() {
        let mut m = manager();
        let mut loaded = 0;
        loop {
            match m.load("task_a") {
                Ok(_) => loaded += 1,
                Err(RuntimeError::NoFreeRegion { .. }) => break,
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        assert!(loaded >= 2, "a 16x8 fabric holds at least two 6x6 tasks");
    }
}
