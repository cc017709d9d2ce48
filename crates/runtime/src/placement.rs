//! Pluggable on-line placement policies.
//!
//! The paper's fast-relocation capability makes *where* to put a task a pure
//! run-time decision, so the placement heuristic becomes a policy choice.
//! [`PlacementPolicy`] abstracts it behind one method; the provided
//! implementations are:
//!
//! * [`FirstFit`] — the original bottom-left raster scan (lowest row, then
//!   lowest column, first rectangle that fits);
//! * [`BestFit`] — minimum-leftover-area: place in the maximal free
//!   rectangle whose area exceeds the task's by the least, which preserves
//!   large contiguous regions for future large tasks;
//! * [`BottomLeftSkyline`] — classic skyline packing: per-column the fabric
//!   is only used above the highest loaded task, and the candidate with the
//!   lowest resulting top edge wins. Wastes holes but keeps the free space
//!   in one simply-shaped region.

use std::cell::RefCell;
use std::fmt;
use vbs_arch::{Coord, Rect};

/// The occupancy of one fabric: device dimensions plus the region of every
/// loaded task. All placement policies and the fragmentation metrics operate
/// on this view. A [`TaskManager`](crate::TaskManager) keeps one up to date
/// as tasks come and go; [`FabricView::new`] builds a one-off (a test
/// fixture), and [`FabricView::compaction_plan`] works on a clone.
///
/// Rectangles are **clipped to the fabric** on the way in, so whatever
/// [`FabricView::occupied`] returns satisfies `origin + size <= fabric size`
/// and every consumer's edge arithmetic stays in range. Rectangles may
/// overlap: the coverage queries ([`FabricView::is_free`],
/// [`FabricView::free_rectangles`], [`FabricView::largest_free_rect_area`])
/// see their union, while [`FabricView::free_area`] subtracts each
/// rectangle's own area — a macro covered twice counts twice — and so is a
/// lower bound that saturates at 0. A task manager never produces overlap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricView {
    width: u16,
    height: u16,
    occupied: Vec<Rect>,
    /// Running sum of the clipped rectangles' areas (`u64`: overlapping
    /// input can exceed the fabric's own area).
    occupied_area: u64,
}

/// Buffers of the free-space sweep, one set per thread: a query allocates
/// nothing once they have grown to the thread's largest occupancy.
#[derive(Debug, Default)]
struct SweepScratch {
    /// Distinct rectangle edges plus the fabric bounds, ascending.
    xs: Vec<u16>,
    ys: Vec<u16>,
    /// Row-major busy flags of the compressed grid.
    blocked: Vec<bool>,
    /// Per compressed column, the free run below and including the current
    /// row, in macros.
    heights: Vec<u16>,
    /// Open bars: (left column, height, `above` at the left column).
    stack: Vec<(usize, u16, u32)>,
}

thread_local! {
    static SWEEP_SCRATCH: RefCell<SweepScratch> = RefCell::default();
}

impl FabricView {
    /// Creates a view of a `width` × `height` fabric with the given loaded
    /// regions, clipped to the fabric (see the type documentation for
    /// overlapping input).
    pub fn new(width: u16, height: u16, mut occupied: Vec<Rect>) -> Self {
        let mut view = FabricView {
            width,
            height,
            occupied: Vec::new(),
            occupied_area: 0,
        };
        occupied.iter_mut().for_each(|r| *r = view.clip(*r));
        view.occupied_area = occupied.iter().map(|r| u64::from(r.area())).sum();
        view.occupied = occupied;
        view
    }

    /// Device width in macros.
    pub const fn width(&self) -> u16 {
        self.width
    }

    /// Device height in macros.
    pub const fn height(&self) -> u16 {
        self.height
    }

    /// The loaded regions, each clipped to the fabric.
    pub fn occupied(&self) -> &[Rect] {
        &self.occupied
    }

    /// The part of `rect` on the fabric. When there is none the result is
    /// the empty rectangle at the far corner, the one place where
    /// [`Rect::intersects`] cannot mistake it for an obstacle.
    fn clip(&self, rect: Rect) -> Rect {
        let x0 = rect.origin.x.min(self.width);
        let y0 = rect.origin.y.min(self.height);
        let x1 = (rect.origin.x as u32 + rect.width as u32).min(self.width as u32) as u16;
        let y1 = (rect.origin.y as u32 + rect.height as u32).min(self.height as u32) as u16;
        if x0 == x1 || y0 == y1 {
            return Rect::new(Coord::new(self.width, self.height), 0, 0);
        }
        Rect::new(Coord::new(x0, y0), x1 - x0, y1 - y0)
    }

    /// Appends a loaded region.
    pub(crate) fn push(&mut self, rect: Rect) {
        let rect = self.clip(rect);
        self.occupied_area += u64::from(rect.area());
        self.occupied.push(rect);
    }

    /// Removes the `index`-th region, keeping the order of the others.
    pub(crate) fn remove(&mut self, index: usize) {
        self.occupied_area -= u64::from(self.occupied.remove(index).area());
    }

    /// Replaces the `index`-th region (a relocation).
    pub(crate) fn replace(&mut self, index: usize, rect: Rect) {
        let rect = self.clip(rect);
        self.occupied_area += u64::from(rect.area());
        self.occupied_area -= u64::from(self.occupied[index].area());
        self.occupied[index] = rect;
    }

    /// Forgets every region.
    pub(crate) fn clear(&mut self) {
        self.occupied.clear();
        self.occupied_area = 0;
    }

    /// Whether `region` lies entirely on the fabric.
    pub fn in_bounds(&self, region: &Rect) -> bool {
        region.origin.x as u32 + region.width as u32 <= self.width as u32
            && region.origin.y as u32 + region.height as u32 <= self.height as u32
    }

    /// Whether `region` is in bounds and overlaps no loaded task.
    pub fn is_free(&self, region: &Rect) -> bool {
        self.in_bounds(region) && !self.occupied.iter().any(|r| r.intersects(region))
    }

    /// Total number of macros on the fabric.
    pub fn total_area(&self) -> u32 {
        self.width as u32 * self.height as u32
    }

    /// Number of free macros: the fabric's area less the area of every
    /// loaded region, saturating at 0 (exact for disjoint regions).
    pub fn free_area(&self) -> u32 {
        (self.total_area() as u64).saturating_sub(self.occupied_area) as u32
    }

    /// Calls `emit` once for every maximal free rectangle, in no particular
    /// order.
    ///
    /// Every edge of a maximal free rectangle lies on a rectangle edge or a
    /// fabric border, so the sweep runs on the coordinate-compressed grid
    /// those edges cut — at most `(2n+1)²` cells for `n` regions, never more
    /// than `W×H` — whose cells are uniformly busy or free: a histogram of
    /// free run heights per compressed row (weighted by the rows' real
    /// heights), where every bar popped off the monotone stack spans one
    /// left-, right- and bottom-maximal candidate.
    fn sweep_free(&self, mut emit: impl FnMut(Rect)) {
        if self.width == 0 || self.height == 0 {
            return;
        }
        SWEEP_SCRATCH.with_borrow_mut(|scratch| {
            let SweepScratch {
                xs,
                ys,
                blocked,
                heights,
                stack,
            } = scratch;

            xs.clear();
            ys.clear();
            xs.extend([0, self.width]);
            ys.extend([0, self.height]);
            for r in &self.occupied {
                xs.extend([r.origin.x, r.origin.x + r.width]);
                ys.extend([r.origin.y, r.origin.y + r.height]);
            }
            for edges in [&mut *xs, &mut *ys] {
                edges.sort_unstable();
                edges.dedup();
            }
            let (cols, rows) = (xs.len() - 1, ys.len() - 1);

            blocked.clear();
            blocked.resize(cols * rows, false);
            let cell =
                |edges: &[u16], edge| edges.binary_search(&edge).expect("every edge was listed");
            for r in &self.occupied {
                let (c0, c1) = (cell(xs, r.origin.x), cell(xs, r.origin.x + r.width));
                for row in cell(ys, r.origin.y)..cell(ys, r.origin.y + r.height) {
                    blocked[row * cols + c0..row * cols + c1].fill(true);
                }
            }

            heights.clear();
            heights.resize(cols, 0);
            for row in 0..rows {
                let row_height = ys[row + 1] - ys[row];
                for (height, &busy) in heights.iter_mut().zip(&blocked[row * cols..]) {
                    *height = if busy { 0 } else { *height + row_height };
                }
                // What stops a rectangle from growing upwards: the top
                // border or a busy cell. `above` counts those left of `col`,
                // so a candidate is top-maximal when its span adds to it.
                let busy_above = |col| row + 1 == rows || blocked[(row + 1) * cols + col];
                let mut above = 0;
                // The trailing 0 bar flushes every open rectangle at the
                // right edge.
                stack.clear();
                for (col, &current) in heights.iter().chain(std::iter::once(&0)).enumerate() {
                    let mut left = (col, above);
                    while let Some(&(l, hgt, above_l)) = stack.last() {
                        if hgt <= current {
                            break;
                        }
                        stack.pop();
                        left = (l, above_l);
                        if above > above_l {
                            emit(Rect::new(
                                Coord::new(xs[l], ys[row + 1] - hgt),
                                xs[col] - xs[l],
                                hgt,
                            ));
                        }
                    }
                    if current > 0 && stack.last().is_none_or(|&(_, hgt, _)| hgt < current) {
                        stack.push((left.0, current, left.1));
                    }
                    above += u32::from(col < cols && busy_above(col));
                }
            }
        });
    }

    /// All maximal free rectangles — free rectangles that cannot be extended
    /// in any direction — ordered by origin (row, then column), then size.
    /// `O(n log n + c)` for `n` loaded regions cutting the fabric into
    /// `c <= min((2n+1)², W×H)` compressed cells, plus the sort of the
    /// result.
    pub fn free_rectangles(&self) -> Vec<Rect> {
        let mut rects = Vec::new();
        self.sweep_free(|r| rects.push(r));
        rects.sort_unstable_by_key(|r| (r.origin.y, r.origin.x, r.width, r.height));
        rects
    }

    /// Area of the largest free rectangle, 0 when the fabric is full. Same
    /// sweep and cost as [`FabricView::free_rectangles`], without the list.
    pub fn largest_free_rect_area(&self) -> u32 {
        let mut largest = 0;
        self.sweep_free(|r| largest = largest.max(r.area()));
        largest
    }

    /// External fragmentation in `[0, 1]`: the share of free macros *not* in
    /// the largest free rectangle. 0 when the free space is one rectangle
    /// (or the fabric is full), approaching 1 as the free space shatters.
    pub fn fragmentation(&self) -> f64 {
        let free = self.free_area();
        if free == 0 {
            return 0.0;
        }
        // `min`: overlapping regions make `free` a lower bound.
        1.0 - self.largest_free_rect_area().min(free) as f64 / free as f64
    }

    /// Plans a defragmentation pass: at most four greedy sweeps, each
    /// offering every region, lowest first, the origin `policy` picks with
    /// the others where the sweeps have put them, if strictly lower-left.
    /// Returns `(index, final region)` of every region that moved, sorted
    /// bottom-left by final region, the order in which each moves once.
    pub fn compaction_plan(&self, policy: &dyn PlacementPolicy) -> Vec<(usize, Rect)> {
        let mut layout = self.clone();
        let mut order: Vec<usize> = (0..self.occupied.len()).collect();
        for _ in 0..4 {
            let mut moved = false;
            order.sort_by_key(|&i| (layout.occupied[i].origin.y, layout.occupied[i].origin.x));
            for &i in &order {
                let region = layout.occupied[i];
                // Masked (clipped away): no obstacle to its own move.
                layout.replace(i, Rect::new(region.origin, 0, 0));
                let target = match policy.place(region.width, region.height, &layout) {
                    Some(to) if (to.y, to.x) < (region.origin.y, region.origin.x) => {
                        moved = true;
                        Rect::new(to, region.width, region.height)
                    }
                    _ => region,
                };
                layout.replace(i, target);
            }
            if !moved {
                break;
            }
        }
        let mut plan: Vec<(usize, Rect)> = layout
            .occupied
            .into_iter()
            .enumerate()
            .filter(|&(i, region)| region != self.occupied[i])
            .collect();
        plan.sort_by_key(|(_, region)| (region.origin.y, region.origin.x));
        plan
    }
}

/// A strategy choosing where on the fabric a `width` × `height` task goes.
pub trait PlacementPolicy: fmt::Debug + Send + Sync {
    /// Short policy name for logs and reports.
    fn name(&self) -> &'static str;

    /// Returns the origin of a free `width` × `height` rectangle, or `None`
    /// when the policy finds no feasible position.
    fn place(&self, width: u16, height: u16, fabric: &FabricView) -> Option<Coord>;
}

/// Bottom-left raster-scan first-fit: the original `TaskManager` behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FirstFit;

impl PlacementPolicy for FirstFit {
    fn name(&self) -> &'static str {
        "first-fit"
    }

    fn place(&self, width: u16, height: u16, fabric: &FabricView) -> Option<Coord> {
        if width == 0 || height == 0 || width > fabric.width() || height > fabric.height() {
            return None;
        }
        for y in 0..=(fabric.height() - height) {
            for x in 0..=(fabric.width() - width) {
                let candidate = Rect::new(Coord::new(x, y), width, height);
                if fabric.is_free(&candidate) {
                    return Some(candidate.origin);
                }
            }
        }
        None
    }
}

/// Minimum-leftover-area best-fit over the maximal free rectangles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BestFit;

impl PlacementPolicy for BestFit {
    fn name(&self) -> &'static str {
        "best-fit"
    }

    fn place(&self, width: u16, height: u16, fabric: &FabricView) -> Option<Coord> {
        if width == 0 || height == 0 {
            return None;
        }
        fabric
            .free_rectangles()
            .into_iter()
            .filter(|r| r.width >= width && r.height >= height)
            .min_by_key(|r| {
                (
                    r.area() - width as u32 * height as u32,
                    r.origin.y,
                    r.origin.x,
                )
            })
            .map(|r| r.origin)
    }
}

/// Skyline packing: tasks sit above the per-column high-water mark, and the
/// candidate minimizing that mark (then the column) wins.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BottomLeftSkyline;

impl PlacementPolicy for BottomLeftSkyline {
    fn name(&self) -> &'static str {
        "bottom-left-skyline"
    }

    fn place(&self, width: u16, height: u16, fabric: &FabricView) -> Option<Coord> {
        if width == 0 || height == 0 || width > fabric.width() || height > fabric.height() {
            return None;
        }
        let mut skyline = vec![0u16; fabric.width() as usize];
        for rect in fabric.occupied() {
            let top = rect.origin.y + rect.height;
            for x in rect.origin.x..rect.origin.x + rect.width {
                let col = &mut skyline[x as usize];
                *col = (*col).max(top);
            }
        }
        let mut best: Option<Coord> = None;
        for x in 0..=(fabric.width() - width) {
            let y = (x..x + width)
                .map(|col| skyline[col as usize])
                .max()
                .unwrap_or(0);
            if y as u32 + height as u32 > fabric.height() as u32 {
                continue;
            }
            if best.is_none_or(|b| (y, x) < (b.y, b.x)) {
                best = Some(Coord::new(x, y));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    fn view(occupied: Vec<Rect>) -> FabricView {
        FabricView::new(8, 6, occupied)
    }

    /// The reference the compressed sweep is held to: the per-macro
    /// histogram sweep this crate shipped before, over a `W×H` busy map
    /// filled from the *unclipped* rectangles in `u32` arithmetic.
    fn free_rectangles_per_cell(width: u16, height: u16, occupied: &[Rect]) -> Vec<Rect> {
        let (w, h) = (width as usize, height as usize);
        let free = |x: usize, y: usize| {
            !occupied.iter().any(|r| {
                let (x, y) = (x as u32, y as u32);
                (r.origin.x as u32..r.origin.x as u32 + r.width as u32).contains(&x)
                    && (r.origin.y as u32..r.origin.y as u32 + r.height as u32).contains(&y)
            })
        };
        let mut candidates: Vec<Rect> = Vec::new();
        let mut heights = vec![0u16; w];
        for y in 0..h {
            for (x, height) in heights.iter_mut().enumerate() {
                *height = if free(x, y) { *height + 1 } else { 0 };
            }
            let mut stack: Vec<(usize, u16)> = Vec::new();
            for (x, &current) in heights.iter().chain(std::iter::once(&0)).enumerate() {
                let mut left = x;
                while let Some(&(l, hgt)) = stack.last() {
                    if hgt <= current {
                        break;
                    }
                    stack.pop();
                    left = l;
                    candidates.push(Rect::new(
                        Coord::new(l as u16, (y as u16 + 1) - hgt),
                        (x - l) as u16,
                        hgt,
                    ));
                }
                if current > 0 && stack.last().is_none_or(|&(_, hgt)| hgt < current) {
                    stack.push((left, current));
                }
            }
        }
        // Keep only top-maximal rectangles (the sweep already guarantees
        // left/right/bottom maximality) and dedup.
        candidates.retain(|r| {
            let top = (r.origin.y + r.height) as usize;
            top == h || (r.origin.x..r.origin.x + r.width).any(|x| !free(x as usize, top))
        });
        candidates.sort_by_key(|r| (r.origin.y, r.origin.x, r.width, r.height));
        candidates.dedup();
        candidates
    }

    /// One random occupancy: a fabric that is at times a single row or
    /// column, holding up to eight rectangles that may overlap, hug any
    /// border, cover everything or stick out past the top-right corner.
    fn random_occupancy(rng: &mut TestRng) -> (u16, u16, Vec<Rect>) {
        let mut below = |n: u16| (rng.next_u64() % n as u64) as u16;
        let (width, height) = match below(8) {
            0 => (1, 1 + below(24)),
            1 => (1 + below(24), 1),
            _ => (1 + below(20), 1 + below(20)),
        };
        let occupied = (0..below(9))
            .map(|_| match below(8) {
                0 => Rect::at_origin(width, height),
                1 => Rect::new(Coord::new(below(width), below(height)), width, height),
                2 => Rect::new(Coord::new(below(width), below(height)), u16::MAX, u16::MAX),
                3 => Rect::new(Coord::new(width + below(3), below(height)), 2, 2),
                _ => {
                    let (x, y) = (below(width), below(height));
                    let (w, h) = (1 + below(width - x), 1 + below(height - y));
                    // Half of the in-bounds rectangles touch a border.
                    match below(8) {
                        0 => Rect::new(Coord::new(0, y), w, h),
                        1 => Rect::new(Coord::new(x, 0), w, h),
                        2 => Rect::new(Coord::new(width - w, y), w, h),
                        3 => Rect::new(Coord::new(x, height - h), w, h),
                        _ => Rect::new(Coord::new(x, y), w, h),
                    }
                }
            })
            .collect();
        (width, height, occupied)
    }

    /// The planner the scheduler ran before [`FabricView::compaction_plan`]:
    /// the same sweeps over an `(index, region)` snapshot, building a fresh
    /// view of every other region for each offer.
    fn compaction_plan_by_snapshot(
        view: &FabricView,
        policy: &dyn PlacementPolicy,
    ) -> Vec<(usize, Rect)> {
        let mut sim: Vec<(usize, Rect)> = view.occupied().iter().copied().enumerate().collect();
        for _ in 0..4 {
            let mut moved = false;
            sim.sort_by_key(|(_, region)| (region.origin.y, region.origin.x));
            for i in 0..sim.len() {
                let (width, height) = (sim[i].1.width, sim[i].1.height);
                let others: Vec<Rect> = sim
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, &(_, region))| region)
                    .collect();
                let masked = FabricView::new(view.width(), view.height(), others);
                if let Some(candidate) = policy.place(width, height, &masked) {
                    let current = sim[i].1.origin;
                    if (candidate.y, candidate.x) < (current.y, current.x) {
                        sim[i].1 = Rect::new(candidate, width, height);
                        moved = true;
                    }
                }
            }
            if !moved {
                break;
            }
        }
        let mut plan: Vec<(usize, Rect)> = sim
            .into_iter()
            .filter(|&(i, region)| view.occupied()[i] != region)
            .collect();
        plan.sort_by_key(|(_, region)| (region.origin.y, region.origin.x));
        plan
    }

    proptest! {
        /// 32 occupancies a case, each planned under all three policies.
        #[test]
        fn compaction_plan_matches_the_snapshot_planner(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::from_name(&format!("plan {seed}"));
            for round in 0..32 {
                let (width, height, occupied) = random_occupancy(&mut rng);
                let view = FabricView::new(width, height, occupied);
                for policy in [&FirstFit as &dyn PlacementPolicy, &BestFit, &BottomLeftSkyline] {
                    prop_assert_eq!(
                        view.compaction_plan(policy),
                        compaction_plan_by_snapshot(&view, policy),
                        "seed {} round {} {}: {:?}", seed, round, policy.name(), view
                    );
                }
            }
        }

        /// 32 occupancies a case, so the default 64 cases compare 2048.
        #[test]
        fn compressed_sweep_matches_the_per_cell_oracle(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::from_name(&seed.to_string());
            // A view kept across rounds and updated in place must answer
            // like one built from scratch.
            let mut kept = FabricView::new(0, 0, Vec::new());
            for round in 0..32 {
                let (width, height, occupied) = random_occupancy(&mut rng);
                let context = format!("seed {seed} round {round}: {width}x{height} {occupied:?}");
                let expected = free_rectangles_per_cell(width, height, &occupied);
                let view = FabricView::new(width, height, occupied.clone());
                prop_assert_eq!(&view.free_rectangles(), &expected, "{}", context);
                prop_assert_eq!(
                    view.largest_free_rect_area(),
                    expected.iter().map(Rect::area).max().unwrap_or(0),
                    "{}", context
                );
                kept.clear();
                (kept.width, kept.height) = (width, height);
                occupied.iter().for_each(|&r| kept.push(r));
                prop_assert_eq!(&kept, &view, "{}", context);
                prop_assert_eq!(kept.free_area(), view.free_area(), "{}", context);
                prop_assert_eq!(&kept.free_rectangles(), &expected, "{}", context);
            }
        }
    }

    #[test]
    fn clipped_and_overlapping_input_is_well_defined() {
        // Out of bounds on both axes, past `u16` when summed naively.
        let v = view(vec![Rect::new(Coord::new(6, 4), u16::MAX, u16::MAX)]);
        assert_eq!(v.occupied(), [Rect::new(Coord::new(6, 4), 2, 2)]);
        assert_eq!(v.free_area(), 44);
        assert_eq!(BottomLeftSkyline.place(2, 2, &v), Some(Coord::new(0, 0)));
        // Entirely off the fabric: nothing is busy.
        let v = view(vec![Rect::new(Coord::new(9, 9), 3, 3)]);
        assert_eq!(v.free_rectangles(), vec![Rect::at_origin(8, 6)]);
        assert_eq!(v.free_area(), 48);
        // Overlap: coverage is the union, `free_area` a saturating lower
        // bound, fragmentation stays in range.
        let v = view(vec![Rect::at_origin(8, 4), Rect::at_origin(8, 4)]);
        assert_eq!(v.free_rectangles(), vec![Rect::new(Coord::new(0, 4), 8, 2)]);
        assert_eq!(v.free_area(), 0);
        assert_eq!(v.fragmentation(), 0.0);
        let v = view(vec![Rect::at_origin(8, 3), Rect::at_origin(4, 3)]);
        assert_eq!((v.free_area(), v.largest_free_rect_area()), (12, 24));
        assert_eq!(v.fragmentation(), 0.0);
    }

    #[test]
    fn empty_fabric_is_one_free_rectangle() {
        let v = view(Vec::new());
        assert_eq!(v.free_rectangles(), vec![Rect::at_origin(8, 6)]);
        assert_eq!(v.free_area(), 48);
        assert_eq!(v.fragmentation(), 0.0);
    }

    #[test]
    fn free_rectangles_are_maximal_and_cover_holes() {
        // One 4x6 block in the middle leaves two free columns bands.
        let v = view(vec![Rect::new(Coord::new(2, 0), 4, 6)]);
        let rects = v.free_rectangles();
        assert_eq!(
            rects,
            vec![
                Rect::new(Coord::new(0, 0), 2, 6),
                Rect::new(Coord::new(6, 0), 2, 6),
            ]
        );
        assert_eq!(v.largest_free_rect_area(), 12);
        assert!(v.fragmentation() > 0.4);
    }

    #[test]
    fn first_fit_scans_bottom_left() {
        let v = view(vec![Rect::new(Coord::new(0, 0), 3, 2)]);
        assert_eq!(FirstFit.place(2, 2, &v), Some(Coord::new(3, 0)));
        assert_eq!(FirstFit.place(8, 6, &v), None);
        assert_eq!(FirstFit.place(8, 4, &v), Some(Coord::new(0, 2)));
    }

    #[test]
    fn best_fit_prefers_the_tightest_hole() {
        // A 2x2 hole at (0,0)..(2,2) (via two blocks) and lots of open space
        // to the right: a 2x2 task should take the tight hole, not the
        // large region first-fit-style.
        let v = view(vec![
            Rect::new(Coord::new(2, 0), 1, 6),
            Rect::new(Coord::new(0, 2), 2, 4),
        ]);
        assert_eq!(BestFit.place(2, 2, &v), Some(Coord::new(0, 0)));
        // First-fit picks the same corner here, but on the mirrored layout
        // the policies diverge.
        let v2 = view(vec![
            Rect::new(Coord::new(5, 0), 1, 6),
            Rect::new(Coord::new(6, 2), 2, 4),
        ]);
        assert_eq!(FirstFit.place(2, 2, &v2), Some(Coord::new(0, 0)));
        assert_eq!(BestFit.place(2, 2, &v2), Some(Coord::new(6, 0)));
    }

    #[test]
    fn skyline_ignores_holes_below_tasks() {
        // A floating task leaves a hole beneath it; skyline refuses the
        // hole, first-fit takes it.
        let v = view(vec![Rect::new(Coord::new(0, 3), 4, 2)]);
        assert_eq!(FirstFit.place(3, 2, &v), Some(Coord::new(0, 0)));
        assert_eq!(BottomLeftSkyline.place(3, 2, &v), Some(Coord::new(4, 0)));
    }

    #[test]
    fn policies_respect_bounds() {
        let v = view(Vec::new());
        for policy in [
            &FirstFit as &dyn PlacementPolicy,
            &BestFit,
            &BottomLeftSkyline,
        ] {
            assert_eq!(policy.place(9, 1, &v), None, "{}", policy.name());
            assert_eq!(policy.place(1, 7, &v), None, "{}", policy.name());
            assert_eq!(policy.place(8, 6, &v), Some(Coord::new(0, 0)));
        }
    }
}
