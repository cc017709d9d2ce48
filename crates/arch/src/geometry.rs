//! Coordinates, rectangles, sides and track indices on the logic grid.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A position on the macro grid (column `x`, row `y`), zero-based.
///
/// `x` grows eastwards, `y` grows northwards, matching the VPR convention the
/// paper inherits.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Coord {
    /// Column (grows eastwards).
    pub x: u16,
    /// Row (grows northwards).
    pub y: u16,
}

impl Coord {
    /// Creates a coordinate from a column and a row.
    ///
    /// ```
    /// use vbs_arch::Coord;
    /// let c = Coord::new(3, 7);
    /// assert_eq!((c.x, c.y), (3, 7));
    /// ```
    pub const fn new(x: u16, y: u16) -> Self {
        Coord { x, y }
    }

    /// Manhattan distance to another coordinate.
    ///
    /// ```
    /// use vbs_arch::Coord;
    /// assert_eq!(Coord::new(0, 0).manhattan(Coord::new(3, 4)), 7);
    /// ```
    pub fn manhattan(self, other: Coord) -> u32 {
        let dx = (self.x as i32 - other.x as i32).unsigned_abs();
        let dy = (self.y as i32 - other.y as i32).unsigned_abs();
        dx + dy
    }

    /// The neighbouring coordinate towards `side`, if it does not underflow.
    ///
    /// The caller is responsible for checking the upper bound against the
    /// device dimensions.
    pub(crate) fn neighbor(self, side: Side) -> Option<Coord> {
        match side {
            Side::North => Some(Coord::new(self.x, self.y.checked_add(1)?)),
            Side::East => Some(Coord::new(self.x.checked_add(1)?, self.y)),
            Side::South => Some(Coord::new(self.x, self.y.checked_sub(1)?)),
            Side::West => Some(Coord::new(self.x.checked_sub(1)?, self.y)),
        }
    }

    /// Offsets this coordinate by `origin`, i.e. translates a task-relative
    /// coordinate to a device-absolute one.
    #[cfg(test)]
    fn offset_by(self, origin: Coord) -> Coord {
        Coord::new(self.x + origin.x, self.y + origin.y)
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl From<(u16, u16)> for Coord {
    fn from((x, y): (u16, u16)) -> Self {
        Coord::new(x, y)
    }
}

/// An axis-aligned rectangle of macros, defined by its lower-left origin and
/// its size in macros.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Rect {
    /// Lower-left corner.
    pub origin: Coord,
    /// Width in macros (columns).
    pub width: u16,
    /// Height in macros (rows).
    pub height: u16,
}

impl Rect {
    /// Creates a rectangle from its lower-left corner and its dimensions.
    ///
    /// ```
    /// use vbs_arch::{Coord, Rect};
    /// let r = Rect::new(Coord::new(2, 3), 4, 5);
    /// assert_eq!(r.area(), 20);
    /// ```
    pub const fn new(origin: Coord, width: u16, height: u16) -> Self {
        Rect {
            origin,
            width,
            height,
        }
    }

    /// A rectangle anchored at the grid origin.
    pub const fn at_origin(width: u16, height: u16) -> Self {
        Rect::new(Coord::new(0, 0), width, height)
    }

    /// Number of macros covered by the rectangle.
    pub fn area(&self) -> u32 {
        self.width as u32 * self.height as u32
    }

    /// Whether the rectangle covers `c` (device-absolute coordinates).
    pub fn contains(&self, c: Coord) -> bool {
        c.x >= self.origin.x
            && c.y >= self.origin.y
            && c.x < self.origin.x + self.width
            && c.y < self.origin.y + self.height
    }

    /// Whether `other` fits entirely inside this rectangle.
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.origin.x >= self.origin.x
            && other.origin.y >= self.origin.y
            && other.origin.x + other.width <= self.origin.x + self.width
            && other.origin.y + other.height <= self.origin.y + self.height
    }

    /// Whether this rectangle and `other` overlap in at least one macro.
    pub fn intersects(&self, other: &Rect) -> bool {
        self.origin.x < other.origin.x + other.width
            && other.origin.x < self.origin.x + self.width
            && self.origin.y < other.origin.y + other.height
            && other.origin.y < self.origin.y + self.height
    }

    /// Iterates over every coordinate covered by the rectangle, row-major
    /// (x fastest).
    pub fn iter(&self) -> impl Iterator<Item = Coord> + '_ {
        let ox = self.origin.x;
        let oy = self.origin.y;
        let w = self.width;
        (0..self.height).flat_map(move |dy| (0..w).map(move |dx| Coord::new(ox + dx, oy + dy)))
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}@{}", self.width, self.height, self.origin)
    }
}

/// One of the four sides of a macro tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Side {
    /// Towards increasing `y`.
    North,
    /// Towards increasing `x`.
    East,
    /// Towards decreasing `y`.
    South,
    /// Towards decreasing `x`.
    West,
}

impl Side {
    /// All four sides, in the canonical order used by the macro I/O numbering
    /// (North, East, South, West).
    pub const ALL: [Side; 4] = [Side::North, Side::East, Side::South, Side::West];

    /// The opposite side.
    ///
    /// ```
    /// use vbs_arch::Side;
    /// assert_eq!(Side::North.opposite(), Side::South);
    /// assert_eq!(Side::East.opposite(), Side::West);
    /// ```
    pub const fn opposite(self) -> Side {
        match self {
            Side::North => Side::South,
            Side::East => Side::West,
            Side::South => Side::North,
            Side::West => Side::East,
        }
    }

    /// Index of this side in [`Side::ALL`].
    pub const fn index(self) -> usize {
        match self {
            Side::North => 0,
            Side::East => 1,
            Side::South => 2,
            Side::West => 3,
        }
    }

    /// Whether the side belongs to a horizontal channel (`ChanX`).
    ///
    /// East/West boundaries are crossed by horizontal wires, North/South by
    /// vertical ones.
    pub const fn is_horizontal(self) -> bool {
        matches!(self, Side::East | Side::West)
    }
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Side::North => "north",
            Side::East => "east",
            Side::South => "south",
            Side::West => "west",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manhattan_is_symmetric() {
        let a = Coord::new(2, 9);
        let b = Coord::new(7, 1);
        assert_eq!(a.manhattan(b), b.manhattan(a));
        assert_eq!(a.manhattan(a), 0);
    }

    #[test]
    fn neighbor_respects_grid_edges() {
        let origin = Coord::new(0, 0);
        assert_eq!(origin.neighbor(Side::South), None);
        assert_eq!(origin.neighbor(Side::West), None);
        assert_eq!(origin.neighbor(Side::North), Some(Coord::new(0, 1)));
        assert_eq!(origin.neighbor(Side::East), Some(Coord::new(1, 0)));
    }

    #[test]
    fn rect_contains_and_area() {
        let r = Rect::new(Coord::new(2, 2), 3, 2);
        assert_eq!(r.area(), 6);
        assert!(r.contains(Coord::new(2, 2)));
        assert!(r.contains(Coord::new(4, 3)));
        assert!(!r.contains(Coord::new(5, 3)));
        assert!(!r.contains(Coord::new(4, 4)));
        assert!(!r.contains(Coord::new(1, 2)));
    }

    #[test]
    fn rect_iter_covers_area_exactly_once() {
        let r = Rect::new(Coord::new(1, 1), 4, 3);
        let coords: Vec<Coord> = r.iter().collect();
        assert_eq!(coords.len(), r.area() as usize);
        let mut dedup = coords.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), coords.len());
        assert!(coords.iter().all(|&c| r.contains(c)));
    }

    #[test]
    fn rect_intersection_and_containment() {
        let a = Rect::new(Coord::new(0, 0), 4, 4);
        let b = Rect::new(Coord::new(3, 3), 4, 4);
        let c = Rect::new(Coord::new(4, 0), 2, 2);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        assert!(a.contains_rect(&Rect::new(Coord::new(1, 1), 2, 2)));
        assert!(!a.contains_rect(&b));
    }

    #[test]
    fn side_opposites_are_involutive() {
        for side in Side::ALL {
            assert_eq!(side.opposite().opposite(), side);
        }
    }

    #[test]
    fn side_horizontality_matches_channel() {
        assert!(Side::East.is_horizontal());
        assert!(Side::West.is_horizontal());
        assert!(!Side::North.is_horizontal());
        assert!(!Side::South.is_horizontal());
    }

    #[test]
    fn coord_offset_translates() {
        let c = Coord::new(2, 3).offset_by(Coord::new(10, 20));
        assert_eq!(c, Coord::new(12, 23));
    }
}
