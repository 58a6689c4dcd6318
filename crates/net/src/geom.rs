//! 2-D geometry primitives shared across the workspace.

/// A point in the deployment plane, in meters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    pub x: f64,
    pub y: f64,
}

impl Point {
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    pub fn dist(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Squared distance; cheaper when only comparisons are needed.
    pub fn dist2(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }
}

/// An axis-aligned rectangle, used by R-tree summaries and region queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    pub min_x: f64,
    pub min_y: f64,
    pub max_x: f64,
    pub max_y: f64,
}

impl Rect {
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        debug_assert!(min_x <= max_x && min_y <= max_y);
        Rect {
            min_x,
            min_y,
            max_x,
            max_y,
        }
    }

    /// The degenerate rectangle containing a single point.
    pub fn from_point(p: Point) -> Self {
        Rect::new(p.x, p.y, p.x, p.y)
    }

    /// Smallest rectangle containing both `self` and `other`.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            min_x: self.min_x.min(other.min_x),
            min_y: self.min_y.min(other.min_y),
            max_x: self.max_x.max(other.max_x),
            max_y: self.max_y.max(other.max_y),
        }
    }

    pub fn intersects(&self, other: &Rect) -> bool {
        self.min_x <= other.max_x
            && other.min_x <= self.max_x
            && self.min_y <= other.max_y
            && other.min_y <= self.max_y
    }

    pub fn contains_point(&self, p: &Point) -> bool {
        p.x >= self.min_x && p.x <= self.max_x && p.y >= self.min_y && p.y <= self.max_y
    }

    pub fn area(&self) -> f64 {
        (self.max_x - self.min_x) * (self.max_y - self.min_y)
    }

    /// Minimum distance between this rectangle and a point (0 if inside).
    pub fn dist_to_point(&self, p: &Point) -> f64 {
        let dx = (self.min_x - p.x).max(0.0).max(p.x - self.max_x);
        let dy = (self.min_y - p.y).max(0.0).max(p.y - self.max_y);
        (dx * dx + dy * dy).sqrt()
    }

    pub fn center(&self) -> Point {
        Point::new(
            (self.min_x + self.max_x) / 2.0,
            (self.min_y + self.max_y) / 2.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_distance() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.dist(&b) - 5.0).abs() < 1e-12);
        assert!((a.dist2(&b) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn rect_union_contains_both() {
        let a = Rect::new(0.0, 0.0, 1.0, 1.0);
        let b = Rect::new(2.0, 2.0, 3.0, 3.0);
        let u = a.union(&b);
        assert!(u.intersects(&a) && u.intersects(&b));
        assert_eq!(u.area(), 9.0);
    }

    #[test]
    fn rect_intersection_cases() {
        let a = Rect::new(0.0, 0.0, 2.0, 2.0);
        assert!(a.intersects(&Rect::new(1.0, 1.0, 3.0, 3.0)));
        assert!(a.intersects(&Rect::new(2.0, 2.0, 3.0, 3.0))); // touching corner
        assert!(!a.intersects(&Rect::new(2.1, 2.1, 3.0, 3.0)));
    }

    #[test]
    fn rect_point_distance() {
        let r = Rect::new(0.0, 0.0, 2.0, 2.0);
        assert_eq!(r.dist_to_point(&Point::new(1.0, 1.0)), 0.0);
        assert!((r.dist_to_point(&Point::new(5.0, 2.0)) - 3.0).abs() < 1e-12);
        assert!((r.dist_to_point(&Point::new(5.0, 6.0)) - 5.0).abs() < 1e-12);
    }
}
