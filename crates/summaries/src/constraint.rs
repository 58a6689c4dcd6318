//! Constraints that content-routed searches evaluate against summaries.

use sensor_net::{Point, Rect};

/// A routing constraint derived from a static join or selection predicate.
///
/// Scalar constraints apply to Bloom/Interval summaries; spatial
/// constraints to R-tree summaries.
#[derive(Debug, Clone, PartialEq)]
pub enum Constraint {
    /// Attribute equals `v` exactly.
    Eq(u16),
    /// Attribute falls in the inclusive range `[lo, hi]`.
    Range(u16, u16),
    /// Attribute `% modulus == residue`. Bloom/interval summaries cannot
    /// prune on this, so it is conservatively matched; it exists because the
    /// perimeter query (Query 2) carries an `id % 4 = k` clause that the
    /// pattern matcher classifies as secondary.
    Mod { modulus: u16, residue: u16 },
    /// Position lies within `dist` of `p` (region-based joins, Query 3).
    NearPoint { p: Point, dist: f64 },
    /// Position lies inside the rectangle.
    InRect(Rect),
}

impl Constraint {
    /// Whether the constraint is spatial (answered by R-tree summaries).
    pub fn is_spatial(&self) -> bool {
        matches!(self, Constraint::NearPoint { .. } | Constraint::InRect(_))
    }

    /// Exact evaluation against a scalar value (used at candidate target
    /// nodes, where the real attribute is available).
    pub fn eval_value(&self, v: u16) -> bool {
        match self {
            Constraint::Eq(x) => v == *x,
            Constraint::Range(lo, hi) => v >= *lo && v <= *hi,
            Constraint::Mod { modulus, residue } => *modulus != 0 && v % *modulus == *residue,
            _ => false,
        }
    }

    /// Exact evaluation against a position.
    pub fn eval_point(&self, pos: Point) -> bool {
        match self {
            Constraint::NearPoint { p, dist } => pos.dist(p) <= *dist,
            Constraint::InRect(r) => r.contains_point(&pos),
            _ => false,
        }
    }

    /// Serialized size of the constraint in a search message, in bytes.
    pub fn wire_bytes(&self) -> usize {
        match self {
            Constraint::Eq(_) => 3,
            Constraint::Range(_, _) => 5,
            Constraint::Mod { .. } => 5,
            Constraint::NearPoint { .. } => 9, // 2x2B coords + 2B dist + tags
            Constraint::InRect(_) => 9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_scalar() {
        assert!(Constraint::Eq(5).eval_value(5));
        assert!(!Constraint::Eq(5).eval_value(6));
        assert!(Constraint::Range(3, 9).eval_value(3));
        assert!(Constraint::Range(3, 9).eval_value(9));
        assert!(!Constraint::Range(3, 9).eval_value(10));
        assert!(Constraint::Mod {
            modulus: 4,
            residue: 1
        }
        .eval_value(9));
        assert!(!Constraint::Mod {
            modulus: 4,
            residue: 1
        }
        .eval_value(8));
    }

    #[test]
    fn mod_zero_never_matches() {
        assert!(!Constraint::Mod {
            modulus: 0,
            residue: 0
        }
        .eval_value(7));
    }

    #[test]
    fn eval_spatial() {
        let near = Constraint::NearPoint {
            p: Point::new(0.0, 0.0),
            dist: 5.0,
        };
        assert!(near.eval_point(Point::new(3.0, 4.0)));
        assert!(!near.eval_point(Point::new(3.1, 4.1)));
        let rect = Constraint::InRect(Rect::new(0.0, 0.0, 1.0, 1.0));
        assert!(rect.eval_point(Point::new(0.5, 0.5)));
        assert!(!rect.eval_point(Point::new(1.5, 0.5)));
    }

    #[test]
    fn spatial_classification() {
        assert!(!Constraint::Eq(1).is_spatial());
        assert!(Constraint::InRect(Rect::new(0.0, 0.0, 1.0, 1.0)).is_spatial());
    }
}
