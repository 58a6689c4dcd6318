//! A uniform cell grid over a deployment's positions. Two points whose
//! squared distance is within the grid's reach lie in the same or in
//! adjacent cells, so a scan for close pairs tests O(n + close pairs)
//! candidates instead of all n(n−1)/2.

use crate::geom::Point;

#[cfg(test)]
thread_local! {
    static DIST_TESTS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Distance tests [`CellGrid::for_each_later`] made on this thread.
#[cfg(test)]
pub(crate) fn dist_tests() -> u64 {
    DIST_TESTS.with(|c| c.get())
}

/// Positions bucketed into square cells whose side is at least the reach.
pub(crate) struct CellGrid {
    min_x: f64,
    min_y: f64,
    side: f64,
    cols: usize,
    rows: usize,
    /// Cell `c`'s nodes are `ids[start[c]..start[c + 1]]`, ascending.
    start: Vec<u32>,
    ids: Vec<u32>,
}

impl CellGrid {
    /// A grid for pairs with `dist2 <= reach2`. The side carries a relative
    /// margin over `sqrt(reach2)` that absorbs the rounding of `dist2` and
    /// of the cell arithmetic, and an absolute floor above the distances
    /// whose square underflows. A side below the extent over ⌈√n⌉ is
    /// raised to it, which bounds the cell count by about n. An infinite
    /// reach, or an extent that is not finite, makes one cell.
    pub(crate) fn new(positions: &[Point], reach2: f64) -> Self {
        let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
        let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in positions {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        let extent = (max_x - min_x).max(max_y - min_y);
        let per_axis = (positions.len() as f64).sqrt().ceil();
        let side = (reach2.sqrt() * (1.0 + 1e-9))
            .max(extent / per_axis)
            .max(1e-150);
        let (cols, rows) = if extent.is_finite() {
            (
                ((max_x - min_x) / side) as usize + 1,
                ((max_y - min_y) / side) as usize + 1,
            )
        } else {
            (1, 1)
        };
        let mut grid = CellGrid {
            min_x,
            min_y,
            side,
            cols,
            rows,
            start: vec![0; cols * rows + 1],
            ids: vec![0; positions.len()],
        };
        // Counting sort by cell; ids stay ascending within a cell.
        for p in positions {
            let c = grid.cell_of(p);
            grid.start[c + 1] += 1;
        }
        for c in 0..cols * rows {
            grid.start[c + 1] += grid.start[c];
        }
        let mut fill = grid.start.clone();
        for (i, p) in positions.iter().enumerate() {
            let c = grid.cell_of(p);
            grid.ids[fill[c] as usize] = i as u32;
            fill[c] += 1;
        }
        grid
    }

    fn col_row(&self, p: &Point) -> (usize, usize) {
        // `as usize` floors, and sends NaN to 0.
        let c = ((p.x - self.min_x) / self.side) as usize;
        let r = ((p.y - self.min_y) / self.side) as usize;
        (c.min(self.cols - 1), r.min(self.rows - 1))
    }

    fn cell_of(&self, p: &Point) -> usize {
        let (c, r) = self.col_row(p);
        r * self.cols + c
    }

    /// Calls `f(j, positions[i].dist2(&positions[j]))` for every `j > i`
    /// in the 3 x 3 cells around `i`'s: a superset of the `j > i` within
    /// reach, in no particular order.
    pub(crate) fn for_each_later(
        &self,
        positions: &[Point],
        i: usize,
        mut f: impl FnMut(usize, f64),
    ) {
        let p = &positions[i];
        let (c, r) = self.col_row(p);
        for row in r.saturating_sub(1)..(r + 2).min(self.rows) {
            for col in c.saturating_sub(1)..(c + 2).min(self.cols) {
                let cell = row * self.cols + col;
                let ids = &self.ids[self.start[cell] as usize..self.start[cell + 1] as usize];
                let later = ids.partition_point(|&j| j as usize <= i);
                for &j in &ids[later..] {
                    #[cfg(test)]
                    DIST_TESTS.with(|t| t.set(t.get() + 1));
                    f(j as usize, p.dist2(&positions[j as usize]));
                }
            }
        }
    }
}
