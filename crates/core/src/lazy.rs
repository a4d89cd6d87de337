//! The per-vertex search-enablement bitmap of the Lazy Search algorithm.
//!
//! "We use a bitmap structure Mb to maintain this information. Each row in
//! the bitmap refers to a vertex in Gd and the i-th column refers to gi, or
//! the i-th leaf in the SJ-Tree. If the search for subgraph gi is enabled for
//! vertex u in Gd, then Mb[u][i] = 1 and zero otherwise." (Section 4)
//!
//! Rows are stored sparsely (most vertices never enable anything), and each
//! row is a 64-bit mask, which bounds supported SJ-Trees to 64 leaves — far
//! above the query sizes the paper evaluates (≤ 15 edges).

use sp_graph::{FastMap, VertexId};

/// Maximum number of SJ-Tree leaves the bitmap supports.
pub const MAX_LEAVES: usize = 64;

/// Sparse per-vertex bitmap of enabled leaf searches.
#[derive(Debug, Clone, Default)]
pub struct LazyBitmap {
    rows: FastMap<VertexId, u64>,
}

impl LazyBitmap {
    /// Creates an empty bitmap (nothing enabled).
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables search for leaf `rank` around vertex `v`. Returns `true` if
    /// the bit was newly set (i.e. the search was previously disabled).
    pub fn enable(&mut self, v: VertexId, rank: usize) -> bool {
        debug_assert!(rank < MAX_LEAVES);
        let row = self.rows.entry(v).or_insert(0);
        let bit = 1u64 << rank;
        let newly = *row & bit == 0;
        *row |= bit;
        newly
    }

    /// Returns `true` when search for leaf `rank` is enabled around `v`.
    /// Leaf 0 (the most selective primitive) is always enabled — it is
    /// searched unconditionally around every new edge.
    pub fn is_enabled(&self, v: VertexId, rank: usize) -> bool {
        if rank == 0 {
            return true;
        }
        debug_assert!(rank < MAX_LEAVES);
        self.rows
            .get(&v)
            .is_some_and(|row| row & (1u64 << rank) != 0)
    }

    /// Drops the row of a vertex (called when the vertex leaves the window).
    pub fn forget(&mut self, v: VertexId) {
        self.rows.remove(&v);
    }

    /// Drops the rows of every vertex `live` rejects and releases the
    /// table capacity they held, leaving the rows it keeps untouched.
    pub fn retain_live(&mut self, mut live: impl FnMut(VertexId) -> bool) {
        self.rows.retain(|&v, _| live(v));
        self.rows.shrink_to_fit();
    }

    /// Number of vertices with at least one enabled bit.
    pub fn num_tracked_vertices(&self) -> usize {
        self.rows.len()
    }

    /// Total number of set bits (enabled (vertex, leaf) pairs).
    pub fn num_enabled(&self) -> usize {
        self.rows.values().map(|r| r.count_ones() as usize).sum()
    }

    /// Clears the bitmap.
    pub fn clear(&mut self) {
        self.rows.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_zero_is_always_enabled() {
        let b = LazyBitmap::new();
        assert!(b.is_enabled(VertexId(1), 0));
        assert!(!b.is_enabled(VertexId(1), 1));
    }

    #[test]
    fn enable_is_idempotent_and_reports_newness() {
        let mut b = LazyBitmap::new();
        assert!(b.enable(VertexId(5), 2));
        assert!(!b.enable(VertexId(5), 2));
        assert!(b.is_enabled(VertexId(5), 2));
        assert!(!b.is_enabled(VertexId(6), 2));
        assert_eq!(b.num_enabled(), 1);
        assert_eq!(b.num_tracked_vertices(), 1);
    }

    #[test]
    fn forget_clears_a_vertex_row() {
        let mut b = LazyBitmap::new();
        b.enable(VertexId(5), 1);
        b.enable(VertexId(5), 3);
        assert_eq!(b.num_enabled(), 2);
        b.forget(VertexId(5));
        assert!(!b.is_enabled(VertexId(5), 1));
        assert_eq!(b.num_tracked_vertices(), 0);
    }

    #[test]
    fn retain_live_keeps_live_rows_bit_for_bit() {
        let mut b = LazyBitmap::new();
        for v in 0..100 {
            for rank in [1, v as usize % MAX_LEAVES, MAX_LEAVES - 1] {
                b.enable(VertexId(v), rank);
            }
        }
        let before = b.clone();
        b.retain_live(|v| v.0 % 3 == 0);
        assert_eq!(b.num_tracked_vertices(), 34);
        for v in (0..100).map(VertexId) {
            for rank in 1..MAX_LEAVES {
                let expected = v.0 % 3 == 0 && before.is_enabled(v, rank);
                assert_eq!(b.is_enabled(v, rank), expected, "{v} rank {rank}");
            }
        }
    }

    #[test]
    fn clear_resets_everything() {
        let mut b = LazyBitmap::new();
        b.enable(VertexId(1), 1);
        b.enable(VertexId(2), 2);
        b.clear();
        assert_eq!(b.num_enabled(), 0);
        assert!(b.is_enabled(VertexId(1), 0));
        assert!(!b.is_enabled(VertexId(1), 1));
    }

    #[test]
    fn highest_supported_rank_works() {
        let mut b = LazyBitmap::new();
        assert!(b.enable(VertexId(1), MAX_LEAVES - 1));
        assert!(b.is_enabled(VertexId(1), MAX_LEAVES - 1));
    }
}
