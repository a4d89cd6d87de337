//! Partial-match storage and the recursive hash-join update
//! (`UPDATE-SJ-TREE`, Algorithm 2).
//!
//! Every SJ-Tree node owns a hash table of the matches of its query subgraph
//! (Property 3). The hash key of a match stored at node `n` is the projection
//! of the match onto the *cut vertices* of `n`'s parent (Property 4), so that
//! probing the sibling's table with the same key yields exactly the partial
//! matches that agree on the shared vertices — a hash join.
//!
//! When a new match is inserted at a node, it is joined with every compatible
//! match of the sibling; each successful join is recursively inserted one
//! level up. A join that reaches the root is a complete match of the query
//! and is returned to the caller instead of being stored.
//!
//! # Storage: interned arena rows
//!
//! Every stored match is a fixed-width row of `u64` slots in a store-owned
//! [`RowArena`]: one slot per query edge (slot index = `QueryEdgeId.0`),
//! one per query vertex (`ew + QueryVertexId.0`), plus two timestamp words.
//! Buckets hold copyable `u32` row ids; key projection, dedup and joins read
//! and write slots at fixed offsets; a match is materialized back into
//! [`SubgraphMatch`] form only when a join reaches the root
//! (*copy-on-emit*). Expired rows recycle through the arena free list, so a
//! warm store inserts and joins without touching the allocator — also for
//! matches wider than the inline binding maps (> 8 bindings), which would
//! heap-allocate on every clone in `SubgraphMatch` form.

use crate::node::NodeId;
use crate::tree::SjTree;
use sp_graph::{DynamicGraph, EdgeId, FastMap, Timestamp, VertexId};
use sp_iso::{JoinKey, SubgraphMatch, JOIN_KEY_INLINE};
use sp_query::QueryVertexId;

/// Hash table of stored matches for one SJ-Tree node, keyed by the
/// projection of each match onto the parent's cut vertices. Keys are
/// interned [`JoinKey`]s — cut sets of up to three vertices (every tree the
/// built-in decompositions produce) are stored inline, so computing the key
/// per insert does not heap-allocate. Buckets hold arena row ids, kept
/// **sorted** by the rows' full-slot lexicographic order
/// ([`RowArena::cmp_rows`]) so duplicate detection on insert is a binary
/// search — on a high-fan-in cut vertex a single bucket can hold thousands
/// of partial matches, and a linear scan would make every insert `O(n)`.
type RowTable = FastMap<JoinKey, Vec<u32>>;

/// Upper bound on recycled bucket vectors kept in a store's free list. A
/// purge can empty thousands of buckets at once; retaining a bounded pool
/// keeps steady-state inserts allocation-free without pinning a whole
/// window's worth of peak memory forever.
const SPARE_BUCKETS_CAP: usize = 1024;

/// Slot value marking an unbound query edge/vertex in a row. Data
/// ids are dense indices assigned by the graph, so `u64::MAX` can never be a
/// real binding (debug-asserted on encode).
const UNBOUND: u64 = u64::MAX;

/// Moves an emptied bucket into the free list, dropping it instead when the
/// pool is full or the bucket never grew.
fn recycle(spare: &mut Vec<Vec<u32>>, mut bucket: Vec<u32>) {
    if spare.len() < SPARE_BUCKETS_CAP && bucket.capacity() > 0 {
        bucket.clear();
        spare.push(bucket);
    }
}

/// The slab behind a [`MatchStore`]: every stored match is one
/// fixed-width row of `stride` consecutive `u64` words in `data`.
///
/// Row layout (slot schema), derived from the query's canonical numbering:
///
/// ```text
/// [ edge slots 0..ew ][ vertex slots ew..ew+vw ][ earliest ][ latest ]
///   slot i = QueryEdgeId(i)   slot ew+j = QueryVertexId(j)
/// ```
///
/// Unbound slots hold [`UNBOUND`]. Rows freed by window expiry, duplicate
/// rejection or emit go on `free` and are reused by the next alloc, so a
/// warm arena grows only while live state grows.
#[derive(Debug, Clone)]
struct RowArena {
    /// Edge-slot count = the query's edge count.
    ew: usize,
    /// Vertex-slot count = the query's vertex count.
    vw: usize,
    /// Words per row: `ew + vw + 2` timestamp words.
    stride: usize,
    data: Vec<u64>,
    /// Recycled row ids.
    free: Vec<u32>,
}

impl RowArena {
    fn new(ew: usize, vw: usize) -> Self {
        Self {
            ew,
            vw,
            stride: ew + vw + 2,
            data: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Claims a row (recycled when possible) with every binding slot reset
    /// to [`UNBOUND`]. Callers overwrite the timestamp words.
    fn alloc(&mut self) -> u32 {
        match self.free.pop() {
            Some(r) => {
                let b = r as usize * self.stride;
                self.data[b..b + self.stride].fill(UNBOUND);
                r
            }
            None => {
                let r = (self.data.len() / self.stride) as u32;
                self.data.resize(self.data.len() + self.stride, UNBOUND);
                r
            }
        }
    }

    /// Returns a row to the free list.
    fn release(&mut self, row: u32) {
        self.free.push(row);
    }

    fn base(&self, row: u32) -> usize {
        row as usize * self.stride
    }

    /// Encodes a materialized match into a fresh row.
    fn encode(&mut self, m: &SubgraphMatch) -> u32 {
        let row = self.alloc();
        let b = self.base(row);
        for (qe, de) in m.edge_pairs() {
            debug_assert!(qe.0 < self.ew && de.0 != UNBOUND);
            self.data[b + qe.0] = de.0;
        }
        for (qv, dv) in m.vertex_pairs() {
            debug_assert!(qv.0 < self.vw && dv.0 != UNBOUND);
            self.data[b + self.ew + qv.0] = dv.0;
        }
        let (earliest, latest) = m.time_span();
        self.data[b + self.ew + self.vw] = earliest.0;
        self.data[b + self.ew + self.vw + 1] = latest.0;
        row
    }

    /// Materializes a row back into caller-visible [`SubgraphMatch`] form —
    /// the copy-on-emit boundary. Slots are scanned in ascending index (=
    /// ascending query-id) order, so the binding maps are built by plain
    /// appends.
    fn decode(&self, row: u32) -> SubgraphMatch {
        let b = self.base(row);
        SubgraphMatch::from_sorted_bindings(
            (0..self.ew).filter_map(|i| {
                let v = self.data[b + i];
                (v != UNBOUND).then_some((sp_query::QueryEdgeId(i), EdgeId(v)))
            }),
            (0..self.vw).filter_map(|i| {
                let v = self.data[b + self.ew + i];
                (v != UNBOUND).then_some((QueryVertexId(i), VertexId(v)))
            }),
            Timestamp(self.data[b + self.ew + self.vw]),
            Timestamp(self.data[b + self.ew + self.vw + 1]),
        )
    }

    /// The bound data vertices of a row in ascending query-vertex order —
    /// what the Lazy Search trace records per newly stored match.
    fn row_vertices(&self, row: u32) -> impl Iterator<Item = VertexId> + '_ {
        let b = self.base(row);
        (0..self.vw).filter_map(move |i| {
            let v = self.data[b + self.ew + i];
            (v != UNBOUND).then_some(VertexId(v))
        })
    }

    /// Projects a row onto the parent's cut vertices as an interned
    /// [`JoinKey`], reading each cut vertex from its fixed slot offset.
    /// Returns `None` when any cut vertex is unbound.
    fn project_key(&self, row: u32, cut: &[QueryVertexId]) -> Option<JoinKey> {
        let b = self.base(row) + self.ew;
        if cut.len() <= JOIN_KEY_INLINE {
            let mut ids = [VertexId(0); JOIN_KEY_INLINE];
            for (slot, &q) in ids.iter_mut().zip(cut) {
                let v = self.data[b + q.0];
                if v == UNBOUND {
                    return None;
                }
                *slot = VertexId(v);
            }
            Some(JoinKey::Inline(cut.len() as u8, ids))
        } else {
            let mut ids = Vec::with_capacity(cut.len());
            for &q in cut {
                let v = self.data[b + q.0];
                if v == UNBOUND {
                    return None;
                }
                ids.push(VertexId(v));
            }
            Some(JoinKey::Spilled(ids))
        }
    }

    /// Full-row lexicographic comparison. Inside one bucket every row binds
    /// exactly the same slot set (all matches at node `n` are matches of
    /// `subgraph(n)`), so unbound slots compare equal and the order reduces
    /// to data bindings in ascending query-id order followed by the time
    /// span — `SubgraphMatch`'s derived ordering restricted to a bucket.
    fn cmp_rows(&self, a: u32, b: u32) -> std::cmp::Ordering {
        let (ab, bb) = (self.base(a), self.base(b));
        self.data[ab..ab + self.stride].cmp(&self.data[bb..bb + self.stride])
    }

    /// Joins two rows if they are compatible, writing the union into a fresh
    /// row (Definition 3.1.3), plus the window filter. Every check runs
    /// *before* a row is allocated, so rejected joins cost no row traffic:
    ///
    /// * vertex slots bound by both rows must agree;
    /// * the union binding must stay injective (no data vertex at two
    ///   distinct vertex slots);
    /// * no edge slot may be bound by both rows (the decomposition
    ///   partitions query edges) and no data edge may be reused;
    /// * `earliest`/`latest` are the union interval, and with a window `tw`
    ///   the joined span must stay `< tw`.
    fn join_rows(&mut self, a: u32, b: u32, window: Option<u64>) -> Option<u32> {
        let (ew, vw) = (self.ew, self.vw);
        let (ab, bb) = (self.base(a), self.base(b));
        for i in 0..vw {
            let (av, bv) = (self.data[ab + ew + i], self.data[bb + ew + i]);
            if av != UNBOUND && bv != UNBOUND && av != bv {
                return None;
            }
            let ui = if av != UNBOUND { av } else { bv };
            if ui == UNBOUND {
                continue;
            }
            for j in 0..i {
                let (aj, bj) = (self.data[ab + ew + j], self.data[bb + ew + j]);
                let uj = if aj != UNBOUND { aj } else { bj };
                if uj == ui {
                    return None;
                }
            }
        }
        for i in 0..ew {
            let ae = self.data[ab + i];
            if ae == UNBOUND {
                continue;
            }
            if self.data[bb + i] != UNBOUND {
                return None;
            }
            for j in 0..ew {
                if self.data[bb + j] == ae {
                    return None;
                }
            }
        }
        let earliest = self.data[ab + ew + vw].min(self.data[bb + ew + vw]);
        let latest = self.data[ab + ew + vw + 1].max(self.data[bb + ew + vw + 1]);
        if let Some(tw) = window {
            if latest.saturating_sub(earliest) >= tw {
                return None;
            }
        }
        let out = self.alloc();
        // `alloc` may grow `data`; the row *offsets* stay valid, so re-index
        // rather than holding slices across it.
        let (ab, bb, ob) = (self.base(a), self.base(b), self.base(out));
        for i in 0..ew + vw {
            let av = self.data[ab + i];
            self.data[ob + i] = if av != UNBOUND { av } else { self.data[bb + i] };
        }
        self.data[ob + ew + vw] = earliest;
        self.data[ob + ew + vw + 1] = latest;
        Some(out)
    }

    /// `earliest` of a row slice (for the purge paths, which walk raw rows).
    fn slice_earliest(row: &[u64], ew: usize, vw: usize) -> u64 {
        row[ew + vw]
    }
}

/// The flat, allocation-free record of one recursive insert: which nodes
/// stored a new match, and each new match's bound data vertices in ascending
/// query-vertex order. The Lazy Search engine consumes exactly this (the
/// vertices seed `ENABLE-SEARCH-SIBLING`, Algorithm 3); recording full
/// `SubgraphMatch` clones — as the trace used to — put one allocation per
/// traced insert back on the hot path for spilled (>8-binding) matches.
#[derive(Debug, Clone, Default)]
pub struct InsertTrace {
    /// `(node, start, end)`: one entry per newly stored match, with
    /// `vertices[start..end]` its bound data vertices.
    items: Vec<(NodeId, u32, u32)>,
    vertices: Vec<VertexId>,
}

impl InsertTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets the trace, keeping both buffers' capacity.
    pub fn clear(&mut self) {
        self.items.clear();
        self.vertices.clear();
    }

    /// Number of newly stored matches recorded.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The node the `i`-th recorded match was stored at.
    pub fn node(&self, i: usize) -> NodeId {
        self.items[i].0
    }

    /// The `i`-th recorded match's bound data vertices, in ascending
    /// query-vertex order.
    pub fn vertices(&self, i: usize) -> &[VertexId] {
        let (_, start, end) = self.items[i];
        &self.vertices[start as usize..end as usize]
    }

    fn record(&mut self, node: NodeId, vs: impl Iterator<Item = VertexId>) {
        let start = self.vertices.len() as u32;
        self.vertices.extend(vs);
        self.items.push((node, start, self.vertices.len() as u32));
    }
}

/// Aggregate statistics of a [`MatchStore`], used by the memory/space
/// experiments and by the engine's profiling counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of partial matches currently stored per node (indexed by
    /// [`NodeId`]).
    pub live_matches_per_node: Vec<usize>,
    /// Total number of partial matches currently stored.
    pub total_live_matches: usize,
    /// Total number of matches ever inserted per node (including evicted).
    pub total_inserted_per_node: Vec<u64>,
}

/// Runtime partial-match storage for one SJ-Tree.
///
/// Bucket memory is arena-style: every stored match (spilled or not) is a
/// fixed-width `RowArena` row addressed by a copyable id. Bucket vectors
/// emptied by window expiry are recycled through a bounded free list
/// (`spare`) instead of being freed, so the next insert at a fresh join key
/// reuses their capacity.
#[derive(Debug, Clone)]
pub struct MatchStore {
    arena: RowArena,
    tables: Vec<RowTable>,
    /// Free list of emptied bucket vectors (capacity preserved), refilled by
    /// the purge/clear paths and drained by inserts at previously unseen
    /// join keys and by the join accumulator.
    spare: Vec<Vec<u32>>,
    inserted: Vec<u64>,
}

impl MatchStore {
    /// Creates an empty store shaped for the given tree: the row schema is
    /// one slot per query edge and vertex of `tree.query()`.
    pub fn new(tree: &SjTree) -> Self {
        let q = tree.query();
        Self {
            arena: RowArena::new(q.num_edges(), q.num_vertices()),
            tables: vec![RowTable::default(); tree.num_nodes()],
            spare: Vec::new(),
            inserted: vec![0; tree.num_nodes()],
        }
    }

    /// Number of recycled bucket vectors currently in the free list.
    pub fn spare_buckets(&self) -> usize {
        self.spare.len()
    }

    /// Inserts a match of `node`'s subgraph, performing the recursive hash
    /// join of Algorithm 2. Complete matches (joins that reach the root) are
    /// appended to `complete`.
    ///
    /// `window`: when `Some(tw)`, joined matches whose edge timestamps span
    /// an interval ≥ `tw` are discarded (the problem statement requires
    /// τ(g) < tW for reported matches).
    ///
    /// Duplicate inserts (the same match already present at the node) are
    /// ignored; the lazy strategy's retroactive searches can legitimately
    /// rediscover a match that the per-edge search already found.
    pub fn insert(
        &mut self,
        tree: &SjTree,
        node: NodeId,
        m: SubgraphMatch,
        window: Option<u64>,
        complete: &mut Vec<SubgraphMatch>,
    ) {
        self.insert_inner(tree, node, m, window, complete, None);
    }

    /// Like [`MatchStore::insert`], but additionally records every newly
    /// stored match (node + bound data vertices) in `trace` — the inserted
    /// leaf match and every intermediate join. The Lazy Search engine uses
    /// the trace to decide which vertices to enable the next leaf's search
    /// on (`ENABLE-SEARCH-SIBLING`, Algorithm 3). The trace is **appended
    /// to**, not cleared.
    pub fn insert_traced(
        &mut self,
        tree: &SjTree,
        node: NodeId,
        m: SubgraphMatch,
        window: Option<u64>,
        complete: &mut Vec<SubgraphMatch>,
        trace: &mut InsertTrace,
    ) {
        self.insert_inner(tree, node, m, window, complete, Some(trace));
    }

    /// The entry point behind both insert flavours: handles the single-node
    /// (root) case, then encodes the match into the arena exactly once;
    /// every recursive step above works on row ids.
    fn insert_inner(
        &mut self,
        tree: &SjTree,
        node: NodeId,
        m: SubgraphMatch,
        window: Option<u64>,
        complete: &mut Vec<SubgraphMatch>,
        trace: Option<&mut InsertTrace>,
    ) {
        // A single-node tree: the leaf *is* the query. The window constraint
        // still applies (τ(g) < tW).
        if node == tree.root() {
            if window.is_none_or(|tw| m.within_window(tw)) {
                complete.push(m);
            }
            return;
        }
        let row = self.arena.encode(&m);
        self.insert_row(tree, node, row, window, complete, trace);
    }

    /// The recursive update (lines 4-12 of Algorithm 2): every probe, key
    /// projection, dedup comparison and join works on fixed-width arena
    /// rows. A joined row that reaches the root is decoded into `complete`
    /// and its row freed — the copy-on-emit boundary; everything below the
    /// root moves **zero** match bytes through the allocator, spilled or
    /// not. The trace is optional so the untraced path (single-edge
    /// strategies and the shared join stage's per-edge feed) never records
    /// one.
    fn insert_row(
        &mut self,
        tree: &SjTree,
        node: NodeId,
        row: u32,
        window: Option<u64>,
        complete: &mut Vec<SubgraphMatch>,
        mut trace: Option<&mut InsertTrace>,
    ) {
        let parent = tree.parent(node).expect("non-root node has a parent");
        let sibling = tree.sibling(node).expect("non-root node has a sibling");
        let cut = &tree.node(parent).cut_vertices;
        let Some(key) = self.arena.project_key(row, cut) else {
            // The match does not bind all cut vertices; this cannot happen
            // for leaf matches produced by the anchored matcher (leaves bind
            // every vertex of their subgraph), so treat it as a no-op.
            self.arena.release(row);
            return;
        };

        // Deduplicate: buckets are sorted, so membership is O(log n). The
        // failed search also yields the position that keeps the bucket
        // sorted when the row is stored below. A miss on the key itself
        // claims a recycled bucket vector from the free list up front.
        let (insert_at, recycled) = match self.tables[node.0].get(&key) {
            Some(bucket) => match bucket.binary_search_by(|&r| self.arena.cmp_rows(r, row)) {
                Ok(_) => {
                    // Duplicate: the row never entered a table, recycle it.
                    self.arena.release(row);
                    return;
                }
                Err(pos) => (pos, None),
            },
            None => (0, Some(self.spare.pop().unwrap_or_default())),
        };

        // Sibling probe (lines 4-7): failed joins (incompatible or
        // out-of-window) are rejected before any row is allocated, so only
        // *stored or emitted* joins ever touch the arena. The accumulator
        // comes from the recycled-bucket free list.
        let mut joined = self.spare.pop().unwrap_or_default();
        if let Some(bucket) = self.tables[sibling.0].get(&key) {
            for &other in bucket {
                if let Some(j) = self.arena.join_rows(row, other, window) {
                    joined.push(j);
                }
            }
        }

        // Store the new row at this node (line 12), preserving the sorted
        // bucket invariant.
        let bucket = match recycled {
            Some(fresh) => self.tables[node.0].entry(key).or_insert(fresh),
            None => self.tables[node.0]
                .get_mut(&key)
                .expect("bucket existed at the dedup probe above"),
        };
        bucket.insert(insert_at, row);
        self.inserted[node.0] += 1;
        if let Some(t) = trace.as_deref_mut() {
            t.record(node, self.arena.row_vertices(row));
        }

        // Push successful joins up the tree (lines 8-11).
        for &j in &joined {
            if parent == tree.root() {
                complete.push(self.arena.decode(j));
                self.arena.release(j);
            } else {
                self.insert_row(tree, parent, j, window, complete, trace.as_deref_mut());
            }
        }
        recycle(&mut self.spare, joined);
    }

    /// Number of partial matches currently stored at a node.
    pub fn live_matches(&self, node: NodeId) -> usize {
        self.tables[node.0].values().map(Vec::len).sum()
    }

    /// Total matches ever inserted at a node.
    pub fn total_inserted(&self, node: NodeId) -> u64 {
        self.inserted[node.0]
    }

    /// Total matches ever inserted across all nodes (the per-edge delta of
    /// this is what the shared join stage reports as deduplicated insert
    /// work, and the denominator of the soak's `alloc.allocs_per_match`).
    pub fn lifetime_inserted(&self) -> u64 {
        self.inserted.iter().sum()
    }

    /// Decoded copies of the matches stored at a node, in bucket-iteration
    /// order (test/diagnostic helper — it materializes every match).
    pub fn collect_matches_at(&self, node: NodeId) -> Vec<SubgraphMatch> {
        self.tables[node.0]
            .values()
            .flatten()
            .map(|&r| self.arena.decode(r))
            .collect()
    }

    /// Single-pass maintenance: removes every stored partial match that is
    /// dead (references an edge expired out of the data graph) **or**, when
    /// `window` is `Some(tw)`, expired (its earliest edge is older than
    /// `latest - tw`, so any future join already spans the window). Walks
    /// every bucket exactly once — the engine's periodic purge used to call
    /// [`MatchStore::purge_dead`] and [`MatchStore::purge_expired`] back to
    /// back, touching every bucket twice. Returns the number removed.
    pub fn purge(&mut self, graph: &DynamicGraph, latest: Timestamp, window: Option<u64>) -> usize {
        let cutoff = window.map(|tw| latest.0.saturating_sub(tw));
        // The expiry check runs first — it is a field read, while liveness
        // probes the graph per matched edge.
        self.retain_rows(|row, ew, vw| {
            cutoff.is_none_or(|c| RowArena::slice_earliest(row, ew, vw) >= c)
                && row_is_live(row, ew, graph)
        })
    }

    /// Removes every stored partial match that can no longer participate in a
    /// windowed complete match: a partial match whose earliest edge is older
    /// than `latest - window` already spans at least the window by the time
    /// any future edge (with timestamp ≥ `latest`) could join it.
    /// Returns the number of matches removed.
    pub fn purge_expired(&mut self, latest: Timestamp, window: u64) -> usize {
        let cutoff = latest.0.saturating_sub(window);
        self.retain_rows(|row, ew, vw| RowArena::slice_earliest(row, ew, vw) >= cutoff)
    }

    /// Removes every stored partial match that references an edge that has
    /// been expired out of the data graph. Returns the number removed.
    pub fn purge_dead(&mut self, graph: &DynamicGraph) -> usize {
        self.retain_rows(|row, ew, _vw| row_is_live(row, ew, graph))
    }

    /// One walk over every bucket keeping only the rows whose raw slice
    /// satisfies `keep` (which also sees the edge/vertex widths); the single
    /// implementation behind every purge flavour. `retain` preserves
    /// relative order, so the sorted-bucket invariant survives. Removed rows
    /// go back to the arena free list, and emptied buckets leave the table
    /// while their capacity goes to the bucket free list — window expiry
    /// returns memory to the store, not the allocator. Returns the number
    /// of matches removed.
    fn retain_rows(&mut self, keep: impl Fn(&[u64], usize, usize) -> bool) -> usize {
        // Split the arena so the predicate can read `data` while removed
        // rows push onto `free`.
        let RowArena {
            ew,
            vw,
            stride,
            data,
            free,
        } = &mut self.arena;
        let (ew, vw, stride) = (*ew, *vw, *stride);
        let spare = &mut self.spare;
        let mut removed = 0;
        for table in &mut self.tables {
            for bucket in table.values_mut() {
                let before = bucket.len();
                bucket.retain(|&r| {
                    let b = r as usize * stride;
                    if keep(&data[b..b + stride], ew, vw) {
                        true
                    } else {
                        free.push(r);
                        false
                    }
                });
                removed += before - bucket.len();
            }
            table.retain(|_, bucket| {
                if bucket.is_empty() {
                    recycle(spare, std::mem::take(bucket));
                    false
                } else {
                    true
                }
            });
        }
        removed
    }

    /// Clears every table, recycling every bucket vector and resetting the
    /// whole arena — no live rows remain, so the slab restarts empty with
    /// its capacity preserved.
    pub fn clear(&mut self) {
        for table in &mut self.tables {
            for (_, bucket) in table.drain() {
                recycle(&mut self.spare, bucket);
            }
        }
        self.arena.data.clear();
        self.arena.free.clear();
    }

    /// Clears the table of one node, leaving its lifetime-inserted counter
    /// intact. The shared join stage uses this when a query's prefix state
    /// migrates into a registry-owned canonical table: the engine's own
    /// tables for the prefix-covered nodes become redundant (the canonical
    /// table is repopulated by replaying the retained graph) and would
    /// otherwise linger until window expiry.
    pub fn clear_node(&mut self, node: NodeId) {
        for (_, bucket) in self.tables[node.0].drain() {
            for &r in &bucket {
                self.arena.release(r);
            }
            recycle(&mut self.spare, bucket);
        }
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> StoreStats {
        let live_matches_per_node: Vec<usize> = (0..self.inserted.len())
            .map(|n| self.live_matches(NodeId(n)))
            .collect();
        StoreStats {
            total_live_matches: live_matches_per_node.iter().sum(),
            live_matches_per_node,
            total_inserted_per_node: self.inserted.clone(),
        }
    }
}

/// `true` when every edge bound in a raw row is still in the data graph.
fn row_is_live(row: &[u64], ew: usize, graph: &DynamicGraph) -> bool {
    row[..ew]
        .iter()
        .all(|&e| e == UNBOUND || graph.contains_edge(EdgeId(e)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_graph::{EdgeId, EdgeType, VertexId};
    use sp_query::{QueryEdgeId, QueryGraph, QuerySubgraph, QueryVertexId};

    /// Query: v0 -t0-> v1 -t1-> v2, decomposed into two single-edge leaves
    /// (leaf 0 = edge 0, leaf 1 = edge 1).
    fn two_leaf_tree() -> SjTree {
        let mut q = QueryGraph::new("p2");
        let v: Vec<_> = (0..3).map(|_| q.add_any_vertex()).collect();
        q.add_edge(v[0], v[1], EdgeType(0));
        q.add_edge(v[1], v[2], EdgeType(1));
        let leaves = vec![
            QuerySubgraph::from_edges(&q, [QueryEdgeId(0)]),
            QuerySubgraph::from_edges(&q, [QueryEdgeId(1)]),
        ];
        SjTree::from_leaves(q, leaves)
    }

    /// A leaf-0 match binding v0->a, v1->b via data edge e.
    fn leaf0_match(a: u64, b: u64, e: u64, ts: u64) -> SubgraphMatch {
        let mut m = SubgraphMatch::new();
        assert!(m.bind_vertex(QueryVertexId(0), VertexId(a)));
        assert!(m.bind_vertex(QueryVertexId(1), VertexId(b)));
        assert!(m.bind_edge(QueryEdgeId(0), EdgeId(e), Timestamp(ts)));
        m
    }

    /// A leaf-1 match binding v1->b, v2->c via data edge e.
    fn leaf1_match(b: u64, c: u64, e: u64, ts: u64) -> SubgraphMatch {
        let mut m = SubgraphMatch::new();
        assert!(m.bind_vertex(QueryVertexId(1), VertexId(b)));
        assert!(m.bind_vertex(QueryVertexId(2), VertexId(c)));
        assert!(m.bind_edge(QueryEdgeId(1), EdgeId(e), Timestamp(ts)));
        m
    }

    #[test]
    fn join_through_root_emits_complete_match() {
        let tree = two_leaf_tree();
        let mut store = MatchStore::new(&tree);
        let mut complete = Vec::new();
        store.insert(
            &tree,
            tree.leaf(0),
            leaf0_match(10, 11, 100, 1),
            None,
            &mut complete,
        );
        assert!(complete.is_empty());
        store.insert(
            &tree,
            tree.leaf(1),
            leaf1_match(11, 12, 101, 2),
            None,
            &mut complete,
        );
        assert_eq!(complete.len(), 1);
        assert_eq!(complete[0].num_edges(), 2);
        assert_eq!(
            complete[0].data_vertex(QueryVertexId(2)),
            Some(VertexId(12))
        );
    }

    #[test]
    fn join_requires_matching_cut_vertex() {
        let tree = two_leaf_tree();
        let mut store = MatchStore::new(&tree);
        let mut complete = Vec::new();
        store.insert(
            &tree,
            tree.leaf(0),
            leaf0_match(10, 11, 100, 1),
            None,
            &mut complete,
        );
        // leaf-1 match whose v1 binding (20) differs from the stored 11.
        store.insert(
            &tree,
            tree.leaf(1),
            leaf1_match(20, 21, 101, 2),
            None,
            &mut complete,
        );
        assert!(complete.is_empty());
        assert_eq!(store.live_matches(tree.leaf(0)), 1);
        assert_eq!(store.live_matches(tree.leaf(1)), 1);
    }

    #[test]
    fn arrival_order_does_not_matter_for_the_join() {
        let tree = two_leaf_tree();
        let mut store = MatchStore::new(&tree);
        let mut complete = Vec::new();
        store.insert(
            &tree,
            tree.leaf(1),
            leaf1_match(11, 12, 101, 2),
            None,
            &mut complete,
        );
        assert!(complete.is_empty());
        store.insert(
            &tree,
            tree.leaf(0),
            leaf0_match(10, 11, 100, 1),
            None,
            &mut complete,
        );
        assert_eq!(complete.len(), 1);
    }

    #[test]
    fn window_filters_slow_matches() {
        let tree = two_leaf_tree();
        let mut store = MatchStore::new(&tree);
        let mut complete = Vec::new();
        store.insert(
            &tree,
            tree.leaf(0),
            leaf0_match(10, 11, 100, 0),
            Some(50),
            &mut complete,
        );
        // Second edge arrives 100 ticks later: τ = 100 ≥ 50, rejected.
        store.insert(
            &tree,
            tree.leaf(1),
            leaf1_match(11, 12, 101, 100),
            Some(50),
            &mut complete,
        );
        assert!(complete.is_empty());
        // Within the window it is accepted.
        store.insert(
            &tree,
            tree.leaf(1),
            leaf1_match(11, 12, 102, 30),
            Some(50),
            &mut complete,
        );
        assert_eq!(complete.len(), 1);
    }

    #[test]
    fn duplicate_inserts_are_ignored() {
        let tree = two_leaf_tree();
        let mut store = MatchStore::new(&tree);
        let mut complete = Vec::new();
        store.insert(
            &tree,
            tree.leaf(0),
            leaf0_match(10, 11, 100, 1),
            None,
            &mut complete,
        );
        store.insert(
            &tree,
            tree.leaf(0),
            leaf0_match(10, 11, 100, 1),
            None,
            &mut complete,
        );
        assert_eq!(store.live_matches(tree.leaf(0)), 1);
        store.insert(
            &tree,
            tree.leaf(1),
            leaf1_match(11, 12, 101, 2),
            None,
            &mut complete,
        );
        assert_eq!(
            complete.len(),
            1,
            "duplicate leaf matches must not double-report"
        );
    }

    #[test]
    fn one_to_many_joins_produce_all_combinations() {
        let tree = two_leaf_tree();
        let mut store = MatchStore::new(&tree);
        let mut complete = Vec::new();
        // Three leaf-1 matches sharing the cut vertex 11.
        for (i, c) in [(0u64, 12u64), (1, 13), (2, 14)] {
            store.insert(
                &tree,
                tree.leaf(1),
                leaf1_match(11, c, 200 + i, 2),
                None,
                &mut complete,
            );
        }
        store.insert(
            &tree,
            tree.leaf(0),
            leaf0_match(10, 11, 100, 1),
            None,
            &mut complete,
        );
        assert_eq!(complete.len(), 3);
    }

    #[test]
    fn single_node_tree_reports_immediately() {
        let mut q = QueryGraph::new("one");
        let a = q.add_any_vertex();
        let b = q.add_any_vertex();
        q.add_edge(a, b, EdgeType(0));
        let tree =
            SjTree::from_leaves(q.clone(), vec![QuerySubgraph::from_edges(&q, q.edge_ids())]);
        let mut store = MatchStore::new(&tree);
        let mut complete = Vec::new();
        store.insert(
            &tree,
            tree.root(),
            leaf0_match(1, 2, 3, 0),
            None,
            &mut complete,
        );
        assert_eq!(complete.len(), 1);
        assert_eq!(store.stats().total_live_matches, 0);
    }

    #[test]
    fn three_leaf_tree_joins_recursively() {
        // Query: v0 -t0-> v1 -t1-> v2 -t2-> v3, three single-edge leaves.
        let mut q = QueryGraph::new("p3");
        let v: Vec<_> = (0..4).map(|_| q.add_any_vertex()).collect();
        q.add_edge(v[0], v[1], EdgeType(0));
        q.add_edge(v[1], v[2], EdgeType(1));
        q.add_edge(v[2], v[3], EdgeType(2));
        let leaves = (0..3)
            .map(|i| QuerySubgraph::from_edges(&q, [QueryEdgeId(i)]))
            .collect();
        let tree = SjTree::from_leaves(q, leaves);
        let mut store = MatchStore::new(&tree);
        let mut complete = Vec::new();

        let m0 = leaf0_match(10, 11, 100, 1);
        let m1 = leaf1_match(11, 12, 101, 2);
        let mut m2 = SubgraphMatch::new();
        m2.bind_vertex(QueryVertexId(2), VertexId(12));
        m2.bind_vertex(QueryVertexId(3), VertexId(13));
        m2.bind_edge(QueryEdgeId(2), EdgeId(102), Timestamp(3));

        store.insert(&tree, tree.leaf(0), m0, None, &mut complete);
        store.insert(&tree, tree.leaf(1), m1, None, &mut complete);
        assert!(complete.is_empty());
        // The intermediate join (leaves 0+1) is stored at the internal node.
        let internal = tree.parent(tree.leaf(0)).unwrap();
        assert_eq!(store.live_matches(internal), 1);
        store.insert(&tree, tree.leaf(2), m2, None, &mut complete);
        assert_eq!(complete.len(), 1);
        assert_eq!(complete[0].num_edges(), 3);
    }

    #[test]
    fn purge_expired_drops_old_partials() {
        let tree = two_leaf_tree();
        let mut store = MatchStore::new(&tree);
        let mut complete = Vec::new();
        store.insert(
            &tree,
            tree.leaf(0),
            leaf0_match(10, 11, 100, 5),
            None,
            &mut complete,
        );
        store.insert(
            &tree,
            tree.leaf(0),
            leaf0_match(20, 21, 101, 90),
            None,
            &mut complete,
        );
        assert_eq!(store.stats().total_live_matches, 2);
        let removed = store.purge_expired(Timestamp(100), 50);
        assert_eq!(removed, 1);
        assert_eq!(store.stats().total_live_matches, 1);
    }

    #[test]
    fn purge_dead_drops_matches_with_expired_edges() {
        use sp_graph::Schema;
        let mut schema = Schema::new();
        let vt = schema.intern_vertex_type("v");
        let t0 = schema.intern_edge_type("t0");
        let mut g = DynamicGraph::with_window(schema, 10);
        let a = g.add_vertex(vt);
        let b = g.add_vertex(vt);
        let e_old = g.add_edge(a, b, t0, Timestamp(1));
        let tree = two_leaf_tree();
        let mut store = MatchStore::new(&tree);
        let mut complete = Vec::new();
        let mut m = SubgraphMatch::new();
        m.bind_vertex(QueryVertexId(0), a);
        m.bind_vertex(QueryVertexId(1), b);
        m.bind_edge(QueryEdgeId(0), e_old, Timestamp(1));
        store.insert(&tree, tree.leaf(0), m, None, &mut complete);
        assert_eq!(store.purge_dead(&g), 0);
        // Slide the window far forward; the old edge disappears.
        g.add_edge(a, b, t0, Timestamp(1000));
        g.expire();
        assert_eq!(store.purge_dead(&g), 1);
        assert_eq!(store.stats().total_live_matches, 0);
    }

    #[test]
    fn single_pass_purge_matches_the_two_pass_result() {
        use sp_graph::Schema;
        let mut schema = Schema::new();
        let vt = schema.intern_vertex_type("v");
        let t0 = schema.intern_edge_type("t0");
        let mut g = DynamicGraph::with_window(schema, 50);
        let a = g.add_vertex(vt);
        let b = g.add_vertex(vt);
        let e_dead = g.add_edge(a, b, t0, Timestamp(1));
        let e_live = g.add_edge(a, b, t0, Timestamp(90));
        g.add_edge(a, b, t0, Timestamp(100));
        g.expire(); // t=1 is outside the 50-tick graph window

        let tree = two_leaf_tree();
        let build = |edges: &[(u64, u64)]| {
            let mut store = MatchStore::new(&tree);
            let mut complete = Vec::new();
            for &(e, ts) in edges {
                let mut m = SubgraphMatch::new();
                m.bind_vertex(QueryVertexId(0), a);
                m.bind_vertex(QueryVertexId(1), b);
                m.bind_edge(QueryEdgeId(0), EdgeId(e), Timestamp(ts));
                store.insert(&tree, tree.leaf(0), m, None, &mut complete);
            }
            store
        };
        // One dead match, one expired match (earliest 10 < 100-60), one live.
        let edges = [(e_dead.0, 1u64), (777, 10), (e_live.0, 90)];
        let mut single = build(&edges);
        let mut double = build(&edges);
        let removed_single = single.purge(&g, Timestamp(100), Some(60));
        let removed_double = double.purge_dead(&g) + double.purge_expired(Timestamp(100), 60);
        assert_eq!(removed_single, removed_double);
        assert_eq!(removed_single, 2);
        assert_eq!(single.stats().total_live_matches, 1);
        assert_eq!(
            single.stats().total_live_matches,
            double.stats().total_live_matches
        );
        // Without a window only the two dead matches go (edge 777 never
        // existed in the graph, so it is dead as well as expired).
        let mut unwindowed = build(&edges);
        assert_eq!(unwindowed.purge(&g, Timestamp(100), None), 2);
    }

    #[test]
    fn high_fan_in_bucket_dedup_is_exact() {
        // Thousands of leaf-1 matches share the single cut vertex 11, so they
        // all land in ONE bucket. Every insert is repeated; the sorted-bucket
        // dedup must drop each duplicate while keeping every distinct match.
        let tree = two_leaf_tree();
        let mut store = MatchStore::new(&tree);
        let mut complete = Vec::new();
        const FAN: u64 = 2_000;
        for round in 0..2 {
            for i in 0..FAN {
                store.insert(
                    &tree,
                    tree.leaf(1),
                    leaf1_match(11, 100 + i, 1_000 + i, 2),
                    None,
                    &mut complete,
                );
            }
            // Interleave out-of-order re-inserts to exercise mid-bucket
            // insertion positions.
            for i in (0..FAN).rev().step_by(7) {
                store.insert(
                    &tree,
                    tree.leaf(1),
                    leaf1_match(11, 100 + i, 1_000 + i, 2),
                    None,
                    &mut complete,
                );
            }
            let _ = round;
        }
        assert_eq!(store.live_matches(tree.leaf(1)), FAN as usize);
        assert_eq!(store.total_inserted(tree.leaf(1)), FAN);
        // Joining against the fan still produces every combination once.
        store.insert(
            &tree,
            tree.leaf(0),
            leaf0_match(10, 11, 5, 1),
            None,
            &mut complete,
        );
        assert_eq!(complete.len(), FAN as usize);
        assert!(complete.iter().all(|m| m.bindings_inline()));
    }

    #[test]
    fn purge_recycles_bucket_capacity_into_the_free_list() {
        let tree = two_leaf_tree();
        let mut store = MatchStore::new(&tree);
        let mut complete = Vec::new();
        // Distinct cut-vertex bindings → distinct buckets at leaf 0.
        for i in 0..8u64 {
            store.insert(
                &tree,
                tree.leaf(0),
                leaf0_match(10 + i, 50 + i, 100 + i, i),
                None,
                &mut complete,
            );
        }
        assert_eq!(store.spare_buckets(), 0);
        // Expire everything: all eight buckets empty out and are recycled.
        let removed = store.purge_expired(Timestamp(1_000), 10);
        assert_eq!(removed, 8);
        assert_eq!(store.spare_buckets(), 8);
        // New inserts at fresh keys draw from the free list instead of the
        // allocator.
        for i in 0..3u64 {
            store.insert(
                &tree,
                tree.leaf(0),
                leaf0_match(200 + i, 300 + i, 400 + i, 2_000),
                None,
                &mut complete,
            );
        }
        assert_eq!(store.spare_buckets(), 5);
        assert_eq!(store.stats().total_live_matches, 3);
        // `clear` recycles too.
        store.clear();
        assert_eq!(store.spare_buckets(), 8);
    }

    #[test]
    fn stats_and_clear() {
        let tree = two_leaf_tree();
        let mut store = MatchStore::new(&tree);
        let mut complete = Vec::new();
        store.insert(
            &tree,
            tree.leaf(0),
            leaf0_match(10, 11, 100, 1),
            None,
            &mut complete,
        );
        let stats = store.stats();
        assert_eq!(stats.total_live_matches, 1);
        assert_eq!(stats.live_matches_per_node[tree.leaf(0).0], 1);
        assert_eq!(stats.total_inserted_per_node[tree.leaf(0).0], 1);
        store.clear();
        assert_eq!(store.stats().total_live_matches, 0);
        // The inserted counters survive a clear (they are lifetime totals).
        assert_eq!(store.total_inserted(tree.leaf(0)), 1);
        assert!(store.collect_matches_at(tree.leaf(0)).is_empty());
    }

    /// The data edges bound by each match, one `[qe0, qe1, ..]` list per
    /// match, sorted — an order-insensitive view of a result set.
    fn edge_lists(ms: &[SubgraphMatch]) -> Vec<Vec<u64>> {
        let mut out: Vec<Vec<u64>> = ms
            .iter()
            .map(|m| m.edge_pairs().map(|(_, de)| de.0).collect())
            .collect();
        out.sort();
        out
    }

    #[test]
    fn joins_and_duplicates_produce_hand_computed_results() {
        let tree = two_leaf_tree();
        let mut inserts = Vec::new();
        // Fan-in, duplicates, a non-joining key and both arrival orders.
        for i in 0..20u64 {
            inserts.push((1usize, leaf1_match(11, 100 + i, 1_000 + i, 2 + i)));
        }
        inserts.push((1, leaf1_match(11, 100, 1_000, 2))); // duplicate
        inserts.push((0, leaf0_match(10, 11, 5, 1)));
        inserts.push((0, leaf0_match(10, 11, 5, 1))); // duplicate
        inserts.push((0, leaf0_match(40, 41, 6, 1))); // never joins
        inserts.push((1, leaf1_match(11, 200, 2_000, 3))); // late sibling

        // Unwindowed: edge 5 joins all 20 fan-in edges and the late
        // sibling. With tW = 10 the fan-in join spans (2 + i) - 1 < 10, so
        // only i = 0..=8 survive, plus the late sibling (span 2).
        let unwindowed: Vec<u64> = (1_000..1_020).chain([2_000]).collect();
        let windowed: Vec<u64> = (1_000..1_009).chain([2_000]).collect();
        for (window, partners) in [(None, unwindowed), (Some(10), windowed)] {
            let mut store = MatchStore::new(&tree);
            let mut complete = Vec::new();
            for (rank, m) in &inserts {
                store.insert(&tree, tree.leaf(*rank), m.clone(), window, &mut complete);
            }
            let expected: Vec<Vec<u64>> = partners.iter().map(|&e| vec![5, e]).collect();
            assert_eq!(edge_lists(&complete), expected, "window {window:?}");
            assert!(complete
                .iter()
                .all(|m| m.data_vertex(QueryVertexId(1)) == Some(VertexId(11))));
            // Duplicates are neither stored nor counted; the window only
            // filters joins, never leaf inserts; the root stores nothing.
            for (node, live, inserted) in [
                (tree.leaf(0), 2, 2),
                (tree.leaf(1), 21, 21),
                (tree.root(), 0, 0),
            ] {
                assert_eq!(store.live_matches(node), live, "window {window:?}");
                assert_eq!(store.total_inserted(node), inserted, "window {window:?}");
            }
        }
    }

    #[test]
    fn interned_store_handles_single_node_trees() {
        // One leaf covering the whole 2-edge query: the leaf match is the
        // complete match, and the window applies to it at the root.
        let mut q = QueryGraph::new("one");
        let v: Vec<_> = (0..3).map(|_| q.add_any_vertex()).collect();
        q.add_edge(v[0], v[1], EdgeType(0));
        q.add_edge(v[1], v[2], EdgeType(1));
        let tree =
            SjTree::from_leaves(q.clone(), vec![QuerySubgraph::from_edges(&q, q.edge_ids())]);
        let mut m = leaf0_match(1, 2, 3, 0);
        assert!(m.bind_vertex(QueryVertexId(2), VertexId(4)));
        assert!(m.bind_edge(QueryEdgeId(1), EdgeId(5), Timestamp(5)));
        let mut store = MatchStore::new(&tree);
        let mut complete = Vec::new();
        // Span 5: rejected at tW = 5, reported at tW = 6 and unwindowed.
        for (window, reported) in [(Some(5), 0), (Some(6), 1), (None, 2)] {
            store.insert(&tree, tree.root(), m.clone(), window, &mut complete);
            assert_eq!(complete.len(), reported, "window {window:?}");
        }
        assert_eq!(store.stats().total_live_matches, 0);
    }

    #[test]
    fn interned_purge_recycles_rows_and_buckets() {
        let tree = two_leaf_tree();
        let mut store = MatchStore::new(&tree);
        let mut complete = Vec::new();
        for i in 0..8u64 {
            store.insert(
                &tree,
                tree.leaf(0),
                leaf0_match(10 + i, 50 + i, 100 + i, i),
                None,
                &mut complete,
            );
        }
        assert_eq!(store.spare_buckets(), 0);
        let removed = store.purge_expired(Timestamp(1_000), 10);
        assert_eq!(removed, 8);
        assert_eq!(store.spare_buckets(), 8);
        // Freed rows are reused: eight more inserts and the arena has not
        // grown past its 8-row high-water mark.
        let words_before = store.arena.data.len();
        for i in 0..8u64 {
            store.insert(
                &tree,
                tree.leaf(0),
                leaf0_match(200 + i, 300 + i, 400 + i, 2_000),
                None,
                &mut complete,
            );
        }
        assert_eq!(store.arena.data.len(), words_before);
        assert_eq!(store.stats().total_live_matches, 8);
    }

    #[test]
    fn interned_purge_dead_probes_the_graph() {
        // A joined row dies with *any* of its edges: leaf 0's edge expires,
        // leaf 1's stays, and the internal node's join of the two goes.
        use sp_graph::Schema;
        let mut schema = Schema::new();
        let vt = schema.intern_vertex_type("v");
        let t0 = schema.intern_edge_type("t0");
        let t1 = schema.intern_edge_type("t1");
        let mut g = DynamicGraph::with_window(schema, 10);
        let (a, b, c) = (g.add_vertex(vt), g.add_vertex(vt), g.add_vertex(vt));
        let e_old = g.add_edge(a, b, t0, Timestamp(1));
        let e_live = g.add_edge(b, c, t1, Timestamp(1_000));

        let mut q = QueryGraph::new("p3");
        let v: Vec<_> = (0..4).map(|_| q.add_any_vertex()).collect();
        for i in 0..3 {
            q.add_edge(v[i], v[i + 1], EdgeType(i as u32));
        }
        let leaves = (0..3)
            .map(|i| QuerySubgraph::from_edges(&q, [QueryEdgeId(i)]))
            .collect();
        let tree = SjTree::from_leaves(q, leaves);
        let internal = tree.parent(tree.leaf(0)).unwrap();
        let mut store = MatchStore::new(&tree);
        let mut complete = Vec::new();
        store.insert(
            &tree,
            tree.leaf(0),
            leaf0_match(a.0, b.0, e_old.0, 1),
            None,
            &mut complete,
        );
        store.insert(
            &tree,
            tree.leaf(1),
            leaf1_match(b.0, c.0, e_live.0, 1_000),
            None,
            &mut complete,
        );
        assert_eq!(store.live_matches(internal), 1);
        assert_eq!(store.purge_dead(&g), 0);
        g.expire(); // t=1 is outside the 10-tick graph window
        assert_eq!(store.purge_dead(&g), 2);
        assert_eq!(store.live_matches(tree.leaf(0)), 0);
        assert_eq!(store.live_matches(internal), 0);
        assert_eq!(store.live_matches(tree.leaf(1)), 1);
    }

    #[test]
    fn interned_rows_handle_spilled_width_queries() {
        // A 9-edge path: 10 vertex bindings — past MATCH_INLINE_BINDINGS, so
        // a `SubgraphMatch` of this width heap-allocates per clone while the
        // rows stay fixed-width.
        const LEN: usize = 9;
        let mut q = QueryGraph::new("wide");
        let v: Vec<_> = (0..=LEN).map(|_| q.add_any_vertex()).collect();
        for i in 0..LEN {
            q.add_edge(v[i], v[i + 1], EdgeType(i as u32));
        }
        let leaves = (0..LEN)
            .map(|i| QuerySubgraph::from_edges(&q, [QueryEdgeId(i)]))
            .collect();
        let tree = SjTree::from_leaves(q, leaves);

        let edge_match = |i: usize| {
            let mut m = SubgraphMatch::new();
            m.bind_vertex(QueryVertexId(i), VertexId(500 + i as u64));
            m.bind_vertex(QueryVertexId(i + 1), VertexId(500 + i as u64 + 1));
            m.bind_edge(
                QueryEdgeId(i),
                EdgeId(1_000 + i as u64),
                Timestamp(i as u64),
            );
            m
        };
        let mut store = MatchStore::new(&tree);
        let mut complete = Vec::new();
        for i in 0..LEN {
            store.insert(&tree, tree.leaf(i), edge_match(i), None, &mut complete);
        }
        // The chain completes exactly once, as the full 10-vertex match.
        assert_eq!(complete.len(), 1);
        let m = &complete[0];
        assert!(!m.bindings_inline(), "this width must spill");
        assert_eq!(
            m.edge_pairs().collect::<Vec<_>>(),
            (0..LEN)
                .map(|i| (QueryEdgeId(i), EdgeId(1_000 + i as u64)))
                .collect::<Vec<_>>()
        );
        assert_eq!(
            m.vertex_pairs().collect::<Vec<_>>(),
            (0..=LEN)
                .map(|i| (QueryVertexId(i), VertexId(500 + i as u64)))
                .collect::<Vec<_>>()
        );
        assert_eq!(m.time_span(), (Timestamp(0), Timestamp(LEN as u64 - 1)));
        // Every leaf stored its match; each internal node of the left-deep
        // tree stored the one growing prefix below the root.
        assert_eq!(store.stats().total_live_matches, LEN + (LEN - 2));
    }

    #[test]
    fn insert_trace_records_nodes_and_vertices() {
        let tree = two_leaf_tree();
        let mut store = MatchStore::new(&tree);
        let mut complete = Vec::new();
        let mut trace = InsertTrace::new();
        store.insert_traced(
            &tree,
            tree.leaf(0),
            leaf0_match(10, 11, 100, 1),
            None,
            &mut complete,
            &mut trace,
        );
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.node(0), tree.leaf(0));
        assert_eq!(trace.vertices(0), &[VertexId(10), VertexId(11)]);
        trace.clear();
        assert!(trace.is_empty());
        // The joining insert stores at the leaf; the root join is emitted,
        // not stored, so it is not traced.
        store.insert_traced(
            &tree,
            tree.leaf(1),
            leaf1_match(11, 12, 101, 2),
            None,
            &mut complete,
            &mut trace,
        );
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.node(0), tree.leaf(1));
        assert_eq!(trace.vertices(0), &[VertexId(11), VertexId(12)]);
        assert_eq!(complete.len(), 1);
    }

    // ---- row joins -------------------------------------------------------

    /// An arena for the 3-vertex, 2-edge path `v0 -e0-> v1 -e1-> v2` holding
    /// the two given matches as rows.
    fn arena_with(a: &SubgraphMatch, b: &SubgraphMatch) -> (RowArena, u32, u32) {
        let mut arena = RowArena::new(2, 3);
        let (ra, rb) = (arena.encode(a), arena.encode(b));
        (arena, ra, rb)
    }

    #[test]
    fn join_of_compatible_matches_unions_bindings() {
        let a = leaf0_match(10, 11, 1, 5);
        let b = leaf1_match(11, 12, 2, 9);
        let (mut arena, ra, rb) = arena_with(&a, &b);
        let row = arena.join_rows(ra, rb, None).expect("compatible");
        let j = arena.decode(row);
        assert_eq!(j.num_edges(), 2);
        assert_eq!(j.num_vertices(), 3);
        assert_eq!(j.data_vertex(QueryVertexId(2)), Some(VertexId(12)));
        assert_eq!(j.earliest(), Timestamp(5));
        assert_eq!(j.latest(), Timestamp(9));
        // The union spans 9 - 5 = 4 ticks: a window of 4 rejects it.
        assert!(arena.join_rows(ra, rb, Some(4)).is_none());
        assert!(arena.join_rows(ra, rb, Some(5)).is_some());
    }

    #[test]
    fn join_rejects_conflicting_shared_vertex() {
        let (mut arena, ra, rb) =
            arena_with(&leaf0_match(10, 11, 1, 0), &leaf1_match(99, 12, 2, 0));
        assert!(arena.join_rows(ra, rb, None).is_none());
    }

    #[test]
    fn join_rejects_non_injective_union() {
        // Different query vertices (v0, v2) bound to the same data vertex.
        let (mut arena, ra, rb) =
            arena_with(&leaf0_match(10, 11, 1, 0), &leaf1_match(11, 10, 2, 0));
        assert!(arena.join_rows(ra, rb, None).is_none());
    }

    #[test]
    fn join_rejects_data_edge_reuse() {
        let (mut arena, ra, rb) =
            arena_with(&leaf0_match(10, 11, 7, 0), &leaf1_match(11, 12, 7, 0));
        assert!(arena.join_rows(ra, rb, None).is_none());
    }
}
