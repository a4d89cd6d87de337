//! A reference for the engine's match output that runs none of its code.
//!
//! The oracle keeps a replica of the data graph that never expires an edge.
//! On every arrival it asks VF2 for each registered query's embeddings that
//! contain the new edge, and keeps those whose edges span less than the
//! query's window (`within_window`). There is no decomposition, match store,
//! lazy gate, sharing stage, purge or worker: each match is reported once,
//! at the arrival of its last edge, straight from the definition of a
//! windowed match.

use sp_graph::{DynamicGraph, EdgeEvent, Schema, VertexId, VertexType};
use sp_iso::{SubgraphMatch, Vf2Matcher};
use sp_query::QueryGraph;

/// Registered queries over one unexpiring graph replica.
pub struct Oracle {
    graph: DynamicGraph,
    queries: Vec<(Vf2Matcher, Option<u64>)>,
}

impl Oracle {
    pub fn new(schema: Schema) -> Self {
        Self {
            graph: DynamicGraph::new(schema),
            queries: Vec::new(),
        }
    }

    /// Registers a query; its slot is the registration index.
    pub fn register(&mut self, query: QueryGraph, window: Option<u64>) -> usize {
        self.queries.push((Vf2Matcher::new(query), window));
        self.queries.len() - 1
    }

    /// Adds the event's edge and emits every new `(slot, match)`. Vertex
    /// ids are taken from the event as the processor takes them: a vertex
    /// keeps the type it was first seen with.
    pub fn ingest(&mut self, event: &EdgeEvent, mut emit: impl FnMut(usize, SubgraphMatch)) {
        let mut vertex = |id: u64, ty: VertexType| {
            let _ = self.graph.ensure_vertex(VertexId(id), ty);
            VertexId(id)
        };
        let (src, dst) = (
            vertex(event.src, event.src_type),
            vertex(event.dst, event.dst_type),
        );
        let id = self
            .graph
            .add_edge(src, dst, event.edge_type, event.timestamp);
        let edge = *self.graph.edge(id).expect("edge was just added");
        for (slot, (matcher, window)) in self.queries.iter().enumerate() {
            for m in matcher.find_containing_edge(&self.graph, &edge) {
                if window.is_none_or(|tw| m.within_window(tw)) {
                    emit(slot, m);
                }
            }
        }
    }
}

/// The oracle's sorted `(query slot, match fingerprint)` multiset for
/// `rules` (slot = index) over `events` — the form every equivalence suite
/// compares.
pub fn multiset(
    schema: &Schema,
    rules: &[(QueryGraph, Option<u64>)],
    events: &[EdgeEvent],
) -> Vec<(usize, String)> {
    let mut oracle = Oracle::new(schema.clone());
    for (q, w) in rules {
        oracle.register(q.clone(), *w);
    }
    super::multiset_of(|emit| {
        for ev in events {
            oracle.ingest(ev, &mut *emit);
        }
    })
}
