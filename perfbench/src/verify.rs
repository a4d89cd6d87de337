//! The independent correctness reference: a windowed replica of the data
//! graph and a plain VF2 enumeration of every match containing a sampled
//! edge, with the window rule applied literally. Nothing here uses the
//! engine's own decomposition, sharing or storage code.

use crate::inputs::{mix, Inputs};
use crate::measure::Registration;
use sp_graph::{DynamicGraph, EdgeEvent, EdgeId, VertexId};
use sp_iso::{SubgraphMatch, Vf2Matcher};
use std::collections::HashMap;
use streampattern::QueryId;

/// One timed edge in `SAMPLE_RATE` is checked.
const SAMPLE_RATE: u64 = 48;

/// Seeded sample of timed edges to check.
pub fn sample(seed: u64, n: usize) -> Vec<bool> {
    (0..n)
        .map(|i| mix(seed ^ 0x5eed, i as u64).is_multiple_of(SAMPLE_RATE))
        .collect()
}

/// A match in comparable form: sorted (query edge, data edge) and
/// (query vertex, data vertex) pairs.
type Key = (Vec<(usize, u64)>, Vec<(usize, u64)>);

fn key(m: &SubgraphMatch) -> Key {
    let mut edges: Vec<(usize, u64)> = m.edge_pairs().map(|(q, e)| (q.0, e.0)).collect();
    let mut vertices: Vec<(usize, u64)> = m.vertex_pairs().map(|(q, v)| (q.0, v.0)).collect();
    edges.sort_unstable();
    vertices.sort_unstable();
    (edges, vertices)
}

/// Outcome of the reference check.
#[derive(Debug, Clone, Copy, Default)]
pub struct Verdict {
    /// (query, sampled edge) results compared.
    pub checked: u64,
    /// Those equal to the reference (or within the bracket, for queries
    /// registered mid-stream).
    pub ok: u64,
    /// Reference matches enumerated.
    pub reference_matches: u64,
}

/// Inserts one event into a replica graph (no expiry).
pub fn ingest(graph: &mut DynamicGraph, ev: &EdgeEvent) -> EdgeId {
    let src = graph
        .ensure_vertex(VertexId(ev.src), ev.src_type)
        .unwrap_or(VertexId(ev.src));
    let dst = graph
        .ensure_vertex(VertexId(ev.dst), ev.dst_type)
        .unwrap_or(VertexId(ev.dst));
    graph.add_edge(src, dst, ev.edge_type, ev.timestamp)
}

/// Compares the matches the program reported for sampled timed edges of
/// segment 0 (`kept`: timed index, query, match) with the reference.
///
/// A query registered before the stream must report exactly the reference
/// matches. A query registered mid-stream must report only reference
/// matches, and every reference match whose edges all arrived after its
/// registration.
pub fn check(
    inputs: &Inputs,
    registrations: &[Registration],
    kept: &[(usize, QueryId, SubgraphMatch)],
    sampled: &[bool],
) -> Verdict {
    let (warmup, timed) = (inputs.warmup(0), inputs.timed(0));
    let base = warmup.len() as u64;
    let mut reported: HashMap<(usize, QueryId), Vec<Key>> = HashMap::new();
    for (idx, q, m) in kept {
        reported.entry((*idx, *q)).or_default().push(key(m));
    }
    let matchers: Vec<Vf2Matcher> = registrations
        .iter()
        .map(|r| Vf2Matcher::new(r.spec.query.clone()))
        .collect();

    let mut replica = DynamicGraph::new(inputs.schema.clone());
    replica.set_window(inputs.max_window());
    for ev in warmup {
        ingest(&mut replica, ev);
        replica.expire();
    }
    let mut verdict = Verdict::default();
    for (i, ev) in timed.iter().enumerate() {
        let id = ingest(&mut replica, ev);
        replica.expire();
        if !sampled[i] {
            continue;
        }
        let edge = *replica.edge(id).expect("edge is inside the window");
        for (r, matcher) in registrations.iter().zip(&matchers) {
            let live = r.from.is_none_or(|f| f <= i) && r.until.is_none_or(|u| i < u);
            if !live {
                continue;
            }
            let mut want: Vec<Key> = matcher
                .find_containing_edge(&replica, &edge)
                .iter()
                .filter(|m| r.spec.window.is_none_or(|w| m.within_window(w)))
                .map(key)
                .collect();
            verdict.reference_matches += want.len() as u64;
            let mut got = reported.remove(&(i, r.id)).unwrap_or_default();
            want.sort_unstable();
            got.sort_unstable();
            let ok = match r.from {
                None => want == got,
                Some(from) => {
                    let first = base + from as u64;
                    let within = |k: &Key| want.binary_search(k).is_ok();
                    let required = want
                        .iter()
                        .filter(|k| k.0.iter().all(|&(_, e)| e >= first))
                        .all(|k| got.binary_search(k).is_ok());
                    let mut deduped = got.clone();
                    deduped.dedup();
                    required && got.iter().all(within) && deduped.len() == got.len()
                }
            };
            if !ok {
                eprintln!(
                    "perfbench: timed edge {i}, query {}: reported {} matches, reference {}",
                    r.id,
                    got.len(),
                    want.len()
                );
            }
            verdict.checked += 1;
            verdict.ok += ok as u64;
        }
    }
    // Matches reported for a sampled edge by a query that was not live.
    for ((i, q), got) in reported {
        eprintln!(
            "perfbench: timed edge {i}: {} matches of query {q} outside its registration",
            got.len()
        );
        verdict.checked += 1;
    }
    verdict
}
