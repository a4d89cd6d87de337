//! Support shared by the integration suites: the `(query slot, match)`
//! multiset every equivalence test compares, and the VF2 oracle that
//! computes the expected multiset independently of the engine.

// Each suite compiles this module on its own and uses only part of it.
#![allow(dead_code)]

pub mod oracle;

use streampattern::SubgraphMatch;

/// Sorted `(query slot, match fingerprint)` multiset of a full run. A
/// match's fingerprint is its `(query edge, data edge)` pairs in query-edge
/// order.
pub fn multiset_of<F>(mut process_all: F) -> Vec<(usize, String)>
where
    F: FnMut(&mut dyn FnMut(usize, SubgraphMatch)),
{
    let mut out = Vec::new();
    process_all(&mut |slot, m| {
        out.push((slot, format!("{:?}", m.edge_pairs().collect::<Vec<_>>())));
    });
    out.sort();
    out
}
