//! The traced run's per-layer metrics: timers around public calls, the
//! program's own telemetry as timed-section deltas, exact counts, and
//! layer-isolated replays of the workload's inputs.

use crate::inputs::{Engine, Inputs, QuerySpec};
use crate::measure::{median, Rep, TraceRep};
use crate::verify::ingest;
use sp_graph::{monotonic_nanos, DynamicGraph, EdgeData, EdgeId, VertexId};
use sp_iso::{find_matches_containing_edge_into, SearchScratch};
use sp_query::{canonicalize_subgraph, LeafSignature};
use sp_selectivity::{SelectivityEstimator, StatsMode};
use sp_sjtree::{decompose, PrimitivePolicy};
use std::collections::BTreeSet;
use streampattern::{choose_strategy, Strategy, StrategySpec, RELATIVE_SELECTIVITY_THRESHOLD};

/// One per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Computes every per-layer metric. `plain` and `traced` are untraced and
/// traced repetitions of segment 0, `sequential` (runtime workloads only) a
/// plain repetition of the same job through `StreamProcessor`, and
/// `latency_matches` the matches the plain latency percentiles were drawn
/// from.
pub fn per_layer(
    inputs: &Inputs,
    plain: &[Rep],
    traced: &[Rep],
    sequential: Option<&Rep>,
    latency_matches: u64,
) -> Vec<Metric> {
    let edges = inputs.timed(0).len() as f64;
    // Time metrics come from the traced repetition with the median wall
    // time; counts are identical in every repetition.
    let mut order: Vec<&Rep> = traced.iter().collect();
    order.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    let rep = order[order.len() / 2];
    let t: &TraceRep = &rep.trace;
    let (b, a) = (&t.before.profile, &t.after.profile);
    let d = |f: fn(&streampattern::ProfileCounters) -> u64| (f(a) - f(b)) as f64;
    let searches = d(|p| p.iso_searches);
    let shared = d(|p| p.leaf_searches_shared);
    let skipped = d(|p| p.searches_skipped);
    let iso_ns = a.iso_time.as_nanos() as f64 - b.iso_time.as_nanos() as f64;
    let update_ns = a.update_time.as_nanos() as f64 - b.update_time.as_nanos() as f64;
    let matches = rep.det.matches as f64;
    let stage = |i: usize| t.stage_ns[i] as f64;
    let stage_sum: f64 = t.stage_ns.iter().sum::<u64>() as f64;
    let runtime = matches!(inputs.engine, Engine::Runtime { .. });
    let wall_ns = rep.raw_wall_s * 1e9;

    let eps = |reps: &[Rep]| median(reps.iter().map(|r| edges / r.wall_s).collect());
    let overhead = 1.0 - eps(traced) / eps(plain);
    let hop = sequential.map_or(0.0, |s| {
        median(plain.iter().map(|r| r.wall_s).collect()) / s.wall_s - 1.0
    });
    let live_vertices = t
        .after
        .live_vertices
        .or_else(|| sequential.and_then(|s| s.trace.after.live_vertices))
        .unwrap_or(0);
    let replay = replays(inputs);

    let mut out: Vec<Metric> = vec![
        (
            "core.register_us",
            ratio(t.register_ns as f64, t.registers as f64) * 1e-3,
            "us",
        ),
        (
            "core.deregister_us",
            ratio(t.deregister_ns as f64, t.deregisters as f64) * 1e-3,
            "us",
        ),
        (
            "core.process_ns_per_edge",
            if runtime {
                0.0
            } else {
                t.inside_ns as f64 / edges
            },
            "ns",
        ),
        (
            "sp-runtime.process_all_ns_per_edge",
            if runtime {
                t.inside_ns as f64 / edges
            } else {
                0.0
            },
            "ns",
        ),
        (
            "bench.sink_ns_per_match",
            ratio(t.sink_ns as f64, matches),
            "ns",
        ),
        ("sp-graph.ingest_ns_per_edge", stage(0) / edges, "ns"),
        ("core.dispatch_ns_per_edge", stage(1) / edges, "ns"),
        ("core.shared_join_ns_per_edge", stage(2) / edges, "ns"),
        ("core.shared_leaf_ns_per_edge", stage(3) / edges, "ns"),
        ("core.private_engine_ns_per_edge", stage(4) / edges, "ns"),
        ("core.emit_ns_per_match", ratio(stage(5), matches), "ns"),
        ("sp-sjtree.purge_ns_per_edge", stage(6) / edges, "ns"),
        (
            "sp-runtime.batch_sojourn_p50_us",
            t.sojourn_p50_ns as f64 * 1e-3,
            "us",
        ),
        ("sp-iso.searches_per_edge", searches / edges, "count"),
        (
            "sp-iso.matches_per_search",
            ratio(d(|p| p.leaf_matches), searches),
            "count",
        ),
        (
            "sp-iso.ns_per_search",
            ratio(iso_ns, searches - shared),
            "ns",
        ),
        (
            "sp-iso.retroactive_per_edge",
            d(|p| p.retroactive_searches) / edges,
            "count",
        ),
        (
            "core.lazy_skip_frac",
            ratio(skipped, skipped + searches),
            "frac",
        ),
        (
            "core.shared_leaf_elim_frac",
            ratio(shared, searches),
            "frac",
        ),
        (
            "core.join_stages_shared_per_edge",
            d(|p| p.join_stages_shared) / edges,
            "count",
        ),
        (
            "core.trie_parent_feeds",
            (t.after.parent_feeds - t.before.parent_feeds) as f64,
            "count",
        ),
        ("sp-sjtree.update_ns_per_edge", update_ns / edges, "ns"),
        ("sp-sjtree.stored_rows", rep.det.stored_rows as f64, "count"),
        (
            "sp-sjtree.peak_partials",
            a.peak_partial_matches as f64,
            "count",
        ),
        (
            "sp-sjtree.purged_per_edge",
            d(|p| p.partial_matches_purged) / edges,
            "count",
        ),
        ("core.matches_per_edge", matches / edges, "count"),
        (
            "core.queries_registered",
            rep.det.queries_registered as f64,
            "count",
        ),
        (
            "sp-selectivity.auto_pathlazy_frac",
            ratio(t.auto_pathlazy as f64, t.auto as f64),
            "frac",
        ),
        ("sp-graph.live_edges", t.after.live_edges as f64, "count"),
        ("sp-graph.live_vertices", live_vertices as f64, "count"),
        (
            "sp-graph.replay_ns_per_edge",
            replay.graph_ns_per_edge,
            "ns",
        ),
        (
            "sp-selectivity.observe_ns_per_edge",
            replay.observe_ns_per_edge,
            "ns",
        ),
        (
            "sp-iso.anchored_ns_per_search",
            replay.anchored_ns_per_search,
            "ns",
        ),
        (
            "sp-sjtree.decompose_us_per_query",
            replay.decompose_us_per_query,
            "us",
        ),
        ("sp-runtime.hop_overhead_frac", hop, "frac"),
        (
            "trace.coverage_frac",
            (stage_sum + t.timed_control_ns as f64) / wall_ns,
            "frac",
        ),
        ("trace.overhead_frac", overhead, "frac"),
        ("bench.latency_matches", latency_matches as f64, "count"),
        (
            "bench.raw_throughput_eps",
            median(plain.iter().map(|r| edges / r.raw_wall_s).collect()),
            "1/s",
        ),
        (
            "bench.host_scale",
            median(plain.iter().map(|r| r.wall_s / r.raw_wall_s).collect()),
            "frac",
        ),
    ];
    const SHARE_NAMES: [&str; 7] = [
        "stage.ingest_share",
        "stage.dispatch_share",
        "stage.shared_join_share",
        "stage.shared_leaf_share",
        "stage.private_engine_share",
        "stage.emit_share",
        "stage.purge_share",
    ];
    for (i, name) in SHARE_NAMES.into_iter().enumerate() {
        out.push((name, ratio(stage(i), stage_sum), "frac"));
    }
    out
}

/// Results of the layer-isolated replays.
struct Replays {
    graph_ns_per_edge: f64,
    observe_ns_per_edge: f64,
    anchored_ns_per_search: f64,
    decompose_us_per_query: f64,
}

/// Edges between window expiries, as in the program's purge cadence.
const EXPIRE_EVERY: usize = 4_096;

/// A graph holding the warm-up part, as the program holds it at the first
/// timed edge.
fn warm_graph(inputs: &Inputs) -> DynamicGraph {
    let mut graph = DynamicGraph::new(inputs.schema.clone());
    graph.set_window(inputs.max_window());
    for ev in inputs.warmup(0) {
        ingest(&mut graph, ev);
    }
    graph.expire();
    graph
}

/// The primitive policy a registration decomposes with.
fn policy(spec: &QuerySpec, estimator: &SelectivityEstimator) -> Option<PrimitivePolicy> {
    let strategy = match spec.spec {
        StrategySpec::Fixed(s) => s,
        StrategySpec::Auto => {
            choose_strategy(&spec.query, estimator, RELATIVE_SELECTIVITY_THRESHOLD)
                .ok()?
                .strategy
        }
    };
    match strategy {
        Strategy::Single | Strategy::SingleLazy => Some(PrimitivePolicy::SingleEdge),
        Strategy::Path | Strategy::PathLazy => Some(PrimitivePolicy::TwoEdgePath),
        Strategy::Vf2Baseline => None,
    }
}

fn replays(inputs: &Inputs) -> Replays {
    let timed = inputs.timed(0);
    let edges = timed.len() as f64;
    let base = inputs.warmup(0).len() as u64;

    // sp-graph: vertex/edge insertion plus periodic window expiry.
    let mut graph = warm_graph(inputs);
    let t0 = monotonic_nanos();
    for (i, ev) in timed.iter().enumerate() {
        ingest(&mut graph, ev);
        if (i + 1) % EXPIRE_EVERY == 0 {
            graph.expire();
        }
    }
    let graph_ns_per_edge = (monotonic_nanos() - t0) as f64 / edges;
    drop(graph);

    // sp-selectivity: live statistics over the timed edges.
    let mut estimator =
        sp_datasets::Dataset::estimator_from_events(&inputs.history, StatsMode::Cumulative);
    let data: Vec<EdgeData> = timed
        .iter()
        .enumerate()
        .map(|(i, ev)| EdgeData {
            id: EdgeId(base + i as u64),
            src: VertexId(ev.src),
            dst: VertexId(ev.dst),
            edge_type: ev.edge_type,
            timestamp: ev.timestamp,
        })
        .collect();
    let t0 = monotonic_nanos();
    for e in &data {
        estimator.observe_edge(e);
    }
    let observe_ns_per_edge = (monotonic_nanos() - t0) as f64 / edges;

    // sp-sjtree: decomposition of every initial query.
    let estimator =
        sp_datasets::Dataset::estimator_from_events(&inputs.history, StatsMode::Cumulative);
    let mut trees = Vec::new();
    let mut decompose_ns = 0u64;
    const DECOMPOSE_ROUNDS: u64 = 20;
    for spec in &inputs.initial {
        let Some(policy) = policy(spec, &estimator) else {
            continue;
        };
        let t0 = monotonic_nanos();
        for _ in 0..DECOMPOSE_ROUNDS {
            std::hint::black_box(decompose(&spec.query, policy, &estimator).ok());
        }
        decompose_ns += monotonic_nanos() - t0;
        if let Ok(tree) = decompose(&spec.query, policy, &estimator) {
            trees.push((spec.query.clone(), tree));
        }
    }
    let decompose_us_per_query = ratio(
        decompose_ns as f64,
        (trees.len() as u64 * DECOMPOSE_ROUNDS) as f64,
    ) * 1e-3;

    // sp-iso: one anchored search per distinct leaf shape whose edge types
    // include the arriving edge's.
    let mut shapes: BTreeSet<LeafSignature> = BTreeSet::new();
    for (query, tree) in &trees {
        for sub in tree.leaf_subgraphs() {
            if let Some((sig, _)) = canonicalize_subgraph(query, sub) {
                shapes.insert(sig);
            }
        }
    }
    let shapes: Vec<_> = shapes
        .into_iter()
        .map(|sig| {
            let types = sig.edge_types();
            let (q, sub) = sig.instantiate("leaf");
            (types, q, sub)
        })
        .collect();
    let mut graph = warm_graph(inputs);
    let mut scratch = SearchScratch::new();
    let mut found = Vec::new();
    let (mut searches, mut search_ns) = (0u64, 0u64);
    for (i, ev) in timed.iter().enumerate() {
        let id = ingest(&mut graph, ev);
        if (i + 1) % EXPIRE_EVERY == 0 {
            graph.expire();
        }
        let edge = *graph.edge(id).expect("edge was just inserted");
        let t0 = monotonic_nanos();
        for (types, q, sub) in &shapes {
            if types.contains(&edge.edge_type) {
                find_matches_containing_edge_into(&graph, q, sub, &edge, &mut scratch, &mut found);
                found.clear();
                searches += 1;
            }
        }
        search_ns += monotonic_nanos() - t0;
    }
    Replays {
        graph_ns_per_edge,
        observe_ns_per_edge,
        anchored_ns_per_search: ratio(search_ns as f64, searches as f64),
        decompose_us_per_query,
    }
}
