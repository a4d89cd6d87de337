//! Per-edge hot path: oracle equivalence and allocation regression.
//!
//! The pipeline threads warm [`sp_iso::SearchScratch`] buffers,
//! registry-owned search caches, recycled match-store buckets and interned
//! arena rows through every edge. None of that may change the reported
//! `(query, match)` multiset for any strategy or worker count, so each run
//! here is checked against the VF2 oracle of `common::oracle`, which shares
//! no code with the pipeline. The feature-gated tests at the bottom pin the
//! point of the exercise: the steady-state per-edge path stops allocating.

mod common;

use common::{multiset_of, oracle};
use sp_datasets::NetflowConfig;
use sp_query::QueryGraph;
use sp_runtime::{ParallelStreamProcessor, RuntimeConfig};
use std::sync::{Mutex, MutexGuard, PoisonError};
use streampattern::{
    FnSink, QueryId, Schema, Strategy, StrategySpec, StreamProcessor, SubgraphMatch,
};

/// The counting allocator's totals are process-wide, so a metered slice
/// would also count whatever another test of this binary allocates at the
/// same time. Every test here holds this lock for its whole run.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Worker counts under test: `RUNTIME_WORKERS` (e.g. `2` or `1,2,4`) or the
/// default sweep, mirroring `integration_parallel.rs`.
fn worker_counts() -> Vec<usize> {
    match std::env::var("RUNTIME_WORKERS") {
        Ok(v) => v
            .split(',')
            .map(|p| {
                p.trim()
                    .parse::<usize>()
                    .unwrap_or_else(|_| panic!("bad RUNTIME_WORKERS entry '{p}'"))
            })
            .collect(),
        Err(_) => vec![1, 2, 4],
    }
}

/// An overlapping netflow rule pack (identical chains, a proper-prefix
/// overlap, disjoint rules) so the reuse paths in all three pipeline stages
/// — shared join tables, the shared leaf cache and private engines — run
/// against warm buffers.
fn pack(schema: &Schema) -> Vec<(QueryGraph, Option<u64>)> {
    let chain = |name: &str, protos: &[&str]| {
        let mut q = QueryGraph::new(name);
        let mut prev = q.add_any_vertex();
        for p in protos {
            let next = q.add_any_vertex();
            q.add_edge(prev, next, schema.edge_type(p).unwrap());
            prev = next;
        }
        q
    };
    vec![
        (chain("exfil", &["TCP", "ESP"]), Some(5_000)),
        (chain("exfil-wide", &["TCP", "ESP"]), None),
        (chain("bounce", &["TCP", "ESP", "TCP"]), Some(5_000)),
        (chain("scan", &["ICMP", "TCP"]), Some(2_000)),
        (chain("relay", &["TCP", "TCP"]), Some(1_000)),
    ]
}

/// The oracle itself, on a stream small enough to enumerate by hand: the
/// chain `x -a-> y -b-> z` registered twice, with `tW = 5` and unwindowed.
#[test]
fn oracle_reports_a_hand_computed_chain() {
    let _serial = serial();
    let mut schema = Schema::new();
    let ip = schema.intern_vertex_type("ip");
    let a = schema.intern_edge_type("a");
    let b = schema.intern_edge_type("b");
    let mut chain = QueryGraph::new("a-then-b");
    let (x, y, z) = (
        chain.add_any_vertex(),
        chain.add_any_vertex(),
        chain.add_any_vertex(),
    );
    chain.add_edge(x, y, a);
    chain.add_edge(y, z, b);

    let mut oracle = oracle::Oracle::new(schema);
    assert_eq!(oracle.register(chain.clone(), Some(5)), 0);
    assert_eq!(oracle.register(chain, None), 1);
    // Edge ids are assigned in arrival order: e0..e6.
    let stream = [
        (1, 2, a, 1),  // e0
        (2, 3, b, 2),  // e1: e0+e1, span 1
        (2, 4, b, 3),  // e2: e0+e2, span 2
        (5, 2, a, 10), // e3: e3+e1 and e3+e2 span 8 and 7
        (3, 6, b, 20), // e4: vertex 3 has no incoming `a`
        (2, 7, b, 12), // e5: e3+e5 span 2, e0+e5 span 11
        (2, 2, a, 13), // e6: self-loop; x and y cannot both be vertex 2
    ];
    let mut got = Vec::new();
    for (src, dst, ty, ts) in stream {
        let ev = sp_graph::EdgeEvent::homogeneous(src, dst, ip, ty, sp_graph::Timestamp(ts));
        oracle.ingest(&ev, |slot, m| {
            got.push((slot, m.edge_pairs().map(|(_, e)| e.0).collect::<Vec<_>>()));
        });
    }
    got.sort();
    let expected: Vec<(usize, Vec<u64>)> = vec![
        (0, vec![0, 1]),
        (0, vec![0, 2]),
        (0, vec![3, 5]),
        (1, vec![0, 1]),
        (1, vec![0, 2]),
        (1, vec![0, 5]),
        (1, vec![3, 1]),
        (1, vec![3, 2]),
        (1, vec![3, 5]),
    ];
    assert_eq!(got, expected);
}

#[test]
fn every_strategy_matches_the_oracle() {
    let _serial = serial();
    let dataset = NetflowConfig {
        num_hosts: 300,
        num_edges: 2_500,
        ..NetflowConfig::tiny()
    }
    .generate();
    let schema = dataset.schema.clone();
    let estimator = dataset.estimator_from_prefix(dataset.len() / 4);
    let rules = pack(&schema);
    let expected = oracle::multiset(&schema, &rules, dataset.events());
    assert!(!expected.is_empty(), "workload found no matches");

    let specs: [StrategySpec; 5] = [
        Strategy::Single.into(),
        Strategy::SingleLazy.into(),
        Strategy::Path.into(),
        Strategy::PathLazy.into(),
        StrategySpec::Auto,
    ];
    for spec in specs {
        let mut proc = StreamProcessor::new(schema.clone())
            .with_estimator(estimator.clone())
            .with_statistics(false);
        let ids: Vec<QueryId> = rules
            .iter()
            .map(|(q, w)| proc.register(q.clone(), spec, *w).unwrap())
            .collect();
        let shared = multiset_of(|emit| {
            let mut sink = FnSink(|q: QueryId, m: SubgraphMatch| {
                emit(ids.iter().position(|&i| i == q).unwrap(), m);
            });
            for ev in dataset.events() {
                proc.process_into(ev, &mut sink);
            }
        });
        assert_eq!(
            shared, expected,
            "shared processor diverges from the oracle under {spec:?}"
        );

        // Pre-sharing architecture: one independent single-query processor
        // per rule, with both sharing stages disabled.
        let independent = multiset_of(|emit| {
            for (slot, (q, w)) in rules.iter().enumerate() {
                let mut proc = StreamProcessor::new(schema.clone())
                    .with_estimator(estimator.clone())
                    .with_statistics(false)
                    .with_sharing(false)
                    .with_join_sharing(false);
                proc.register(q.clone(), spec, *w).unwrap();
                let mut sink = FnSink(|_q: QueryId, m: SubgraphMatch| emit(slot, m));
                for ev in dataset.events() {
                    proc.process_into(ev, &mut sink);
                }
            }
        });
        assert_eq!(
            independent, expected,
            "independent processors diverge from the oracle under {spec:?}"
        );
    }
}

#[test]
fn parallel_runtime_matches_the_oracle_across_worker_counts() {
    let _serial = serial();
    let dataset = NetflowConfig {
        num_hosts: 300,
        num_edges: 2_500,
        ..NetflowConfig::tiny()
    }
    .generate();
    let schema = dataset.schema.clone();
    let estimator = dataset.estimator_from_prefix(dataset.len() / 4);
    let rules = pack(&schema);
    let expected = oracle::multiset(&schema, &rules, dataset.events());
    assert!(!expected.is_empty(), "workload found no matches");

    for workers in worker_counts() {
        let mut runtime = ParallelStreamProcessor::new(
            schema.clone(),
            RuntimeConfig::with_workers(workers).statistics(false),
        )
        .with_estimator(estimator.clone());
        let ids: Vec<QueryId> = rules
            .iter()
            .map(|(q, w)| {
                runtime
                    .register(q.clone(), Strategy::SingleLazy, *w)
                    .unwrap()
            })
            .collect();
        let got = multiset_of(|emit| {
            let mut sink = FnSink(|q: QueryId, m: SubgraphMatch| {
                emit(ids.iter().position(|&i| i == q).unwrap(), m);
            });
            runtime.process_all_into(dataset.events().iter(), &mut sink);
        });
        assert_eq!(got, expected, "{workers} workers diverge from the oracle");
    }
}

/// Steady-state allocation regression, only meaningful under the counting
/// global allocator (`--features count-allocs`). Two claims:
///
/// 1. **The per-edge machinery is allocation-free.** A cyber stream whose
///    steady-state slice is all gated-leaf traffic (esp edges in a region
///    no tcp partial ever touched, under Lazy Search) drives the full
///    dispatch path — ingest, candidate lookup, shared-leaf fan-out, lazy
///    gate — without materializing new matches or partials. After warmup
///    that slice must average (almost) zero allocations per edge; the
///    residue is amortized container growth, not per-edge churn.
/// 2. **Matches flow under a ceiling.** On a match-heavy netflow workload
///    (where per-match materialization is irreducible) the warm path stays
///    under a fixed allocs/edge ceiling.
#[cfg(feature = "count-allocs")]
mod alloc_regression {
    use super::*;
    use sp_graph::{EdgeEvent, Timestamp};

    fn cyber_schema() -> Schema {
        let mut schema = Schema::new();
        schema.intern_vertex_type("ip");
        schema.intern_edge_type("tcp");
        schema.intern_edge_type("esp");
        schema
    }

    /// Runs the gated-lazy stream below and returns the allocations per
    /// edge of its metered slice, with stream statistics on or off.
    fn gated_steady_state_allocs_per_edge(statistics: bool) -> f64 {
        let schema = cyber_schema();
        let ip = schema.vertex_type("ip").unwrap();
        let tcp = schema.edge_type("tcp").unwrap();
        let esp = schema.edge_type("esp").unwrap();

        // tcp -> esp chain under Lazy Search: the tcp leaf is primary, the
        // esp leaf is gated per vertex and only enabled where a tcp partial
        // lands. Region A (hosts 0..40) sees completions during warmup;
        // region B (hosts 100..140) sees esp traffic only, so its gate
        // never opens.
        let mut q = sp_query::QueryGraph::new("exfil");
        let a = q.add_any_vertex();
        let b = q.add_any_vertex();
        let c = q.add_any_vertex();
        q.add_edge(a, b, tcp);
        q.add_edge(b, c, esp);

        // A purge cadence well inside the window keeps the retained graph
        // (and thus every container's high-water mark) bounded, so warmup
        // actually reaches a steady state instead of growing forever.
        let mut proc = StreamProcessor::new(schema.clone())
            .with_statistics(statistics)
            .with_purge_interval(512);
        proc.register(q, Strategy::SingleLazy, Some(1_000)).unwrap();

        let warm = 8_000u64;
        let metered = 4_000u64;
        let mut sink = streampattern::CountSink::new();
        // `j` is the per-region sequence number (drives the host walk and
        // the tcp/esp mix), `i` the global one (drives the clock).
        let event = |i: u64, j: u64, region_b: bool| {
            let (base, span, t) = if region_b {
                (100, 40, esp)
            } else {
                (0, 40, if j.is_multiple_of(4) { tcp } else { esp })
            };
            let src = base + j % span;
            let dst = base + (j + 1) % span;
            EdgeEvent::homogeneous(src, dst, ip, t, Timestamp(i))
        };
        for i in 0..warm {
            proc.process_into(&event(i, i / 2, i % 2 == 0), &mut sink);
        }
        assert!(sink.matches > 0, "warmup produced no matches");
        let warm_matches = sink.matches;

        let (a0, b0) = sp_metrics::alloc_counts();
        for i in warm..warm + metered {
            proc.process_into(&event(i, warm / 2 + (i - warm), true), &mut sink);
        }
        let (a1, b1) = sp_metrics::alloc_counts();
        assert_eq!(sink.matches, warm_matches, "gated slice completed a match");
        let allocs_per_edge = (a1 - a0) as f64 / metered as f64;
        let bytes_per_edge = (b1 - b0) as f64 / metered as f64;
        println!(
            "gated steady state (statistics {statistics}): {allocs_per_edge:.4} allocs/edge, \
             {bytes_per_edge:.1} bytes/edge"
        );
        allocs_per_edge
    }

    #[test]
    fn gated_steady_state_is_allocation_free() {
        let _serial = serial();
        let allocs_per_edge = gated_steady_state_allocs_per_edge(false);
        assert!(
            allocs_per_edge < 0.1,
            "gated steady-state path allocates per edge: {allocs_per_edge:.4} allocs/edge"
        );
    }

    /// The same stream with the selectivity statistics maintained per edge:
    /// the 1-edge histogram and the 2-edge path census update in place, so
    /// edges between known vertices allocate nothing.
    #[test]
    fn gated_steady_state_with_statistics_is_allocation_free() {
        let _serial = serial();
        let allocs_per_edge = gated_steady_state_allocs_per_edge(true);
        assert!(
            allocs_per_edge < 0.1,
            "statistics path allocates per edge: {allocs_per_edge:.4} allocs/edge"
        );
    }

    /// The shared-join delivery path is allocation-light even when every
    /// edge cycle reports matches through the trie: prefix-root emissions
    /// ride the recycled feed-buffer pool, rebases stay inline
    /// (`MATCH_INLINE_BINDINGS`), and store buckets recycle through the
    /// purge — so a match-heavy nested-prefix stream settles near zero
    /// allocations per edge after warmup.
    #[test]
    fn shared_join_match_delivery_is_allocation_light() {
        let _serial = serial();
        let schema = cyber_schema();
        let ip = schema.vertex_type("ip").unwrap();
        let tcp = schema.edge_type("tcp").unwrap();
        let esp = schema.edge_type("esp").unwrap();

        let chain = |name: &str, types: &[sp_graph::EdgeType]| {
            let mut q = sp_query::QueryGraph::new(name);
            let mut prev = q.add_any_vertex();
            for &t in types {
                let next = q.add_any_vertex();
                q.add_edge(prev, next, t);
                prev = next;
            }
            q
        };
        let mut proc = StreamProcessor::new(schema.clone())
            .with_statistics(false)
            .with_purge_interval(512);
        // Two [tcp,esp] subscribers on the parent node, two [tcp,esp,tcp]
        // subscribers on its trie child: every completed cycle reports four
        // matches, two of them through the parent-feed path.
        for name in ["exfil-a", "exfil-b"] {
            proc.register(chain(name, &[tcp, esp]), Strategy::SingleLazy, Some(300))
                .unwrap();
        }
        for name in ["bounce-a", "bounce-b"] {
            proc.register(
                chain(name, &[tcp, esp, tcp]),
                Strategy::SingleLazy,
                Some(300),
            )
            .unwrap();
        }
        assert_eq!(proc.shared_join_stats().tables, 2);
        assert_eq!(proc.shared_join_stats().max_depth, 3);

        // Disjoint 4-host chains from a rotating pool; the 300-tick window
        // expires a group's edges well before its hosts are reused (every
        // 384 ticks), so state and match fan-out stay bounded.
        let mut sink = streampattern::CountSink::new();
        let mut run = |cycles: std::ops::Range<u64>, sink: &mut streampattern::CountSink| {
            for c in cycles {
                let b = (c % 128) * 4;
                let t = 3 * c;
                proc.process_into(
                    &EdgeEvent::homogeneous(b, b + 1, ip, tcp, Timestamp(t)),
                    sink,
                );
                proc.process_into(
                    &EdgeEvent::homogeneous(b + 1, b + 2, ip, esp, Timestamp(t + 1)),
                    sink,
                );
                proc.process_into(
                    &EdgeEvent::homogeneous(b + 2, b + 3, ip, tcp, Timestamp(t + 2)),
                    sink,
                );
            }
        };
        run(0..3_000, &mut sink);
        let warm_matches = sink.matches;
        assert!(warm_matches > 0, "warmup produced no matches");

        let metered = 1_500u64;
        let (a0, _) = sp_metrics::alloc_counts();
        run(3_000..3_000 + metered, &mut sink);
        let (a1, _) = sp_metrics::alloc_counts();
        let delivered = sink.matches - warm_matches;
        assert_eq!(
            delivered,
            4 * metered,
            "each metered cycle must deliver all four subscribers' matches"
        );
        let allocs_per_edge = (a1 - a0) as f64 / (3 * metered) as f64;
        let allocs_per_match = (a1 - a0) as f64 / delivered as f64;
        println!(
            "shared-join match delivery: {allocs_per_edge:.4} allocs/edge, \
             {allocs_per_match:.4} allocs/match"
        );
        assert!(
            allocs_per_match < 0.5,
            "match delivery through the trie allocates: {allocs_per_match:.4} allocs/match"
        );
    }

    /// The interned-row contract on the spill regime: storing a partial
    /// match wider than `MATCH_INLINE_BINDINGS` must not touch the
    /// allocator in steady state. A 9-edge chain over nine distinct
    /// protocols (9 edge + 10 vertex bindings when full; every partial from
    /// depth 4 onward spills the inline capacity) is driven by a ring walk
    /// whose type sequence cycles `p0..p7, keepalive` — the ninth protocol
    /// `p8` never arrives, so the metered slice stores deep spilled
    /// partials without ever completing a match, isolating the storage
    /// path from copy-on-emit materialization. The ring keeps every vertex
    /// permanently live (no REMOVE-SUBGRAPH vertex eviction/re-creation
    /// noise) and the join keys recurrent, so arena rows, buckets and
    /// adjacency lists all recycle. The slice must average <0.1 allocations
    /// per stored match.
    #[test]
    fn interned_wide_pattern_storage_is_allocation_free_per_stored_match() {
        let _serial = serial();
        // Nine *distinct* protocols so each stream edge matches exactly one
        // leaf shape — the stored-match population is then dominated by the
        // deep (spilled) internal partials the test is about, not by
        // shallow leaf inserts.
        let mut schema = Schema::new();
        schema.intern_vertex_type("ip");
        let types: Vec<sp_graph::EdgeType> = (0..9)
            .map(|i| schema.intern_edge_type(&format!("p{i}")))
            .collect();
        let keepalive = schema.intern_edge_type("keepalive");
        let ip = schema.vertex_type("ip").unwrap();

        let mut wide = sp_query::QueryGraph::new("wide-lateral");
        let mut prev = wide.add_any_vertex();
        for &t in &types {
            let next = wide.add_any_vertex();
            wide.add_edge(prev, next, t);
            prev = next;
        }

        // 64-host ring, one edge per tick: host h is touched every 64 ticks,
        // well inside the 150-tick window, so no vertex ever drops to degree
        // zero. A (ring position, protocol) pair recurs every
        // lcm(64, 9) = 576 ticks — far outside the window — so each partial
        // chain has exactly one live extension and match multiplicity stays
        // bounded.
        const HOSTS: u64 = 64;
        let metered = || -> (f64, u64) {
            let mut proc = StreamProcessor::new(schema.clone())
                .with_statistics(false)
                .with_purge_interval(256);
            proc.register(wide.clone(), Strategy::Single, Some(150))
                .unwrap();
            let mut sink = streampattern::CountSink::new();
            let run = |proc: &mut StreamProcessor,
                       ticks: std::ops::Range<u64>,
                       sink: &mut streampattern::CountSink| {
                for t in ticks {
                    let ty = match (t % 9) as usize {
                        8 => keepalive, // the chain's ninth edge never arrives
                        k => types[k],
                    };
                    proc.process_into(
                        &EdgeEvent::homogeneous(t % HOSTS, (t + 1) % HOSTS, ip, ty, Timestamp(t)),
                        sink,
                    );
                }
            };
            run(&mut proc, 0..16_000, &mut sink);
            let s0 = proc.stored_matches();
            let (a0, _) = sp_metrics::alloc_counts();
            run(&mut proc, 16_000..24_000, &mut sink);
            let (a1, _) = sp_metrics::alloc_counts();
            let s1 = proc.stored_matches();
            assert_eq!(
                sink.matches, 0,
                "the p0..p7 runs must never complete the 9-edge chain"
            );
            let stored = s1 - s0;
            assert!(stored > 0, "metered slice stored no partial matches");
            ((a1 - a0) as f64 / stored as f64, stored)
        };

        let (per_stored, stored) = metered();
        println!("wide-pattern steady state ({stored} partials stored): {per_stored:.4} allocs/stored match");
        assert!(
            per_stored < 0.1,
            "wide-row storage allocates in steady state: {per_stored:.4} allocs/stored match"
        );
    }

    /// Allocation ceiling of the match-heavy stream below, in allocs/edge:
    /// the path measured 2.92, and releasing every scratch buffer after
    /// each edge measured 17.1 on the same stream, so the ceiling catches
    /// a lost buffer well before that.
    const MATCH_HEAVY_ALLOCS_PER_EDGE: f64 = 4.0;

    #[test]
    fn match_heavy_stream_stays_under_its_allocation_ceiling() {
        let _serial = serial();
        let dataset = NetflowConfig {
            num_hosts: 300,
            num_edges: 6_000,
            ..NetflowConfig::tiny()
        }
        .generate();
        let schema = dataset.schema.clone();
        let estimator = dataset.estimator_from_prefix(dataset.len() / 4);
        let mut proc = StreamProcessor::new(schema.clone())
            .with_estimator(estimator)
            .with_statistics(false);
        for (q, w) in pack(&schema) {
            proc.register(q, Strategy::SingleLazy, w).unwrap();
        }
        let events = dataset.events();
        let warm = events.len() / 2;
        let mut sink = streampattern::CountSink::new();
        for ev in &events[..warm] {
            proc.process_into(ev, &mut sink);
        }
        let (a0, _) = sp_metrics::alloc_counts();
        for ev in &events[warm..] {
            proc.process_into(ev, &mut sink);
        }
        let (a1, _) = sp_metrics::alloc_counts();
        assert!(sink.matches > 0, "workload found no matches");
        let allocs_per_edge = (a1 - a0) as f64 / (events.len() - warm) as f64;
        println!("match-heavy stream: {allocs_per_edge:.3} allocs/edge");
        assert!(
            allocs_per_edge < MATCH_HEAVY_ALLOCS_PER_EDGE,
            "match-heavy steady state allocates {allocs_per_edge:.3} allocs/edge \
             (ceiling {MATCH_HEAVY_ALLOCS_PER_EDGE})"
        );
    }
}
