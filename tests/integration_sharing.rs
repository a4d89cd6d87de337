//! Shared-leaf evaluation: equivalence and lifecycle.
//!
//! The refactor's contract is that sharing is *semantics-preserving*: for
//! any strategy, window mix and worker count, the reported `(query, match)`
//! multiset is identical with sharing enabled, with sharing disabled, and
//! against the pre-sharing architecture of one independent single-query
//! processor per pattern — and equal to the VF2 oracle of `common::oracle`,
//! which shares no code with the engine. The lifecycle tests cover
//! mid-stream subscription churn: a late subscriber to an existing leaf
//! shape must not see pre-registration matches, and the last unsubscriber
//! drops the shared entry.

mod common;

use common::{multiset_of, oracle};
use sp_datasets::NetflowConfig;
use sp_graph::{EdgeEvent, Timestamp};
use sp_query::QueryGraph;
use sp_runtime::{ParallelStreamProcessor, RuntimeConfig};
use streampattern::{
    FnSink, QueryId, Schema, Strategy, StrategySpec, StreamProcessor, SubgraphMatch,
};

/// An overlapping netflow rule pack (shared TCP / ICMP / ESP leaves) with a
/// mix of per-query windows.
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
        (chain("scan", &["ICMP", "TCP"]), Some(2_000)),
        (chain("exfil", &["TCP", "ESP"]), Some(5_000)),
        (chain("exfil-wide", &["TCP", "ESP"]), None),
        (chain("relay", &["TCP", "TCP"]), Some(1_000)),
        (chain("bounce", &["TCP", "ESP", "TCP"]), Some(5_000)),
    ]
}

#[test]
fn sharing_is_semantics_preserving_across_strategies_and_windows() {
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

    let specs: [StrategySpec; 5] = [
        Strategy::Single.into(),
        Strategy::SingleLazy.into(),
        Strategy::Path.into(),
        Strategy::PathLazy.into(),
        StrategySpec::Auto,
    ];
    for spec in specs {
        let run_shared_graph = |sharing: bool| {
            let mut proc = StreamProcessor::new(schema.clone())
                .with_estimator(estimator.clone())
                .with_statistics(false)
                .with_sharing(sharing);
            let ids: Vec<QueryId> = rules
                .iter()
                .map(|(q, w)| proc.register(q.clone(), spec, *w).unwrap())
                .collect();
            let stats = proc.shared_leaf_stats();
            let multiset = multiset_of(|emit| {
                let mut sink = FnSink(|q: QueryId, m: SubgraphMatch| {
                    let slot = ids.iter().position(|&i| i == q).unwrap();
                    emit(slot, m);
                });
                for ev in dataset.events() {
                    proc.process_into(ev, &mut sink);
                }
            });
            (multiset, stats, proc.shared_leaf_stats())
        };
        let (with_sharing, before, after) = run_shared_graph(true);
        let (without_sharing, _, _) = run_shared_graph(false);
        assert_eq!(
            with_sharing, without_sharing,
            "sharing on/off multisets diverge under {spec:?}"
        );
        assert!(!with_sharing.is_empty(), "workload found no matches");
        assert_eq!(
            with_sharing, expected,
            "shared execution diverges from the oracle under {spec:?}"
        );
        // The pack genuinely shares: fewer shapes than subscriptions, and the
        // run eliminated searches (counted only while sharing was on).
        assert!(before.distinct_leaves < before.total_subscriptions);
        assert!(
            after.searches_shared > 0,
            "no searches eliminated under {spec:?}"
        );

        // PR-1 architecture: one independent single-query processor per
        // rule, no shared graph, no shared leaves.
        let independent = multiset_of(|emit| {
            for (slot, (q, w)) in rules.iter().enumerate() {
                let mut proc = StreamProcessor::new(schema.clone())
                    .with_estimator(estimator.clone())
                    .with_statistics(false)
                    .with_sharing(false);
                proc.register(q.clone(), spec, *w).unwrap();
                let mut sink = FnSink(|_q: QueryId, m: SubgraphMatch| emit(slot, m));
                for ev in dataset.events() {
                    proc.process_into(ev, &mut sink);
                }
            }
        });
        assert_eq!(
            with_sharing, independent,
            "shared execution diverges from independent processors under {spec:?}"
        );
    }
}

#[test]
fn sharing_matches_parallel_runtime_across_worker_counts() {
    let dataset = NetflowConfig {
        num_hosts: 300,
        num_edges: 2_500,
        ..NetflowConfig::tiny()
    }
    .generate();
    let schema = dataset.schema.clone();
    let estimator = dataset.estimator_from_prefix(dataset.len() / 4);
    let rules = pack(&schema);

    // Sequential reference with sharing enabled.
    let mut seq = StreamProcessor::new(schema.clone())
        .with_estimator(estimator.clone())
        .with_statistics(false);
    let seq_ids: Vec<QueryId> = rules
        .iter()
        .map(|(q, w)| seq.register(q.clone(), Strategy::SingleLazy, *w).unwrap())
        .collect();
    let expected = multiset_of(|emit| {
        let mut sink = FnSink(|q: QueryId, m: SubgraphMatch| {
            emit(seq_ids.iter().position(|&i| i == q).unwrap(), m);
        });
        for ev in dataset.events() {
            seq.process_into(ev, &mut sink);
        }
    });
    assert!(seq.shared_leaf_stats().searches_shared > 0);
    assert_eq!(
        expected,
        oracle::multiset(&schema, &rules, dataset.events()),
        "sequential reference diverges from the oracle"
    );

    // Each worker's registry shares leaves among the queries on its shard;
    // the multiset must match the sequential run for every worker count.
    for workers in [1usize, 2, 4] {
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
        assert_eq!(got, expected, "multiset diverged at {workers} workers");
    }
}

#[test]
fn late_subscriber_to_an_existing_leaf_sees_only_post_registration_matches() {
    let mut schema = Schema::new();
    let ip = schema.intern_vertex_type("ip");
    let tcp = schema.intern_edge_type("tcp");
    let esp = schema.intern_edge_type("esp");
    let two_hop = |name: &str| {
        let mut q = QueryGraph::new(name);
        let a = q.add_any_vertex();
        let b = q.add_any_vertex();
        let c = q.add_any_vertex();
        q.add_edge(a, b, tcp);
        q.add_edge(b, c, esp);
        q
    };
    // A deterministic stream with a tcp→esp completion in each half.
    let events: Vec<EdgeEvent> = (0..40u64)
        .map(|i| {
            let t = if i % 4 == 3 { esp } else { tcp };
            EdgeEvent::homogeneous(i, i + 1, ip, t, Timestamp(i))
        })
        .collect();
    let half = events.len() / 2;

    let mut proc = StreamProcessor::new(schema.clone());
    let early = proc
        .register(two_hop("early"), Strategy::SingleLazy, None)
        .unwrap();
    let mut early_first_half = 0u64;
    for ev in &events[..half] {
        early_first_half += proc.process(ev).iter().filter(|(q, _)| *q == early).count() as u64;
    }
    assert!(early_first_half > 0, "first half produced no matches");

    // The late query subscribes to the *same* leaf shapes: the index gains
    // subscriptions but no new distinct shapes.
    let before = proc.shared_leaf_stats();
    let late = proc
        .register(two_hop("late"), Strategy::SingleLazy, None)
        .unwrap();
    let after = proc.shared_leaf_stats();
    assert_eq!(after.distinct_leaves, before.distinct_leaves);
    assert_eq!(
        after.total_subscriptions,
        before.total_subscriptions + 2,
        "the late query must join the existing shapes"
    );

    let mut early_second_half = 0u64;
    let mut late_second_half = 0u64;
    for ev in &events[half..] {
        for (q, _) in proc.process(ev) {
            if q == late {
                late_second_half += 1;
            } else {
                early_second_half += 1;
            }
        }
    }
    // Reference: a fresh processor that sees only the second half. The late
    // subscriber must report exactly these matches — nothing inherited from
    // the shared shapes' earlier activity.
    let mut fresh = StreamProcessor::new(schema.clone());
    let fresh_id = fresh
        .register(two_hop("fresh"), Strategy::SingleLazy, None)
        .unwrap();
    let mut fresh_matches = 0u64;
    for ev in &events[half..] {
        fresh_matches += fresh
            .process(ev)
            .iter()
            .filter(|(q, _)| *q == fresh_id)
            .count() as u64;
    }
    assert_eq!(
        late_second_half, fresh_matches,
        "late subscriber saw pre-registration history"
    );
    // The early query keeps joining across the registration boundary, so it
    // sees at least as much as the late one.
    assert!(early_second_half >= late_second_half);

    // Unsubscription: the shapes survive while any subscriber remains and
    // drop with the last one.
    proc.deregister(early).unwrap();
    let stats = proc.shared_leaf_stats();
    assert_eq!(
        stats.distinct_leaves, 2,
        "late query still holds both shapes"
    );
    assert_eq!(stats.shared_queries, 1);
    proc.deregister(late).unwrap();
    let stats = proc.shared_leaf_stats();
    assert_eq!(
        stats.distinct_leaves, 0,
        "last unsubscriber must drop the entry"
    );
    assert_eq!(stats.total_subscriptions, 0);
    assert_eq!(stats.shared_queries, 0);
}
