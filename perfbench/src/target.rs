//! The program under test behind one interface: the sequential
//! `StreamProcessor` and the parallel runtime, both driven through their
//! public API only.

use crate::inputs::{Engine, Inputs, QuerySpec};
use sp_graph::{monotonic_nanos, EdgeEvent};
use sp_metrics::MetricsRegistry;
use sp_runtime::{ParallelStreamProcessor, RuntimeConfig};
use sp_selectivity::SelectivityEstimator;
use std::cell::Cell;
use streampattern::{
    CountSink, EngineError, MatchSink, PipelineMetrics, ProfileCounters, QueryId, Strategy,
    StreamProcessor,
};

/// Edges per `process_all_into` call: the runtime's closed-loop slice.
pub const SLICE: usize = 512;

/// Program state read at a timed-section boundary.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub profile: ProfileCounters,
    pub stored_rows: u64,
    pub parent_feeds: u64,
    pub live_edges: usize,
    /// `None` where the program does not expose it (runtime replicas).
    pub live_vertices: Option<usize>,
}

/// The program, driven closed loop. One value lives per repetition, so the
/// variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Target {
    Sequential(StreamProcessor),
    Runtime(ParallelStreamProcessor),
}

impl Target {
    /// Constructs the program for `inputs` with bootstrapped statistics.
    pub fn build(inputs: &Inputs, estimator: SelectivityEstimator) -> Self {
        match inputs.engine {
            Engine::Sequential => Target::Sequential(
                StreamProcessor::new(inputs.schema.clone())
                    .with_statistics(inputs.statistics)
                    .with_estimator(estimator),
            ),
            Engine::Runtime { workers } => Target::Runtime(
                ParallelStreamProcessor::new(
                    inputs.schema.clone(),
                    RuntimeConfig::with_workers(workers).statistics(inputs.statistics),
                )
                .with_estimator(estimator),
            ),
        }
    }

    pub fn register(&mut self, q: &QuerySpec) -> Result<QueryId, EngineError> {
        match self {
            Target::Sequential(p) => p.register(q.query.clone(), q.spec, q.window),
            Target::Runtime(p) => p.register(q.query.clone(), q.spec, q.window),
        }
    }

    /// Deregisters `id`, returning the engine's lifetime counters, which
    /// leave the program's totals with it.
    pub fn deregister(&mut self, id: QueryId) -> Option<ProfileCounters> {
        let engine = match self {
            Target::Sequential(p) => p.deregister(id),
            Target::Runtime(p) => p.deregister(id),
        }?;
        Some(engine.profile().clone())
    }

    /// Partial-match rows ever stored by the live engines and shared join
    /// tables (drains the runtime first). A deregistration can lower it: the
    /// engine's rows and those of shared tables it was the last user of
    /// leave the total.
    pub fn stored_rows(&mut self) -> u64 {
        match self {
            Target::Sequential(p) => p.stored_matches(),
            Target::Runtime(p) => p.stored_matches(),
        }
    }

    /// The strategy a registration resolved to, where the program exposes
    /// it (the sequential processor).
    pub fn strategy_of(&self, id: QueryId) -> Option<Strategy> {
        match self {
            Target::Sequential(p) => p.engine_for(id).map(|e| e.strategy()),
            Target::Runtime(_) => None,
        }
    }

    /// Hands `events` over closed loop, stamping `stamps[i]` with the
    /// instant edge `i` is handed over. Returns the nanoseconds spent inside
    /// the program's ingest calls when `timed` is set (0 otherwise).
    pub fn feed<S: MatchSink>(
        &mut self,
        events: &[EdgeEvent],
        stamps: &[Cell<u64>],
        sink: &mut S,
        timed: bool,
    ) -> u64 {
        debug_assert_eq!(events.len(), stamps.len());
        let mut inside = 0;
        match self {
            Target::Sequential(p) => {
                for (ev, stamp) in events.iter().zip(stamps) {
                    let t0 = monotonic_nanos();
                    stamp.set(t0);
                    p.process_into(ev, sink);
                    if timed {
                        inside += monotonic_nanos() - t0;
                    }
                }
            }
            Target::Runtime(p) => {
                for (slice, slice_stamps) in events.chunks(SLICE).zip(stamps.chunks(SLICE)) {
                    let t0 = monotonic_nanos();
                    let handed = slice.iter().zip(slice_stamps).map(|(ev, stamp)| {
                        stamp.set(monotonic_nanos());
                        ev
                    });
                    p.process_all_into(handed, sink);
                    if timed {
                        inside += monotonic_nanos() - t0;
                    }
                }
            }
        }
        inside
    }

    /// Feeds set-up edges (no stamps, counting sink).
    pub fn warm(&mut self, events: &[EdgeEvent]) {
        let mut sink = CountSink::new();
        match self {
            Target::Sequential(p) => {
                p.process_batch_into(events, &mut sink);
            }
            Target::Runtime(p) => {
                p.process_all_into(events, &mut sink);
            }
        }
    }

    /// Attaches telemetry from a fresh registry, so every series it holds
    /// covers only what happens after this call.
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        match self {
            Target::Sequential(p) => p.set_metrics(Some(PipelineMetrics::register(registry))),
            Target::Runtime(p) => p.enable_metrics(registry),
        }
    }

    /// Reads the program's cumulative counters (drains the runtime first).
    pub fn counters(&mut self) -> Counters {
        match self {
            Target::Sequential(p) => Counters {
                profile: p.profile(),
                stored_rows: p.stored_matches(),
                parent_feeds: p.shared_join_stats().parent_feeds,
                live_edges: p.graph().num_edges(),
                live_vertices: Some(p.graph().num_vertices()),
            },
            Target::Runtime(p) => {
                let reports = p.worker_reports();
                Counters {
                    profile: p.profile(),
                    stored_rows: reports.iter().map(|r| r.stored_matches).sum(),
                    parent_feeds: 0,
                    live_edges: reports
                        .iter()
                        .map(|r| r.graph_edges_live)
                        .max()
                        .unwrap_or(0),
                    live_vertices: None,
                }
            }
        }
    }

    /// Stops the program and waits for every thread it started.
    pub fn close(self) {
        if let Target::Runtime(p) = self {
            p.shutdown();
        }
    }
}
