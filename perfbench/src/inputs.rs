//! Seeded workload generation: the edges and queries the program receives.
//!
//! Every workload generates one stream: a *history* prefix the selectivity
//! statistics are bootstrapped from (never fed to the program), then
//! [`REPS`] consecutive timed *segments*. Repetition `r` warms a fresh
//! program up on the `warmup_len` edges just before segment `r` (they fill
//! the largest retention window) and times segment `r`, so one run measures
//! five segments of the workload's traffic rather than one five times. The
//! same seed always yields the same inputs; generation is excluded from
//! every reported time.

use sp_bench::experiments::netflow_rule_pack;
use sp_bench::runner::query_expected_selectivity;
use sp_datasets::{
    wide_soc_rules, Dataset, LsbenchConfig, NetflowConfig, QueryGenerator, QueryKind,
};
use sp_graph::{EdgeEvent, Schema};
use sp_query::QueryGraph;
use streampattern::{Strategy, StrategySpec};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Netflow stream against the 12-rule SOC pack plus two wide rules,
    /// sequential processor, moderate window.
    SocRulepack,
    /// LSBench social stream, generated path/tree queries under `Auto`,
    /// live statistics and registration churn, sequential processor.
    SocialChurn,
    /// The 12-rule SOC pack over a wide window through the parallel runtime
    /// with one worker: a match storm.
    NetflowStorm,
}

impl Workload {
    /// Every workload, in the order the spread report runs them.
    pub const ALL: [Workload; 3] = [
        Workload::SocRulepack,
        Workload::SocialChurn,
        Workload::NetflowStorm,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SocRulepack => "soc-rulepack",
            Workload::SocialChurn => "social-churn",
            Workload::NetflowStorm => "netflow-storm",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Timed edges per second this workload sustains on a 2-vCPU x86-64
    /// host. It sizes the timed part so that all repetitions of a run
    /// together take about `--seconds`; the edge count, not the clock, ends
    /// a repetition, so every count repeats exactly for a given seed.
    fn nominal_eps(self) -> f64 {
        match self {
            Workload::SocRulepack => 40_000.0,
            Workload::SocialChurn => 150_000.0,
            Workload::NetflowStorm => 25_000.0,
        }
    }
}

/// How the program is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `StreamProcessor`, one `process_into` call per edge.
    Sequential,
    /// `ParallelStreamProcessor` with this many workers, one
    /// `process_all_into` call per slice of edges.
    Runtime { workers: usize },
}

/// One registration: the query, its strategy and its window.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    pub query: QueryGraph,
    pub spec: StrategySpec,
    pub window: Option<u64>,
}

/// Registration churn during the timed part: before timed edge `k * every`
/// (k ≥ 1) the query in churn slot `(k - 1) % slots` is deregistered and
/// `pool[(k - 1) % pool.len()]` is registered in its place. The churn slots
/// are the last `slots` initial queries.
#[derive(Debug, Clone)]
pub struct Churn {
    pub every: usize,
    pub slots: usize,
    pub pool: Vec<QuerySpec>,
}

/// Everything one run hands to the program.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub schema: Schema,
    pub history: Vec<EdgeEvent>,
    /// Everything after the history: the first warm-up, then the segments.
    stream: Vec<EdgeEvent>,
    warmup_len: usize,
    timed_len: usize,
    pub initial: Vec<QuerySpec>,
    pub churn: Option<Churn>,
    pub statistics: bool,
    pub engine: Engine,
}

/// Repetitions (and timed segments) in one run; metrics are medians over
/// them.
pub const REPS: usize = 5;

impl Inputs {
    /// Generates the inputs of `workload` for `seed`, sized for a run of
    /// `seconds`.
    pub fn generate(workload: Workload, seed: u64, seconds: u64) -> Self {
        let timed = (workload.nominal_eps() * seconds as f64 / REPS as f64).max(1_000.0) as usize;
        let seed = mix(seed, workload as u64);
        match workload {
            Workload::SocRulepack => netflow(seed, timed, 1_000, true, Engine::Sequential),
            // Without the wide rules: their deep partial-match state made the
            // storm's cost per segment heavy-tailed (±15% between segments
            // of one seed) while adding under 2% of its matches.
            Workload::NetflowStorm => {
                netflow(seed, timed, 4_000, false, Engine::Runtime { workers: 1 })
            }
            Workload::SocialChurn => social(seed, timed),
        }
    }

    /// The warm-up edges of segment `segment`.
    pub fn warmup(&self, segment: usize) -> &[EdgeEvent] {
        let start = segment * self.timed_len;
        &self.stream[start..start + self.warmup_len]
    }

    /// The timed edges of segment `segment`.
    pub fn timed(&self, segment: usize) -> &[EdgeEvent] {
        let start = segment * self.timed_len + self.warmup_len;
        &self.stream[start..start + self.timed_len]
    }

    /// The largest window any registration of the run uses (`None` when
    /// some query is unbounded).
    pub fn max_window(&self) -> Option<u64> {
        let churned = self.churn.iter().flat_map(|c| c.pool.iter());
        let mut max = Some(0);
        for q in self.initial.iter().chain(churned) {
            max = match (max, q.window) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            };
        }
        max
    }

    /// A hash of every edge and query handed to the program, so two seeds
    /// can be shown to produce different inputs.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0x9e37_79b9_7f4a_7c15u64;
        let events = self.history.iter().chain(&self.stream);
        for e in events {
            for v in [e.src, e.dst, e.edge_type.0 as u64, e.timestamp.0] {
                h = mix(h, v);
            }
        }
        let churned = self.churn.iter().flat_map(|c| c.pool.iter());
        for q in self.initial.iter().chain(churned) {
            for id in q.query.edge_ids() {
                let e = q.query.edge(id);
                h = mix(h, ((e.src.0 as u64) << 32) | e.dst.0 as u64);
                h = mix(h, e.edge_type.0 as u64);
            }
        }
        h
    }
}

/// SplitMix64 finalizer over `a ^ b`: derives per-workload generator seeds
/// and folds the input fingerprint.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = (a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// History prefix length the statistics are bootstrapped from.
const NETFLOW_HISTORY: usize = 20_000;

fn netflow(seed: u64, timed: usize, window: u64, wide: bool, engine: Engine) -> Inputs {
    // The warm-up spans two windows, so the set-up ends with a full
    // retention window and the partial-match stores at their steady size.
    let warmup = 2 * window as usize;
    let dataset = NetflowConfig {
        num_hosts: 10_000,
        // The generator drops self-loops (about 1% of draws); the surplus
        // keeps the timed part at its full length.
        num_edges: (NETFLOW_HISTORY + warmup + REPS * timed) * 102 / 100,
        popularity_exponent: 0.9,
        seed,
    }
    .generate();
    let mut pack = netflow_rule_pack(&dataset.schema, 12);
    if wide {
        pack.extend(wide_soc_rules(&dataset.schema, 2));
    }
    let initial = pack
        .into_iter()
        .map(|query| QuerySpec {
            query,
            spec: StrategySpec::Fixed(Strategy::SingleLazy),
            window: Some(window),
        })
        .collect();
    let (schema, history, stream) = split(dataset, NETFLOW_HISTORY, warmup + REPS * timed);
    Inputs {
        schema,
        history,
        stream,
        warmup_len: warmup,
        timed_len: timed,
        initial,
        churn: None,
        // Live statistics on the sequential pack, off in the storm.
        statistics: engine == Engine::Sequential,
        engine,
    }
}

/// LSBench parameters of the social workload.
const SOCIAL_HISTORY: usize = 60_000;
const SOCIAL_WINDOW: u64 = 10_000;
const SOCIAL_QUERIES: usize = 24;
const SOCIAL_CHURN_SLOTS: usize = 4;
const SOCIAL_CHURN_EVERY: usize = 5_000;
const SOCIAL_CATALOG_SEED: u64 = 0x50c1a1;

fn social(seed: u64, timed: usize) -> Inputs {
    let warmup = 2 * SOCIAL_WINDOW as usize;
    let dataset = LsbenchConfig {
        // With 8,000 persons the entities one run sees stay clear of a
        // capacity doubling in the statistics' per-vertex table; at 10,000
        // some seeds crossed it and peak memory moved 40% between seeds.
        num_persons: 8_000,
        // Like netflow, the generator drops a few draws; keep a surplus.
        num_edges: (SOCIAL_HISTORY + warmup + REPS * timed) * 102 / 100,
        // The static phase (profiles, memberships) lies inside the history,
        // so the program streams the activity phase the statistics describe.
        static_fraction: 0.3 * SOCIAL_HISTORY as f64
            / (SOCIAL_HISTORY + warmup + REPS * timed) as f64,
        popularity_exponent: 0.8,
        seed,
    }
    .generate();
    let estimator = Dataset::estimator_from_events(
        &dataset.events[..SOCIAL_HISTORY],
        sp_selectivity::StatsMode::Cumulative,
    );
    // A fixed catalog of generated candidates, like the fixed rule pack of
    // the netflow workloads; the seed's own history decides which survive
    // the unseen-wedge filter and their selectivity order.
    let mut generator = QueryGenerator::new(
        dataset.schema.clone(),
        dataset.valid_triples.clone(),
        SOCIAL_CATALOG_SEED,
    );
    let mut pool = Vec::new();
    // Prefix-statistics filtering keeps about 1 candidate in 24; draw until
    // the pool is full (bounded, so a degenerate seed cannot spin).
    for _ in 0..200 {
        if pool.len() >= 4 * SOCIAL_QUERIES {
            break;
        }
        pool.extend(generator.generate_valid_batch(QueryKind::Path { length: 2 }, 24, &estimator));
        pool.extend(generator.generate_valid_batch(QueryKind::Path { length: 3 }, 24, &estimator));
        pool.extend(generator.generate_valid_batch(
            QueryKind::NaryTree { vertices: 4 },
            24,
            &estimator,
        ));
    }
    // Most selective first: the rarest queries are registered up front and
    // churn registers the next ones in order, keeping matches per edge well
    // below 1 (the least selective flood the window with matches).
    pool.sort_by(|a, b| {
        query_expected_selectivity(a, &estimator)
            .partial_cmp(&query_expected_selectivity(b, &estimator))
            .expect("selectivities are finite")
    });
    let spec = |query| QuerySpec {
        query,
        spec: StrategySpec::Auto,
        window: Some(SOCIAL_WINDOW),
    };
    let mut pool: Vec<QuerySpec> = pool.into_iter().map(spec).collect();
    let churn_pool = pool.split_off(SOCIAL_QUERIES.min(pool.len()));
    let (schema, history, stream) = split(dataset, SOCIAL_HISTORY, warmup + REPS * timed);
    Inputs {
        schema,
        history,
        stream,
        warmup_len: warmup,
        timed_len: timed,
        initial: pool,
        churn: Some(Churn {
            every: SOCIAL_CHURN_EVERY,
            slots: SOCIAL_CHURN_SLOTS,
            pool: churn_pool,
        }),
        statistics: true,
        engine: Engine::Sequential,
    }
}

/// Splits a dataset into its schema, the history prefix and the `rest`
/// edges after it.
fn split(
    dataset: Dataset,
    history: usize,
    rest: usize,
) -> (Schema, Vec<EdgeEvent>, Vec<EdgeEvent>) {
    let mut events = dataset.events;
    assert!(
        events.len() >= history + rest,
        "generator produced {} edges, {} needed",
        events.len(),
        history + rest
    );
    events.truncate(history + rest);
    let stream = events.split_off(history);
    (dataset.schema, events, stream)
}
