//! One repetition: set-up, the timed section, and what it measured. Times
//! are reported at the reference host speed (see `host`); the raw figures
//! are kept alongside.

use crate::host::{scale, Host};
use crate::inputs::{Engine, Inputs, QuerySpec};
use crate::target::{Counters, Target};
use sp_datasets::Dataset;
use sp_graph::monotonic_nanos;
use sp_iso::SubgraphMatch;
use sp_metrics::MetricsRegistry;
use sp_selectivity::StatsMode;
use std::cell::Cell;
use streampattern::{MatchSink, ProfileCounters, QueryId, Strategy, StrategySpec};

/// How a repetition is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Telemetry off: the end-to-end measurement.
    Plain,
    /// Telemetry on from the first timed edge, plus timers around every
    /// public call.
    Traced,
    /// Keeps the matches of sampled edges for the reference check.
    Verify,
}

/// Chunks per timed section; the host probe runs between chunks.
const CHUNKS: usize = 16;

/// Latency samples: a systematic sample of every match that keeps at most
/// the preallocated capacity, halving the sampling rate when full. Sample
/// `j` of the buffer is match number `j * stride`. Samples accumulate over
/// every repetition until cleared, so the percentiles cover all segments.
pub struct Samples {
    buf: Vec<u32>,
    stride: u64,
    seen: u64,
    /// (match count at the end of a chunk, the chunk's host-speed scale).
    chunks: Vec<(u64, f64)>,
}

impl Samples {
    /// Allocates and touches the buffer, so it is resident before the
    /// baseline memory reading.
    pub fn with_capacity(cap: usize) -> Self {
        let mut buf = vec![u32::MAX; cap];
        buf.clear();
        Self {
            buf,
            stride: 1,
            seen: 0,
            chunks: Vec::with_capacity(1024),
        }
    }

    pub fn clear(&mut self) {
        self.buf.clear();
        self.chunks.clear();
        self.stride = 1;
        self.seen = 0;
    }

    fn push(&mut self, ns: u64) {
        if self.seen.is_multiple_of(self.stride) {
            if self.buf.len() == self.buf.capacity() {
                let mut keep = 0;
                for i in (0..self.buf.len()).step_by(2) {
                    self.buf[keep] = self.buf[i];
                    keep += 1;
                }
                self.buf.truncate(keep);
                self.stride *= 2;
            }
            if self.seen.is_multiple_of(self.stride) {
                self.buf.push(ns.min(u32::MAX as u64) as u32);
            }
        }
        self.seen += 1;
    }

    /// Closes a chunk: the samples since the previous one get `scale`.
    fn end_chunk(&mut self, scale: f64) {
        self.chunks.push((self.seen, scale));
    }

    /// Matches sampled from.
    pub fn count(&self) -> u64 {
        self.seen
    }

    /// p50 and p99 in nanoseconds, at reference host speed when `scaled` is
    /// set and raw otherwise: the median over consecutive groups of chunks
    /// of each group's percentiles. A group closes once it holds
    /// `MIN_GROUP` samples, so its p99 has at least ten samples beyond it; a
    /// short remainder joins the last group.
    pub fn percentiles(&self, scaled: bool) -> (f64, f64) {
        const MIN_GROUP: usize = 1_000;
        let mut groups: Vec<Vec<f64>> = vec![Vec::new()];
        let mut j = 0;
        for &(end, scale) in &self.chunks {
            let scale = if scaled { scale } else { 1.0 };
            while j < self.buf.len() && (j as u64) * self.stride < end {
                groups
                    .last_mut()
                    .expect("one group")
                    .push(self.buf[j] as f64 * scale);
                j += 1;
            }
            if groups.last().expect("one group").len() >= MIN_GROUP {
                groups.push(Vec::new());
            }
        }
        let rest = groups.pop().expect("one group");
        match groups.last_mut() {
            Some(last) => last.extend(rest),
            None => groups.push(rest),
        }
        let mut p50 = Vec::with_capacity(groups.len());
        let mut p99 = Vec::with_capacity(groups.len());
        for mut g in groups.into_iter().filter(|g| !g.is_empty()) {
            g.sort_by(f64::total_cmp);
            let at = |q: f64| g[((q * g.len() as f64) as usize).min(g.len() - 1)];
            p50.push(at(0.50));
            p99.push(at(0.99));
        }
        if p50.is_empty() {
            return (0.0, 0.0);
        }
        (median(p50), median(p99))
    }
}

/// The benchmark's sink: records detection latency per match from the
/// instant the match's newest edge was handed over, and in verify mode keeps
/// the matches whose newest edge is sampled.
struct BenchSink<'a> {
    stamps: &'a [Cell<u64>],
    /// Program edge id of the first timed edge.
    base: u64,
    samples: &'a mut Samples,
    matches: u64,
    /// Matches whose newest edge had not been handed over yet.
    impossible: u64,
    /// Sink self time, measured only when tracing.
    traced: bool,
    self_ns: u64,
    sampled: Option<&'a [bool]>,
    kept: Vec<(usize, QueryId, SubgraphMatch)>,
}

impl MatchSink for BenchSink<'_> {
    fn on_match(&mut self, query: QueryId, m: SubgraphMatch) {
        let now = monotonic_nanos();
        self.matches += 1;
        let newest = m.edge_pairs().map(|(_, e)| e.0).max().unwrap_or(0);
        let idx = newest.wrapping_sub(self.base) as usize;
        match self.stamps.get(idx).map(Cell::get) {
            Some(handed) if handed != 0 => {
                self.samples.push(now.saturating_sub(handed));
                if let Some(sampled) = self.sampled {
                    if sampled[idx] {
                        self.kept.push((idx, query, m));
                    }
                }
            }
            _ => self.impossible += 1,
        }
        if self.traced {
            self.self_ns += monotonic_nanos() - now;
        }
    }
}

/// The counts that must repeat exactly for one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Determinism {
    pub matches: u64,
    pub queries_registered: u64,
    pub stored_rows: u64,
    pub searches: u64,
}

/// A registration as the program saw it: `from`/`until` are timed-edge
/// indices (`None` = before the timed part / still live at its end).
#[derive(Debug, Clone)]
pub struct Registration {
    pub id: QueryId,
    pub spec: QuerySpec,
    pub from: Option<usize>,
    pub until: Option<usize>,
}

/// Timers and program counters of a repetition (raw nanoseconds); the
/// telemetry fields stay zero unless it is traced.
#[derive(Debug, Clone, Default)]
pub struct TraceRep {
    /// Stage counters over the timed section, in `PipelineMetrics` order:
    /// ingest, dispatch, shared join, shared leaf, private engine, emit,
    /// purge.
    pub stage_ns: [u64; 7],
    pub sojourn_p50_ns: u64,
    /// Nanoseconds inside the program's ingest calls.
    pub inside_ns: u64,
    pub sink_ns: u64,
    pub register_ns: u64,
    pub registers: u64,
    pub deregister_ns: u64,
    pub deregisters: u64,
    /// Register/deregister time inside the timed section.
    pub timed_control_ns: u64,
    pub before: Counters,
    pub after: Counters,
    pub auto: u64,
    pub auto_pathlazy: u64,
}

/// What one repetition measured. Times are at reference host speed unless
/// named `raw_`.
pub struct Rep {
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub raw_setup_s: f64,
    pub raw_wall_s: f64,
    pub raw_cpu_s: f64,
    /// Calls handed to the program (register, deregister, one per edge)
    /// and the register/deregister calls among them; only those return
    /// errors, so `failed` counts failures among `control_calls`.
    pub attempted: u64,
    pub control_calls: u64,
    pub failed: u64,
    pub impossible: u64,
    pub det: Determinism,
    pub registrations: Vec<Registration>,
    pub kept: Vec<(usize, QueryId, SubgraphMatch)>,
    /// Timers and counters; telemetry fields stay zero unless traced.
    pub trace: TraceRep,
}

/// Harness state shared by every repetition of a run.
pub struct Harness<'a> {
    pub stamps: &'a [Cell<u64>],
    pub samples: &'a mut Samples,
    pub host: &'a mut Host,
}

/// Runs one repetition on fresh program state: set-up with the warm-up of
/// `segment`, then its timed edges.
pub fn run_rep(
    inputs: &Inputs,
    segment: usize,
    mode: Mode,
    h: &mut Harness,
    sampled: Option<&[bool]>,
) -> Rep {
    let (warmup, timed) = (inputs.warmup(segment), inputs.timed(segment));
    let traced = mode == Mode::Traced;
    let mut trace = TraceRep::default();
    let mut attempted = 0u64;
    let mut control_calls = 0u64;
    let mut failed = 0u64;
    let mut registrations: Vec<Registration> = Vec::new();

    // Set-up: statistics bootstrap, construction, registration, warm-up.
    let worker = matches!(inputs.engine, Engine::Runtime { .. });
    let setup_probe = h.host.probe_cpus(worker);
    let setup_cpu = Host::cpu_mark();
    let t_setup = monotonic_nanos();
    let estimator = Dataset::estimator_from_events(&inputs.history, StatsMode::Cumulative);
    let mut target = if worker {
        h.host
            .spawn_on_worker_cpu(|| Target::build(inputs, estimator))
    } else {
        Target::build(inputs, estimator)
    };
    for spec in &inputs.initial {
        attempted += 1;
        control_calls += 1;
        let t0 = monotonic_nanos();
        let result = target.register(spec);
        trace.register_ns += monotonic_nanos() - t0;
        trace.registers += 1;
        match result {
            Ok(id) => {
                note_auto(&target, id, spec, &mut trace);
                registrations.push(Registration {
                    id,
                    spec: spec.clone(),
                    from: None,
                    until: None,
                });
            }
            Err(e) => {
                eprintln!("perfbench: register failed: {e}");
                failed += 1;
            }
        }
    }
    attempted += warmup.len() as u64;
    target.warm(warmup);
    let raw_setup_ns = monotonic_nanos() - t_setup;
    let setup_cpu_end = Host::cpu_mark();

    // Timed section.
    for s in h.stamps {
        s.set(0);
    }
    let before = target.counters();
    let registry = MetricsRegistry::new();
    if traced {
        target.attach_metrics(&registry);
    }
    let mut sink = BenchSink {
        stamps: h.stamps,
        base: warmup.len() as u64,
        samples: h.samples,
        matches: 0,
        impossible: 0,
        traced,
        self_ns: 0,
        sampled: if mode == Mode::Verify { sampled } else { None },
        kept: Vec::new(),
    };
    // Registration index currently held by each churn slot.
    let mut slot_reg: Vec<usize> = match &inputs.churn {
        Some(c) => (registrations.len().saturating_sub(c.slots)..registrations.len()).collect(),
        None => Vec::new(),
    };
    let every = inputs.churn.as_ref().map_or(usize::MAX, |c| c.every);
    let n = timed.len();
    let chunk = n.div_ceil(CHUNKS);
    // Counters and stored rows that deregistrations during the timed
    // section take out of the program's totals; the boundary deltas add
    // them back.
    let mut retired = ProfileCounters::new();
    let mut retired_stored = 0u64;
    let mut probe = h.host.probe_cpus(worker);
    let (setup_scale, _) = scale(setup_probe, probe, setup_cpu, setup_cpu_end);

    let (mut raw_wall, mut wall, mut cpu, mut raw_cpu) = (0u64, 0.0f64, 0.0f64, 0u64);
    let mut chunk_wall = 0u64;
    let mut chunk_cpu = Host::cpu_mark();
    let mut at = 0;
    let mut step = 0;
    while at < n {
        let next_churn = if every == usize::MAX {
            n
        } else {
            (at / every + 1) * every
        };
        let end = ((at / chunk + 1) * chunk).min(next_churn).min(n);
        let wall0 = monotonic_nanos();
        // Harness bookkeeping inside this interval, left out of its wall time.
        let mut paused = 0u64;
        attempted += (end - at) as u64;
        trace.inside_ns += target.feed(&timed[at..end], &h.stamps[at..end], &mut sink, traced);
        at = end;
        if at < n && at % every == 0 {
            let churn = inputs.churn.as_ref().expect("churn configured");
            let slot = step % churn.slots;
            let next = &churn.pool[step % churn.pool.len()];
            step += 1;
            attempted += 2;
            control_calls += 2;
            let old = registrations[slot_reg[slot]].id;
            let r0 = monotonic_nanos();
            let held = target.stored_rows();
            let t0 = monotonic_nanos();
            let profile = target.deregister(old);
            let t1 = monotonic_nanos();
            let left = target.stored_rows();
            let t2 = monotonic_nanos();
            let result = target.register(next);
            let t3 = monotonic_nanos();
            paused += (t0 - r0) + (t2 - t1);
            if let Some(profile) = profile {
                registrations[slot_reg[slot]].until = Some(at);
                retired.merge(&profile);
            } else {
                eprintln!("perfbench: deregister of {old} failed");
                failed += 1;
            }
            retired_stored += held.checked_sub(left).unwrap_or_else(|| {
                panic!("stored rows rose from {held} to {left} on deregistering {old}")
            });
            trace.deregister_ns += t1 - t0;
            trace.deregisters += 1;
            trace.register_ns += t3 - t2;
            trace.registers += 1;
            trace.timed_control_ns += (t1 - t0) + (t3 - t2);
            match result {
                Ok(id) => {
                    note_auto(&target, id, next, &mut trace);
                    slot_reg[slot] = registrations.len();
                    registrations.push(Registration {
                        id,
                        spec: next.clone(),
                        from: Some(at),
                        until: None,
                    });
                }
                Err(e) => {
                    eprintln!("perfbench: register failed: {e}");
                    failed += 1;
                }
            }
        }
        chunk_wall += monotonic_nanos() - wall0 - paused;
        if at % chunk == 0 || at == n {
            let cpu_end = Host::cpu_mark();
            let next = h.host.probe_cpus(worker);
            let (wall_scale, chunk_cpu_ref) = scale(probe, next, chunk_cpu, cpu_end);
            probe = next;
            raw_wall += chunk_wall;
            wall += chunk_wall as f64 * wall_scale;
            cpu += chunk_cpu_ref;
            raw_cpu += cpu_end.process_ns() - chunk_cpu.process_ns();
            sink.samples.end_chunk(wall_scale);
            chunk_wall = 0;
            chunk_cpu = Host::cpu_mark();
        }
    }

    let matches = sink.matches;
    let impossible = sink.impossible;
    trace.sink_ns = sink.self_ns;
    let kept = std::mem::take(&mut sink.kept);

    let mut after = target.counters();
    after.profile.merge(&retired);
    after.stored_rows += retired_stored;
    if traced {
        let snap = registry.snapshot();
        let c = |name: &str| snap.counter(name).unwrap_or(0);
        trace.stage_ns = [
            c("stage.ingest_ns"),
            c("stage.dispatch_ns"),
            c("stage.shared_join_ns"),
            c("stage.shared_leaf_ns"),
            c("stage.private_engine_ns"),
            c("stage.emit_ns"),
            c("stage.purge_ns"),
        ];
        trace.sojourn_p50_ns = snap
            .histogram("runtime.batch_sojourn_ns")
            .and_then(|h| h.percentile(0.5))
            .unwrap_or(0);
    }
    let stored_rows = after
        .stored_rows
        .checked_sub(before.stored_rows)
        .unwrap_or_else(|| {
            panic!(
                "stored rows fell over the timed section: {} at its start, {} at its end with deregistered rows added back",
                before.stored_rows, after.stored_rows
            )
        });
    let det = Determinism {
        matches,
        queries_registered: registrations.len() as u64,
        stored_rows,
        searches: after.profile.iso_searches - before.profile.iso_searches,
    };
    trace.before = before;
    trace.after = after;

    // Tear-down (untimed): deregister everything, stop the program.
    for r in registrations.iter().filter(|r| r.until.is_none()) {
        let t0 = monotonic_nanos();
        if target.deregister(r.id).is_none() {
            failed += 1;
        }
        attempted += 1;
        control_calls += 1;
        trace.deregister_ns += monotonic_nanos() - t0;
        trace.deregisters += 1;
    }
    target.close();

    Rep {
        setup_s: raw_setup_ns as f64 * setup_scale * 1e-9,
        wall_s: wall * 1e-9,
        cpu_s: cpu * 1e-9,
        raw_setup_s: raw_setup_ns as f64 * 1e-9,
        raw_wall_s: raw_wall as f64 * 1e-9,
        raw_cpu_s: raw_cpu as f64 * 1e-9,
        attempted,
        control_calls,
        failed,
        impossible,
        det,
        registrations,
        kept,
        trace,
    }
}

fn note_auto(target: &Target, id: QueryId, spec: &QuerySpec, trace: &mut TraceRep) {
    if spec.spec == StrategySpec::Auto {
        trace.auto += 1;
        if target.strategy_of(id) == Some(Strategy::PathLazy) {
            trace.auto_pathlazy += 1;
        }
    }
}

/// Median of `values` (the mean of the middle two for an even count).
pub fn median(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}
