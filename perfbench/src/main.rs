//! End-to-end and per-layer benchmark of the StreamPattern workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload. It generates the inputs from the seed,
//! then, `REPS` times on fresh program state, sets up (statistics
//! bootstrap, construction, registration, warm-up) and hands one timed
//! segment to the program closed loop; metrics are medians over the
//! repetitions, at the reference host speed of `host`. A further untimed
//! repetition keeps the matches of a seeded sample of edges and checks them
//! against an independent VF2 reference (`verify`). With `--trace 1` the run
//! times segment 0 plain and traced, replays single layers, and reports the
//! per-layer metrics of `trace` instead of the end-to-end ones. The last
//! line of standard output is the JSON result; summaries go to standard
//! error.

mod host;
mod inputs;
mod measure;
mod target;
mod trace;
mod verify;

use host::{status_kb, Host};
use inputs::{Engine, Inputs, Workload, REPS};
use measure::{median, run_rep, Harness, Mode, Rep, Samples};
use std::cell::Cell;
use std::process::ExitCode;

/// Traced repetitions in a `--trace 1` run.
const TRACED_REPS: usize = 3;
/// Latency samples kept per repetition.
const LATENCY_CAPACITY: usize = 1 << 20;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 60)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let inputs = Inputs::generate(args.workload, args.seed, args.seconds);
    eprintln!(
        "perfbench: {} seed {}: inputs {:016x}; {} history edges, {} segments of {} warm-up + {} timed edges; {} queries{}",
        args.workload.name(),
        args.seed,
        inputs.fingerprint(),
        inputs.history.len(),
        REPS,
        inputs.warmup(0).len(),
        inputs.timed(0).len(),
        inputs.initial.len(),
        inputs
            .churn
            .as_ref()
            .map_or(String::new(), |c| format!(
                ", churn every {} edges from a pool of {}",
                c.every,
                c.pool.len()
            )),
    );

    // Harness buffers are resident before the memory baseline.
    let stamps: Vec<Cell<u64>> = (0..inputs.timed(0).len()).map(|_| Cell::new(1)).collect();
    let mut samples = Samples::with_capacity(LATENCY_CAPACITY);
    let mut host = Host::new();
    let sampled = verify::sample(args.seed, inputs.timed(0).len());
    let rss_base_kb = status_kb("VmRSS");
    let mut h = Harness {
        stamps: &stamps,
        samples: &mut samples,
        host: &mut host,
    };

    // The end-to-end run times every segment once; the traced run times
    // segment 0 plain and traced, so the tracing overhead compares equal
    // work.
    let segments: Vec<usize> = if args.trace {
        vec![0; TRACED_REPS]
    } else {
        (0..REPS).collect()
    };
    let plain: Vec<Rep> = segments
        .into_iter()
        .map(|segment| run_rep(&inputs, segment, Mode::Plain, &mut h, None))
        .collect();
    let peak_rss_mb = status_kb("VmHWM").saturating_sub(rss_base_kb) as f64 / 1024.0;
    let (p50_ns, p99_ns) = h.samples.percentiles(true);
    let (raw_p50_ns, raw_p99_ns) = h.samples.percentiles(false);
    let latency_count = h.samples.count();
    h.samples.clear();
    let traced: Vec<Rep> = if args.trace {
        (0..TRACED_REPS)
            .map(|_| run_rep(&inputs, 0, Mode::Traced, &mut h, None))
            .collect()
    } else {
        Vec::new()
    };
    // The runtime workload's single-threaded baseline: the same job through
    // `StreamProcessor`.
    let sequential = (args.trace && matches!(inputs.engine, Engine::Runtime { .. })).then(|| {
        let mut seq = inputs.clone();
        seq.engine = Engine::Sequential;
        run_rep(&seq, 0, Mode::Plain, &mut h, None)
    });
    let checked = run_rep(&inputs, 0, Mode::Verify, &mut h, Some(&sampled));
    let verdict = verify::check(&inputs, &checked.registrations, &checked.kept, &sampled);

    // Determinism guard: every repetition of segment 0, traced or not, and
    // the single-threaded baseline must agree on every per-seed count.
    let det = plain[0].det;
    let again: Vec<&Rep> = traced
        .iter()
        .chain(sequential.as_ref())
        .chain(std::iter::once(&checked))
        .collect();
    let deterministic = again.iter().all(|r| r.det == det);
    if !deterministic {
        eprintln!(
            "perfbench: NONDETERMINISM: per-seed counts of segment 0 differ between repetitions:"
        );
        for r in std::iter::once(&plain[0]).chain(again.iter().copied()) {
            eprintln!("perfbench:   {:?}", r.det);
        }
    }
    let all: Vec<&Rep> = plain.iter().chain(again).collect();
    let impossible: u64 = all.iter().map(|r| r.impossible).sum();
    if impossible > 0 {
        eprintln!(
            "perfbench: {impossible} matches arrived before their newest edge was handed over"
        );
    }
    // The reference checks plus one whole-run check: the verification pass
    // reported as many matches as every timed repetition.
    let checks = verdict.checked + 1;
    let passed = verdict.ok + (checked.det.matches == det.matches) as u64;
    let correct_frac = passed as f64 / checks as f64;
    let attempted: u64 = all.iter().map(|r| r.attempted).sum();
    let control_calls: u64 = all.iter().map(|r| r.control_calls).sum();
    let failed: u64 = all.iter().map(|r| r.failed).sum();
    let correct =
        deterministic && impossible == 0 && failed == 0 && verdict.checked > 0 && passed == checks;

    let edges = inputs.timed(0).len() as f64;
    let med = |f: &dyn Fn(&Rep) -> f64| median(plain.iter().map(f).collect());
    let throughput = med(&|r| edges / r.wall_s);
    let summary = format!(
        "perfbench: {} seed {}: {:.0} edges/s, {:.3} matches/edge, latency p50 {:.1} us p99 {:.1} us over {} matches; \
         setup {:.3} s; {} of {} reference checks ({} reference matches) passed",
        args.workload.name(),
        args.seed,
        throughput,
        det.matches as f64 / edges,
        p50_ns * 1e-3,
        p99_ns * 1e-3,
        latency_count,
        med(&|r| r.setup_s),
        passed,
        checks,
        verdict.reference_matches,
    );
    eprintln!("{summary}");
    let per_rep: Vec<String> = plain
        .iter()
        .map(|r| {
            format!(
                "{:.0}/{:.0} {:.3}/{:.3}",
                edges / r.wall_s,
                edges / r.raw_wall_s,
                r.setup_s,
                r.raw_setup_s
            )
        })
        .collect();
    eprintln!(
        "perfbench:   per repetition, reference-speed/raw edges/s and setup s: {}",
        per_rep.join(", ")
    );
    // The end-to-end times before the host-speed scaling; `run.py --spread`
    // reports their spread beside that of the scaled ones.
    eprintln!(
        "perfbench: raw: setup_s={:?} throughput_eps={:?} cpu_us_per_edge={:?} latency_p50_us={:?} latency_p99_us={:?}",
        med(&|r| r.raw_setup_s),
        med(&|r| edges / r.raw_wall_s),
        med(&|r| r.raw_cpu_s * 1e6 / edges),
        raw_p50_ns * 1e-3,
        raw_p99_ns * 1e-3,
    );

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        trace::per_layer(&inputs, &plain, &traced, sequential.as_ref(), latency_count)
    } else {
        vec![
            ("setup_s", med(&|r| r.setup_s), "s"),
            ("throughput_eps", throughput, "1/s"),
            ("cpu_us_per_edge", med(&|r| r.cpu_s * 1e6 / edges), "us"),
            ("latency_p50_us", p50_ns * 1e-3, "us"),
            ("latency_p99_us", p99_ns * 1e-3, "us"),
            ("peak_rss_mb", peak_rss_mb, "MB"),
            ("correct_frac", correct_frac, "frac"),
            (
                "call_ok_frac",
                1.0 - failed as f64 / control_calls as f64,
                "frac",
            ),
        ]
    };
    if args.trace {
        for (name, value, unit) in &metrics {
            eprintln!("perfbench:   {name:<38} {value:>16.4} {unit}");
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if !deterministic {
        ExitCode::from(3)
    } else if !correct {
        eprintln!(
            "perfbench: INCORRECT: {failed} failed calls, {impossible} early matches, {passed} of {checks} checks passed"
        );
        ExitCode::from(4)
    } else {
        ExitCode::SUCCESS
    }
}
