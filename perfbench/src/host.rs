//! The host: thread placement, clocks, memory readings and the host-speed
//! probe that puts every reported time at a reference host speed.
//!
//! On the shared 2-vCPU x86-64 hosts this benchmark was tuned on, other
//! tenants load the cores: each core's speed moves in steps of up to 1.6x,
//! independently of the other core, within a second, and the program's
//! speed moves with the core it runs on. So the benchmark pins its caller thread to one allowed CPU
//! and the runtime's worker to another, times a fixed piece of hashing and
//! sorting work (the probe, which uses no program code) on each CPU in use
//! before and after every measured interval, and scales the interval by
//! `PROBE_REFERENCE_NS / probe time`, weighting the two CPUs by the CPU time
//! the benchmark's threads spent on each.

use sp_graph::monotonic_nanos;
use std::collections::HashMap;

/// Probe time that defines the reference host speed.
const PROBE_REFERENCE_NS: f64 = 5.0e6;

#[repr(C)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

fn clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout of
    // 64-bit Linux, and `clock` is one of the CPU-time clock ids below.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time of the whole process (all threads), in nanoseconds.
fn process_cpu_ns() -> u64 {
    clock_ns(2) // CLOCK_PROCESS_CPUTIME_ID
}

/// CPU time of the calling thread, in nanoseconds.
fn thread_cpu_ns() -> u64 {
    clock_ns(3) // CLOCK_THREAD_CPUTIME_ID
}

/// Pins the calling thread (and threads it spawns later) to `cpu`.
fn pin(cpu: usize) {
    let mut mask = CpuSet([0; 16]);
    mask.0[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a valid cpu_set_t of the size passed; pid 0 is the
    // calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) };
    assert_eq!(rc, 0, "sched_setaffinity to CPU {cpu} failed");
}

/// The CPUs this process may run on.
fn allowed_cpus() -> Vec<usize> {
    let mut mask = CpuSet([0; 16]);
    // SAFETY: `mask` is a valid, writable cpu_set_t of the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
    assert_eq!(rc, 0, "sched_getaffinity failed");
    (0..1024)
        .filter(|&c| mask.0[c / 64] & (1 << (c % 64)) != 0)
        .collect()
}

/// A field of `/proc/self/status` in kilobytes (`VmRSS`, `VmHWM`).
pub fn status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{field} missing from /proc/self/status"))
}

/// Probe times on the caller's CPU and on the worker's CPU.
#[derive(Debug, Clone, Copy)]
pub struct ProbeTimes {
    caller: u64,
    worker: u64,
}

/// CPU times at an interval boundary.
#[derive(Debug, Clone, Copy)]
pub struct CpuMark {
    process: u64,
    caller: u64,
}

/// Thread placement and the host-speed probe. Its buffers are allocated
/// once, before the memory baseline.
pub struct Host {
    caller_cpu: usize,
    worker_cpu: usize,
    map: HashMap<u64, u64>,
    keys: Vec<u64>,
}

impl Host {
    const DRAWS: usize = 100_000;

    /// Pins the calling thread to the first allowed CPU and reserves the
    /// second (if any) for spawned workers.
    pub fn new() -> Self {
        let cpus = allowed_cpus();
        let caller_cpu = cpus[0];
        let worker_cpu = *cpus.get(1).unwrap_or(&caller_cpu);
        pin(caller_cpu);
        let mut host = Self {
            caller_cpu,
            worker_cpu,
            map: HashMap::with_capacity(1 << 15),
            keys: Vec::with_capacity(Self::DRAWS),
        };
        host.probe_cpus(true);
        host
    }

    /// Runs `spawn` with the caller pinned to the worker CPU, so threads it
    /// starts inherit that placement.
    pub fn spawn_on_worker_cpu<T>(&mut self, spawn: impl FnOnce() -> T) -> T {
        pin(self.worker_cpu);
        let out = spawn();
        pin(self.caller_cpu);
        out
    }

    fn run_probe(&mut self) -> u64 {
        let t0 = monotonic_nanos();
        self.map.clear();
        self.keys.clear();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..Self::DRAWS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *self.map.entry(x % 20_000).or_insert(0) += 1;
            self.keys.push(x);
        }
        self.keys.sort_unstable();
        std::hint::black_box((&self.map, &self.keys));
        monotonic_nanos() - t0
    }

    /// Times the probe on the caller's CPU and, when `worker` is set and
    /// there is a second CPU, on the worker's.
    pub fn probe_cpus(&mut self, worker: bool) -> ProbeTimes {
        let caller = self.run_probe();
        let worker = if worker && self.worker_cpu != self.caller_cpu {
            pin(self.worker_cpu);
            let t = self.run_probe();
            pin(self.caller_cpu);
            t
        } else {
            caller
        };
        ProbeTimes { caller, worker }
    }

    /// CPU times now.
    pub fn cpu_mark() -> CpuMark {
        CpuMark {
            process: process_cpu_ns(),
            caller: thread_cpu_ns(),
        }
    }
}

impl CpuMark {
    /// CPU time of the whole process at this mark, in nanoseconds.
    pub fn process_ns(&self) -> u64 {
        self.process
    }
}

/// Converts an interval bracketed by probes `p0`/`p1` and CPU marks
/// `c0`/`c1` to reference speed: returns (scale for wall time,
/// reference-speed CPU nanoseconds).
pub fn scale(p0: ProbeTimes, p1: ProbeTimes, c0: CpuMark, c1: CpuMark) -> (f64, f64) {
    let caller_probe = (p0.caller + p1.caller) as f64 / 2.0;
    let worker_probe = (p0.worker + p1.worker) as f64 / 2.0;
    let caller_cpu = (c1.caller - c0.caller) as f64;
    let other_cpu = (c1.process - c0.process) as f64 - caller_cpu;
    let other_cpu = other_cpu.max(0.0);
    let total = caller_cpu + other_cpu;
    let probe = if total > 0.0 {
        (caller_cpu * caller_probe + other_cpu * worker_probe) / total
    } else {
        caller_probe
    };
    let cpu = caller_cpu * PROBE_REFERENCE_NS / caller_probe
        + other_cpu * PROBE_REFERENCE_NS / worker_probe;
    (PROBE_REFERENCE_NS / probe, cpu)
}
