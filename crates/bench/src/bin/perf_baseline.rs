//! The tracked simulator-performance baseline.
//!
//! Runs the representative workloads (microservices, NVMe-oF,
//! accelerator-brownout chaos, and the doorbell-burst workload of
//! same-timestamp arrival trains) plus a scheduler hold-model stress
//! and records events/sec, wall time and steady-state
//! allocations-per-event into `BENCH_sim.json`, one row per workload.
//! The `fleet_rack16` row runs the 16-NIC registry rack through the
//! fleet's conservative-lookahead round loop. CI replays the same
//! measurements and fails when events/sec regresses by more than
//! 25 % against the committed baseline, or when a measured row has no
//! baseline entry at all (`--check`).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p lognic-bench --bin perf_baseline            # write BENCH_sim.json
//! cargo run --release -p lognic-bench --bin perf_baseline -- --check # compare, no write
//! cargo run --release -p lognic-bench --bin perf_baseline -- --out /tmp/b.json
//! cargo run --release -p lognic-bench --bin perf_baseline -- --trace-overhead
//! ```
//!
//! `--trace-overhead` gates the observability layer's zero-cost
//! claim: it A/B-measures the default `run()` path against an
//! explicit `run_with(&mut NoopObserver)` on the chaos workload and
//! fails if the no-op-observer path is more than 8 % slower. An
//! attached `RingLog` sink is measured too, informationally.
//!
//! Allocations are counted by a wrapping `#[global_allocator]`; the
//! per-event figure is a *delta between two run lengths* of the same
//! scenario, so one-time costs (graph build, wheel/bucket tables,
//! report assembly) cancel and the number isolates the steady-state
//! hot loop. The zero-alloc acceptance test lives in
//! `tests/zero_alloc.rs`; this binary records the same metric for
//! trend tracking.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use lognic_model::units::{Bandwidth, Seconds};
use lognic_sim::calendar::CalendarQueue;
use lognic_sim::prelude::*;
use lognic_workloads::chaos::accelerator_brownout;
use lognic_workloads::doorbell::{doorbell_burst, BurstPlan};
use lognic_workloads::microservices::{scenario, AllocationScheme, App};
use lognic_workloads::nvmeof::nvmeof;
use lognic_workloads::rack;
use lognic_workloads::scenario::Scenario;

/// A pass-through allocator that counts every allocation. Wrapping the
/// system allocator costs two relaxed atomic increments per call —
/// negligible next to the allocation itself, and exactly zero in an
/// allocation-free hot loop.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_now() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// One measured workload.
struct Case {
    name: &'static str,
    events: u64,
    wall_secs: f64,
    events_per_sec: f64,
    allocs_per_event: f64,
}

struct Workload {
    name: &'static str,
    scenario: Scenario,
    plan: Option<FaultPlan>,
    /// Replayed trace injection (`None` = synthetic traffic).
    trace: Option<Trace>,
    millis: f64,
}

fn workloads() -> Vec<Workload> {
    let chaos = accelerator_brownout(
        Bandwidth::gbps(8.0),
        Seconds::millis(4.0),
        Seconds::millis(2.0),
        Seconds::millis(3.0),
    );
    let (burst, burst_trace) = doorbell_burst(&BurstPlan::default());
    vec![
        Workload {
            name: "microservices",
            scenario: scenario(App::NfvFin, AllocationScheme::RoundRobin, 2.0e6),
            plan: None,
            trace: None,
            millis: 60.0,
        },
        Workload {
            name: "nvmeof",
            scenario: nvmeof(
                lognic_devices::stingray::IoPattern::RandRead4k,
                Bandwidth::gbps(5.0),
            ),
            plan: None,
            trace: None,
            millis: 60.0,
        },
        Workload {
            name: "chaos",
            scenario: chaos.scenario,
            plan: Some(chaos.plan),
            trace: None,
            millis: 40.0,
        },
        Workload {
            name: "doorbell_burst",
            scenario: burst,
            plan: None,
            trace: Some(burst_trace),
            millis: 60.0,
        },
    ]
}

fn builder_for(w: &Workload, millis: f64) -> Simulation {
    let mut b = Simulation::builder(&w.scenario.graph, &w.scenario.hardware, &w.scenario.traffic)
        .config(SimConfig {
            seed: 42,
            duration: Seconds::millis(millis),
            warmup: Seconds::millis(millis * 0.2),
            ..SimConfig::default()
        });
    if let Some(plan) = &w.plan {
        b = b.with_fault_plan(plan.clone());
    }
    if let Some(trace) = &w.trace {
        b = b.with_trace(trace.clone());
    }
    b.build().expect("workload scenarios are valid")
}

fn run_once(w: &Workload, millis: f64) -> (SimReport, f64) {
    let sim = builder_for(w, millis);
    let start = Instant::now();
    let report = sim.run().expect("bench runs stay under the watchdog");
    (report, start.elapsed().as_secs_f64())
}

fn measure(w: &Workload) -> Case {
    // Steady-state allocations: delta between a full and a half run of
    // the same scenario — build/report transients cancel.
    let (half, _) = run_once(w, w.millis * 0.5);
    let a0 = allocs_now();
    let (full_for_allocs, _) = run_once(w, w.millis);
    let a1 = allocs_now();
    let half_allocs_start = allocs_now();
    let (_, _) = run_once(w, w.millis * 0.5);
    let half_allocs = allocs_now() - half_allocs_start;
    let delta_allocs = (a1 - a0).saturating_sub(half_allocs);
    let delta_events = full_for_allocs.events.saturating_sub(half.events).max(1);
    let allocs_per_event = delta_allocs as f64 / delta_events as f64;

    // Wall time: best of three full runs (min filters scheduler noise).
    let mut best = f64::INFINITY;
    let mut events = 0;
    for _ in 0..3 {
        let (report, secs) = run_once(w, w.millis);
        if secs < best {
            best = secs;
        }
        events = report.events;
    }
    Case {
        name: w.name,
        events,
        wall_secs: best,
        events_per_sec: events as f64 / best,
        allocs_per_event,
    }
}

/// Hold-model pending set: large enough that a binary heap would pay
/// ~20 cache-missing sift levels per operation while the calendar
/// stays O(1) (a few touches regardless of size).
const HOLD_PENDING: u64 = 2_000_000;
/// Steady-state operations per timed pass.
const HOLD_OPS: u64 = 2_000_000;
/// Mean reschedule offset; with `HOLD_PENDING` events in flight the
/// mean pop-to-pop gap is `HOLD_MEAN_INC_PS / HOLD_PENDING` = 10 ps,
/// which the wheel sizes into ~3 events per day.
const HOLD_MEAN_INC_PS: u64 = 20_000_000;

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Classic hold-model scheduler stress (Brown, CACM '88): keep
/// `HOLD_PENDING` events pending; every operation pops the minimum and
/// schedules a replacement a uniform random offset into the future.
/// Whole-simulation runs spend most of each event outside the queue,
/// so scheduler costs only surface here, where the scheduler *is* the
/// workload. Returns `(events, wall_secs, allocs_per_event)`.
fn hold_run() -> (u64, f64, f64) {
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    let mut inc = move || 1 + rng.next() % (2 * HOLD_MEAN_INC_PS);
    let mut seq = 0u64;
    let mut acc = 0u64;
    let mut q = CalendarQueue::new((HOLD_MEAN_INC_PS / HOLD_PENDING).max(1));
    for i in 0..HOLD_PENDING {
        seq += 1;
        q.push(inc(), seq, i as u32);
    }
    let a0 = allocs_now();
    let start = Instant::now();
    for _ in 0..HOLD_OPS {
        let (t, _, p) = q.pop().expect("hold set never drains");
        acc = acc.wrapping_add(p as u64);
        seq += 1;
        q.push(t + inc(), seq, p);
    }
    let (secs, allocs) = (start.elapsed().as_secs_f64(), allocs_now() - a0);
    std::hint::black_box(acc);
    (HOLD_OPS, secs, allocs as f64 / HOLD_OPS as f64)
}

/// The fleet row: the 16-NIC registry rack. Timing excludes topology
/// construction and per-NIC builds, so the row measures the round
/// loop; `events` is the aggregate across NICs.
fn measure_fleet() -> Case {
    let mut best = f64::INFINITY;
    let mut events = 0;
    for _ in 0..3 {
        let fleet = rack::smoke_fleet(16)
            .build()
            .expect("the registry rack builds");
        let start = Instant::now();
        let report = fleet.run().expect("bench racks stay under the watchdog");
        let secs = start.elapsed().as_secs_f64();
        if secs < best {
            best = secs;
        }
        events = report.events;
    }
    Case {
        name: "fleet_rack16",
        events,
        wall_secs: best,
        events_per_sec: events as f64 / best,
        allocs_per_event: 0.0,
    }
}

fn measure_hold() -> Case {
    let mut best = f64::INFINITY;
    let mut allocs_per_event = 0.0;
    let mut events = 0;
    for _ in 0..3 {
        let (ev, secs, allocs) = hold_run();
        if secs < best {
            best = secs;
            allocs_per_event = allocs;
        }
        events = ev;
    }
    Case {
        name: "sched_hold_2m",
        events,
        wall_secs: best,
        events_per_sec: events as f64 / best,
        allocs_per_event,
    }
}

/// One timed run with an explicit observer through the generic
/// `run_with` path; returns `(events, wall_secs)`.
fn run_once_observed<O: SimObserver>(w: &Workload, millis: f64, obs: &mut O) -> (u64, f64) {
    let sim = builder_for(w, millis);
    let start = Instant::now();
    let report = sim
        .run_with(obs)
        .expect("bench runs stay under the watchdog");
    (report.events, start.elapsed().as_secs_f64())
}

/// The `--trace-overhead` gate: the no-op-observer path must run
/// within 8 % of the default path. Both compile to the same
/// monomorphization today (`run()` is a thin
/// `run_with(&mut NoopObserver)` wrapper); this trips if that ever
/// stops being true or unconditional work leaks into a hook site.
/// Best-of-`ROUNDS` with the plain/noop order alternating each round:
/// on shared CI boxes, clock drift within a round otherwise lands
/// asymmetrically on whichever arm always runs first (measured ~6–8 %
/// phantom "overhead" between provably identical code paths), so the
/// order flip plus the relaxed 8 % bound keeps the gate sensitive to
/// real hook-site regressions without flaking on scheduler noise.
fn trace_overhead() -> ! {
    const ROUNDS: usize = 8;
    let w = workloads()
        .into_iter()
        .find(|w| w.name == "chaos")
        .expect("chaos workload present");
    let millis = w.millis;

    let mut best_plain = f64::INFINITY;
    let mut best_noop = f64::INFINITY;
    let mut best_ring = f64::INFINITY;
    let mut events = 0u64;
    let mut ring_records = 0u64;
    for round in 0..ROUNDS {
        let run_plain = |best: &mut f64, events: &mut u64| {
            let (report, secs) = run_once(&w, millis);
            *best = best.min(secs);
            *events = report.events;
        };
        let run_noop = |best: &mut f64| {
            let mut noop = NoopObserver;
            let (_, secs) = run_once_observed(&w, millis, &mut noop);
            *best = best.min(secs);
        };
        if round % 2 == 0 {
            run_plain(&mut best_plain, &mut events);
            run_noop(&mut best_noop);
        } else {
            run_noop(&mut best_noop);
            run_plain(&mut best_plain, &mut events);
        }

        let mut ring = RingLog::with_capacity(1 << 18);
        let (_, secs) = run_once_observed(&w, millis, &mut ring);
        best_ring = best_ring.min(secs);
        ring_records = ring.written();
    }

    let plain_eps = events as f64 / best_plain;
    let noop_eps = events as f64 / best_noop;
    let ring_eps = events as f64 / best_ring;
    println!(
        "trace-overhead chaos  plain {:>12.0} ev/s  noop-observer {:>12.0} ev/s  ({:+.2}%)",
        plain_eps,
        noop_eps,
        (noop_eps / plain_eps - 1.0) * 100.0,
    );
    println!(
        "trace-overhead chaos  ring-sink {:>12.0} ev/s  ({:+.2}%, {} records, informational)",
        ring_eps,
        (ring_eps / plain_eps - 1.0) * 100.0,
        ring_records,
    );
    if noop_eps < plain_eps * 0.92 {
        eprintln!("trace-overhead: no-op observer costs more than 8% — the zero-cost gate failed");
        std::process::exit(1);
    }
    println!("trace-overhead: no-op observer within 8% of the untraced path");
    std::process::exit(0);
}

fn render_json(cases: &[Case]) -> String {
    let mut out = String::from("{\n  \"schema\": \"lognic-perf-baseline/v2\",\n  \"results\": [\n");
    for (i, c) in cases.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"events\": {}, \"wall_secs\": {:.6}, \"events_per_sec\": {:.0}, \"allocs_per_event\": {:.6}}}{}\n",
            c.name,
            c.events,
            c.wall_secs,
            c.events_per_sec,
            c.allocs_per_event,
            if i + 1 < cases.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Extracts `(name, events_per_sec)` pairs from a baseline file —
/// each result record sits on its own line, so a line scanner is
/// enough (no JSON dependency in a hermetic workspace).
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        if !line.contains("\"events_per_sec\"") {
            continue;
        }
        let field = |key: &str| -> Option<String> {
            let at = line.find(key)? + key.len();
            let rest = &line[at..];
            let rest = rest.trim_start_matches([':', ' ', '"']);
            let end = rest.find(['"', ',', '}'])?;
            Some(rest[..end].trim().to_owned())
        };
        if let (Some(name), Some(eps)) = (field("\"name\""), field("\"events_per_sec\"")) {
            if let Ok(v) = eps.parse::<f64>() {
                out.push((name, v));
            }
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--trace-overhead") {
        trace_overhead();
    }
    let check = args.iter().any(|a| a == "--check");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_sim.json");

    let mut cases: Vec<Case> = workloads().iter().map(measure).collect();
    cases.push(measure_hold());
    cases.push(measure_fleet());
    for c in &cases {
        println!(
            "{:<16} {:>10} events  {:>8.1} ms  {:>12.0} ev/s  {:.4} allocs/ev",
            c.name,
            c.events,
            c.wall_secs * 1e3,
            c.events_per_sec,
            c.allocs_per_event,
        );
    }

    if check {
        let baseline = match std::fs::read_to_string("BENCH_sim.json") {
            Ok(t) => t,
            Err(e) => {
                eprintln!("perf-smoke: cannot read BENCH_sim.json: {e}");
                std::process::exit(2);
            }
        };
        let old = parse_baseline(&baseline);
        let mut failed = false;
        for c in &cases {
            let Some((_, old_eps)) = old.iter().find(|(n, _)| n == c.name) else {
                eprintln!("perf-smoke: no baseline entry for {}", c.name);
                failed = true;
                continue;
            };
            let floor = old_eps * 0.75;
            let status = if c.events_per_sec < floor {
                failed = true;
                "REGRESSED"
            } else {
                "ok"
            };
            println!(
                "check {:<16} baseline {:>12.0} ev/s  now {:>12.0} ev/s  {}",
                c.name, old_eps, c.events_per_sec, status,
            );
        }
        if failed {
            eprintln!("perf-smoke: a row regressed by more than 25% or has no baseline entry");
            std::process::exit(1);
        }
        println!("perf-smoke: within 25% of the committed baseline");
        return;
    }

    let json = render_json(&cases);
    std::fs::write(out_path, &json).expect("write baseline file");
    println!("wrote {out_path}");
}
