//! Steady-state allocation test for the event engine.
//!
//! The zero-alloc rework (packet slab, calendar queue, streaming
//! latency recorder) claims the hot loop performs **no heap
//! allocation per event** once warm: packets come from the arena's
//! free list, events live inline in wheel buckets, and latency samples
//! stream into fixed histogram buckets. This test proves it with a
//! counting `#[global_allocator]` — integration tests are separate
//! binaries, so the allocator override is confined to this file.
//!
//! Methodology: run the same scenario at two durations and compare the
//! *deltas* — extra events vs extra allocations. One-time costs (graph
//! build, wheel tables, arena growth to peak occupancy, report
//! assembly) are identical in both runs and cancel; what remains is
//! the steady-state per-event cost. The bound is a small epsilon
//! rather than literal zero so a rare amortized growth (a wheel bucket
//! first touched late in the long run) cannot flake the suite.
//!
//! The same counter pins the closed-form model's M/M/c/N queue to one
//! allocation at any capacity.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lognic::model::queueing::MmcN;
use lognic::prelude::*;

struct CountingAlloc;

thread_local! {
    // Per-thread, so tests that libtest runs concurrently never count
    // each other's allocations. `const` initialization means touching
    // the counter never allocates, which keeps it usable from inside
    // the allocator.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // During thread teardown the slot may already be gone; those
    // allocations belong to no test.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocs_now() -> u64 {
    ALLOCS.with(Cell::get)
}

fn scenario() -> (ExecutionGraph, HardwareModel, TrafficProfile) {
    let graph = ExecutionGraph::chain(
        "steady",
        &[
            (
                "parse",
                IpParams::new(Bandwidth::gbps(40.0)).with_queue_capacity(128),
            ),
            (
                "crypto",
                IpParams::new(Bandwidth::gbps(50.0))
                    .with_parallelism(4)
                    .with_queue_capacity(64),
            ),
            (
                "dma",
                IpParams::new(Bandwidth::gbps(60.0)).with_queue_capacity(64),
            ),
        ],
    )
    .unwrap();
    let hw = HardwareModel::new(Bandwidth::gbps(400.0), Bandwidth::gbps(400.0));
    let traffic = TrafficProfile::fixed(Bandwidth::gbps(30.0), Bytes::new(1500));
    (graph, hw, traffic)
}

/// Runs the scenario for `millis` and returns `(events, allocations)`
/// for the whole build + run.
fn run_counted(millis: f64) -> (u64, u64) {
    let (graph, hw, traffic) = scenario();
    let a0 = allocs_now();
    let report = Simulation::builder(&graph, &hw, &traffic)
        .seed(7)
        .duration(Seconds::millis(millis))
        .warmup(Seconds::millis(millis * 0.2))
        .run()
        .expect("valid scenario");
    (report.events, allocs_now() - a0)
}

#[test]
fn calendar_engine_steady_state_is_allocation_free() {
    // Warm the allocator's own caches before measuring.
    run_counted(5.0);

    let (ev_short, alloc_short) = run_counted(10.0);
    let (ev_long, alloc_long) = run_counted(30.0);

    let extra_events = ev_long - ev_short;
    let extra_allocs = alloc_long.saturating_sub(alloc_short);
    assert!(
        extra_events > 100_000,
        "need a meaningful delta, got {extra_events} events"
    );
    let per_event = extra_allocs as f64 / extra_events as f64;
    assert!(
        per_event < 0.001,
        "steady state must not allocate per event: \
         {extra_allocs} allocations over {extra_events} extra events \
         ({per_event:.6} allocs/event)"
    );
}

#[test]
fn calendar_queue_hold_pattern_reuses_slab_slots() {
    // The capacity-planning hold pattern: a large pending set
    // (scheduled-but-not-due events) churned through push/pop for
    // millions of operations. The slab-backed bucket chains must reach
    // peak occupancy once and then recycle slots through the free
    // list — BENCH_sim.json historically showed 0.166 allocs/event
    // here when buckets were growable `Vec`s.
    const PENDING: u64 = 200_000;
    const OPS: u64 = 2_000_000;
    let mut q: CalendarQueue<u64> = CalendarQueue::new(20_000);
    let mut seq = 0u64;
    let mut t = 0u64;
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let step = |rng: &mut u64| {
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        *rng % 40_000_000
    };
    for _ in 0..PENDING {
        t += step(&mut rng) / PENDING;
        q.push(t + step(&mut rng), seq, seq);
        seq += 1;
    }
    // Warm to peak: churn one full pending-set's worth of operations.
    for _ in 0..PENDING {
        let (now, _, _) = q.pop().expect("pending events remain");
        q.push(now + 1 + step(&mut rng), seq, seq);
        seq += 1;
    }
    let a0 = allocs_now();
    for _ in 0..OPS {
        let (now, _, _) = q.pop().expect("pending events remain");
        q.push(now + 1 + step(&mut rng), seq, seq);
        seq += 1;
    }
    let extra = allocs_now() - a0;
    let per_op = extra as f64 / OPS as f64;
    assert!(
        per_op < 0.0001,
        "hold pattern must not allocate per event: \
         {extra} allocations over {OPS} ops ({per_op:.6} allocs/op)"
    );
}

#[test]
fn arena_reuses_freed_packet_slots() {
    // Over three identical runs the arena high-water mark is reached
    // in the first; later runs must not allocate meaningfully more.
    run_counted(10.0);
    let (_, a1) = run_counted(10.0);
    let (_, a2) = run_counted(10.0);
    // Identical work → near-identical allocation counts (the build
    // phase allocates; the delta between identical runs is noise).
    let diff = a1.abs_diff(a2);
    assert!(
        diff < a1 / 10 + 16,
        "repeat runs should allocate alike: {a1} vs {a2}"
    );
}

#[test]
fn mmcn_allocates_one_buffer_at_any_capacity() {
    // The closed-form model builds an M/M/c/N queue per node per
    // evaluation; its construction keeps one log-weight buffer and no
    // per-state scratch, so the count does not grow with N.
    let count = |capacity: u32| {
        let a0 = allocs_now();
        let q = MmcN::new(0.7, 4, capacity).expect("valid queue");
        let made = allocs_now() - a0;
        drop(std::hint::black_box(q));
        made
    };
    let small = count(64);
    let large = count(4096);
    assert_eq!(small, large, "allocations grew with capacity");
    assert!(large <= 1, "{large} allocations per queue");
}
