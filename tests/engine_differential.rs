//! Differential property tests of the event scheduler.
//!
//! Every run schedules on the calendar queue; the retained
//! binary-heap scheduler (`Simulation::run_reference_heap`) is its
//! oracle. The two must produce **byte-identical** `SimReport`s for
//! every scenario: same graph, same seed, same faults ⇒ same report,
//! down to the last bit of every float. They share the RNG streams
//! and the `(time, seq)` pop order, so any divergence is a
//! scheduler-ordering bug — exactly the class of regression a
//! perf-motivated rewrite of the event loop is most likely to
//! introduce. A queue-level property drives `CalendarQueue` itself
//! against a `BinaryHeap` on simulator-shaped push/pop streams.
//!
//! Scenarios are randomized over graph shape, IP parameters, traffic
//! and fault plans via the in-repo `lognic-testkit` harness; a failing
//! case panics with its seed for exact replay.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use lognic::prelude::*;
use lognic_testkit::{ensure, Gen, Property};

/// The two schedulers under comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Scheduler {
    /// The calendar queue every public run entry point uses.
    Calendar,
    /// The `BinaryHeap` oracle.
    ReferenceHeap,
}

/// Both schedulers; index 0 is the production one.
const SCHEDULERS: [Scheduler; 2] = [Scheduler::Calendar, Scheduler::ReferenceHeap];

/// Runs a built simulation on `scheduler` under `obs`.
fn run_on<O: SimObserver>(
    sim: Simulation,
    scheduler: Scheduler,
    obs: &mut O,
) -> LogNicResult<SimReport> {
    match scheduler {
        Scheduler::Calendar => sim.run_with(obs),
        Scheduler::ReferenceHeap => sim.run_reference_heap(obs),
    }
}

/// A random 1–4 stage chain with varied peaks, parallelism and queues.
fn arb_chain(g: &mut Gen) -> ExecutionGraph {
    let named: Vec<(String, IpParams)> = g
        .vec(1..5, |g| (g.f64(1.0..60.0), g.u32(1..9), g.u32(2..129)))
        .into_iter()
        .enumerate()
        .map(|(i, (peak, d, q))| {
            (
                format!("s{i}"),
                IpParams::new(Bandwidth::gbps(peak))
                    .with_parallelism(d)
                    .with_queue_capacity(q),
            )
        })
        .collect();
    let refs: Vec<(&str, IpParams)> = named.iter().map(|(n, p)| (n.as_str(), *p)).collect();
    ExecutionGraph::chain("diff", &refs).expect("chains are always valid")
}

/// Random traffic: fixed or mixed packet sizes, load spanning
/// underload through heavy overload so drops, queueing and idle gaps
/// all appear in the case mix.
fn arb_traffic(g: &mut Gen) -> TrafficProfile {
    let rate = Bandwidth::gbps(g.f64(0.5..80.0));
    if g.bool(0.5) {
        TrafficProfile::fixed(rate, Bytes::new(g.u64(64..9000)))
    } else {
        let sizes = PacketSizeDist::mix([
            (Bytes::new(g.u64(64..256)), g.f64(0.5..2.0)),
            (Bytes::new(g.u64(1000..9000)), g.f64(0.5..2.0)),
        ])
        .expect("positive weights");
        TrafficProfile::new(rate, sizes)
    }
}

/// A random fault plan over the chain's stage names (present in half
/// the cases; the other half runs fault-free).
fn arb_plan(g: &mut Gen, graph: &ExecutionGraph) -> Option<FaultPlan> {
    if g.bool(0.5) {
        return None;
    }
    let stages: Vec<String> = graph
        .nodes()
        .iter()
        .filter(|n| n.params().is_some())
        .map(|n| n.name().to_owned())
        .collect();
    let mut plan = FaultPlan::new();
    let node = g.pick(&stages).clone();
    match g.u32(0..3) {
        0 => {
            plan = plan.outage(
                &node,
                Seconds::millis(g.f64(1.0..4.0)),
                Seconds::millis(g.f64(4.0..8.0)),
            );
        }
        1 => {
            plan = plan.drop_packets(
                &node,
                g.f64(0.01..0.2),
                Seconds::millis(0.0),
                Seconds::millis(10.0),
            );
        }
        _ => {
            plan = plan.degrade_rate(
                &node,
                g.f64(0.2..0.9),
                Seconds::millis(g.f64(0.0..3.0)),
                Seconds::millis(g.f64(5.0..10.0)),
            );
        }
    }
    if g.bool(0.5) {
        plan = plan.with_retry(RetryPolicy::new(g.u32(1..4), Seconds::micros(50.0)));
    }
    if g.bool(0.3) {
        plan = plan.with_deadline(Seconds::millis(g.f64(0.5..5.0)));
    }
    Some(plan)
}

/// A random zero-gap burst trace: groups of same-timestamp packets
/// whose ties the scheduler must break by sequence number.
fn arb_burst_trace(g: &mut Gen) -> Trace {
    let bursts = g.u64(4..24);
    let gap_us = g.f64(5.0..80.0);
    let mut events = Vec::new();
    for b in 0..bursts {
        let t = SimTime::from_micros(b as f64 * gap_us);
        let len = g.u64(1..96);
        for _ in 0..len {
            events.push((t, Bytes::new(g.u64(64..4000)), g.u32(0..3)));
        }
    }
    Trace::from_events(events)
}

fn build(
    graph: &ExecutionGraph,
    traffic: &TrafficProfile,
    plan: &Option<FaultPlan>,
    seed: u64,
) -> Simulation {
    let hw = HardwareModel::new(Bandwidth::gbps(400.0), Bandwidth::gbps(400.0));
    let mut b = Simulation::builder(graph, &hw, traffic)
        .seed(seed)
        .duration(Seconds::millis(10.0))
        .warmup(Seconds::millis(2.0));
    if let Some(p) = plan {
        b = b.with_fault_plan(p.clone());
    }
    b.build().expect("generated scenarios are valid")
}

fn run(
    graph: &ExecutionGraph,
    traffic: &TrafficProfile,
    plan: &Option<FaultPlan>,
    seed: u64,
    scheduler: Scheduler,
) -> SimReport {
    run_on(
        build(graph, traffic, plan, seed),
        scheduler,
        &mut NoopObserver,
    )
    .expect("generated scenarios are valid")
}

#[test]
fn engines_are_bit_identical_across_random_scenarios() {
    Property::new("engines_are_bit_identical_across_random_scenarios")
        .cases(48)
        .check(|g| {
            let graph = arb_chain(g);
            let traffic = arb_traffic(g);
            let plan = arb_plan(g, &graph);
            let seed = g.u64(0..u64::MAX - 1);

            let reports: Vec<SimReport> = SCHEDULERS
                .iter()
                .map(|&scheduler| run(&graph, &traffic, &plan, seed, scheduler))
                .collect();

            // Structural equality first (clear failure message), then
            // byte-identity of the full debug rendering — the latter
            // catches float-bit divergence PartialEq would also see,
            // plus any field PartialEq might one day skip.
            let heap = &reports[1];
            ensure!(
                reports[0] == *heap,
                "reports diverged from the heap oracle (faulted: {})",
                plan.is_some()
            );
            ensure!(
                format!("{:?}", reports[0]) == format!("{heap:?}"),
                "debug renderings diverged from the heap oracle"
            );
            Ok(())
        });
}

/// Property: zero-gap burst traces — dozens of arrivals tied on one
/// timestamp, the worst case for the calendar queue's active day —
/// produce byte-identical reports on the calendar queue and the heap
/// oracle.
#[test]
fn burst_traces_are_bit_identical_across_engines() {
    Property::new("burst_traces_are_bit_identical_across_engines")
        .cases(24)
        .check(|g| {
            let graph = arb_chain(g);
            let trace = arb_burst_trace(g);
            let traffic = TrafficProfile::fixed(Bandwidth::gbps(1.0), Bytes::new(1024));
            let seed = g.u64(0..u64::MAX - 1);
            let hw = HardwareModel::new(Bandwidth::gbps(400.0), Bandwidth::gbps(400.0));

            let reports: Vec<SimReport> = SCHEDULERS
                .iter()
                .map(|&scheduler| {
                    let sim = Simulation::builder(&graph, &hw, &traffic)
                        .with_trace(trace.clone())
                        .seed(seed)
                        .duration(Seconds::millis(10.0))
                        .warmup(Seconds::ZERO)
                        .build()
                        .expect("generated scenarios are valid");
                    run_on(sim, scheduler, &mut NoopObserver)
                        .expect("generated scenarios are valid")
                })
                .collect();
            ensure!(
                reports[0] == reports[1],
                "burst reports diverged from the heap oracle"
            );
            Ok(())
        });
}

/// Property: attaching a live ring-log observer never changes the
/// report, and both schedulers emit the byte-identical event stream — the observability layer is passive
/// and deterministic over the whole randomized scenario space, not
/// just the pinned fixtures in `tests/trace.rs`.
#[test]
fn traced_runs_match_untraced_on_all_paths() {
    Property::new("traced_runs_match_untraced_on_all_paths")
        .cases(24)
        .check(|g| {
            let graph = arb_chain(g);
            let traffic = arb_traffic(g);
            let plan = arb_plan(g, &graph);
            let seed = g.u64(0..u64::MAX - 1);

            let mut rings = Vec::new();
            for &scheduler in &SCHEDULERS {
                let untraced = run(&graph, &traffic, &plan, seed, scheduler);
                let mut ring = RingLog::with_capacity(1 << 16);
                let traced = run_on(build(&graph, &traffic, &plan, seed), scheduler, &mut ring)
                    .expect("generated scenarios are valid");
                ensure!(
                    untraced == traced,
                    "observer perturbed the run ({scheduler:?})"
                );
                rings.push(ring);
            }
            for ring in &rings[1..] {
                ensure!(
                    rings[0].bytes() == ring.bytes(),
                    "schedulers emitted different event streams"
                );
            }
            Ok(())
        });
}

#[test]
fn engines_agree_on_replayed_regression_seeds() {
    // Deterministic anchors: one underloaded, one saturated, one
    // faulted case, pinned by explicit seed so they run identically
    // on every machine forever — on both schedulers.
    for (seed, gbps, drop_prob) in [(11, 2.0, 0.0), (12, 55.0, 0.0), (13, 20.0, 0.1)] {
        let graph = ExecutionGraph::chain(
            "anchor",
            &[
                (
                    "parse",
                    IpParams::new(Bandwidth::gbps(25.0)).with_queue_capacity(64),
                ),
                (
                    "crypto",
                    IpParams::new(Bandwidth::gbps(30.0))
                        .with_parallelism(2)
                        .with_queue_capacity(32),
                ),
            ],
        )
        .unwrap();
        let traffic = TrafficProfile::fixed(Bandwidth::gbps(gbps), Bytes::new(1500));
        let plan = (drop_prob > 0.0).then(|| {
            FaultPlan::new()
                .drop_packets(
                    "parse",
                    drop_prob,
                    Seconds::millis(0.0),
                    Seconds::millis(10.0),
                )
                .with_retry(RetryPolicy::new(2, Seconds::micros(80.0)))
        });
        let baseline = run(&graph, &traffic, &plan, seed, Scheduler::Calendar);
        let heap = run(&graph, &traffic, &plan, seed, Scheduler::ReferenceHeap);
        assert_eq!(baseline, heap, "seed {seed} diverged from the heap oracle");
        assert!(baseline.events > 0, "seed {seed} simulated nothing");
    }
}

/// Property: `CalendarQueue` pops exactly the `(time, seq)` order of a
/// `BinaryHeap<Reverse<(time, seq)>>` on streams shaped like the
/// simulator's: pushes never land in the past, bursts of k events tie
/// on one timestamp, completions land back in the open day between
/// pops, and the odd far-future event sits many wheel laps ahead.
#[test]
fn calendar_queue_matches_heap_oracle_on_simulator_shaped_streams() {
    Property::new("calendar_queue_matches_heap_oracle_on_simulator_shaped_streams")
        .cases(64)
        .check(|g| {
            let gap = g.u64(1..20_000);
            let mut q = CalendarQueue::new(gap);
            let mut oracle: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            let mut push = |q: &mut CalendarQueue<u64>, oracle: &mut BinaryHeap<_>, t: u64| {
                seq += 1;
                q.push(t, seq, seq);
                oracle.push(Reverse((t, seq)));
            };
            for _ in 0..g.usize(50..400) {
                match g.u32(0..10) {
                    // A burst: k arrivals tied on one timestamp.
                    0..=1 => {
                        let t = now + g.u64(0..gap * 8);
                        for _ in 0..g.u64(2..64) {
                            push(&mut q, &mut oracle, t);
                        }
                    }
                    // A far-future event, many laps ahead.
                    2 => push(&mut q, &mut oracle, now + g.u64(1 << 30..1 << 40)),
                    // A completion into the open day (or a near one).
                    3..=5 => push(&mut q, &mut oracle, now + g.u64(0..gap * 2)),
                    // Pop a few, each checked against the oracle.
                    _ => {
                        for _ in 0..g.u32(1..6) {
                            let popped = q.pop();
                            ensure!(
                                popped.is_none_or(|(_, s, p)| s == p),
                                "payload separated from its entry"
                            );
                            let got = popped.map(|(t, s, _)| (t, s));
                            let want = oracle.pop().map(|Reverse(k)| k);
                            ensure!(got == want, "popped {got:?}, oracle {want:?}");
                            if let Some((t, _)) = got {
                                now = t;
                            }
                        }
                    }
                }
                ensure!(q.len() == oracle.len(), "length drifted");
            }
            while let Some(want) = oracle.pop().map(|Reverse(k)| k) {
                let got = q.pop().map(|(t, s, _)| (t, s));
                ensure!(got == Some(want), "drain popped {got:?}, oracle {want:?}");
            }
            ensure!(
                q.pop().is_none() && q.is_empty(),
                "queue outlived the oracle"
            );
            Ok(())
        });
}
