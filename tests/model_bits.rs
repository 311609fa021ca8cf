//! Bit-identity golden for the closed-form model.
//!
//! Every registry scenario is evaluated at several fractions of its
//! reference rate, `chaos` additionally under its bundled fault plan,
//! and every graph through one `rate_sweep`. A small lossy fan-out
//! graph adds stages that sit behind a dropping stage, on several
//! paths at once, which no registry graph has. Each resulting `f64` is
//! recorded as its exact `to_bits` pattern, so any reordering of the
//! model's floating-point operations shows up as a diff. Regenerate
//! deliberately with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test model_bits
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use lognic::prelude::*;
use lognic::workloads::registry;

/// Offered-rate fractions of each scenario's reference rate; the last
/// two overdrive every graph far enough for its queues to drop.
const FRACTIONS: [f64; 7] = [0.05, 0.5, 0.9, 1.0, 1.5, 4.0, 8.0];

/// Points of the per-graph sweep: the service's typical curve plus
/// overdriven points past the knee.
const SWEEP: [f64; 6] = [0.1, 0.3, 0.6, 0.9, 1.2, 2.0];

/// Fault horizons for `chaos`: the service default and the plan's own.
const HORIZONS_MS: [f64; 2] = [10.0, 12.0];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/model/estimates.txt")
}

fn bits(out: &mut String, label: &str, v: f64) {
    let _ = writeln!(out, "  {label} {:016x}", v.to_bits());
}

fn record(out: &mut String, graph: &ExecutionGraph, est: &Estimate) {
    bits(out, "attainable", est.throughput.attainable().as_bps());
    bits(out, "delivered", est.delivered.as_bps());
    bits(out, "latency", est.latency.mean().as_secs());
    for (i, p) in est.latency.per_path().iter().enumerate() {
        bits(out, &format!("path[{i}]"), p.latency.as_secs());
    }
    for t in est.latency.per_node() {
        let name = graph.node(t.node).name();
        bits(out, &format!("{name}.service"), t.service.as_secs());
        bits(out, &format!("{name}.utilization"), t.utilization);
        bits(
            out,
            &format!("{name}.queueing_delay"),
            t.queueing_delay.as_secs(),
        );
        bits(out, &format!("{name}.drop_probability"), t.drop_probability);
    }
    if let Some(d) = &est.degraded {
        bits(out, "availability", d.availability);
        bits(out, "retry_inflation", d.retry_inflation);
        bits(out, "residual_loss", d.residual_loss);
        bits(out, "goodput", d.goodput.as_bps());
    }
}

/// `in → front → mid → {left, right} → out` with short queues, so
/// `mid`, `left` and `right` see rates already thinned by drops, and
/// `mid` sits on both paths.
fn lossy_fan_out() -> ExecutionGraph {
    let mut b = ExecutionGraph::builder("lossy-fan-out");
    let ing = b.ingress("in");
    let front = b.ip(
        "front",
        IpParams::new(Bandwidth::gbps(10.0)).with_queue_capacity(4),
    );
    let mid = b.ip(
        "mid",
        IpParams::new(Bandwidth::gbps(12.0))
            .with_parallelism(2)
            .with_queue_capacity(4),
    );
    let left = b.ip(
        "left",
        IpParams::new(Bandwidth::gbps(8.0)).with_queue_capacity(8),
    );
    let right = b.ip(
        "right",
        IpParams::new(Bandwidth::gbps(5.0)).with_queue_capacity(8),
    );
    let eg = b.egress("out");
    let half = || EdgeParams::new(0.5).expect("valid delta");
    b.edge(ing, front, EdgeParams::full());
    b.edge(front, mid, EdgeParams::full());
    b.edge(mid, left, half());
    b.edge(mid, right, half());
    b.edge(left, eg, half());
    b.edge(right, eg, half());
    b.build().expect("valid graph")
}

fn transcript() -> String {
    let mut out = String::new();
    let graph = lossy_fan_out();
    let hw = HardwareModel::default();
    for gbps in [2.0, 9.0, 15.0, 30.0] {
        let traffic = TrafficProfile::fixed(Bandwidth::gbps(gbps), Bytes::new(1500));
        let est = Estimator::new(&graph, &hw, &traffic)
            .estimate()
            .expect("fan-out evaluates");
        let _ = writeln!(out, "lossy-fan-out {gbps}gbps");
        record(&mut out, &graph, &est);
    }
    for entry in registry::ALL.iter() {
        let (scenario, plan) = entry.build();
        let reference = scenario.traffic.ingress_bandwidth();
        for f in FRACTIONS {
            let traffic = scenario.traffic.at_rate(reference.scaled(f));
            let est = Estimator::new(&scenario.graph, &scenario.hardware, &traffic)
                .estimate()
                .expect("registry scenarios evaluate");
            let _ = writeln!(out, "{} x{f}", entry.name);
            record(&mut out, &scenario.graph, &est);
        }
        if entry.name == "chaos" {
            let plan = plan.expect("chaos ships a fault plan");
            for h in HORIZONS_MS {
                let est = scenario
                    .estimator()
                    .request()
                    .with_faults(&plan, Seconds::millis(h))
                    .evaluate()
                    .expect("chaos evaluates under its plan");
                let _ = writeln!(out, "{} faults@{h}ms", entry.name);
                record(&mut out, &scenario.graph, &est);
            }
        }
        let points = rate_sweep(
            &scenario.graph,
            &scenario.hardware,
            &scenario.traffic,
            reference,
            &SWEEP,
        )
        .expect("registry scenarios sweep");
        let _ = writeln!(out, "{} sweep", entry.name);
        for (f, p) in SWEEP.iter().zip(&points) {
            bits(&mut out, &format!("x{f}.offered"), p.offered.as_bps());
            bits(&mut out, &format!("x{f}.delivered"), p.delivered.as_bps());
            bits(&mut out, &format!("x{f}.latency"), p.latency.as_secs());
            bits(
                &mut out,
                &format!("x{f}.peak_utilization"),
                p.peak_utilization,
            );
        }
    }
    out
}

#[test]
fn model_outputs_are_bit_identical_to_golden() {
    let got = transcript();
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, &got).expect("write model golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing model golden {} ({e}); run UPDATE_GOLDEN=1 cargo test --test model_bits",
            path.display()
        )
    });
    if got != expected {
        let first = got
            .lines()
            .zip(expected.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(got.lines().count().min(expected.lines().count()));
        panic!(
            "model output diverges from {} at line {}: got {:?}, want {:?}; \
             regenerate with UPDATE_GOLDEN=1 only if the change is deliberate",
            path.display(),
            first + 1,
            got.lines().nth(first),
            expected.lines().nth(first)
        );
    }
}
