//! Metric arithmetic and the result line.

use std::collections::BTreeMap;

use lognic_service::RequestKind;

use crate::phase::{Loop, Traced};
use crate::probe::slowdown;

/// The `q`-quantile of `values` by linear interpolation (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Builds a metric.
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The kinds whose per-kind `handle_line` median is reported.
pub const KINDS: [RequestKind; 6] = [
    RequestKind::Estimate,
    RequestKind::Analyze,
    RequestKind::Sweep,
    RequestKind::EstimateDegraded,
    RequestKind::Simulate,
    RequestKind::FleetSimulate,
];

/// Per-layer metrics of a traced phase. Timings are raw host time,
/// medians per call; counts are exact and cover one pass of the
/// stream. A layer the workload never calls reads 0. The tracing
/// overhead compares the traced `handle_line` rate with the `untraced`
/// loop's, each scaled by its own host-speed probe readings.
pub fn layer_metrics(t: &Traced, untraced: &Loop, registry_build_us: f64) -> Vec<Metric> {
    let mut durations: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut child_ns = vec![0u64; t.spans.len()];
    for s in &t.spans {
        durations
            .entry(s.name)
            .or_default()
            .push(s.ns() as f64 / 1e3);
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.ns();
        }
    }
    let total = |name: &str| -> f64 { durations.get(name).map_or(0.0, |v| v.iter().sum()) };
    let med = |name: &str| -> f64 { durations.get(name).map_or(0.0, |v| median(v)) };

    let mut self_us = Vec::new();
    let mut by_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (i, s) in t.spans.iter().enumerate() {
        if s.name == "handle_line" {
            self_us.push((s.ns() as f64 - child_ns[i] as f64) / 1e3);
            let kind = t.kinds[s.request as usize].as_str();
            by_kind.entry(kind).or_default().push(s.ns() as f64 / 1e3);
        }
    }
    let handle_us = total("handle_line");
    let model_us = total("model.evaluate") + total("model.degraded") + total("model.sweep");
    let traced_slowdown = slowdown(&t.summary.probe_s);
    let traced_req_per_s = ratio(t.summary.requests as f64, handle_us / 1e6) * traced_slowdown;
    let untraced_req_per_s = untraced.req_per_s() * slowdown(&untraced.probe_s);
    let (c, all) = (&t.counts, &t.totals);
    let run_s = total("sim.run") / 1e6;
    let sim_events_all = all.sim_events as f64;

    let mut out = vec![
        metric("service.parse_us", med("service.parse"), "us"),
        metric("service.decode_us", med("service.decode"), "us"),
        metric("service.self_us", median(&self_us), "us"),
    ];
    for kind in KINDS {
        let k = kind.as_str();
        let v = by_kind.get(k).map_or(0.0, |v| median(v));
        out.push(metric(format!("service.kind.{k}.p50_us"), v, "us"));
    }
    out.extend([
        metric("analyze.run_us", med("analyze.run"), "us"),
        metric("analyze.calls", c.analyze_calls as f64, "count"),
        metric("model.evaluate_us", med("model.evaluate"), "us"),
        metric("model.throughput_us", med("model.throughput"), "us"),
        metric("model.latency_us", med("model.latency"), "us"),
        metric("model.degraded_us", med("model.degraded"), "us"),
        metric(
            "model.sweep_point_us",
            ratio(total("model.sweep"), all.sweep_points as f64),
            "us",
        ),
        metric("model.evaluate_calls", c.evaluate_calls as f64, "count"),
        metric("model.sweep_points", c.sweep_points as f64, "count"),
        metric("model.share", ratio(model_us, handle_us), "ratio"),
        metric("sim.build_us", med("sim.build"), "us"),
        metric("sim.run_ms", med("sim.run") / 1e3, "ms"),
        metric("sim.replicate_ms", med("sim.replicate") / 1e3, "ms"),
        metric("sim.events", c.sim_events as f64, "count"),
        metric("sim.events_per_s", ratio(sim_events_all, run_s), "1/s"),
        metric("sim.ns_per_event", ratio(run_s * 1e9, sim_events_all), "ns"),
        metric("fleet.build_ms", med("fleet.build") / 1e3, "ms"),
        metric("fleet.run_ms", med("fleet.run") / 1e3, "ms"),
        metric("fleet.rounds", c.fleet_rounds as f64, "count"),
        metric("fleet.events", c.fleet_events as f64, "count"),
        metric("fleet.forwarded", c.fleet_forwarded as f64, "count"),
        metric(
            "fleet.ns_per_round",
            ratio(total("fleet.run") * 1e3, all.fleet_rounds as f64),
            "ns",
        ),
        metric(
            "fleet.events_per_round",
            ratio(c.fleet_events as f64, c.fleet_rounds as f64),
            "count",
        ),
        metric("workloads.registry_build_us", registry_build_us, "us"),
        metric("host.slowdown", traced_slowdown, "ratio"),
        metric(
            "trace.overhead_pct",
            100.0 * ratio(untraced_req_per_s - traced_req_per_s, untraced_req_per_s),
            "%",
        ),
        metric(
            "trace.coverage_pct",
            100.0 * ratio(handle_us - self_us.iter().sum::<f64>(), handle_us),
            "%",
        ),
    ]);
    out
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\":{{\"value\":{v:?},\"unit\":\"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}
