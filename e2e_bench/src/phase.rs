//! The measured phases: a closed loop that replays the stream through
//! `Service::handle_line`, untraced or traced.
//!
//! Both loops replay whole passes over the stream until the time is up,
//! so every measurement covers the stream's exact request mix, and
//! both always complete at least one pass, so the first pass yields a
//! transcript digest and exact per-pass counts however slow the host.

use std::hint::black_box;
use std::time::{Duration, Instant};

use lognic_model::analyze::{AnalysisConfig, Analyzer};
use lognic_model::sweep::rate_sweep;
use lognic_model::units::Seconds;
use lognic_service::json::parse;
use lognic_service::{Request, RequestKind, ServeConfig, Service};
use lognic_sim::fleet::FleetBuilder;
use lognic_workloads::rack;

use crate::check::{self, Digest};
use crate::gen::Graph;
use crate::probe::HostProbe;

/// Answers every line once on a fresh service.
pub fn pass(config: &ServeConfig, lines: &[String]) -> Vec<String> {
    let mut service = Service::new(config.clone());
    lines.iter().map(|l| service.handle_line(l)).collect()
}

/// What a closed-loop phase observed.
#[derive(Debug, Default)]
pub struct Loop {
    /// Host time around each `handle_line`, µs, in send order.
    pub latencies_us: Vec<f64>,
    /// Requests sent.
    pub requests: u64,
    /// Responses that were not `ok` (failed, refused or shed).
    pub failed: u64,
    /// Responses that differ from the reference transcript.
    pub mismatched: u64,
    /// Wall time of the whole phase, s.
    pub wall_s: f64,
    /// Digest of the first pass's responses.
    pub first_pass_digest: u64,
    /// Wall time of each pass, s.
    pub pass_s: Vec<f64>,
    /// Wall time of the host-speed probe after each pass, s.
    pub probe_s: Vec<f64>,
}

impl Loop {
    /// Requests per second of pass time (probe runs excluded).
    pub fn req_per_s(&self) -> f64 {
        self.requests as f64 / self.pass_s.iter().sum::<f64>()
    }

    fn answer(&mut self, i: usize, resp: &str, reference: &[String], digest: &mut Option<Digest>) {
        self.requests += 1;
        if !resp.contains("\"ok\":true") {
            self.failed += 1;
        }
        if resp != reference[i] {
            self.mismatched += 1;
        }
        if let Some(d) = digest {
            d.add(resp);
        }
    }
}

/// The untraced closed loop, for the end-to-end metrics.
pub fn untraced(
    config: &ServeConfig,
    lines: &[String],
    reference: &[String],
    seconds: f64,
) -> Loop {
    let budget = Duration::from_secs_f64(seconds);
    let mut service = Service::new(config.clone());
    let mut out = Loop {
        latencies_us: Vec::with_capacity(lines.len() * 16),
        ..Loop::default()
    };
    let mut digest = Some(Digest::default());
    let probe = HostProbe::new();
    let start = Instant::now();
    loop {
        let p0 = Instant::now();
        for (i, line) in lines.iter().enumerate() {
            let t0 = Instant::now();
            let resp = service.handle_line(line);
            out.latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
            out.answer(i, &resp, reference, &mut digest);
        }
        out.pass_s.push(p0.elapsed().as_secs_f64());
        out.probe_s.push(probe.time());
        if let Some(d) = digest.take() {
            out.first_pass_digest = d.value();
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// One recorded span. Times are ns since the trace epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the causing span; `handle_line` spans have none.
    pub parent: Option<u32>,
    /// Sequence number of the request within the phase.
    pub request: u64,
}

impl Span {
    /// Duration, ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Exact work counts over one pass of the stream.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counts {
    /// `Analyzer::run` calls.
    pub analyze_calls: u64,
    /// `EstimateRequest::evaluate` calls (estimate and estimate_degraded).
    pub evaluate_calls: u64,
    /// Sweep points evaluated.
    pub sweep_points: u64,
    /// DES events over every simulate replica.
    pub sim_events: u64,
    /// Fleet lookahead rounds.
    pub fleet_rounds: u64,
    /// Fleet events.
    pub fleet_events: u64,
    /// Packets forwarded between NICs.
    pub fleet_forwarded: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.analyze_calls += o.analyze_calls;
        self.evaluate_calls += o.evaluate_calls;
        self.sweep_points += o.sweep_points;
        self.sim_events += o.sim_events;
        self.fleet_rounds += o.fleet_rounds;
        self.fleet_events += o.fleet_events;
        self.fleet_forwarded += o.fleet_forwarded;
    }
}

/// Spans, per-pass counts and the loop summary of a traced phase.
#[derive(Debug, Default)]
pub struct Traced {
    /// Every span, in begin order.
    pub spans: Vec<Span>,
    /// Kind of each request, by sequence number.
    pub kinds: Vec<RequestKind>,
    /// Counts over the first pass.
    pub counts: Counts,
    /// Counts over every pass.
    pub totals: Counts,
    /// The loop summary (`latencies_us` stays empty: the spans hold it).
    pub summary: Loop,
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    request: u64,
}

impl Tracer {
    fn begin(&mut self, name: &'static str, parent: Option<u32>) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request: self.request,
        });
        id
    }

    fn end(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    fn span<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, Some(parent));
        let out = black_box(f());
        self.end(id);
        out
    }
}

/// The traced closed loop: times each `handle_line` as the parent
/// span, then re-executes its layer calls in the service's order
/// (parse → decode → `Analyzer::run` → `Estimator` / `rate_sweep` /
/// replica build + run / fleet build + run), each as a child span.
///
/// # Errors
///
/// Fails when a re-executed call errs or disagrees with the response.
pub fn traced(
    config: &ServeConfig,
    graphs: &[Graph],
    lines: &[String],
    reference: &[String],
    seconds: f64,
) -> Result<Traced, String> {
    let budget = Duration::from_secs_f64(seconds);
    let mut service = Service::new(config.clone());
    let mut tracer = Tracer {
        epoch: Instant::now(),
        spans: Vec::new(),
        request: 0,
    };
    let mut out = Traced::default();
    let mut digest = Some(Digest::default());
    let probe = HostProbe::new();
    let start = Instant::now();
    loop {
        let mut counts = Counts::default();
        for (i, line) in lines.iter().enumerate() {
            let hl = tracer.begin("handle_line", None);
            let resp = service.handle_line(line);
            tracer.end(hl);
            out.summary.answer(i, &resp, reference, &mut digest);
            let kind = reexecute(&mut tracer, hl, config, graphs, line, &resp, &mut counts)
                .map_err(|e| format!("request {i}: {e}"))?;
            out.kinds.push(kind);
            tracer.request += 1;
        }
        if let Some(d) = digest.take() {
            out.summary.first_pass_digest = d.value();
            out.counts = counts.clone();
        }
        out.totals.add(&counts);
        out.summary.probe_s.push(probe.time());
        if start.elapsed() >= budget {
            break;
        }
    }
    out.summary.wall_s = start.elapsed().as_secs_f64();
    out.spans = tracer.spans;
    Ok(out)
}

fn reexecute(
    tr: &mut Tracer,
    hl: u32,
    config: &ServeConfig,
    graphs: &[Graph],
    line: &str,
    resp: &str,
    counts: &mut Counts,
) -> Result<RequestKind, String> {
    let doc = tr.span("service.parse", hl, || parse(line));
    let doc = doc.map_err(|e| e.to_string())?;
    let req = tr.span("service.decode", hl, || Request::decode(&doc));
    let req = req.map_err(|e| e.to_string())?;
    if req.kind == RequestKind::FleetSimulate {
        let cfg = check::sim_config(&req, config);
        let fleet = tr.span("fleet.build", hl, || {
            FleetBuilder::new(rack::topology(req.nics as usize))
                .config(cfg)
                .shards(req.shards as usize)
                .build()
        });
        let fleet = fleet.map_err(|e| e.to_string())?;
        let report = tr.span("fleet.run", hl, || fleet.run());
        let report = report.map_err(|e| e.to_string())?;
        let echoed = format!(
            "\"rounds\":{},\"injected\":{},\"completed\":{},\"dropped\":{},\"forwarded\":{},\"events\":{}",
            report.rounds, report.injected, report.completed, report.dropped, report.forwarded, report.events
        );
        if !resp.contains(&echoed) {
            return Err(format!("re-executed fleet ({echoed}) differs from {resp}"));
        }
        counts.fleet_rounds += report.rounds;
        counts.fleet_events += report.events;
        counts.fleet_forwarded += report.forwarded;
        return Ok(req.kind);
    }
    let g = check::graph(graphs, &req);
    let s = check::scenario(g, &req);
    let analysis = AnalysisConfig::new().deny_warnings(req.deny_warnings);
    tr.span("analyze.run", hl, || {
        Analyzer::new(&s.graph)
            .with_hardware(&s.hardware)
            .with_traffic(&s.traffic)
            .run(&analysis)
    });
    counts.analyze_calls += 1;
    let plan = req.fault_plan().or_else(|| g.plan.clone());
    match req.kind {
        RequestKind::Estimate => {
            let ev = tr.begin("model.evaluate", Some(hl));
            black_box(s.estimator().request().evaluate()).map_err(|e| e.to_string())?;
            tr.end(ev);
            let tput = tr.span("model.throughput", ev, || s.estimator().throughput());
            tput.map_err(|e| e.to_string())?;
            let lat = tr.span("model.latency", ev, || s.estimator().latency());
            lat.map_err(|e| e.to_string())?;
            counts.evaluate_calls += 1;
        }
        RequestKind::EstimateDegraded => {
            let plan = plan.ok_or("estimate_degraded without a plan")?;
            let horizon = Seconds::millis(req.horizon_ms);
            let est = tr.span("model.degraded", hl, || {
                s.estimator()
                    .request()
                    .with_faults(&plan, horizon)
                    .evaluate()
            });
            est.map_err(|e| e.to_string())?;
            counts.evaluate_calls += 1;
        }
        RequestKind::Sweep => {
            let reference = s.traffic.ingress_bandwidth();
            let points = tr.span("model.sweep", hl, || {
                rate_sweep(&s.graph, &s.hardware, &s.traffic, reference, &req.fractions)
            });
            counts.sweep_points += points.map_err(|e| e.to_string())?.len() as u64;
        }
        RequestKind::Simulate => {
            let rep = tr.begin("sim.replicate", Some(hl));
            let replicas = check::Replicas::new(&s, plan.as_ref(), &req, config)?;
            for &seed in replicas.seeds() {
                let sim = tr.span("sim.build", rep, || replicas.build(seed));
                let sim = sim.map_err(|e| e.to_string())?;
                let report = tr.span("sim.run", rep, || sim.run());
                counts.sim_events += report.map_err(|e| e.to_string())?.events;
            }
            tr.end(rep);
        }
        RequestKind::Analyze => {}
        other => return Err(format!("the benchmark never sends {}", other.as_str())),
    }
    Ok(req.kind)
}
