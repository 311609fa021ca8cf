//! Output checks: every response is checked against its request, and
//! a sample is checked against a direct call into the model.

use lognic_model::error::LogNicResult;
use lognic_model::fault::FaultPlan;
use lognic_model::units::{Bandwidth, Seconds};
use lognic_service::json::{parse, Json};
use lognic_service::{Request, RequestKind};
use lognic_sim::faults::CompiledFaultPlan;
use lognic_sim::replicate::Replication;
use lognic_sim::sim::{SimConfig, Simulation};
use lognic_workloads::scenario::Scenario;

use crate::gen::{Graph, Rng};

/// FNV-1a over every response and a separating newline.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds one response line in.
    pub fn add(&mut self, line: &str) {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Digest of a whole transcript.
pub fn digest(responses: &[String]) -> u64 {
    let mut d = Digest::default();
    for r in responses {
        d.add(r);
    }
    d.value()
}

/// Decodes a generated request line.
fn decode(line: &str) -> Request {
    Request::decode(&parse(line).expect("generated lines are valid JSON"))
        .expect("generated requests decode")
}

/// Every request got exactly one response, in order, echoing its id,
/// answered `ok:true` with the requested kind.
///
/// # Errors
///
/// Describes the first response that breaks the contract.
pub fn check_responses(lines: &[String], responses: &[String]) -> Result<(), String> {
    if lines.len() != responses.len() {
        return Err(format!(
            "{} requests got {} responses",
            lines.len(),
            responses.len()
        ));
    }
    for (i, (line, resp)) in lines.iter().zip(responses).enumerate() {
        let doc = parse(resp).map_err(|e| format!("response {i} is not JSON ({e}): {resp}"))?;
        if doc.get("id").and_then(Json::as_f64) != Some(i as f64) {
            return Err(format!("response {i} does not echo id {i}: {resp}"));
        }
        if doc.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("response {i} is not ok: {resp}"));
        }
        let kind = decode(line).kind.as_str();
        if doc.get("kind").and_then(Json::as_str) != Some(kind) {
            return Err(format!("response {i} is not of kind {kind}: {resp}"));
        }
    }
    Ok(())
}

/// The registry graph a request names.
pub fn graph<'a>(graphs: &'a [Graph], req: &Request) -> &'a Graph {
    let name = req.graph.as_deref().expect("evaluating kinds name a graph");
    graphs
        .iter()
        .find(|g| g.name == name)
        .expect("generated requests name registry graphs")
}

/// The scenario a request evaluates: the registry scenario at the
/// request's rate override, if any.
pub fn scenario(g: &Graph, req: &Request) -> Scenario {
    match req.rate_gbps {
        Some(r) => g.scenario.at_rate(Bandwidth::gbps(r)),
        None => g.scenario.clone(),
    }
}

/// Up to `n` indices of `kind` requests, chosen by `seed`.
pub fn sample(lines: &[String], kind: RequestKind, n: usize, seed: u64) -> Vec<usize> {
    let mut picked: Vec<usize> = (0..lines.len())
        .filter(|&i| decode(&lines[i]).kind == kind)
        .collect();
    Rng::new(seed ^ 0x5A4D_504C_4553).shuffle(&mut picked);
    picked.truncate(n);
    picked.sort_unstable();
    picked
}

/// The `estimate` responses at `indices` equal, field by field, a
/// direct `Estimator` evaluation of the same scenario and rate.
///
/// # Errors
///
/// Names the first field that differs.
pub fn check_estimates(
    graphs: &[Graph],
    lines: &[String],
    responses: &[String],
    indices: &[usize],
) -> Result<(), String> {
    for &i in indices {
        let req = decode(&lines[i]);
        let scenario = scenario(graph(graphs, &req), &req);
        let est = scenario
            .estimator()
            .request()
            .evaluate()
            .map_err(|e| format!("request {i}: direct evaluation failed: {e}"))?;
        let doc = parse(&responses[i]).map_err(|e| format!("response {i}: {e}"))?;
        let num = |field: &str| doc.get(field).and_then(Json::as_f64);
        let expect = [
            ("attainable_gbps", est.throughput.attainable().as_gbps()),
            ("delivered_gbps", est.delivered.as_gbps()),
            ("latency_us", est.latency.mean().as_secs() * 1e6),
        ];
        for (field, want) in expect {
            if num(field) != Some(want) {
                return Err(format!(
                    "response {i}: {field} is {:?}, the estimator gives {want}",
                    num(field)
                ));
            }
        }
        if doc.get("saturated").and_then(Json::as_bool) != Some(est.throughput.is_saturated()) {
            return Err(format!(
                "response {i}: saturated differs from the estimator"
            ));
        }
        let bottleneck = est.throughput.bottleneck().component.to_string();
        if doc.get("bottleneck").and_then(Json::as_str) != Some(bottleneck.as_str()) {
            return Err(format!(
                "response {i}: bottleneck differs from the estimator ({bottleneck})"
            ));
        }
    }
    Ok(())
}

/// The simulation configuration the service runs a `simulate` or
/// `fleet_simulate` request under.
pub fn sim_config(req: &Request, config: &lognic_service::ServeConfig) -> SimConfig {
    let duration = Seconds::millis(req.duration_ms);
    let mut budget = config.max_events_per_request;
    if req.max_events > 0 {
        budget = budget.min(req.max_events);
    }
    if let Some(deadline_ms) = req.deadline_ms {
        let from_deadline = (deadline_ms.ceil() as u64)
            .saturating_mul(config.events_per_deadline_ms)
            .max(1);
        budget = budget.min(from_deadline);
    }
    SimConfig {
        duration,
        warmup: duration.scaled(0.2),
        max_events: budget,
        ..SimConfig::default()
    }
}

/// A `simulate` request's replicas, built as the service builds them:
/// one fault plan compiled once, one simulation per replica seed.
pub struct Replicas<'a> {
    scenario: &'a Scenario,
    plan: Option<CompiledFaultPlan>,
    config: SimConfig,
    seeds: Replication,
}

impl<'a> Replicas<'a> {
    /// Prepares the replicas of `req` on `scenario` under `plan`.
    ///
    /// # Errors
    ///
    /// Fails when the plan does not compile against the graph.
    pub fn new(
        scenario: &'a Scenario,
        plan: Option<&FaultPlan>,
        req: &Request,
        config: &lognic_service::ServeConfig,
    ) -> Result<Replicas<'a>, String> {
        let plan = plan
            .map(|p| CompiledFaultPlan::compile(p, &scenario.graph))
            .transpose()
            .map_err(|e| e.to_string())?;
        Ok(Replicas {
            scenario,
            plan,
            config: sim_config(req, config),
            seeds: Replication::new(req.seeds),
        })
    }

    /// The replica seeds, in aggregation order.
    pub fn seeds(&self) -> &[u64] {
        self.seeds.seeds()
    }

    /// Builds the replica with `seed`.
    ///
    /// # Errors
    ///
    /// Propagates the builder's validation errors.
    pub fn build(&self, seed: u64) -> LogNicResult<Simulation> {
        let s = self.scenario;
        let mut builder =
            Simulation::builder(&s.graph, &s.hardware, &s.traffic).config(SimConfig {
                seed,
                ..self.config
            });
        if let Some(c) = &self.plan {
            builder = builder.with_compiled_faults(c);
        }
        builder.build()
    }
}

/// Every replica of the `simulate` requests at `indices` runs clean
/// under the runtime sanitizer.
///
/// # Errors
///
/// Reports the first replica the sanitizer flags.
pub fn check_sanitized(
    graphs: &[Graph],
    lines: &[String],
    indices: &[usize],
    config: &lognic_service::ServeConfig,
) -> Result<(), String> {
    for &i in indices {
        let req = decode(&lines[i]);
        let g = graph(graphs, &req);
        let s = scenario(g, &req);
        let plan = req.fault_plan().or_else(|| g.plan.clone());
        let replicas = Replicas::new(&s, plan.as_ref(), &req, config)
            .map_err(|e| format!("request {i}: {e}"))?;
        for &seed in replicas.seeds() {
            replicas
                .build(seed)
                .and_then(Simulation::run_sanitized)
                .map_err(|e| format!("request {i}, replica seed {seed}: {e}"))?;
        }
    }
    Ok(())
}

/// Model-vs-DES error of one `simulate` answer, in percent.
#[derive(Debug, Clone)]
pub struct Accuracy {
    /// Registry graph.
    pub graph: String,
    /// |model delivered − DES throughput| ÷ DES throughput × 100.
    pub tput_err_pct: f64,
    /// |model latency − DES latency| ÷ DES latency × 100.
    pub lat_err_pct: f64,
}

/// Compares every `simulate` response's DES means with an untimed
/// `Estimator` call on the same registry scenario (degraded by the
/// same fault plan over the simulated horizon, when one applies).
///
/// # Errors
///
/// Fails when a response lacks its means or the model cannot evaluate.
pub fn accuracy(
    graphs: &[Graph],
    lines: &[String],
    responses: &[String],
) -> Result<Vec<Accuracy>, String> {
    let mut out = Vec::new();
    for (i, (line, resp)) in lines.iter().zip(responses).enumerate() {
        let req = decode(line);
        if req.kind != RequestKind::Simulate {
            continue;
        }
        let g = graph(graphs, &req);
        let doc = parse(resp).map_err(|e| format!("response {i}: {e}"))?;
        let mean = |field: &str| {
            doc.get(field)
                .and_then(|m| m.get("mean"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("response {i} has no {field}.mean"))
        };
        let des_tput = mean("throughput_gbps")?;
        let des_lat = mean("latency_s")?;
        let plan = req.fault_plan().or_else(|| g.plan.clone());
        let s = scenario(g, &req);
        let estimator = s.estimator();
        let request = estimator.request();
        let est = match &plan {
            Some(p) => request
                .with_faults(p, Seconds::millis(req.duration_ms))
                .evaluate(),
            None => request.evaluate(),
        }
        .map_err(|e| format!("request {i}: model evaluation failed: {e}"))?;
        out.push(Accuracy {
            graph: g.name.to_owned(),
            tput_err_pct: 100.0 * (est.delivered.as_gbps() - des_tput).abs() / des_tput,
            lat_err_pct: 100.0 * (est.latency.mean().as_secs() - des_lat).abs() / des_lat,
        });
    }
    if out.is_empty() {
        return Err("the stream holds no simulate answers".into());
    }
    Ok(out)
}
