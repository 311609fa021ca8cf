//! Seeded request-stream generation.
//!
//! A workload is a fixed stream of JSON request lines that one caller
//! replays in a closed loop. The stream is a pure function of the
//! workload and the seed. Every stream is *stratified*: the seed
//! shuffles the order and (except on `sim_des`) jitters each parameter
//! inside its stratum, but the mix of kinds, graphs and simulated
//! horizons is the same for every seed. Different seeds therefore send different bytes while
//! asking for nearly the same amount of work, which keeps run-to-run
//! spread down to host noise.
//!
//! The generator reads graph and node names only through the public
//! registry and graph API, and it sizes the service's admission
//! fields so that no stream it emits is shed.

use lognic_model::fault::FaultPlan;
use lognic_service::json::{escape, parse};
use lognic_service::{Request, ServeConfig};
use lognic_workloads::registry;
use lognic_workloads::scenario::Scenario;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-form requests only: estimate, analyze, sweep and
    /// estimate_degraded over every registry graph.
    ServeModel,
    /// `simulate` requests over every registry graph.
    SimDes,
    /// `fleet_simulate` requests for the 16-NIC registry rack.
    FleetRack,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::ServeModel, Workload::SimDes, Workload::FleetRack];

    /// The command-line spelling.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeModel => "serve_model",
            Workload::SimDes => "sim_des",
            Workload::FleetRack => "fleet_rack",
        }
    }

    /// Resolves a command-line spelling.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Requests per registry graph in one `serve_model` pass, by kind.
const MODEL_ESTIMATES: usize = 60;
const MODEL_ANALYZES: usize = 15;
const MODEL_SWEEPS: usize = 15;
const MODEL_DEGRADED: usize = 10;
/// `simulate` requests per registry graph in one `sim_des` pass.
const SIM_PER_GRAPH: usize = 4;
/// `fleet_simulate` requests in one `fleet_rack` pass.
const FLEET_REQUESTS: usize = 12;
/// Rack size of every `fleet_simulate` request.
const FLEET_NICS: u32 = 16;

/// SplitMix64: a tiny, well-mixed generator, so the stream depends on
/// nothing but the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6C6F_676E_6963_2D62)
    }

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// The `k`-th of `n` strata of `[lo, hi)`, jittered inside it.
    fn stratum(&mut self, k: usize, n: usize, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (k as f64 + self.unit()) / n as f64
    }
}

/// One registry graph as the generator sees it.
pub struct Graph {
    /// Registry name, as sent in the `graph` field.
    pub name: &'static str,
    /// The registry scenario at its registry rate.
    pub scenario: Scenario,
    /// The bundled fault plan, if the workload ships one.
    pub plan: Option<FaultPlan>,
}

/// Builds every registry graph, in registry order.
pub fn catalog() -> Vec<Graph> {
    registry::ALL
        .iter()
        .map(|e| {
            let (scenario, plan) = e.build();
            Graph {
                name: e.name,
                scenario,
                plan,
            }
        })
        .collect()
}

/// A generated stream and the service configuration that admits it.
#[derive(Debug, Clone)]
pub struct Stream {
    /// Request lines, ids `0..len` in order.
    pub lines: Vec<String>,
    /// Service configuration sized for the stream.
    pub config: ServeConfig,
}

/// Generates the stream for `workload` at `seed`.
///
/// # Panics
///
/// Panics if a generated request breaks one of the service's static
/// limits; that is a generator bug, not an input error.
pub fn generate(workload: Workload, seed: u64, graphs: &[Graph]) -> Stream {
    let mut rng = Rng::new(seed);
    let mut bodies = match workload {
        Workload::ServeModel => serve_model(&mut rng, graphs),
        Workload::SimDes => sim_des(graphs),
        Workload::FleetRack => fleet_rack(&mut rng),
    };
    rng.shuffle(&mut bodies);
    let lines: Vec<String> = bodies
        .into_iter()
        .enumerate()
        .map(|(id, body)| format!("{{\"id\":{id},{body}}}"))
        .collect();
    let config = admitting_config(&lines);
    Stream { lines, config }
}

/// A deterministic single-threaded configuration whose admission gauge
/// cannot shed `lines`: each arrival drains at least the largest cost
/// in the stream, so occupancy never exceeds that cost, and the high
/// water mark is twice it.
fn admitting_config(lines: &[String]) -> ServeConfig {
    let mut config = ServeConfig {
        threads: 1,
        deterministic: true,
        ..ServeConfig::default()
    };
    let mut max_cost = 1;
    for line in lines {
        let doc = parse(line).expect("generated lines are valid JSON");
        let req = Request::decode(&doc).expect("generated requests decode");
        assert!(req.fractions.len() <= config.max_sweep_points, "{line}");
        assert!(req.seeds <= config.max_seeds, "{line}");
        assert!(req.duration_ms <= config.max_sim_ms, "{line}");
        assert!(req.nics <= config.max_fleet_nics, "{line}");
        max_cost = max_cost.max(req.cost());
    }
    config.drain_per_request = config.drain_per_request.max(max_cost);
    config.high_water = config.high_water.max(2 * max_cost);
    config
}

/// The graph's computing nodes (the ones a fault window can target).
fn computing_nodes(graph: &Graph) -> Vec<&str> {
    graph
        .scenario
        .graph
        .nodes()
        .iter()
        .filter(|n| n.params().is_some())
        .map(|n| n.name())
        .collect()
}

fn serve_model(rng: &mut Rng, graphs: &[Graph]) -> Vec<String> {
    let mut out = Vec::new();
    for g in graphs {
        let name = escape(g.name);
        // Offered rates span well below to well past the model's knee:
        // the attainable throughput at the registry traffic shape.
        let knee = g
            .scenario
            .estimator()
            .throughput()
            .expect("registry scenarios estimate")
            .attainable()
            .as_gbps();
        for k in 0..MODEL_ESTIMATES {
            let rate = knee * rng.stratum(k, MODEL_ESTIMATES, 0.2, 1.6);
            out.push(format!(
                "\"kind\":\"estimate\",\"graph\":\"{name}\",\"rate_gbps\":{rate}"
            ));
        }
        for k in 0..MODEL_ANALYZES {
            let rate = knee * rng.stratum(k, MODEL_ANALYZES, 0.2, 1.6);
            out.push(format!(
                "\"kind\":\"analyze\",\"graph\":\"{name}\",\"rate_gbps\":{rate},\"deny_warnings\":{}",
                k % 2 == 1
            ));
        }
        for k in 0..MODEL_SWEEPS {
            let points = 4 + k % 5;
            let fractions: Vec<String> = (0..points)
                .map(|j| rng.stratum(j, points, 0.1, 2.0).to_string())
                .collect();
            out.push(format!(
                "\"kind\":\"sweep\",\"graph\":\"{name}\",\"fractions\":[{}]",
                fractions.join(",")
            ));
        }
        let nodes = computing_nodes(g);
        for k in 0..MODEL_DEGRADED {
            if g.plan.is_some() && k % 2 == 0 {
                out.push(format!(
                    "\"kind\":\"estimate_degraded\",\"graph\":\"{name}\""
                ));
                continue;
            }
            let node = escape(nodes[rng.below(nodes.len())]);
            let from = rng.stratum(k, MODEL_DEGRADED, 0.0, 5.0);
            let until = from + 1.0 + 3.0 * rng.unit();
            let effect = match k % 3 {
                0 => "\"kind\":\"outage\"".to_owned(),
                1 => format!("\"kind\":\"degrade\",\"factor\":{}", 0.2 + 0.6 * rng.unit()),
                _ => format!("\"kind\":\"drop\",\"probability\":{}", 0.3 * rng.unit()),
            };
            let retry = if k % 2 == 1 {
                format!(",\"retry\":{{\"budget\":{},\"backoff_us\":20}}", 1 + k % 4)
            } else {
                String::new()
            };
            out.push(format!(
                "\"kind\":\"estimate_degraded\",\"graph\":\"{name}\",\"horizon_ms\":10,\
                 \"faults\":[{{\"node\":\"{node}\",{effect},\"from_ms\":{from},\"until_ms\":{until}}}]{retry}"
            ));
        }
    }
    out
}

fn sim_des(graphs: &[Graph]) -> Vec<String> {
    // The request set is fixed and the seed only orders it. The service
    // picks the replica seeds itself, so jittered horizons would make
    // the model-vs-DES error move with the workload seed; a fixed set
    // keeps it a property of the program alone.
    let mut out = Vec::new();
    for g in graphs {
        // A bundled fault plan acts between 4 and 9 ms of simulated
        // time, so those graphs simulate long enough to reach it.
        let (lo, hi) = if g.plan.is_some() {
            (5.0, 9.0)
        } else {
            (2.0, 4.0)
        };
        // Two or three replicas, never one: a one-replica answer
        // renders its undefined confidence bounds as `inf`, which is
        // not JSON, and fails the response checks.
        for k in 0..SIM_PER_GRAPH {
            let duration = lo + (hi - lo) * (k as f64 + 0.5) / SIM_PER_GRAPH as f64;
            out.push(format!(
                "\"kind\":\"simulate\",\"graph\":\"{}\",\"seeds\":{},\"duration_ms\":{duration}",
                escape(g.name),
                2 + k % 2
            ));
        }
    }
    out
}

fn fleet_rack(rng: &mut Rng) -> Vec<String> {
    // No `shards` field: the service's default shard count applies.
    (0..FLEET_REQUESTS)
        .map(|k| {
            let duration = rng.stratum(k, FLEET_REQUESTS, 2.0, 4.0);
            format!("\"kind\":\"fleet_simulate\",\"nics\":{FLEET_NICS},\"duration_ms\":{duration}")
        })
        .collect()
}
