//! Latency modeling (§3.6, Eq. 5–8).
//!
//! The latency of a request follows its path through the execution
//! graph. Each traversed IP contributes queueing (`Q_i`, from the
//! M/M/1/N model of [`crate::queueing`]), execution (`C_i / A_i`) and
//! the computation-transfer overhead (`O_i`); each edge contributes the
//! data movement time over its media. The application latency is the
//! weighted average over all ingress→egress paths (Eq. 8).

use crate::error::Result;
use crate::graph::{ExecutionGraph, NodeId, Path};
use crate::params::{HardwareModel, IpParams, TrafficProfile};
use crate::queueing::MmcN;
use crate::throughput::effective_delta_in;
use crate::units::{Bytes, Seconds};

/// Per-node timing derived from Eq. 7 and Eq. 11 at one ingress
/// granularity.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeTiming {
    /// The vertex this timing describes.
    pub node: NodeId,
    /// Mean request execution time `C_i / A_i` at the node.
    pub service: Seconds,
    /// Offered utilization `ρ = BW_in · Σδ_in / P_vi`.
    pub utilization: f64,
    /// Mean queueing delay `Q_i` (Eq. 12).
    pub queueing_delay: Seconds,
    /// Probability an arriving request is dropped (`Pro_N`).
    pub drop_probability: f64,
}

/// Latency of a single ingress→egress path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathLatency {
    /// The path (edges, vertices, traffic weight `w_Pk`).
    pub path: Path,
    /// The end-to-end latency `T_Pk` (Eq. 6).
    pub latency: Seconds,
}

/// The result of latency modeling at one granularity.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyEstimate {
    mean: Seconds,
    per_path: Vec<PathLatency>,
    per_node: Vec<NodeTiming>,
}

impl LatencyEstimate {
    /// The traffic-weighted mean latency `T_attainable` (Eq. 8).
    pub fn mean(&self) -> Seconds {
        self.mean
    }

    /// Latency of every path, in graph enumeration order.
    pub fn per_path(&self) -> &[PathLatency] {
        &self.per_path
    }

    /// Timing of every compute vertex that has parameters.
    pub fn per_node(&self) -> &[NodeTiming] {
        &self.per_node
    }

    /// The timing entry for a specific vertex, if it computes.
    pub fn node_timing(&self, node: NodeId) -> Option<&NodeTiming> {
        self.per_node.iter().find(|t| t.node == node)
    }

    /// The worst per-path latency (an upper envelope, not a tail
    /// estimate — the model cannot predict tails, §4.7).
    pub fn max_path(&self) -> Seconds {
        self.per_path
            .iter()
            .map(|p| p.latency)
            .fold(Seconds::ZERO, Seconds::max)
    }
}

/// The granularity-free half of one node's timing: its Eq. 11
/// utilization and the M/M/c/N virtual queue that utilization implies.
///
/// The queue depends only on `(ρ, c, N)`, never on the request size,
/// so an evaluation builds it once per node ([`QueueTable`]) and every
/// path, packet-size class and compression stage reuses it; only the
/// Eq. 7 service time is recomputed per size.
#[derive(Debug)]
pub(crate) struct NodeQueue {
    node: NodeId,
    pub(crate) params: IpParams,
    /// `Σ δ_in`, with the ingress vertex receiving the whole volume.
    pub(crate) delta_in: f64,
    /// Offered utilization `ρ = BW_in · Σδ_in · w / P_eff` (Eq. 11).
    utilization: f64,
    /// The virtual queue; absent when `ρ` is not finite (no capacity).
    pub(crate) queue: Option<MmcN>,
}

impl NodeQueue {
    /// Builds the queue of vertex `node`, or `None` for pure data
    /// movers (ingress/egress vertices without parameters).
    pub(crate) fn new(
        graph: &ExecutionGraph,
        node: NodeId,
        traffic: &TrafficProfile,
    ) -> Option<NodeQueue> {
        let params = *graph.node(node).params()?;
        let delta_in = effective_delta_in(graph, node);
        let peak = params.effective_peak();

        // ρ = BW_in · Σδ · w / P_eff   (Eq. 11)
        let utilization = if peak.is_zero() {
            f64::INFINITY
        } else {
            traffic.ingress_bandwidth().as_bps() * delta_in * params.work_factor() / peak.as_bps()
        };

        // The paper's Eq. 12 is the D = 1 case; for multi-engine IPs the
        // M/M/c/N generalization avoids charging queueing delay that D
        // concurrent engines never exhibit (DESIGN.md §5b).
        let queue = utilization.is_finite().then(|| {
            MmcN::new(
                utilization,
                params.parallelism(),
                params.effective_queue_capacity(),
            )
            .expect("utilization is finite and non-negative")
        });
        Some(NodeQueue {
            node,
            params,
            delta_in,
            utilization,
            queue,
        })
    }

    /// The mean request execution time `C_i / A_i` at `granularity`.
    fn service_time(&self, granularity: Bytes) -> Seconds {
        // C_i/A_i = D · g · w / P_eff   (Eq. 7 with routed granularity:
        // each request carries its full `g` bytes, of which the node
        // computes on the `w` fraction; on single-path graphs with w = 1
        // this is exactly the paper's D·g·Σδ/(P·indegree)).
        let p = &self.params;
        let peak = p.effective_peak();
        if peak.is_zero() {
            Seconds::INFINITY
        } else {
            let work = p.work_factor();
            Seconds::new(p.parallelism() as f64 * granularity.bits() as f64 * work / peak.as_bps())
        }
    }

    /// The mean queueing delay `Q_i` (Eq. 12) ahead of requests whose
    /// mean service time is `service`.
    fn queueing_delay(&self, service: Seconds) -> Seconds {
        match &self.queue {
            Some(q) => q.queueing_delay(service),
            None => Seconds::INFINITY,
        }
    }

    fn drop_probability(&self) -> f64 {
        self.queue.as_ref().map_or(1.0, MmcN::blocking_probability)
    }

    /// The full timing at one granularity.
    fn timing(&self, granularity: Bytes) -> NodeTiming {
        let service = self.service_time(granularity);
        NodeTiming {
            node: self.node,
            service,
            utilization: self.utilization,
            queueing_delay: self.queueing_delay(service),
            drop_probability: self.drop_probability(),
        }
    }

    /// The timing under a packet-size mixture (see
    /// [`mixture_node_timing`]).
    fn mixture_timing(&self, traffic: &TrafficProfile) -> NodeTiming {
        let mut mean_service = 0.0;
        let mut second_moment = 0.0;
        for (size, p) in traffic.sizes().entries() {
            let s = self.service_time(traffic.granularity_for(*size)).as_secs();
            mean_service += p * s;
            // Exponential class service: E[S_i²] = 2·m_i².
            second_moment += p * 2.0 * s * s;
        }
        let kappa = if mean_service > 0.0 {
            second_moment / (2.0 * mean_service * mean_service)
        } else {
            1.0
        };
        let service = Seconds::new(mean_service);
        NodeTiming {
            node: self.node,
            service,
            utilization: self.utilization,
            queueing_delay: self.queueing_delay(service).scaled(kappa),
            drop_probability: self.drop_probability(),
        }
    }
}

/// One evaluation's node queues, indexed by vertex: built once and
/// shared by the latency and delivered-rate models.
#[derive(Debug)]
pub(crate) struct QueueTable(Vec<Option<NodeQueue>>);

impl QueueTable {
    /// Builds the queue of every computing vertex under `traffic`.
    pub(crate) fn new(graph: &ExecutionGraph, traffic: &TrafficProfile) -> Self {
        QueueTable(
            (0..graph.nodes().len())
                .map(|i| NodeQueue::new(graph, NodeId(i), traffic))
                .collect(),
        )
    }

    /// The queue of `node`, or `None` for a pure data mover.
    pub(crate) fn get(&self, node: NodeId) -> Option<&NodeQueue> {
        self.0[node.index()].as_ref()
    }

    fn iter(&self) -> impl Iterator<Item = &NodeQueue> {
        self.0.iter().flatten()
    }
}

/// Computes the per-node timing (Eq. 7 service time, Eq. 11
/// utilization, Eq. 12 queueing delay) for vertex `node` at ingress
/// granularity `granularity`.
///
/// Returns `None` for pure data movers (ingress/egress vertices
/// without parameters).
pub fn node_timing(
    graph: &ExecutionGraph,
    node: NodeId,
    traffic: &TrafficProfile,
    granularity: Bytes,
) -> Option<NodeTiming> {
    Some(NodeQueue::new(graph, node, traffic)?.timing(granularity))
}

/// The data movement time across one edge at granularity `g` (Eq. 7
/// in routed form): a packet on this edge moves `g·α/δ` bytes over
/// the interface, `g·β/δ` over memory and `g` over a dedicated link.
///
/// `δ`, `α` and `β` are *aggregate* fractions of the total ingress
/// volume (used that way by the Eq. 2 medium bounds); dividing by `δ`
/// converts them to per-packet usage for the packets actually routed
/// through the edge. On full edges (`δ = α = 1`) this is exactly the
/// paper's `g·α/BW_INTF + g·β/BW_MEM`.
pub fn edge_transfer_time(
    graph: &ExecutionGraph,
    edge: crate::graph::EdgeId,
    hw: &HardwareModel,
    granularity: Bytes,
) -> Seconds {
    let p = graph.edge(edge).params();
    let delta = if p.delta() > 0.0 { p.delta() } else { 1.0 };
    let mut t = Seconds::ZERO;
    if p.interface_fraction() > 0.0 {
        t += hw
            .interface_bandwidth()
            .transfer_time(granularity.scaled(p.interface_fraction() / delta));
    }
    if p.memory_fraction() > 0.0 {
        t += hw
            .memory_bandwidth()
            .transfer_time(granularity.scaled(p.memory_fraction() / delta));
    }
    if p.dedicated_bandwidth().is_some() && p.delta() > 0.0 {
        t += p
            .dedicated_bandwidth()
            .expect("checked")
            .transfer_time(granularity);
    }
    t
}

/// Estimates latency at one explicit ingress granularity (packet or
/// message size). Mixed-size profiles are handled by
/// [`estimate_latency`], which weights per-size estimates (§3.7,
/// extension #2).
///
/// # Errors
///
/// Propagates [`crate::error::ModelError::NoPath`] for degenerate
/// graphs (cannot happen for graphs built through the builder).
pub fn estimate_latency_at(
    graph: &ExecutionGraph,
    hw: &HardwareModel,
    traffic: &TrafficProfile,
    granularity: Bytes,
) -> Result<LatencyEstimate> {
    let queues = QueueTable::new(graph, traffic);
    Ok(latency_at(graph, hw, &queues, graph.paths()?, granularity))
}

/// [`estimate_latency_at`] over an evaluation's prebuilt queues and
/// paths.
fn latency_at(
    graph: &ExecutionGraph,
    hw: &HardwareModel,
    queues: &QueueTable,
    paths: Vec<Path>,
    granularity: Bytes,
) -> LatencyEstimate {
    let per_node = queues.iter().map(|q| q.timing(granularity)).collect();
    let mut per_path = Vec::with_capacity(paths.len());
    let mut mean = Seconds::ZERO;
    for path in paths {
        let latency = path_latency(graph, hw, queues, &path, granularity, |latency, q, g| {
            let service = q.service_time(g);
            *latency += q.queueing_delay(service);
            *latency += service;
        });
        mean += latency.scaled(path.weight);
        per_path.push(PathLatency { path, latency });
    }
    LatencyEstimate {
        mean,
        per_path,
        per_node,
    }
}

/// One request's latency along `path` entering at size `g_in` (Eq. 6):
/// `Σ Q_src + C_src + O_src + transfer` over the edges, plus the
/// terminal vertex's `Q + C`. `stage` adds a compute vertex's queueing
/// and execution time at the size the request has there.
fn path_latency(
    graph: &ExecutionGraph,
    hw: &HardwareModel,
    queues: &QueueTable,
    path: &Path,
    g_in: Bytes,
    stage: impl Fn(&mut Seconds, &NodeQueue, Bytes),
) -> Seconds {
    let mut latency = Seconds::ZERO;
    // Requests may be resized along the path (compression edges);
    // each stage executes and transfers at the size it sees.
    let mut g_cur = g_in;
    for eid in &path.edges {
        let edge = graph.edge(*eid);
        if let Some(q) = queues.get(edge.src()) {
            stage(&mut latency, q, g_cur);
            latency += q.params.overhead();
        }
        g_cur = g_cur.scaled(edge.params().size_factor());
        latency += edge_transfer_time(graph, *eid, hw, g_cur);
    }
    // Terminal vertex: Q + C (egress engines without params add 0).
    let last = *path.nodes.last().expect("paths have at least one node");
    if let Some(q) = queues.get(last) {
        stage(&mut latency, q, g_cur);
    }
    latency
}

/// Per-node timing for a packet-size *mixture* (§3.7, extension #2).
///
/// A queued request waits behind the mixture, not behind its own
/// class, so the queueing delay uses the mixture's mean service time
/// scaled by the Pollaczek–Khinchine variability factor
/// `κ = E[S²] / (2·E[S]²)` — equal to 1 for a single exponential
/// class, larger for hyperexponential mixtures of small and large
/// packets.
pub fn mixture_node_timing(
    graph: &ExecutionGraph,
    node: NodeId,
    traffic: &TrafficProfile,
) -> Option<NodeTiming> {
    Some(NodeQueue::new(graph, node, traffic)?.mixture_timing(traffic))
}

/// Estimates the application latency for the full traffic profile: a
/// single evaluation for fixed-size traffic, a `dist_size`-weighted
/// average of per-size estimates for mixtures (Eq. 8 combined with
/// §3.7 extension #2). For mixtures, each class executes and transfers
/// at its own size but queues behind the mixture (see
/// [`mixture_node_timing`]).
///
/// # Errors
///
/// Propagates the path-enumeration error from
/// [`ExecutionGraph::paths`].
///
/// # Examples
///
/// ```
/// use lognic_model::graph::ExecutionGraph;
/// use lognic_model::latency::estimate_latency;
/// use lognic_model::params::{HardwareModel, IpParams, TrafficProfile};
/// use lognic_model::units::{Bandwidth, Bytes};
///
/// # fn main() -> Result<(), lognic_model::error::ModelError> {
/// let g = ExecutionGraph::chain("echo", &[("core", IpParams::new(Bandwidth::gbps(10.0)))])?;
/// let hw = HardwareModel::default();
/// let t = TrafficProfile::fixed(Bandwidth::gbps(2.0), Bytes::new(1500));
/// let est = estimate_latency(&g, &hw, &t)?;
/// assert!(est.mean() > lognic_model::units::Seconds::ZERO);
/// # Ok(())
/// # }
/// ```
pub fn estimate_latency(
    graph: &ExecutionGraph,
    hw: &HardwareModel,
    traffic: &TrafficProfile,
) -> Result<LatencyEstimate> {
    let queues = QueueTable::new(graph, traffic);
    Ok(latency_with(graph, hw, traffic, &queues, graph.paths()?))
}

/// [`estimate_latency`] over an evaluation's prebuilt queues and paths.
pub(crate) fn latency_with(
    graph: &ExecutionGraph,
    hw: &HardwareModel,
    traffic: &TrafficProfile,
    queues: &QueueTable,
    paths: Vec<Path>,
) -> LatencyEstimate {
    let entries = traffic.sizes().entries();
    if let [(size, _)] = entries {
        return latency_at(graph, hw, queues, paths, traffic.granularity_for(*size));
    }
    // Mixture: per-node queueing comes from the mixture service
    // distribution; execution and transfers are per class.
    let timings: Vec<Option<NodeTiming>> = queues
        .0
        .iter()
        .map(|q| q.as_ref().map(|q| q.mixture_timing(traffic)))
        .collect();
    let mut per_path = Vec::with_capacity(paths.len());
    let mut mean = Seconds::ZERO;
    for path in paths {
        let mut latency = Seconds::ZERO;
        for (size, weight) in entries {
            let g_in = traffic.granularity_for(*size);
            let class_latency = path_latency(graph, hw, queues, &path, g_in, |latency, q, g| {
                if let Some(t) = &timings[q.node.index()] {
                    *latency += t.queueing_delay;
                }
                *latency += q.service_time(g);
            });
            latency += class_latency.scaled(*weight);
        }
        mean += latency.scaled(path.weight);
        per_path.push(PathLatency { path, latency });
    }
    LatencyEstimate {
        mean,
        per_path,
        per_node: timings.into_iter().flatten().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{EdgeParams, IpParams, PacketSizeDist};
    use crate::units::Bandwidth;

    fn hw() -> HardwareModel {
        HardwareModel::new(Bandwidth::gbps(100.0), Bandwidth::gbps(100.0))
    }

    #[test]
    fn single_node_service_time_matches_eq7() {
        // P = 10 Gbps, D = 1, δ = 1, indeg = 1, g = 1250 B = 10 kbit
        // → C = 10e3 / 10e9 = 1 µs.
        let g =
            ExecutionGraph::chain("t", &[("ip", IpParams::new(Bandwidth::gbps(10.0)))]).unwrap();
        let traffic = TrafficProfile::fixed(Bandwidth::gbps(1.0), Bytes::new(1250));
        let node = g.node_by_name("ip").unwrap();
        let t = node_timing(&g, node, &traffic, Bytes::new(1250)).unwrap();
        assert!((t.service.as_micros() - 1.0).abs() < 1e-9);
        assert!((t.utilization - 0.1).abs() < 1e-12);
    }

    #[test]
    fn parallelism_scales_per_request_service_time() {
        // Aggregate P fixed; D engines each run at P/D → request takes
        // D times longer but D run concurrently.
        let params = IpParams::new(Bandwidth::gbps(10.0)).with_parallelism(4);
        let g = ExecutionGraph::chain("t", &[("ip", params)]).unwrap();
        let traffic = TrafficProfile::fixed(Bandwidth::gbps(1.0), Bytes::new(1250));
        let node = g.node_by_name("ip").unwrap();
        let t = node_timing(&g, node, &traffic, Bytes::new(1250)).unwrap();
        assert!((t.service.as_micros() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn pure_movers_have_no_timing() {
        let g = ExecutionGraph::chain("t", &[("ip", IpParams::new(Bandwidth::gbps(1.0)))]).unwrap();
        let traffic = TrafficProfile::fixed(Bandwidth::gbps(1.0), Bytes::new(64));
        assert!(node_timing(&g, g.ingress(), &traffic, Bytes::new(64)).is_none());
        assert!(node_timing(&g, g.egress(), &traffic, Bytes::new(64)).is_none());
    }

    #[test]
    fn edge_transfer_combines_media() {
        let mut b = ExecutionGraph::builder("e");
        let ing = b.ingress("in");
        let ip = b.ip("ip", IpParams::new(Bandwidth::gbps(100.0)));
        let eg = b.egress("out");
        let e1 = b.edge(
            ing,
            ip,
            EdgeParams::full()
                .with_interface_fraction(1.0)
                .with_memory_fraction(1.0),
        );
        b.edge(ip, eg, EdgeParams::full());
        let g = b.build().unwrap();
        let hw = HardwareModel::new(Bandwidth::gbps(10.0), Bandwidth::gbps(20.0));
        // g = 1250 B = 10 kbit: 1 µs over interface + 0.5 µs over memory.
        let t = edge_transfer_time(&g, e1, &hw, Bytes::new(1250));
        assert!((t.as_micros() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn dedicated_link_adds_transfer_time() {
        let mut b = ExecutionGraph::builder("e");
        let ing = b.ingress("in");
        let ip = b.ip("ip", IpParams::new(Bandwidth::gbps(100.0)));
        let eg = b.egress("out");
        let e1 = b.edge(
            ing,
            ip,
            EdgeParams::full()
                .with_interface_fraction(0.0)
                .with_dedicated_bandwidth(Bandwidth::gbps(10.0)),
        );
        b.edge(ip, eg, EdgeParams::full());
        let g = b.build().unwrap();
        let t = edge_transfer_time(&g, e1, &hw(), Bytes::new(1250));
        assert!((t.as_micros() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn latency_accumulates_along_chain() {
        // Two IPs at 10 Gbps each, plus overheads of 1 µs each, light
        // load (queueing ≈ 0 at ρ = 0.01 is small but non-zero).
        let p = IpParams::new(Bandwidth::gbps(10.0)).with_overhead(Seconds::micros(1.0));
        let g = ExecutionGraph::chain("t", &[("a", p), ("b", p)]).unwrap();
        let traffic = TrafficProfile::fixed(Bandwidth::mbps(100.0), Bytes::new(1250));
        let est = estimate_latency(&g, &hw(), &traffic).unwrap();
        // Lower bound: 2 × (C = 1 µs) + 2 × (O = 1 µs) + 3 transfers
        // of 0.1 µs = 4.3 µs.
        assert!(est.mean().as_micros() >= 4.3 - 1e-6);
        assert!(est.mean().as_micros() < 5.0, "queueing at 1% load is small");
        assert_eq!(est.per_path().len(), 1);
        assert_eq!(est.per_node().len(), 2);
    }

    #[test]
    fn queueing_grows_with_load() {
        let p = IpParams::new(Bandwidth::gbps(10.0)).with_queue_capacity(64);
        let g = ExecutionGraph::chain("t", &[("a", p)]).unwrap();
        let low = TrafficProfile::fixed(Bandwidth::gbps(1.0), Bytes::new(1250));
        let high = TrafficProfile::fixed(Bandwidth::gbps(9.5), Bytes::new(1250));
        let l = estimate_latency(&g, &hw(), &low).unwrap();
        let h = estimate_latency(&g, &hw(), &high).unwrap();
        assert!(h.mean() > l.mean(), "latency must grow with utilization");
        let ht = h.node_timing(g.node_by_name("a").unwrap()).unwrap();
        assert!(ht.utilization > 0.9);
        assert!(ht.drop_probability > 0.0);
    }

    #[test]
    fn overload_latency_is_finite() {
        let p = IpParams::new(Bandwidth::gbps(1.0)).with_queue_capacity(16);
        let g = ExecutionGraph::chain("t", &[("a", p)]).unwrap();
        let t = TrafficProfile::fixed(Bandwidth::gbps(50.0), Bytes::new(1250));
        let est = estimate_latency(&g, &hw(), &t).unwrap();
        assert!(!est.mean().is_infinite());
        // Bounded by N−1 = 15 services + service + overheads.
        let timing = est.node_timing(g.node_by_name("a").unwrap()).unwrap();
        assert!(timing.drop_probability > 0.9);
    }

    #[test]
    fn multi_path_weighting() {
        // Fast path (90%) and slow path (10%).
        let mut b = ExecutionGraph::builder("w");
        let ing = b.ingress("in");
        let fast = b.ip("fast", IpParams::new(Bandwidth::gbps(100.0)));
        let slow = b.ip("slow", IpParams::new(Bandwidth::gbps(1.0)));
        let eg = b.egress("out");
        b.edge(ing, fast, EdgeParams::new(0.9).unwrap());
        b.edge(ing, slow, EdgeParams::new(0.1).unwrap());
        b.edge(fast, eg, EdgeParams::new(0.9).unwrap());
        b.edge(slow, eg, EdgeParams::new(0.1).unwrap());
        let g = b.build().unwrap();
        let traffic = TrafficProfile::fixed(Bandwidth::gbps(0.5), Bytes::new(1250));
        let est = estimate_latency(&g, &hw(), &traffic).unwrap();
        assert_eq!(est.per_path().len(), 2);
        let weighted: f64 = est
            .per_path()
            .iter()
            .map(|p| p.latency.as_secs() * p.path.weight)
            .sum();
        assert!((weighted - est.mean().as_secs()).abs() < 1e-12);
        assert!(est.max_path() >= est.mean());
    }

    #[test]
    fn mixed_sizes_queue_behind_the_mixture() {
        // A size mixture queues each class behind the *mixture's*
        // service distribution (hyperexponential), so the mean latency
        // exceeds the naive weighted average of the per-size runs.
        let p = IpParams::new(Bandwidth::gbps(10.0));
        let g = ExecutionGraph::chain("t", &[("a", p)]).unwrap();
        let small = TrafficProfile::fixed(Bandwidth::gbps(6.0), Bytes::new(64));
        let large = TrafficProfile::fixed(Bandwidth::gbps(6.0), Bytes::new(1500));
        let mix = TrafficProfile::new(
            Bandwidth::gbps(6.0),
            PacketSizeDist::mix([(Bytes::new(64), 0.5), (Bytes::new(1500), 0.5)]).unwrap(),
        );
        let ls = estimate_latency(&g, &hw(), &small).unwrap().mean();
        let ll = estimate_latency(&g, &hw(), &large).unwrap().mean();
        let lm = estimate_latency(&g, &hw(), &mix).unwrap().mean();
        let naive = 0.5 * ls.as_secs() + 0.5 * ll.as_secs();
        assert!(
            lm.as_secs() > naive,
            "mixture {lm} must exceed naive {naive}"
        );
        // Pollaczek-Khinchine hand check at rho = 0.6, N = 16:
        // E[S] = 0.625us, kappa = 1.847 -> Q ~ 1.7us; total ~ 2.3us.
        assert!((lm.as_micros() - 2.36).abs() < 0.35, "lm = {lm}");
    }

    #[test]
    fn mixture_timing_reduces_to_single_class() {
        // kappa = 1 for a single exponential class: mixture timing and
        // plain timing agree.
        let p = IpParams::new(Bandwidth::gbps(10.0)).with_queue_capacity(32);
        let g = ExecutionGraph::chain("t", &[("a", p)]).unwrap();
        let t = TrafficProfile::fixed(Bandwidth::gbps(6.0), Bytes::new(1000));
        let node = g.node_by_name("a").unwrap();
        let plain = node_timing(&g, node, &t, Bytes::new(1000)).unwrap();
        let mixed = mixture_node_timing(&g, node, &t).unwrap();
        assert!((plain.service.as_secs() - mixed.service.as_secs()).abs() < 1e-15);
        assert!((plain.queueing_delay.as_secs() - mixed.queueing_delay.as_secs()).abs() < 1e-12);
    }

    #[test]
    fn granularity_override_applies() {
        // NVMe-style: 4 KB commands even though packets are 1500 B.
        let p = IpParams::new(Bandwidth::gbps(10.0));
        let g = ExecutionGraph::chain("t", &[("a", p)]).unwrap();
        let base = TrafficProfile::fixed(Bandwidth::gbps(1.0), Bytes::new(1500));
        let nvme = base.clone().with_granularity(Bytes::kib(4));
        let lb = estimate_latency(&g, &hw(), &base).unwrap().mean();
        let ln = estimate_latency(&g, &hw(), &nvme).unwrap().mean();
        assert!(ln > lb, "larger granularity → longer service time");
    }
}
