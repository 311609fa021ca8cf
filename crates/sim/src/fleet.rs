//! Fleet simulation: a sharded, deterministic event loop over a
//! multi-NIC [`Topology`].
//!
//! The fleet runtime lifts the single-device simulator to rack scale
//! with a *conservative-lookahead* round protocol. The lookahead `L`
//! is the minimum propagation latency over traffic-carrying fabric
//! links: any packet a NIC emits while simulating window
//! `[kL, (k+1)L)` arrives at its destination no earlier than
//! `(k+1)L`, so every NIC can simulate a whole window without
//! hearing from its peers, then exchange boundary packets at the
//! window edge.
//!
//! **Determinism.** Aggregate [`FleetReport`]s are bit-identical at
//! any shard count because nothing observable depends on the thread
//! schedule:
//!
//! * the window schedule (`limit = (round+1)·L`) is a pure function
//!   of the topology, not of how NICs are assigned to shards;
//! * each NIC is a fully sequential [`Simulation`] with its own RNG
//!   stream, arena and event sequence;
//! * boundary packets are exchanged through per-NIC mailboxes and
//!   sorted by the canonical key `(arrival time, source NIC,
//!   emission sequence)` before injection, erasing mailbox push
//!   order;
//! * the round loop's continue/stop decision is a global OR of
//!   per-NIC activity, evaluated at a barrier, so every shard stops
//!   at the same round.
//!
//! The single-NIC simulation is the degenerate case: a topology with
//! no traffic-carrying links has infinite lookahead, so the whole
//! run completes in one window and `FleetBuilder` over
//! [`Topology::single`] reproduces `SimulationBuilder` exactly.

use lognic_model::analyze::{AnalysisConfig, Diagnostic};
use lognic_model::error::{LogNicError, LogNicResult};
use lognic_model::topology::Topology;
use lognic_model::units::{Bandwidth, Bytes, Seconds};

use crate::metrics::SimReport;
use crate::rng::SimRng;
use crate::sim::{BoundaryPacket, PacedRun, SimConfig, Simulation, Uplink};
use crate::time::SimTime;
use crate::trace::NoopObserver;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};

/// The RNG seed NIC `index` of a fleet derives from the fleet's base
/// seed.
///
/// NIC 0 runs the base seed itself, so a one-NIC fleet is
/// byte-identical to the standalone `SimulationBuilder` run; later
/// NICs use [`SimRng::replica_seed`] streams, the same convention
/// replicated runs use for their seed schedules.
pub fn nic_seed(base: u64, index: usize) -> u64 {
    if index == 0 {
        base
    } else {
        SimRng::replica_seed(base, index as u64)
    }
}

/// Builds a [`FleetSim`] over a [`Topology`] — the front door of a
/// multi-NIC evaluation, of which `SimulationBuilder` is the
/// single-NIC special case.
///
/// # Examples
///
/// ```
/// use lognic_model::prelude::*;
/// use lognic_sim::prelude::*;
///
/// # fn main() -> LogNicResult<()> {
/// let graph = ExecutionGraph::chain(
///     "fwd",
///     &[("cores", IpParams::new(Bandwidth::gbps(10.0)).with_parallelism(4))],
/// )?;
/// let hw = HardwareModel::new(Bandwidth::gbps(50.0), Bandwidth::gbps(40.0));
/// let traffic = TrafficProfile::fixed(Bandwidth::gbps(4.0), Bytes::new(1024));
///
/// let mut topo = Topology::new("pair");
/// let a = topo.add_nic("nic-a", graph.clone(), hw, traffic.clone());
/// let b = topo.add_nic("nic-b", graph, hw, traffic);
/// topo.link(a, b, Bandwidth::gbps(100.0), Seconds::micros(1.5), 0.25);
///
/// let report = FleetBuilder::new(topo)
///     .seed(7)
///     .duration(Seconds::millis(2.0))
///     .warmup(Seconds::ZERO)
///     .build()?
///     .run()?;
/// assert_eq!(report.nics.len(), 2);
/// assert!(report.links[0].forwarded > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FleetBuilder {
    topology: Topology,
    config: SimConfig,
    shards: usize,
    analysis: AnalysisConfig,
}

impl FleetBuilder {
    /// Starts building a fleet simulation over a topology.
    pub fn new(topology: Topology) -> Self {
        FleetBuilder {
            topology,
            config: SimConfig::default(),
            shards: 1,
            analysis: AnalysisConfig::default(),
        }
    }

    /// Replaces the whole run configuration (applied to every NIC;
    /// per-NIC seeds are derived from [`SimConfig::seed`] via
    /// [`nic_seed`]).
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the base RNG seed ([`nic_seed`] derives each NIC's).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the injection horizon of every NIC.
    pub fn duration(mut self, duration: Seconds) -> Self {
        self.config.duration = duration;
        self
    }

    /// Sets the measurement warmup cutoff of every NIC.
    pub fn warmup(mut self, warmup: Seconds) -> Self {
        self.config.warmup = warmup;
        self
    }

    /// Sets the worker-shard count. NICs are assigned round-robin to
    /// shards; the count is clamped to the NIC count at run time, and
    /// a single shard runs on the calling thread. Reports are
    /// bit-identical at any shard count — this knob trades wall-clock
    /// for cores, never results.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Replaces the static-analysis severity policy applied to the
    /// fleet-placement pass and to every per-NIC scenario analysis.
    pub fn analysis(mut self, config: AnalysisConfig) -> Self {
        self.analysis = config;
        self
    }

    /// Validates the topology, runs the fleet-placement analyzer pass
    /// and builds every NIC's simulation.
    ///
    /// # Errors
    ///
    /// Returns [`LogNicError::InvalidConfig`] for structural topology
    /// defects, [`LogNicError::AnalysisRejected`] when the
    /// fleet-placement pass (or any per-NIC scenario analysis) yields
    /// a `Deny`-level finding — a traffic-carrying zero-latency link
    /// (`L0701`) is denied by default because it collapses the
    /// conservative lookahead — and any per-NIC build error as-is.
    pub fn build(self) -> LogNicResult<FleetSim> {
        self.topology.validate()?;
        let fleet_report = self.topology.analyze(&self.analysis);
        if fleet_report.is_rejected() {
            return Err(LogNicError::AnalysisRejected {
                diagnostics: fleet_report.diagnostics().to_vec(),
            });
        }
        let mut warnings: Vec<Diagnostic> = fleet_report.diagnostics().to_vec();

        let mut sims = Vec::with_capacity(self.topology.nics().len());
        for (i, nic) in self.topology.nics().iter().enumerate() {
            let mut config = self.config;
            config.seed = nic_seed(self.config.seed, i);
            let mut sim = Simulation::builder(nic.graph(), nic.hardware(), nic.traffic())
                .config(config)
                .analysis(self.analysis.clone())
                .build()?;
            let links: Vec<(Uplink, f64)> = self
                .topology
                .links()
                .iter()
                .filter(|l| l.src.index() == i)
                .map(|l| {
                    (
                        Uplink {
                            dst_nic: l.dst.index() as u32,
                            bandwidth_bps: l.bandwidth.as_bps(),
                            latency: SimTime::from_secs(l.latency.as_secs()),
                            next_free: SimTime::ZERO,
                            forwarded: 0,
                            bytes: 0,
                            busy: SimTime::ZERO,
                        },
                        l.share,
                    )
                })
                .collect();
            sim.set_uplinks(i as u32, links);
            warnings.extend(sim.analysis_warnings().iter().cloned());
            sims.push(sim);
        }

        // Conservative lookahead: the minimum propagation latency over
        // traffic-carrying links. Share-0 links carry nothing and are
        // excluded; no traffic-carrying links at all means the NICs
        // never interact and the whole run is one window. Clamped to
        // 1 ps so a downgraded L0701 still terminates.
        let lookahead_ps = self
            .topology
            .links()
            .iter()
            .filter(|l| l.share > 0.0)
            .map(|l| SimTime::from_secs(l.latency.as_secs()).as_picos().max(1))
            .min()
            .unwrap_or(u64::MAX);

        // Topology link order -> (source NIC, position among that
        // NIC's uplinks), for folding per-uplink stats back into
        // per-link report rows.
        let mut next_pos = vec![0usize; self.topology.nics().len()];
        let link_meta: Vec<LinkMeta> = self
            .topology
            .links()
            .iter()
            .map(|l| {
                let pos = next_pos[l.src.index()];
                next_pos[l.src.index()] += 1;
                LinkMeta {
                    src: l.src.index(),
                    pos,
                    src_name: self.topology.nics()[l.src.index()].name().to_owned(),
                    dst_name: self.topology.nics()[l.dst.index()].name().to_owned(),
                }
            })
            .collect();

        Ok(FleetSim {
            name: self.topology.name().to_owned(),
            nic_names: self
                .topology
                .nics()
                .iter()
                .map(|n| n.name().to_owned())
                .collect(),
            sims,
            link_meta,
            lookahead_ps,
            shards: self.shards,
            duration: self.config.duration,
            warnings,
        })
    }
}

/// Maps one topology link to the per-NIC uplink slot holding its
/// transfer statistics.
#[derive(Debug)]
struct LinkMeta {
    src: usize,
    pos: usize,
    src_name: String,
    dst_name: String,
}

/// A built fleet simulation, ready to run.
#[derive(Debug)]
pub struct FleetSim {
    name: String,
    nic_names: Vec<String>,
    sims: Vec<Simulation>,
    link_meta: Vec<LinkMeta>,
    lookahead_ps: u64,
    shards: usize,
    duration: Seconds,
    warnings: Vec<Diagnostic>,
}

/// What one NIC's worker hands back to the aggregator.
type NicOutcome = LogNicResult<(SimReport, Vec<Uplink>, u64, u64)>;

/// Shared coordination state of one fleet run.
struct Shared {
    /// One inbound mailbox per NIC, filled during the advance phase
    /// and drained (sorted canonically) during the inject phase.
    mailboxes: Vec<Mutex<Vec<BoundaryPacket>>>,
    /// Double-buffered activity flags, indexed by round parity: round
    /// `r` raises `flags[r % 2]` on any activity and resets the
    /// *other* buffer, whose readers all finished at round `r-1`'s
    /// closing barrier.
    flags: [AtomicBool; 2],
    /// Raised by a shard whose NIC failed; every shard observes it at
    /// the same round boundary and stops.
    failed: AtomicBool,
    /// Serves as both the exchange barrier (after advance) and the
    /// decision barrier (after inject) of every round.
    barrier: Barrier,
    /// The conservative lookahead window, in picoseconds.
    lookahead_ps: u64,
}

/// One NIC's paced run inside a shard.
struct NicRun {
    index: usize,
    run: PacedRun,
    err: Option<LogNicError>,
    /// This NIC's inbound packets of the current round. Swapped with
    /// the shared mailbox each round, so both vectors keep their
    /// capacity instead of being reallocated.
    inbox: Vec<BoundaryPacket>,
}

/// Drives one shard's NICs through the round protocol until every
/// shard agrees to stop; returns each NIC's outcome and the number of
/// rounds taken.
fn run_shard(
    part: Vec<(usize, Simulation)>,
    shared: &Shared,
    reference_heap: bool,
) -> (Vec<(usize, NicOutcome)>, u64) {
    let mut obs = NoopObserver;
    let mut nics: Vec<NicRun> = part
        .into_iter()
        .map(|(index, sim)| NicRun {
            index,
            run: PacedRun::start(sim, &mut obs, reference_heap),
            err: None,
            inbox: Vec::new(),
        })
        .collect();
    let mut round: u64 = 0;
    loop {
        let p = (round % 2) as usize;
        // Safe to reset: every reader of flags[1-p] finished at round
        // r-1's closing barrier.
        shared.flags[1 - p].store(false, Ordering::SeqCst);
        let limit = round.saturating_add(1).saturating_mul(shared.lookahead_ps);
        let mut activity = false;
        for nic in nics.iter_mut().filter(|nic| nic.err.is_none()) {
            match nic.run.advance(limit, &mut obs) {
                Ok(more) => activity |= more,
                Err(e) => {
                    nic.err = Some(e);
                    shared.failed.store(true, Ordering::SeqCst);
                    continue;
                }
            }
            let out = nic.run.drain_outbox();
            activity |= out.len() > 0;
            for bp in out {
                shared.mailboxes[bp.dst_nic as usize]
                    .lock()
                    .expect("no poisoned shards")
                    .push(bp);
            }
        }
        if activity {
            shared.flags[p].store(true, Ordering::SeqCst);
        }
        shared.barrier.wait();
        for nic in nics.iter_mut().filter(|nic| nic.err.is_none()) {
            std::mem::swap(
                &mut *shared.mailboxes[nic.index]
                    .lock()
                    .expect("no poisoned shards"),
                &mut nic.inbox,
            );
            nic.inbox
                .sort_unstable_by_key(|b| (b.arrive_ps, b.src_nic, b.emit_seq));
            for bp in &nic.inbox {
                nic.run.inject_boundary(bp);
            }
            nic.inbox.clear();
        }
        let stop = !shared.flags[p].load(Ordering::SeqCst) || shared.failed.load(Ordering::SeqCst);
        shared.barrier.wait();
        round += 1;
        if stop {
            break;
        }
    }
    let outcomes = nics
        .into_iter()
        .map(|nic| {
            let outcome = match nic.err {
                Some(e) => Err(e),
                None => {
                    let uplinks = nic.run.uplinks().to_vec();
                    let received = nic.run.received();
                    let emitted = nic.run.emitted();
                    let report = nic.run.finish(&mut obs);
                    Ok((report, uplinks, received, emitted))
                }
            };
            (nic.index, outcome)
        })
        .collect();
    (outcomes, round)
}

impl FleetSim {
    /// The conservative lookahead window in picoseconds (`u64::MAX`
    /// when no link carries traffic and the run is a single window).
    pub fn lookahead_picos(&self) -> u64 {
        self.lookahead_ps
    }

    /// Non-gating findings from the fleet-placement pass and every
    /// per-NIC scenario analysis.
    pub fn analysis_warnings(&self) -> &[Diagnostic] {
        &self.warnings
    }

    /// Runs every NIC to completion across the configured shards and
    /// aggregates a [`FleetReport`].
    ///
    /// # Errors
    ///
    /// When NICs fail (e.g. a watchdog abort), the error of the
    /// *lowest-indexed* failing NIC propagates — a deterministic
    /// choice, not a race between shards.
    pub fn run(self) -> LogNicResult<FleetReport> {
        self.run_on(false)
    }

    /// Runs the fleet with every NIC on the `BinaryHeap` scheduler
    /// oracle ([`Simulation::run_reference_heap`]); the report must
    /// match [`FleetSim::run`] byte for byte.
    ///
    /// # Errors
    ///
    /// As [`FleetSim::run`].
    #[doc(hidden)]
    pub fn run_reference_heap(self) -> LogNicResult<FleetReport> {
        self.run_on(true)
    }

    fn run_on(self, reference_heap: bool) -> LogNicResult<FleetReport> {
        let n = self.sims.len();
        let shards = self.shards.min(n).max(1);

        // Round-robin NIC -> shard assignment; each shard owns its
        // NICs' paced runs for the whole run.
        let mut parts: Vec<Vec<(usize, Simulation)>> = (0..shards).map(|_| Vec::new()).collect();
        for (i, sim) in self.sims.into_iter().enumerate() {
            parts[i % shards].push((i, sim));
        }

        let shared = Shared {
            mailboxes: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
            flags: [AtomicBool::new(false), AtomicBool::new(false)],
            failed: AtomicBool::new(false),
            barrier: Barrier::new(shards),
            lookahead_ps: self.lookahead_ps,
        };
        let shard_results: Vec<(Vec<(usize, NicOutcome)>, u64)> = if shards == 1 {
            // One shard: run the rounds on the calling thread.
            parts
                .into_iter()
                .map(|part| run_shard(part, &shared, reference_heap))
                .collect()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = parts
                    .into_iter()
                    .map(|part| {
                        let shared = &shared;
                        scope.spawn(move || run_shard(part, shared, reference_heap))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("no panicked shards"))
                    .collect()
            })
        };

        // Every shard stops at the same round.
        let mut rounds = 0;
        let mut slots: Vec<Option<NicOutcome>> = (0..n).map(|_| None).collect();
        for (outcomes, shard_rounds) in shard_results {
            rounds = shard_rounds;
            for (i, outcome) in outcomes {
                slots[i] = Some(outcome);
            }
        }

        // Deterministic error choice: the lowest-indexed failing NIC.
        let mut nics = Vec::with_capacity(n);
        for (i, slot) in slots.into_iter().enumerate() {
            match slot.expect("every NIC index was claimed exactly once") {
                Err(e) => return Err(e),
                Ok((report, uplinks, received, emitted)) => {
                    nics.push((
                        self.nic_names[i].clone(),
                        report,
                        uplinks,
                        received,
                        emitted,
                    ));
                }
            }
        }

        let links: Vec<LinkReport> = self
            .link_meta
            .iter()
            .map(|m| {
                let up = &nics[m.src].2[m.pos];
                let secs = self.duration.as_secs();
                LinkReport {
                    src: m.src_name.clone(),
                    dst: m.dst_name.clone(),
                    forwarded: up.forwarded,
                    bytes: Bytes::new(up.bytes),
                    utilization: if secs > 0.0 {
                        up.busy.as_secs() / secs
                    } else {
                        0.0
                    },
                }
            })
            .collect();

        let mut report = FleetReport {
            name: self.name,
            rounds,
            injected: 0,
            completed: 0,
            dropped: 0,
            forwarded: 0,
            throughput: Bandwidth::ZERO,
            goodput: Bandwidth::ZERO,
            events: 0,
            nics: Vec::with_capacity(n),
            links,
        };
        let mut throughput = 0.0;
        let mut goodput = 0.0;
        for (name, nic_report, _uplinks, received, emitted) in nics {
            report.injected += nic_report.injected;
            report.completed += nic_report.completed;
            report.dropped += nic_report.dropped;
            report.events += nic_report.events;
            report.forwarded += emitted;
            throughput += nic_report.throughput.as_bps();
            goodput += nic_report.goodput.as_bps();
            report.nics.push(NicReport {
                name,
                forwarded: emitted,
                received,
                report: nic_report,
            });
        }
        report.throughput = Bandwidth::bps(throughput);
        report.goodput = Bandwidth::bps(goodput);
        Ok(report)
    }
}

/// One NIC's slice of a [`FleetReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct NicReport {
    /// The NIC's name in the topology.
    pub name: String,
    /// Packets this NIC forwarded over fleet links.
    pub forwarded: u64,
    /// Boundary packets this NIC received from fleet links.
    pub received: u64,
    /// The NIC's full single-device measurement report.
    pub report: SimReport,
}

/// One fabric link's slice of a [`FleetReport`], in topology link
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkReport {
    /// Source NIC name.
    pub src: String,
    /// Destination NIC name.
    pub dst: String,
    /// Packets serialized over the link.
    pub forwarded: u64,
    /// Bytes serialized over the link.
    pub bytes: Bytes,
    /// Fraction of the run the link spent serializing (0 for an
    /// ideal infinite-bandwidth link).
    pub utilization: f64,
}

/// Aggregate measurements of one fleet run.
///
/// Bit-identical for a given topology, configuration and seed at any
/// shard count; differential tests compare reports via their `Debug`
/// rendering, so the report deliberately records nothing about the
/// thread schedule (no shard count, no wall-clock).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// The topology's name.
    pub name: String,
    /// Conservative-lookahead rounds the run took.
    pub rounds: u64,
    /// Total packets injected across all NICs (local sources plus
    /// boundary arrivals).
    pub injected: u64,
    /// Total packets completed across all NICs.
    pub completed: u64,
    /// Total packets dropped across all NICs.
    pub dropped: u64,
    /// Total boundary packets forwarded over fleet links.
    pub forwarded: u64,
    /// Sum of per-NIC delivered throughput.
    pub throughput: Bandwidth,
    /// Sum of per-NIC goodput.
    pub goodput: Bandwidth,
    /// Total events processed across all NICs.
    pub events: u64,
    /// Per-NIC reports, in topology [`NicId`](lognic_model::topology::NicId) order.
    pub nics: Vec<NicReport>,
    /// Per-link reports, in topology link order.
    pub links: Vec<LinkReport>,
}
