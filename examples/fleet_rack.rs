//! Fleet simulation: a hand-built NIC pair, then the 32-NIC registry
//! rack, through the deterministic conservative-lookahead event loop.
//!
//! ```console
//! $ cargo run --release --example fleet_rack
//! ```

use lognic::prelude::*;
use lognic::workloads::rack;

fn main() -> Result<(), LogNicError> {
    // --- A minimal hand-built topology: two NICs, one link. ---
    // `a` routes a quarter of its egress to `b` over a 100 Gb/s link
    // with 2 µs of propagation latency.
    let g = ExecutionGraph::chain(
        "fwd",
        &[(
            "cores",
            IpParams::new(Bandwidth::gbps(10.0)).with_parallelism(4),
        )],
    )?;
    let hw = HardwareModel::new(Bandwidth::gbps(50.0), Bandwidth::gbps(40.0));
    let t = TrafficProfile::fixed(Bandwidth::gbps(4.0), Bytes::new(1024));

    let mut topo = Topology::new("pair");
    let a = topo.add_nic("a", g.clone(), hw, t.clone());
    let b = topo.add_nic("b", g, hw, t);
    topo.link(a, b, Bandwidth::gbps(100.0), Seconds::micros(2.0), 0.25);

    let report = FleetBuilder::new(topo)
        .duration(Seconds::millis(2.0))
        .warmup(Seconds::ZERO)
        .build()?
        .run()?;
    println!(
        "pair: {} NICs, {} boundary packets forwarded, throughput {}",
        report.nics.len(),
        report.forwarded,
        report.throughput
    );

    // --- The registry rack: 32 NICs cycling the workload corpus on
    // a ToR ring. ---
    let rack = rack::smoke_fleet(32).build()?.run()?;
    println!(
        "rack-32: {} rounds, {} completed, {} forwarded",
        rack.rounds, rack.completed, rack.forwarded
    );
    for link in rack.links.iter().take(3) {
        println!(
            "  link {} -> {}: {} packets, utilization {:.4}%",
            link.src,
            link.dst,
            link.forwarded,
            link.utilization * 100.0
        );
    }
    Ok(())
}
