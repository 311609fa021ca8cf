//! Determinism and composition properties of the fleet runtime.
//!
//! For a given topology, configuration and seed, the aggregate
//! [`FleetReport`] is byte-identical on the calendar queue and on the
//! binary-heap scheduler oracle (`FleetSim::run_reference_heap`).
//! These tests pin that guarantee the same way the
//! engine-differential suite pins single-NIC determinism: by
//! comparing the `Debug` rendering of whole reports, so any drifting
//! float or counter anywhere in the report fails loudly.
//!
//! The composition anchor pins the fleet/single-NIC boundary from the
//! other side: a fleet whose links carry no traffic is exactly a set
//! of independent single-NIC simulations, and a one-NIC fleet is
//! exactly `SimulationBuilder`.

use lognic::prelude::*;

fn run_rack(nics: usize, reference_heap: bool) -> FleetReport {
    let fleet = rack::smoke_fleet(nics).build().expect("rack builds");
    if reference_heap {
        fleet.run_reference_heap()
    } else {
        fleet.run()
    }
    .expect("rack runs")
}

#[test]
fn rack6_reports_are_bit_identical_across_engines() {
    let report = run_rack(6, false);
    assert!(report.forwarded > 0, "ring links must carry traffic");
    assert_eq!(format!("{report:?}"), format!("{:?}", run_rack(6, true)));
}

#[test]
fn rack32_reports_are_bit_identical_across_engines() {
    let report = run_rack(32, false);
    assert!(report.completed > 0, "rack must complete packets");
    assert!(report.forwarded > 0, "ring links must carry traffic");
    assert_eq!(report.nics.len(), 32);
    assert_eq!(format!("{report:?}"), format!("{:?}", run_rack(32, true)));
}

#[test]
fn traffic_free_links_compose_independent_single_nic_runs() {
    // A 2-NIC fleet joined by a share-0 link (even a degenerate
    // zero-latency, infinite-bandwidth one) must decompose exactly
    // into two standalone runs under the fleet's per-NIC seeds: the
    // egress uplink draw only exists when a link carries traffic, so
    // the RNG streams — and therefore every report byte — match.
    let g = ExecutionGraph::chain(
        "fwd",
        &[(
            "cores",
            IpParams::new(Bandwidth::gbps(10.0)).with_parallelism(4),
        )],
    )
    .expect("chain builds");
    let hw = HardwareModel::new(Bandwidth::gbps(50.0), Bandwidth::gbps(40.0));
    let t = TrafficProfile::fixed(Bandwidth::gbps(4.0), Bytes::new(1024));
    let config = SimConfig {
        seed: 7,
        duration: Seconds::millis(2.0),
        warmup: Seconds::ZERO,
        ..SimConfig::default()
    };

    let mut topo = Topology::new("idle-pair");
    let a = topo.add_nic("a", g.clone(), hw, t.clone());
    let b = topo.add_nic("b", g.clone(), hw, t.clone());
    topo.link(a, b, Bandwidth::INFINITE, Seconds::ZERO, 0.0);

    let fleet = FleetBuilder::new(topo)
        .config(config)
        .build()
        .expect("idle pair builds")
        .run()
        .expect("idle pair runs");

    assert_eq!(fleet.forwarded, 0, "a share-0 link must carry nothing");
    for (i, nic) in fleet.nics.iter().enumerate() {
        let mut standalone_config = config;
        standalone_config.seed = nic_seed(config.seed, i);
        let standalone = Simulation::builder(&g, &hw, &t)
            .config(standalone_config)
            .build()
            .expect("standalone builds")
            .run()
            .expect("standalone runs");
        assert_eq!(
            format!("{:?}", nic.report),
            format!("{standalone:?}"),
            "NIC {i} diverged from its standalone run"
        );
    }
}

#[test]
fn single_nic_fleet_is_the_simulation_builder_special_case() {
    let g = ExecutionGraph::chain(
        "solo",
        &[(
            "cores",
            IpParams::new(Bandwidth::gbps(8.0)).with_parallelism(2),
        )],
    )
    .expect("chain builds");
    let hw = HardwareModel::default();
    let t = TrafficProfile::fixed(Bandwidth::gbps(3.0), Bytes::new(1500));
    let config = SimConfig {
        seed: 21,
        duration: Seconds::millis(2.0),
        warmup: Seconds::millis(0.5),
        ..SimConfig::default()
    };

    let fleet = FleetBuilder::new(Topology::single("solo", g.clone(), hw, t.clone()))
        .config(config)
        .build()
        .expect("single builds")
        .run()
        .expect("single runs");
    assert_eq!(fleet.rounds, 1, "no links means one infinite window");

    let standalone = Simulation::builder(&g, &hw, &t)
        .config(config)
        .build()
        .expect("standalone builds")
        .run()
        .expect("standalone runs");
    assert_eq!(
        format!("{:?}", fleet.nics[0].report),
        format!("{standalone:?}")
    );
}

#[test]
fn zero_latency_traffic_link_is_rejected_at_build() {
    let g = ExecutionGraph::chain("fwd", &[("cores", IpParams::new(Bandwidth::gbps(10.0)))])
        .expect("chain builds");
    let hw = HardwareModel::default();
    let t = TrafficProfile::fixed(Bandwidth::gbps(4.0), Bytes::new(1024));
    let mut topo = Topology::new("degenerate");
    let a = topo.add_nic("a", g.clone(), hw, t.clone());
    let b = topo.add_nic("b", g, hw, t);
    topo.link(a, b, Bandwidth::gbps(100.0), Seconds::ZERO, 0.5);

    let err = FleetBuilder::new(topo).build().expect_err("must be denied");
    match err {
        LogNicError::AnalysisRejected { diagnostics } => {
            assert!(
                diagnostics.iter().any(|d| d.code.as_str() == "L0701"),
                "expected L0701 in {diagnostics:?}"
            );
        }
        other => panic!("expected an analysis rejection, got {other}"),
    }
}

#[test]
fn watchdog_abort_is_the_same_error_on_both_engines() {
    // Pins the fleet error contract: a NIC that overruns its event
    // budget aborts the whole run, and the error returned is that of
    // the lowest-indexed NIC failing in the first failing round — a
    // pure function of the topology, configuration and seed.
    let run = |reference_heap: bool| {
        let fleet = FleetBuilder::new(rack::topology(6))
            .config(SimConfig {
                max_events: 2_000,
                ..rack::smoke_config()
            })
            .build()
            .expect("rack builds");
        if reference_heap {
            fleet.run_reference_heap()
        } else {
            fleet.run()
        }
        .expect_err("a 2000-event budget cannot finish a 2 ms rack run")
    };
    let err = run(false);
    assert!(
        matches!(err, LogNicError::WatchdogAbort { .. }),
        "expected a watchdog abort, got {err:?}"
    );
    assert_eq!(format!("{err:?}"), format!("{:?}", run(true)));
}
