//! Satellite property: **every** generated topology (random shape,
//! size, seed) has a fully input-connected [`CircuitGraph`],
//! lints without errors under its declared envelope, and routes a
//! permutation pattern loss-free through the pulse-level simulator.
//!
//! The fixed-case tests pin the same three properties on the shipped
//! scenario sizes.

use usfq_noc::{decode, lint_fabric, plan, simulate, FlitGeometry, Pattern, Topology};
use usfq_sim::check::for_all;
use usfq_sim::{CircuitGraph, SanitizerConfig, SimConfig};

/// The three properties the satellite task names, for one topology.
fn check_topology(topology: Topology, seed: u64) {
    let geometry = FlitGeometry::with_bits(4).expect("4-bit flits");
    let fabric = topology.build(geometry);

    // 1. Connected: every cell is reachable from some external input.
    let graph = CircuitGraph::new(&fabric.circuit);
    let reachable = graph.reachable_from_inputs();
    assert_eq!(graph.len(), reachable.len());
    assert!(
        reachable.iter().all(|&r| r),
        "{}: unreachable cells in the extracted graph",
        topology.label()
    );

    // 2. Plans a permutation and lints clean under the schedule's
    //    actual horizon (waivers declared in the fabric's config).
    let flows = usfq_noc::generate(
        Pattern::Permutation,
        topology.nodes(),
        1,
        geometry.epoch.n_max(),
        seed,
    );
    let schedule = plan(&fabric, &flows);
    let report = lint_fabric(&fabric, schedule.makespan);
    assert!(
        !report.has_errors() && report.warning_count() == 0,
        "{}: lint not `--deny-warnings` clean\n{}",
        topology.label(),
        report.render_text()
    );
    // The declared waivers must actually be doing work: the expected
    // hazard classes are reported (as waived Info), never hidden.
    assert!(
        report
            .diagnostics
            .iter()
            .any(usfq_lint::Diagnostic::is_waived),
        "{}: expected waived USFQ006/USFQ007 findings",
        topology.label()
    );

    // 3. Loss-free: every flit arrives complete, inside its window,
    //    with zero merger collisions — under the sanitizer.
    let outcome = simulate(
        &fabric,
        &schedule,
        &SimConfig {
            sanitizer: Some(SanitizerConfig::default()),
            ..SimConfig::reference()
        },
    )
    .expect("schedule simulates");
    assert!(
        outcome.anomalies.is_empty(),
        "{}: anomalies {:?}",
        topology.label(),
        outcome.anomalies
    );
    for d in decode(&fabric, &schedule, &outcome) {
        assert_eq!(
            d.arrived,
            d.expected,
            "{}: flow {} lost pulses",
            topology.label(),
            d.flow
        );
    }
    // Total arrivals equal total payload: nothing strayed outside a
    // delivery window either.
    let total: usize = outcome.probe_times.iter().map(Vec::len).sum();
    let injected: u64 = flows.iter().map(|f| f.payload).sum();
    assert_eq!(total as u64, injected);
}

#[test]
fn mesh_3x3_routes_permutations_loss_free() {
    check_topology(Topology::Mesh { k: 3 }, 11);
}

#[test]
fn mesh_4x4_routes_permutations_loss_free() {
    check_topology(Topology::Mesh { k: 4 }, 12);
}

#[test]
fn torus_4x4_routes_permutations_loss_free() {
    check_topology(Topology::Torus { k: 4 }, 13);
}

#[test]
fn big_switch_8_routes_permutations_loss_free() {
    check_topology(Topology::BigSwitch { n: 8 }, 14);
}

/// Random shape × size × seed: connected, lint-clean, loss-free.
#[test]
fn any_topology_is_connected_lint_clean_and_loss_free() {
    for_all(16, |rng| {
        let shape = rng.gen_range(0usize..3);
        let k = rng.gen_range(2usize..5);
        let n = rng.gen_range(2usize..10);
        let seed = rng.gen_range(0u64..u64::MAX);
        let topology = match shape {
            0 => Topology::Mesh { k },
            1 => Topology::Torus { k },
            _ => Topology::BigSwitch { n },
        };
        check_topology(topology, seed);
    });
}
