//! Beyond-the-paper artefact: the temporal NoC (`usfq-noc`) —
//! latency / throughput / JJ-area across topologies × traffic
//! patterns, plus the lint verdict for every generated fabric. The
//! paper evaluates its PEs in isolation; this is the interconnect
//! that composes them, routed by TDM schedules instead of headers
//! (the authors' PaST-NoC direction).

use usfq_noc::{lint_fabric, plan, FlitGeometry, Pattern, ScenarioResult, Topology};
use usfq_sim::SimConfig;

/// Scenario scale: flits per endpoint for uniform/hotspot patterns.
pub const FLOWS_PER_NODE: usize = 2;
/// Seed every scenario derives from.
pub const SEED: u64 = 2022;

/// The topology sweep the artefact reports.
pub fn topologies() -> Vec<Topology> {
    vec![
        Topology::Mesh { k: 4 },
        Topology::Torus { k: 4 },
        Topology::BigSwitch { n: 8 },
    ]
}

/// One row of the artefact: a `(topology, pattern)` scenario.
#[derive(Debug, Clone)]
pub struct Point {
    /// Topology label.
    pub topology: String,
    /// Traffic pattern label.
    pub pattern: String,
    /// Endpoints.
    pub nodes: usize,
    /// Fabric area, Josephson junctions.
    pub jj: u64,
    /// Flows routed.
    pub flows: usize,
    /// TDM rounds the arbiter needed.
    pub rounds: usize,
    /// Sub-slots across all rounds.
    pub subslots: usize,
    /// Payload pulses delivered in-window.
    pub delivered_pulses: u64,
    /// Payload pulses lost (always 0 for a sound plan).
    pub lost_pulses: u64,
    /// Mean flight latency, ps.
    pub mean_network_latency_ps: f64,
    /// Mean queueing + flight latency, ps.
    pub mean_total_latency_ps: f64,
    /// Worst queueing + flight latency, ps.
    pub max_total_latency_ps: f64,
    /// Delivered pulses per ns of schedule makespan.
    pub throughput_pulses_per_ns: f64,
}

crate::json::to_json!(Point:
    topology, pattern, nodes, jj, flows, rounds, subslots, delivered_pulses, lost_pulses,
    mean_network_latency_ps, mean_total_latency_ps, max_total_latency_ps, throughput_pulses_per_ns
);

impl Point {
    fn from_result(r: &ScenarioResult) -> Point {
        Point {
            topology: r.topology.clone(),
            pattern: r.pattern.clone(),
            nodes: r.nodes,
            jj: r.jj,
            flows: r.flows,
            rounds: r.rounds,
            subslots: r.subslots,
            delivered_pulses: r.injected_pulses - r.lost_pulses,
            lost_pulses: r.lost_pulses,
            mean_network_latency_ps: r.mean_network_latency_ps,
            mean_total_latency_ps: r.mean_total_latency_ps,
            max_total_latency_ps: r.max_total_latency_ps,
            throughput_pulses_per_ns: r.throughput_pulses_per_ns,
        }
    }
}

/// Runs the full sweep under the reference engine configuration, with
/// the environment's wire jitter (`USFQ_WIRE_JITTER`) like every other
/// figure.
pub fn series() -> Vec<Point> {
    let cfg = SimConfig {
        jitter: SimConfig::from_env().jitter,
        ..SimConfig::reference()
    };
    let mut points = Vec::new();
    for topology in topologies() {
        for pattern in Pattern::all() {
            let r = usfq_noc::run_scenario(topology, pattern, FLOWS_PER_NODE, SEED, &cfg);
            points.push(Point::from_result(&r));
        }
    }
    points
}

/// Renders the latency/throughput/area table plus the lint verdict
/// for each generated fabric.
pub fn render() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "temporal NoC: latency / throughput / JJ-area across topologies x patterns"
    );
    let _ = writeln!(
        out,
        "(TDM-routed pulse-stream flits, 4-bit payloads, seed {SEED}, {FLOWS_PER_NODE} flits/endpoint)"
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<12} {:<12} {:>6} {:>8} {:>6} {:>7} {:>9} {:>5} {:>12} {:>12} {:>12}",
        "topology",
        "pattern",
        "nodes",
        "JJ",
        "flows",
        "rounds",
        "delivered",
        "lost",
        "net lat ps",
        "tot lat ps",
        "pulses/ns"
    );
    for p in series() {
        let _ = writeln!(
            out,
            "{:<12} {:<12} {:>6} {:>8} {:>6} {:>7} {:>9} {:>5} {:>12.1} {:>12.1} {:>12.3}",
            p.topology,
            p.pattern,
            p.nodes,
            p.jj,
            p.flows,
            p.rounds,
            p.delivered_pulses,
            p.lost_pulses,
            p.mean_network_latency_ps,
            p.mean_total_latency_ps,
            p.throughput_pulses_per_ns
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "lint (usfq-lint over each generated fabric):");
    for topology in topologies() {
        let geometry = FlitGeometry::with_bits(4).expect("4-bit flits");
        let fabric = topology.build(geometry);
        let flows = usfq_noc::generate(
            Pattern::Permutation,
            topology.nodes(),
            1,
            geometry.epoch.n_max(),
            SEED,
        );
        let schedule = plan(&fabric, &flows);
        let report = lint_fabric(&fabric, schedule.makespan);
        let waived = report.diagnostics.iter().filter(|d| d.is_waived()).count();
        let _ = writeln!(
            out,
            "  {:<12} {} errors, {} warnings, {} waived (declared: USFQ006 arbiter collisions, USFQ007 crossbar setup races)",
            topology.label(),
            report.error_count(),
            report.warning_count(),
            waived
        );
        assert!(
            !report.has_errors() && report.warning_count() == 0,
            "generated fabric must lint clean:\n{}",
            report.render_text()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_loss_free_and_covers_the_grid() {
        let points = series();
        assert_eq!(points.len(), topologies().len() * Pattern::all().len());
        for p in &points {
            assert_eq!(p.lost_pulses, 0, "{} x {}", p.topology, p.pattern);
            assert!(p.throughput_pulses_per_ns > 0.0);
            assert!(p.mean_total_latency_ps >= p.mean_network_latency_ps);
        }
    }

    #[test]
    fn hotspot_needs_more_serialization_than_uniform() {
        let points = series();
        let subslots = |pattern: &str, topo: &str| {
            points
                .iter()
                .find(|p| p.pattern == pattern && p.topology == topo)
                .map(|p| p.subslots)
                .unwrap()
        };
        // Hotspot funnels half the flows into one eject port, which
        // the TDM arbiter must serialize into extra sub-slots.
        assert!(subslots("hotspot", "mesh4x4") >= subslots("permutation", "mesh4x4"));
    }
}
