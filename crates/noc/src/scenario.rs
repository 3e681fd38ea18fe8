//! End-to-end scenarios: simulate a planned schedule on a fabric
//! under any engine configuration, decode the arriving flits, and
//! summarize latency / throughput / area.
//!
//! A run's output is a [`usfq_sim::Fingerprint`]; outcomes from any
//! point of the engine configuration cube under the same jitter are
//! equal, except that only a sanitized run records violations.

use usfq_sim::{Fingerprint, ShardedSimulator, SimConfig, SimError, Time};

use crate::flit::FlitGeometry;
use crate::plan::{plan, Schedule};
use crate::topology::{NocFabric, Topology};
use crate::traffic::{generate, Flow, Pattern};

/// The run fingerprint of a routed-traffic simulation, with probe
/// times in eject-probe (endpoint) order.
pub type NocOutcome = Fingerprint;

/// Simulates `schedule` on `fabric` under `cfg`.
///
/// # Errors
///
/// Propagates simulator errors (none occur for planner-produced
/// schedules on their own fabric).
pub fn simulate(
    fabric: &NocFabric,
    schedule: &Schedule,
    cfg: &SimConfig,
) -> Result<NocOutcome, SimError> {
    let mut sim = ShardedSimulator::with_config(fabric.circuit.clone(), cfg);
    for (input, times) in &schedule.control {
        sim.schedule_pulses(*input, times.iter().copied())?;
    }
    for (input, stream, at) in &schedule.payload {
        sim.schedule_burst(*input, stream.burst_from(*at))?;
    }
    let summary = sim.run()?;
    Ok(Fingerprint::capture(&sim, summary, &fabric.eject))
}

/// [`simulate`] under the environment's engine configuration
/// ([`SimConfig::from_env`]).
///
/// # Errors
///
/// Propagates simulator errors (none occur for planner-produced
/// schedules on their own fabric).
pub fn simulate_env(fabric: &NocFabric, schedule: &Schedule) -> Result<NocOutcome, SimError> {
    simulate(fabric, schedule, SimConfig::from_env())
}

/// One decoded flow.
#[derive(Debug, Clone)]
pub struct DecodedFlow {
    /// Index into the planned flow list.
    pub flow: usize,
    /// Pulses found inside the delivery window.
    pub arrived: u64,
    /// Pulses the flit carried.
    pub expected: u64,
    /// Last in-window arrival minus sub-slot start (flight time).
    pub network_latency: Time,
    /// Last in-window arrival minus epoch start (queueing + flight).
    pub total_latency: Time,
}

/// Counts every delivery window of `schedule` against `outcome`.
pub fn decode(fabric: &NocFabric, schedule: &Schedule, outcome: &NocOutcome) -> Vec<DecodedFlow> {
    schedule
        .deliveries
        .iter()
        .map(|d| {
            let probe_idx = fabric
                .eject
                .iter()
                .position(|&p| p == d.probe)
                .expect("delivery probe belongs to fabric");
            let times = &outcome.probe_times[probe_idx];
            let arrived = FlitGeometry::decode(times, d.window);
            let last = times
                .iter()
                .filter(|&&t| t >= d.window.0 && t < d.window.1)
                .max()
                .copied()
                .unwrap_or(d.injected_at);
            DecodedFlow {
                flow: d.flow,
                arrived,
                expected: d.expected,
                network_latency: last - d.injected_at,
                total_latency: last,
            }
        })
        .collect()
}

/// Aggregated scenario metrics for the figures/bench layers.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Topology label, e.g. `mesh4x4`.
    pub topology: String,
    /// Pattern label, e.g. `hotspot`.
    pub pattern: String,
    /// Endpoint count.
    pub nodes: usize,
    /// Cell count of the fabric netlist.
    pub components: usize,
    /// Fabric area in Josephson junctions.
    pub jj: u64,
    /// Flows planned.
    pub flows: usize,
    /// TDM rounds the planner needed.
    pub rounds: usize,
    /// Total sub-slots across rounds.
    pub subslots: usize,
    /// Flows whose full payload arrived inside their window.
    pub delivered_flows: usize,
    /// Payload pulses injected.
    pub injected_pulses: u64,
    /// Payload pulses lost (injected minus arrived-in-window).
    pub lost_pulses: u64,
    /// Schedule makespan.
    pub makespan: Time,
    /// Mean flight latency over flows, ps.
    pub mean_network_latency_ps: f64,
    /// Mean queueing+flight latency over flows, ps.
    pub mean_total_latency_ps: f64,
    /// Worst queueing+flight latency, ps.
    pub max_total_latency_ps: f64,
    /// Delivered payload pulses per nanosecond of makespan.
    pub throughput_pulses_per_ns: f64,
}

/// Builds, plans, simulates, and decodes one `(topology, pattern)`
/// scenario. Fully deterministic in its arguments.
///
/// # Panics
///
/// Panics if the simulator rejects the planner's schedule — that
/// would be a bug, not an input condition.
pub fn run_scenario(
    topology: Topology,
    pattern: Pattern,
    flows_per_node: usize,
    seed: u64,
    cfg: &SimConfig,
) -> ScenarioResult {
    let geometry = FlitGeometry::with_bits(4).expect("4-bit flits are always valid");
    let fabric = topology.build(geometry);
    let flows = generate(
        pattern,
        topology.nodes(),
        flows_per_node,
        geometry.epoch.n_max(),
        seed,
    );
    let schedule = plan(&fabric, &flows);
    let outcome = simulate(&fabric, &schedule, cfg).expect("planned schedule simulates");
    summarize(&fabric, &flows, &schedule, &outcome, pattern)
}

/// Aggregates decoded flows into a [`ScenarioResult`].
pub fn summarize(
    fabric: &NocFabric,
    flows: &[Flow],
    schedule: &Schedule,
    outcome: &NocOutcome,
    pattern: Pattern,
) -> ScenarioResult {
    let decoded = decode(fabric, schedule, outcome);
    let injected: u64 = flows.iter().map(|f| f.payload).sum();
    let arrived: u64 = decoded.iter().map(|d| d.arrived.min(d.expected)).sum();
    let delivered_flows = decoded.iter().filter(|d| d.arrived == d.expected).count();
    let n = decoded.len().max(1) as f64;
    let makespan_ns = schedule.makespan.as_ps() / 1000.0;
    ScenarioResult {
        topology: fabric.topology.label(),
        pattern: pattern.label().to_string(),
        nodes: fabric.topology.nodes(),
        components: fabric.circuit.components().count(),
        jj: fabric.circuit.total_jj(),
        flows: flows.len(),
        rounds: schedule.rounds,
        subslots: schedule.total_subslots,
        delivered_flows,
        injected_pulses: injected,
        lost_pulses: injected - arrived,
        makespan: schedule.makespan,
        mean_network_latency_ps: decoded
            .iter()
            .map(|d| d.network_latency.as_ps())
            .sum::<f64>()
            / n,
        mean_total_latency_ps: decoded.iter().map(|d| d.total_latency.as_ps()).sum::<f64>() / n,
        max_total_latency_ps: decoded
            .iter()
            .map(|d| d.total_latency.as_ps())
            .fold(0.0, f64::max),
        throughput_pulses_per_ns: if makespan_ns > 0.0 {
            arrived as f64 / makespan_ns
        } else {
            0.0
        },
    }
}
