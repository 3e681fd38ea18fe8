//! # usfq-sim — discrete-event, pulse-level SFQ circuit simulator
//!
//! In rapid-single-flux-quantum (RSFQ) logic, information is carried by
//! picosecond-wide voltage pulses rather than voltage levels. This crate
//! provides a deterministic discrete-event kernel specialised for that
//! regime: *events are pulses*, components are behavioral models of
//! superconducting cells, and wires add fixed propagation delay.
//!
//! The kernel replaces the analog WRspice simulations used by the U-SFQ
//! paper (ASPLOS '22). All architectural phenomena the paper evaluates —
//! pulse ordering, collision windows, state-transition (setup/hold) windows,
//! switching-activity-proportional power — are first-class citizens here.
//!
//! ## Model
//!
//! * [`Time`] is an absolute instant with femtosecond resolution (stored in
//!   a `u64`), so picosecond-scale cell delays are exact.
//! * A [`Circuit`] is a netlist of [`Component`]s connected by wires with
//!   fixed delays, plus named external inputs and output probes.
//! * A [`Simulator`] owns a circuit and an event queue. Ties in time are
//!   broken by insertion order, making every run reproducible bit-for-bit.
//!   The queue is a binary heap or a calendar wheel ([`sched::Sched`]).
//!   The default, [`Sched::Auto`], picks the heap below
//!   [`AUTO_WHEEL_MIN_WIRES`](sched::AUTO_WHEEL_MIN_WIRES) fan-out wires,
//!   which covers every accelerator rig and every gated benchmark
//!   workload, and the wheel above; `USFQ_SCHED` forces either. Both pop
//!   events in the same order.
//! * [`SimConfig`] is the one engine configuration (scheduler, burst
//!   delivery, shards, wire jitter, sanitizer) every simulator is built
//!   from, and [`Fingerprint`] the one run fingerprint two
//!   configurations must agree on.
//! * [`stats::ActivityReport`] counts pulse arrivals and emissions per
//!   component; [`power`] converts activity into active/passive power using
//!   per-cell Josephson-junction accounting.
//! * [`runner::Runner`] maps seeded trial functions over parameter grids
//!   across threads with results in input order, so parallel sweeps are
//!   byte-identical to the sequential loop at any thread count.
//! * [`sanitizer`] is an opt-in per-event invariant checker: it asserts
//!   each cell's declared hazards and counting capacity against every
//!   delivered pulse, recording structured violations without perturbing
//!   the run — the dynamic half of the `usfq-lint` soundness contract.
//! * [`rng`] holds the workspace's seeded generators and [`check`] its
//!   seeded property-test runner, so the whole workspace needs only std.
//!
//! ## Example
//!
//! Build a two-stage delay line and observe the pulse at the end:
//!
//! ```
//! use usfq_sim::{Circuit, Simulator, Time};
//! use usfq_sim::component::Buffer;
//!
//! # fn main() -> Result<(), usfq_sim::SimError> {
//! let mut circuit = Circuit::new();
//! let input = circuit.input("in");
//! let b1 = circuit.add(Buffer::new("jtl1", Time::from_ps(3.0)));
//! let b2 = circuit.add(Buffer::new("jtl2", Time::from_ps(3.0)));
//! circuit.connect_input(input, b1.input(0), Time::ZERO)?;
//! circuit.connect(b1.output(0), b2.input(0), Time::from_ps(1.0))?;
//! let probe = circuit.probe(b2.output(0), "out");
//!
//! let mut sim = Simulator::new(circuit);
//! sim.schedule_input(input, Time::ZERO)?;
//! sim.run()?;
//! assert_eq!(sim.probe_times(probe), &[Time::from_ps(7.0)]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod burst;
pub mod check;
pub mod circuit;
pub mod component;
pub mod config;
pub mod engine;
pub mod error;
pub mod graph;
pub mod power;
pub mod rng;
pub mod runner;
pub mod sanitizer;
pub mod sched;
pub mod shard;
pub mod stats;
pub mod time;
pub mod trace;

pub use burst::{Burst, BurstStepper};
pub use circuit::{
    Circuit, CompId, FanoutOverflow, InputId, NodeRef, ProbeId, ProbeSource, SinkRef, WireId,
};
pub use component::{BurstStep, Component, Ctx, Hazard, StaticMeta};
pub use config::{
    Fingerprint, Jitter, SimConfig, BURST_ENV, SCHED_ENV, SHARDS_ENV, WIRE_JITTER_DEFAULT_SEED,
    WIRE_JITTER_ENV,
};
pub use engine::{RunSummary, Simulator};
pub use error::SimError;
pub use graph::CircuitGraph;
pub use runner::Runner;
pub use sanitizer::{SanitizerConfig, SanitizerReport, Violation, ViolationKind};
pub use sched::{CalendarWheel, RunHeap, Sched, WheelStats};
pub use shard::ShardedSimulator;
pub use stats::{ActivityReport, CoalesceStats, StatKind};
pub use time::Time;
