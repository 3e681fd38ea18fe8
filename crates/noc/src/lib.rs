//! # usfq-noc — a temporal network-on-chip for U-SFQ accelerators
//!
//! The paper evaluates its PEs and DPUs as isolated blocks; composing
//! them into a full accelerator needs an interconnect. This crate
//! builds one in the same unary spirit — and in the spirit of the
//! authors' PaST-NoC follow-on: routing decisions are carried by
//! *time* (a TDM schedule steering demux-tree crossbars), not by
//! header bits, so a router is nothing but interconnect cells from
//! [`usfq_cells`]:
//!
//! * [`router`] — per input: JTL buffer → [`usfq_cells::switch::DemuxTree`]
//!   crossbar sized to the XY turn model; per output: a
//!   [`usfq_cells::interconnect::MergerTree`] arbiter with physical
//!   collision windows. Demux SEL pins surface as external control
//!   inputs.
//! * [`topology`] — mesh / torus / one-big-switch fabrics as a single
//!   [`usfq_sim::Circuit`], zero-delay inside routers (so shards
//!   contract each router to one atomic unit) and positive-delay
//!   links (so the shard engine has real lookahead); XY dimension-
//!   order route computation with resource accounting.
//! * [`flit`] — a flit is a pulse-stream train: payload = pulse
//!   count, scheduled by [`usfq_encoding::PulseStream::schedule_from`];
//!   decoding is counting inside a delivery window.
//! * [`traffic`] — seeded uniform / permutation / hotspot generators.
//! * [`plan`](mod@plan) — the temporal arbiter: partitions flows into rounds
//!   (compatible crossbar settings) and sub-slots (disjoint path
//!   resources), emits SEL toggles and flit trains, and derives the
//!   per-flow delivery windows. Loss-free by construction.
//! * [`scenario`] — run a schedule under any [`usfq_sim::SimConfig`]
//!   and fingerprint the outcome; fingerprints from every
//!   configuration agree, which the engine configuration cube pins.
//!
//! Lint: generated fabrics pass `usfq-lint` clean under
//! [`topology::NocFabric::lint_config`], which *declares* the two
//! expected hazard classes (arbiter merger collisions `USFQ006`,
//! crossbar SEL/data setup races `USFQ007` — both statically
//! unavoidable, dynamically avoided by the TDM schedule) as waivers
//! instead of hiding them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flit;
pub mod plan;
pub mod router;
pub mod scenario;
pub mod topology;
pub mod traffic;

pub use flit::FlitGeometry;
pub use plan::{plan, FlowDelivery, Schedule};
pub use router::{BuiltRouter, InPort, RouterSpec};
pub use scenario::{
    decode, run_scenario, simulate, simulate_env, summarize, DecodedFlow, NocOutcome,
    ScenarioResult,
};
pub use topology::{NocFabric, Route, Topology, LINK_DELAY};
pub use traffic::{generate, Flow, Pattern};

use usfq_lint::LintReport;
use usfq_sim::Time;

/// Lints a fabric under its own envelope with `horizon` as the input
/// window (use the schedule makespan for a planned run).
pub fn lint_fabric(fabric: &NocFabric, horizon: Time) -> LintReport {
    usfq_lint::lint(
        &fabric.circuit,
        &fabric.topology.label(),
        &fabric.lint_config(horizon),
    )
}
