//! # usfq-cells — behavioral RSFQ cell library
//!
//! Behavioral models of the superconducting cells the U-SFQ paper builds
//! on (its Table 1 and Fig. 1d), implemented as [`usfq_sim::Component`]s:
//!
//! | Cell | Behaviour | Module |
//! |------|-----------|--------|
//! | JTL / splitter / merger | interconnect; the merger models the paper's Fig. 5 collision loss | [`interconnect`] |
//! | DFF, DFF2, NDRO | storage loops; NDRO is the non-destructive read used by the multiplier and coefficient memory | [`storage`] |
//! | TFF, TFF2 | toggle dividers used by the pulse-number multiplier | [`toggle`] |
//! | clocked inverter | complements a pulse stream (bipolar multiplier) | [`inverter`] |
//! | FA / LA | race-logic first/last-arrival primitives | [`race`] |
//! | balancer (+ routing unit, structural builder) | the paper's §4.2 collision-free 2:2 pulse balancer | [`balancer`] |
//! | mux / demux | interleaving switches for the RL memory cell | [`switch`] |
//! | demux / merger trees | structural 1:n and n:1 trees — the temporal-router crossbar and arbiter | [`switch`], [`interconnect`] |
//!
//! Every cell carries its Josephson-junction cost from [`catalog`], which
//! reconciles primitive counts from the public RSFQ cell libraries with
//! the composite-area anchors the paper states (126-JJ PE, 46-JJ bipolar
//! multiplier, 84-JJ balancer, …). [`spec`] holds one row of facts per
//! cell kind (port encodings, per-output pulse bounds, statefulness and
//! the catalog JJ count), and [`spec_for`] looks a row up by kind and
//! port counts; `usfq-lint` reads its rows.
//!
//! ## Example
//!
//! A merger ORs two pulse trains, losing coincident pulses exactly like
//! the paper's Fig. 5:
//!
//! ```
//! use usfq_sim::{Circuit, Simulator, Time};
//! use usfq_cells::interconnect::Merger;
//!
//! # fn main() -> Result<(), usfq_sim::SimError> {
//! let mut c = Circuit::new();
//! let (a, b) = (c.input("a"), c.input("b"));
//! let m = c.add(Merger::new("m"));
//! c.connect_input(a, m.input(Merger::IN_A), Time::ZERO)?;
//! c.connect_input(b, m.input(Merger::IN_B), Time::ZERO)?;
//! let y = c.probe(m.output(Merger::OUT), "y");
//! let mut sim = Simulator::new(c);
//! sim.schedule_input(a, Time::from_ps(0.0))?;
//! sim.schedule_input(b, Time::from_ps(0.0))?; // collides: only one out
//! sim.schedule_input(b, Time::from_ps(50.0))?;
//! sim.run()?;
//! assert_eq!(sim.probe_count(y), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balancer;
pub mod catalog;
pub mod interconnect;
pub mod inverter;
pub mod race;
pub mod spec;
pub mod storage;
pub mod switch;
pub mod toggle;

pub use balancer::{Balancer, RoutingUnit, StructuralBalancer};
pub use interconnect::{Jtl, Merger, MergerTree, Splitter};
pub use inverter::ClockedInverter;
pub use race::{FirstArrival, Inhibit, LastArrival};
pub use spec::{spec_for, CellSpec, PortDomain, PulseBound};
pub use storage::{Dff, Dff2, Ndro};
pub use switch::{Demux, DemuxTree, Mux};
pub use toggle::{Tff, Tff2};
