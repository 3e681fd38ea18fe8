//! Runtime pulse sanitizer: an opt-in per-event invariant checker.
//!
//! When enabled on a [`Simulator`](crate::Simulator), every *delivered*
//! pulse is checked against the receiving cell's declared
//! [`StaticMeta`] — the same hazard and
//! counting-capacity declarations the `usfq-lint` static analyzer
//! consumes. Violations are recorded as structured [`Violation`]s, never
//! panics, and the simulation itself is *not* perturbed: the sanitizer
//! only observes, so probe recordings with the sanitizer on are
//! bit-identical to runs with it off. A sanitized run is a pulse run:
//! the simulator schedules trains as loose pulses and takes no
//! closed-form step, so every check below judges one delivered pulse.
//!
//! The checks mirror the static pass's abstract domains concretely:
//!
//! * [`Hazard::Collision`] — two pulses on any inputs of the cell within
//!   the collision window (the merger's Fig. 5 pulse-loss mode);
//! * [`Hazard::Transition`] — a second pulse on the *same* input while
//!   the cell is still transitioning (the balancer's t_BFF hazard);
//! * [`Hazard::Setup`] — the sampled input arriving inside the control
//!   input's settling window (NDRO/inverter/DFF setup);
//! * [`StaticMeta::counting_capacity`] — more data pulses delivered to
//!   the cell's port-0 data input than the declared per-run capacity;
//! * [`SanitizerConfig::epoch_end`] — any pulse delivered after the
//!   configured epoch end.
//!
//! Because both layers read the same declarations, a net the static
//! analyzer proves clean can only trip the sanitizer if the netlist
//! violates the static envelope — which is exactly what the differential
//! soundness harness in `usfq-bench` asserts never happens for the
//! shipped catalogue.

use std::sync::Arc;

use crate::circuit::Circuit;
use crate::component::{Hazard, StaticMeta};
use crate::time::Time;

/// Default cap on recorded violations; further ones are counted but not
/// stored, so a pathological run cannot exhaust memory.
pub const DEFAULT_VIOLATION_CAP: usize = 256;

/// Operating envelope the sanitizer checks against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SanitizerConfig {
    /// If set, any pulse delivered after this instant is an
    /// [`ViolationKind::AfterEpochEnd`] violation.
    pub epoch_end: Option<Time>,
    /// Maximum number of violations stored verbatim, the first in
    /// `(time, component index, port)` order; the rest only increment
    /// [`suppressed`](SanitizerReport::suppressed).
    pub violation_cap: usize,
}

impl Default for SanitizerConfig {
    fn default() -> Self {
        SanitizerConfig {
            epoch_end: None,
            violation_cap: DEFAULT_VIOLATION_CAP,
        }
    }
}

/// What invariant a delivered pulse broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ViolationKind {
    /// Two pulses reached the cell within its collision window.
    Collision {
        /// The declared collision window.
        window: Time,
        /// Arrival time of the earlier pulse.
        previous: Time,
    },
    /// A pulse landed on an input still inside its transition window.
    Transition {
        /// The declared transition window.
        window: Time,
        /// Arrival time of the pulse that opened the window.
        previous: Time,
    },
    /// The sampled input arrived while the control input was settling.
    Setup {
        /// The control port whose state had not settled.
        control: usize,
        /// The declared settling window.
        window: Time,
        /// Arrival time of the control pulse.
        control_time: Time,
    },
    /// More data pulses than the cell's declared counting capacity.
    CountOverflow {
        /// The declared capacity.
        capacity: u64,
        /// The running count including this pulse.
        count: u64,
    },
    /// A pulse was delivered after the configured epoch end.
    AfterEpochEnd {
        /// The configured epoch end.
        epoch_end: Time,
    },
}

impl ViolationKind {
    /// Short stable label, for reports and test assertions.
    pub fn label(&self) -> &'static str {
        match self {
            ViolationKind::Collision { .. } => "collision",
            ViolationKind::Transition { .. } => "transition",
            ViolationKind::Setup { .. } => "setup",
            ViolationKind::CountOverflow { .. } => "count-overflow",
            ViolationKind::AfterEpochEnd { .. } => "after-epoch-end",
        }
    }
}

/// One recorded invariant violation, localized to a component input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The broken invariant.
    pub kind: ViolationKind,
    /// Name of the component that received the offending pulse.
    pub component: String,
    /// The input port the pulse arrived on.
    pub port: usize,
    /// Arrival time of the offending pulse.
    pub time: Time,
    /// Index of the component in the sanitized circuit.
    comp: u32,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} at `{}` port {} ({:.1} ps)",
            self.kind.label(),
            self.component,
            self.port,
            self.time.as_ps()
        )
    }
}

/// The order violations are stored and merged in: time, then the
/// component's index in the whole circuit (`comp`), then port.
fn order_key(v: &Violation, comp: u32) -> (Time, u32, usize) {
    (v.time, comp, v.port)
}

/// The violations one sanitizer over a whole circuit would keep, from
/// the stored violations of each of its shards, each shard with the
/// circuit's index of every one of its components.
pub(crate) fn merge_violations<'a>(
    shards: impl Iterator<Item = (&'a [Violation], &'a [u32])>,
    cap: usize,
) -> Vec<&'a Violation> {
    let mut all: Vec<_> = shards
        .flat_map(|(violations, global)| {
            violations
                .iter()
                .map(move |v| (order_key(v, global[v.comp as usize]), v))
        })
        .collect();
    // A stable sort: equal keys name one component, so they come from
    // one shard, in its order.
    all.sort_by_key(|&(key, _)| key);
    all.truncate(cap);
    all.into_iter().map(|(_, v)| v).collect()
}

/// Read-only view of everything the sanitizer recorded in a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SanitizerReport<'a> {
    /// Stored violations in `(time, component index, port)` order, equal
    /// keys in detection order, whatever the delivery mode or shard count.
    pub violations: &'a [Violation],
    /// Violations beyond the cap that were counted but not stored.
    pub suppressed: u64,
}

/// One cell's declarations, as ranges into [`SanitizerFacts`].
#[derive(Debug, Clone, Copy)]
struct CellFacts {
    /// `hazards[hazards_start..hazards_end]` are the cell's hazards.
    hazards_start: u32,
    hazards_end: u32,
    counting_capacity: Option<u64>,
    /// Index of the cell's first slot in the flat arrival array: the
    /// last accepted arrival, then one last arrival per input port.
    arrival_base: u32,
    num_inputs: u32,
}

/// The declarations the sanitizer enforces, for every cell of a
/// circuit. Compiled once per topology (see `circuit::Compiled`) and
/// shared by every sanitizer built from it or its clones.
#[derive(Debug, Clone)]
pub(crate) struct SanitizerFacts {
    cells: Arc<[CellFacts]>,
    hazards: Arc<[Hazard]>,
    /// Length of the flat arrival array.
    arrival_slots: usize,
}

impl SanitizerFacts {
    /// Compiles each cell's declared meta and input count, in
    /// component order.
    pub(crate) fn compile(cells: impl Iterator<Item = (StaticMeta, usize)>) -> Self {
        let mut facts = Vec::with_capacity(cells.size_hint().0);
        let mut hazards = Vec::new();
        let mut arrival_slots = 0usize;
        for (meta, num_inputs) in cells {
            let hazards_start = hazards.len() as u32;
            hazards.extend(meta.hazards);
            facts.push(CellFacts {
                hazards_start,
                hazards_end: hazards.len() as u32,
                counting_capacity: meta.counting_capacity,
                arrival_base: arrival_slots as u32,
                num_inputs: num_inputs as u32,
            });
            arrival_slots += 1 + num_inputs;
        }
        SanitizerFacts {
            cells: facts.into(),
            hazards: hazards.into(),
            arrival_slots,
        }
    }
}

/// The last arrival on `port` among a cell's arrival slots (`None` for
/// a port the cell does not have).
fn port_arrival(slots: &[Option<Time>], port: usize) -> Option<Time> {
    slots.get(1 + port).copied().flatten()
}

/// The sanitizer's mutable tracking state, owned by the simulator.
#[derive(Debug, Clone)]
pub(crate) struct SanitizerState {
    config: SanitizerConfig,
    facts: SanitizerFacts,
    /// Per cell, at its `arrival_base`: the most recent *accepted*
    /// delivery on any port (mirrors the merger's collision
    /// bookkeeping: a colliding pulse does not reopen the window),
    /// then the most recent delivery on each input port.
    arrivals: Vec<Option<Time>>,
    /// Data pulses delivered to port 0 of counting cells.
    data_count: Vec<u64>,
    /// Stored violations, sorted (see [`SanitizerReport::violations`]).
    violations: Vec<Violation>,
    suppressed: u64,
}

impl SanitizerState {
    pub(crate) fn new(circuit: &Circuit, config: SanitizerConfig) -> Self {
        let facts = circuit.compiled().facts.clone();
        SanitizerState {
            config,
            arrivals: vec![None; facts.arrival_slots],
            data_count: vec![0; facts.cells.len()],
            facts,
            violations: Vec::new(),
            suppressed: 0,
        }
    }

    /// Observes one delivered pulse. Never perturbs the simulation.
    pub(crate) fn observe(&mut self, comp: usize, name: &str, port: usize, now: Time) {
        if let Some(end) = self.config.epoch_end {
            if now > end {
                self.record(
                    comp,
                    name,
                    port,
                    now,
                    ViolationKind::AfterEpochEnd { epoch_end: end },
                );
            }
        }

        // Hazard checks run against the state *before* this pulse.
        // Findings are buffered locally (an empty `Vec` never
        // allocates) so the borrow of the per-cell facts ends before
        // recording.
        let mut found: Vec<ViolationKind> = Vec::new();
        // The accepted-arrival window mirrors the merger: a colliding
        // pulse is swallowed and does not extend the window.
        let mut collides = false;
        let cell = self.facts.cells[comp];
        let base = cell.arrival_base as usize;
        let inputs = cell.num_inputs as usize;
        let hazards = &self.facts.hazards[cell.hazards_start as usize..cell.hazards_end as usize];
        // The last accepted arrival, then the last on each input port.
        let slots = &self.arrivals[base..=base + inputs];
        for hazard in hazards {
            match *hazard {
                Hazard::Collision { window } => {
                    if window == Time::ZERO {
                        continue;
                    }
                    if let Some(prev) = slots[0] {
                        if now.saturating_sub(prev) < window {
                            collides = true;
                            found.push(ViolationKind::Collision {
                                window,
                                previous: prev,
                            });
                        }
                    }
                }
                Hazard::Transition { window } => {
                    if let Some(prev) = port_arrival(slots, port) {
                        if now.saturating_sub(prev) < window {
                            found.push(ViolationKind::Transition {
                                window,
                                previous: prev,
                            });
                        }
                    }
                }
                Hazard::Setup {
                    control,
                    sampled,
                    window,
                } => {
                    if port != sampled {
                        continue;
                    }
                    if let Some(ctrl) = port_arrival(slots, control) {
                        if now.saturating_sub(ctrl) < window {
                            found.push(ViolationKind::Setup {
                                control,
                                window,
                                control_time: ctrl,
                            });
                        }
                    }
                }
            }
        }
        for kind in found {
            self.record(comp, name, port, now, kind);
        }

        // Counting capacity applies to the conventional port-0 data
        // input of counting cells (both integrator models).
        if port == 0 {
            if let Some(cap) = cell.counting_capacity {
                self.data_count[comp] += 1;
                let count = self.data_count[comp];
                if count > cap {
                    self.record(
                        comp,
                        name,
                        port,
                        now,
                        ViolationKind::CountOverflow {
                            capacity: cap,
                            count,
                        },
                    );
                }
            }
        }

        if !collides {
            self.arrivals[base] = Some(now);
        }
        if port < inputs {
            self.arrivals[base + 1 + port] = Some(now);
        }
    }

    /// Stores a violation after every stored one whose [`order_key`]
    /// is not greater, and keeps the first `violation_cap`. Detection
    /// runs in time order, so that is nearly always the end.
    fn record(&mut self, comp: usize, name: &str, port: usize, time: Time, kind: ViolationKind) {
        let v = Violation {
            kind,
            component: name.to_string(),
            port,
            time,
            comp: comp as u32,
        };
        let key = order_key(&v, v.comp);
        let at = self
            .violations
            .iter()
            .rposition(|s| order_key(s, s.comp) <= key)
            .map_or(0, |i| i + 1);
        self.violations.insert(at, v);
        if self.violations.len() > self.config.violation_cap {
            self.violations.pop();
            self.suppressed += 1;
        }
    }

    pub(crate) fn report(&self) -> SanitizerReport<'_> {
        SanitizerReport {
            violations: &self.violations,
            suppressed: self.suppressed,
        }
    }

    /// Clears per-run tracking (used by `Simulator::reset`).
    pub(crate) fn reset(&mut self) {
        self.arrivals.fill(None);
        self.data_count.fill(0);
        self.violations.clear();
        self.suppressed = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{Component, Ctx, StaticMeta};
    use crate::{Circuit, Simulator};

    /// A probe-only sink declaring an explicit hazard set.
    #[derive(Clone)]
    struct Declared {
        name: String,
        meta: StaticMeta,
        inputs: usize,
    }
    impl Component for Declared {
        fn name(&self) -> &str {
            &self.name
        }
        fn num_inputs(&self) -> usize {
            self.inputs
        }
        fn num_outputs(&self) -> usize {
            1
        }
        fn jj_count(&self) -> u32 {
            2
        }
        fn on_pulse(&mut self, _port: usize, _now: Time, ctx: &mut Ctx) {
            ctx.emit(0, Time::ZERO);
        }
        fn static_meta(&self) -> StaticMeta {
            self.meta.clone()
        }
    }

    fn two_input_fixture(meta: StaticMeta) -> (Simulator, crate::InputId, crate::InputId) {
        let mut c = Circuit::new();
        let a = c.input("a");
        let b = c.input("b");
        let d = c.add(Declared {
            name: "dut".into(),
            meta,
            inputs: 2,
        });
        c.connect_input(a, d.input(0), Time::ZERO).unwrap();
        c.connect_input(b, d.input(1), Time::ZERO).unwrap();
        c.probe(d.output(0), "out");
        (Simulator::new(c), a, b)
    }

    #[test]
    fn collision_is_detected_and_window_not_extended() {
        let meta = StaticMeta::new("m", Time::ZERO).with_hazard(Hazard::Collision {
            window: Time::from_ps(5.0),
        });
        let (mut sim, a, b) = two_input_fixture(meta);
        sim.enable_sanitizer(SanitizerConfig::default());
        sim.schedule_input(a, Time::from_ps(0.0)).unwrap();
        sim.schedule_input(b, Time::from_ps(2.0)).unwrap(); // collides
        sim.schedule_input(a, Time::from_ps(4.0)).unwrap(); // collides with t=0 window
        sim.schedule_input(b, Time::from_ps(20.0)).unwrap(); // clean
        sim.run().unwrap();
        let report = sim.sanitizer_report().unwrap();
        assert_eq!(report.violations.len(), 2);
        assert!(matches!(
            report.violations[0].kind,
            ViolationKind::Collision { .. }
        ));
        assert_eq!(report.violations[0].component, "dut");
        assert_eq!(report.violations[0].time, Time::from_ps(2.0));
        assert_eq!(report.suppressed, 0);
    }

    #[test]
    fn transition_hazard_is_per_port() {
        let meta = StaticMeta::new("bal", Time::ZERO).with_hazard(Hazard::Transition {
            window: Time::from_ps(12.0),
        });
        let (mut sim, a, b) = two_input_fixture(meta);
        sim.enable_sanitizer(SanitizerConfig::default());
        sim.schedule_input(a, Time::from_ps(0.0)).unwrap();
        sim.schedule_input(b, Time::from_ps(5.0)).unwrap(); // other port: fine
        sim.schedule_input(a, Time::from_ps(8.0)).unwrap(); // same port, within 12 ps
        sim.run().unwrap();
        let report = sim.sanitizer_report().unwrap();
        assert_eq!(report.violations.len(), 1);
        assert!(matches!(
            report.violations[0].kind,
            ViolationKind::Transition { .. }
        ));
        assert_eq!(report.violations[0].port, 0);
    }

    #[test]
    fn setup_hazard_checks_direction() {
        let meta = StaticMeta::new("ndro", Time::ZERO).with_hazard(Hazard::Setup {
            control: 0,
            sampled: 1,
            window: Time::from_ps(5.0),
        });
        // Sampled-then-control is fine; control-then-sampled inside the
        // window violates.
        let (mut sim, a, b) = two_input_fixture(meta.clone());
        sim.enable_sanitizer(SanitizerConfig::default());
        sim.schedule_input(b, Time::from_ps(0.0)).unwrap();
        sim.schedule_input(a, Time::from_ps(2.0)).unwrap();
        sim.run().unwrap();
        assert!(sim.sanitizer_report().unwrap().violations.is_empty());

        let (mut sim, a, b) = two_input_fixture(meta);
        sim.enable_sanitizer(SanitizerConfig::default());
        sim.schedule_input(a, Time::from_ps(0.0)).unwrap();
        sim.schedule_input(b, Time::from_ps(2.0)).unwrap();
        sim.run().unwrap();
        let report = sim.sanitizer_report().unwrap();
        assert_eq!(report.violations.len(), 1);
        assert!(matches!(
            report.violations[0].kind,
            ViolationKind::Setup { control: 0, .. }
        ));
    }

    #[test]
    fn count_overflow_on_port_zero() {
        let meta = StaticMeta::new("integrator", Time::ZERO).with_counting_capacity(2);
        let (mut sim, a, b) = two_input_fixture(meta);
        sim.enable_sanitizer(SanitizerConfig::default());
        for k in 0..4u64 {
            sim.schedule_input(a, Time::from_ps(10.0 * k as f64))
                .unwrap();
        }
        // Port 1 is not the data port: never counted.
        sim.schedule_input(b, Time::from_ps(100.0)).unwrap();
        sim.run().unwrap();
        let report = sim.sanitizer_report().unwrap();
        assert_eq!(report.violations.len(), 2); // pulses 3 and 4
        assert!(matches!(
            report.violations[0].kind,
            ViolationKind::CountOverflow {
                capacity: 2,
                count: 3
            }
        ));
    }

    #[test]
    fn after_epoch_end_fires() {
        let meta = StaticMeta::new("jtl", Time::ZERO);
        let (mut sim, a, _b) = two_input_fixture(meta);
        sim.enable_sanitizer(SanitizerConfig {
            epoch_end: Some(Time::from_ps(50.0)),
            ..SanitizerConfig::default()
        });
        sim.schedule_input(a, Time::from_ps(40.0)).unwrap();
        sim.schedule_input(a, Time::from_ps(60.0)).unwrap();
        sim.run().unwrap();
        let report = sim.sanitizer_report().unwrap();
        assert_eq!(report.violations.len(), 1);
        assert!(matches!(
            report.violations[0].kind,
            ViolationKind::AfterEpochEnd { .. }
        ));
        assert_eq!(report.violations[0].time, Time::from_ps(60.0));
    }

    #[test]
    fn violation_cap_suppresses_overflow() {
        let meta = StaticMeta::new("m", Time::ZERO).with_hazard(Hazard::Collision {
            window: Time::from_ps(100.0),
        });
        let (mut sim, a, _b) = two_input_fixture(meta);
        sim.enable_sanitizer(SanitizerConfig {
            violation_cap: 2,
            ..SanitizerConfig::default()
        });
        for k in 0..6u64 {
            sim.schedule_input(a, Time::from_ps(k as f64)).unwrap();
        }
        sim.run().unwrap();
        let report = sim.sanitizer_report().unwrap();
        assert_eq!(report.violations.len(), 2);
        assert_eq!(report.suppressed, 3);
    }

    #[test]
    fn reset_clears_sanitizer_state() {
        let meta = StaticMeta::new("m", Time::ZERO).with_hazard(Hazard::Collision {
            window: Time::from_ps(5.0),
        });
        let (mut sim, a, b) = two_input_fixture(meta);
        sim.enable_sanitizer(SanitizerConfig::default());
        sim.schedule_input(a, Time::from_ps(0.0)).unwrap();
        sim.schedule_input(b, Time::from_ps(1.0)).unwrap();
        sim.run().unwrap();
        assert_eq!(sim.sanitizer_report().unwrap().violations.len(), 1);
        sim.reset();
        assert!(sim.sanitizer_report().unwrap().violations.is_empty());
        // A pulse right after reset must not collide with the pre-reset
        // window.
        sim.schedule_input(a, Time::from_ps(2.0)).unwrap();
        sim.run().unwrap();
        assert!(sim.sanitizer_report().unwrap().violations.is_empty());
    }

    #[test]
    fn disabled_sanitizer_reports_nothing() {
        let meta = StaticMeta::new("m", Time::ZERO);
        let (mut sim, a, _b) = two_input_fixture(meta);
        sim.schedule_input(a, Time::ZERO).unwrap();
        sim.run().unwrap();
        assert!(sim.sanitizer_report().is_none());
    }

    #[test]
    fn violation_display_is_readable() {
        let v = Violation {
            kind: ViolationKind::Collision {
                window: Time::from_ps(5.0),
                previous: Time::from_ps(1.0),
            },
            component: "mrg".into(),
            port: 1,
            time: Time::from_ps(3.0),
            comp: 0,
        };
        assert_eq!(v.to_string(), "collision at `mrg` port 1 (3.0 ps)");
    }
}
