//! The 2:2 pulse balancer (paper §4.2), behavioral and structural.
//!
//! A balancer routes incoming pulses alternately to its two outputs so
//! each output carries `(N_A + N_B) / 2` pulses. Unlike a merger it
//! handles coincident arrivals without loss: when two pulses land
//! together, one pulse appears on *each* output. Counting networks built
//! from balancers are therefore loss-free pulse-stream adders.
//!
//! Two implementations are provided and tested against each other:
//!
//! * [`Balancer`] — a single behavioral cell implementing the Mealy
//!   machine of the paper's Fig. 6c, including the t_BFF = 12 ps
//!   routing-transition window (a pulse arriving mid-transition is routed
//!   by the stale state: output count stays correct, routing may bias —
//!   the paper's §4.2 case (iii)).
//! * [`StructuralBalancer`] — the gate-level composition of the paper's
//!   Fig. 6: input splitters, a B-flip-flop-based [`RoutingUnit`], and an
//!   output stage of two [`Dff2`]s read through splitters and merged.

use usfq_sim::circuit::{Circuit, NodeRef, SinkRef};
use usfq_sim::component::{BurstStep, Component, Ctx, Hazard, StaticMeta};
use usfq_sim::stats::StatKind;
use usfq_sim::{Burst, SimError, Time};

use crate::catalog;
use crate::interconnect::{Merger, Splitter};
use crate::storage::Dff2;

/// Behavioral 2:2 balancer.
#[derive(Debug, Clone)]
pub struct Balancer {
    name: String,
    next_out: usize,
    last_route: usize,
    transition_until: [Time; 2],
    t_bff: Time,
    delay: Time,
}

impl Balancer {
    /// First input port.
    pub const IN_A: usize = 0;
    /// Second input port.
    pub const IN_B: usize = 1;
    /// Top output port.
    pub const OUT_Y1: usize = 0;
    /// Bottom output port.
    pub const OUT_Y2: usize = 1;

    /// Creates a balancer with the paper's t_BFF = 12 ps transition time.
    pub fn new(name: impl Into<String>) -> Self {
        Self::with_transition(name, catalog::t_bff())
    }

    /// Creates a balancer with an explicit routing-transition time (used
    /// by fault-injection studies; zero disables the bias effect).
    pub fn with_transition(name: impl Into<String>, t_bff: Time) -> Self {
        Balancer {
            name: name.into(),
            next_out: Self::OUT_Y1,
            last_route: Self::OUT_Y2,
            transition_until: [Time::ZERO; 2],
            t_bff,
            delay: catalog::t_ff(),
        }
    }
}

impl Component for Balancer {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        2
    }
    fn num_outputs(&self) -> usize {
        2
    }
    fn jj_count(&self) -> u32 {
        catalog::JJ_BALANCER
    }
    /// Calibrated against the paper's Table 3 (balancer ≈ 2× multiplier
    /// active power at the same activity factor).
    fn switching_jjs(&self) -> f64 {
        15.0
    }
    fn on_pulse(&mut self, port: usize, now: Time, ctx: &mut Ctx) {
        // The A and B inputs drive *different* loops of the B-flip-flop,
        // so coincident pulses on different ports are the Mealy machine's
        // supported case (ii): both route, one to each output. The
        // t_BFF = 12 ps constraint is per input port: a second pulse on
        // the SAME port mid-transition is ignored by the control logic
        // (paper §4.2 case iii) — the output stage still emits, routed
        // complementary to the previous pulse, but the state does not
        // advance, biasing the balancer over time.
        if now < self.transition_until[port] {
            let out = self.last_route ^ 1;
            ctx.record(StatKind::BalancerTransitionHit);
            ctx.emit(out, self.delay);
            self.last_route = out;
        } else {
            let out = self.next_out;
            ctx.emit(out, self.delay);
            self.last_route = out;
            self.next_out ^= 1;
            self.transition_until[port] = now + self.t_bff;
        }
    }
    fn step_burst(&mut self, port: usize, burst: &Burst, ctx: &mut Ctx) -> BurstStep {
        // Closed form for a clean same-port train: the steady state of
        // the Fig. 6c Mealy machine is plain alternation, so `k` pulses
        // split `⌈k/2⌉`/`⌊k/2⌋` across the outputs as decimated trains.
        // Valid only when no pulse can land inside the routing
        // transition window — a check that reads *exact* arrival times,
        // so envelope (jittered) trains and trains that could hit the
        // window expand to pulse level instead.
        let spaced = burst.count() == 1 || burst.min_gap() >= self.t_bff;
        if !burst.is_exact() || !spaced || burst.first() < self.transition_until[port] {
            return BurstStep::PulseByPulse;
        }
        // Pulse-index order across the two outputs is preserved by the
        // engine's padded round-robin seq allocation (even train first,
        // exactly like `Tff2`).
        let out = burst.delayed(self.delay);
        ctx.emit_burst(self.next_out, out.decimate(0, 2));
        ctx.emit_burst(self.next_out ^ 1, out.decimate(1, 2));
        let count = burst.count();
        self.last_route = self.next_out ^ usize::from(count % 2 == 0);
        self.next_out ^= usize::from(count % 2 == 1);
        self.transition_until[port] = burst.last() + self.t_bff;
        BurstStep::Consumed
    }
    fn reset(&mut self) {
        self.next_out = Self::OUT_Y1;
        self.last_route = Self::OUT_Y2;
        self.transition_until = [Time::ZERO; 2];
    }
    fn static_meta(&self) -> StaticMeta {
        StaticMeta::new("balancer", self.delay)
            .with_hazard(Hazard::Transition { window: self.t_bff })
    }
}

/// Behavioral routing unit of the structural balancer (paper Fig. 6f):
/// the B-flip-flop of [Polonsky '94] plus its splitter/merger harness,
/// generating the `C1`/`C2` read strobes for the output stage according
/// to the Fig. 6c Mealy machine.
#[derive(Debug, Clone)]
pub struct RoutingUnit {
    name: String,
    inner: Balancer,
}

impl RoutingUnit {
    /// First input port.
    pub const IN_A: usize = 0;
    /// Second input port.
    pub const IN_B: usize = 1;
    /// Strobe for the output stage's Y1 read.
    pub const OUT_C1: usize = 0;
    /// Strobe for the output stage's Y2 read.
    pub const OUT_C2: usize = 1;

    /// Creates a routing unit with the paper's t_BFF.
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        let inner = Balancer::new(format!("{name}.bff"));
        RoutingUnit { name, inner }
    }
}

impl Component for RoutingUnit {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        2
    }
    fn num_outputs(&self) -> usize {
        2
    }
    fn jj_count(&self) -> u32 {
        catalog::JJ_ROUTING_UNIT
    }
    fn on_pulse(&mut self, port: usize, now: Time, ctx: &mut Ctx) {
        self.inner.on_pulse(port, now, ctx);
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
    fn static_meta(&self) -> StaticMeta {
        let inner = self.inner.static_meta();
        StaticMeta::custom("routing-unit", inner.min_delay, inner.max_delay).with_hazard(
            Hazard::Transition {
                window: catalog::t_bff(),
            },
        )
    }
}

/// Port handles of a gate-level balancer built by
/// [`StructuralBalancer::build`].
#[derive(Debug, Clone, Copy)]
pub struct StructuralBalancer {
    /// Input A (drive this sink).
    pub in_a: SinkRef,
    /// Input B (drive this sink).
    pub in_b: SinkRef,
    /// Output Y1 (probe or wire this node).
    pub out_y1: NodeRef,
    /// Output Y2 (probe or wire this node).
    pub out_y2: NodeRef,
}

impl StructuralBalancer {
    /// Instantiates the paper's Fig. 6 balancer into `circuit`:
    ///
    /// ```text
    ///  A ──split──► DFF2_R.A          ┌──► DFF2_R.C1 ─Y1'┐
    ///         └───► routing.A ──C1──split                merge ─► Y1
    ///  B ──split──► DFF2_L.A          └──► DFF2_L.C1 ─Y1"┘
    ///         └───► routing.B ──C2──split ... (same for Y2)
    /// ```
    ///
    /// The routing strobes are delayed one splitter+JTL beyond the set
    /// path so a DFF2 is always written before it is read.
    ///
    /// # Errors
    ///
    /// Propagates wiring errors from the circuit builder (none occur for
    /// a well-formed build; the signature allows composition in larger
    /// builders).
    pub fn build(circuit: &mut Circuit, name: &str) -> Result<Self, SimError> {
        let spl_a = circuit.add(Splitter::new(format!("{name}.spl_a")));
        let spl_b = circuit.add(Splitter::new(format!("{name}.spl_b")));
        let routing = circuit.add(RoutingUnit::new(format!("{name}.routing")));
        let ff_r = circuit.add(Dff2::new(format!("{name}.dff2_r")));
        let ff_l = circuit.add(Dff2::new(format!("{name}.dff2_l")));
        let spl_c1 = circuit.add(Splitter::new(format!("{name}.spl_c1")));
        let spl_c2 = circuit.add(Splitter::new(format!("{name}.spl_c2")));
        let mrg_y1 = circuit.add(Merger::with_window(format!("{name}.mrg_y1"), Time::ZERO));
        let mrg_y2 = circuit.add(Merger::with_window(format!("{name}.mrg_y2"), Time::ZERO));

        // Input fan-out: data to the output stage, copy to the routing unit.
        circuit.connect(
            spl_a.output(Splitter::OUT_A),
            ff_r.input(Dff2::IN_A),
            Time::ZERO,
        )?;
        circuit.connect(
            spl_a.output(Splitter::OUT_B),
            routing.input(RoutingUnit::IN_A),
            Time::ZERO,
        )?;
        circuit.connect(
            spl_b.output(Splitter::OUT_A),
            ff_l.input(Dff2::IN_A),
            Time::ZERO,
        )?;
        circuit.connect(
            spl_b.output(Splitter::OUT_B),
            routing.input(RoutingUnit::IN_B),
            Time::ZERO,
        )?;

        // Read strobes reach both DFF2s; whichever is set answers.
        // The extra strobe delay guarantees set-before-read.
        let strobe_lag = catalog::t_jtl();
        circuit.connect(
            routing.output(RoutingUnit::OUT_C1),
            spl_c1.input(Splitter::IN),
            strobe_lag,
        )?;
        circuit.connect(
            routing.output(RoutingUnit::OUT_C2),
            spl_c2.input(Splitter::IN),
            strobe_lag,
        )?;
        // Crossed strobe skews: C1 reaches the right DFF2 first, C2 the
        // left one first. When both flip-flops are set (coincident A and
        // B), each strobe therefore claims a different DFF2 and one pulse
        // appears on each output — the physical layout resolves the race
        // with wire lengths, which these 1 ps skews model.
        let skew = Time::from_ps(1.0);
        circuit.connect(
            spl_c1.output(Splitter::OUT_A),
            ff_r.input(Dff2::IN_C1),
            Time::ZERO,
        )?;
        circuit.connect(
            spl_c1.output(Splitter::OUT_B),
            ff_l.input(Dff2::IN_C1),
            skew,
        )?;
        circuit.connect(
            spl_c2.output(Splitter::OUT_A),
            ff_l.input(Dff2::IN_C2),
            Time::ZERO,
        )?;
        circuit.connect(
            spl_c2.output(Splitter::OUT_B),
            ff_r.input(Dff2::IN_C2),
            skew,
        )?;

        // Output confluence. Collision window zero: the two DFF2s can
        // never answer the same strobe, so merging is loss-free.
        circuit.connect(
            ff_r.output(Dff2::OUT_Y1),
            mrg_y1.input(Merger::IN_A),
            Time::ZERO,
        )?;
        circuit.connect(
            ff_l.output(Dff2::OUT_Y1),
            mrg_y1.input(Merger::IN_B),
            Time::ZERO,
        )?;
        circuit.connect(
            ff_r.output(Dff2::OUT_Y2),
            mrg_y2.input(Merger::IN_A),
            Time::ZERO,
        )?;
        circuit.connect(
            ff_l.output(Dff2::OUT_Y2),
            mrg_y2.input(Merger::IN_B),
            Time::ZERO,
        )?;

        Ok(StructuralBalancer {
            in_a: spl_a.input(Splitter::IN),
            in_b: spl_b.input(Splitter::IN),
            out_y1: mrg_y1.output(Merger::OUT),
            out_y2: mrg_y2.output(Merger::OUT),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usfq_sim::{Circuit, Simulator};

    fn behavioral_fixture() -> (
        Simulator,
        usfq_sim::InputId,
        usfq_sim::InputId,
        usfq_sim::ProbeId,
        usfq_sim::ProbeId,
    ) {
        let mut c = Circuit::new();
        let a = c.input("a");
        let b = c.input("b");
        let bal = c.add(Balancer::new("bal"));
        c.connect_input(a, bal.input(Balancer::IN_A), Time::ZERO)
            .unwrap();
        c.connect_input(b, bal.input(Balancer::IN_B), Time::ZERO)
            .unwrap();
        let y1 = c.probe(bal.output(Balancer::OUT_Y1), "y1");
        let y2 = c.probe(bal.output(Balancer::OUT_Y2), "y2");
        (Simulator::new(c), a, b, y1, y2)
    }

    #[test]
    fn alternates_between_outputs() {
        let (mut sim, a, _b, y1, y2) = behavioral_fixture();
        for i in 0..6 {
            sim.schedule_input(a, Time::from_ps(50.0 * i as f64))
                .unwrap();
        }
        sim.run().unwrap();
        assert_eq!(sim.probe_count(y1), 3);
        assert_eq!(sim.probe_count(y2), 3);
    }

    /// The paper's Fig. 7 headline: coincident arrivals produce one pulse
    /// on each output — no loss.
    #[test]
    fn simultaneous_arrivals_pulse_both_outputs() {
        let (mut sim, a, b, y1, y2) = behavioral_fixture();
        sim.schedule_input(a, Time::from_ps(7.0)).unwrap();
        sim.schedule_input(b, Time::from_ps(7.0)).unwrap();
        sim.run().unwrap();
        assert_eq!(sim.probe_count(y1), 1);
        assert_eq!(sim.probe_count(y2), 1);
        // Different ports: the Mealy machine's supported case, no bias.
        assert_eq!(
            sim.activity()
                .anomaly_count(StatKind::BalancerTransitionHit),
            0
        );
    }

    /// Conservation: however pulses are spaced, outputs sum to inputs.
    #[test]
    fn conserves_pulses_under_bursts() {
        let (mut sim, a, b, y1, y2) = behavioral_fixture();
        let times = [0.0, 1.0, 2.0, 13.0, 14.0, 40.0, 41.5, 90.0];
        for (i, &t) in times.iter().enumerate() {
            let input = if i % 2 == 0 { a } else { b };
            sim.schedule_input(input, Time::from_ps(t)).unwrap();
        }
        sim.run().unwrap();
        assert_eq!(sim.probe_count(y1) + sim.probe_count(y2), times.len());
    }

    /// Mid-transition pulses bias routing but keep counts balanced in
    /// pairs (paper §4.2 case iii).
    #[test]
    fn transition_hit_routes_to_complementary_output() {
        let (mut sim, a, _b, y1, y2) = behavioral_fixture();
        // Pulse at t=0 routes Y1 and opens a 12 ps transition window;
        // pulse at t=5 lands inside it and must route Y2.
        sim.schedule_input(a, Time::from_ps(0.0)).unwrap();
        sim.schedule_input(a, Time::from_ps(5.0)).unwrap();
        sim.run().unwrap();
        assert_eq!(sim.probe_count(y1), 1);
        assert_eq!(sim.probe_count(y2), 1);
    }

    #[test]
    fn balancer_reset() {
        let mut bal = Balancer::new("b");
        let mut ctx = Ctx::default();
        bal.on_pulse(Balancer::IN_A, Time::from_ps(100.0), &mut ctx);
        assert_eq!(ctx.emissions()[0].0, Balancer::OUT_Y1);
        bal.reset();
        let mut ctx2 = Ctx::default();
        bal.on_pulse(Balancer::IN_A, Time::from_ps(200.0), &mut ctx2);
        assert_eq!(ctx2.emissions()[0].0, Balancer::OUT_Y1);
    }

    fn structural_fixture() -> (
        Simulator,
        usfq_sim::InputId,
        usfq_sim::InputId,
        usfq_sim::ProbeId,
        usfq_sim::ProbeId,
    ) {
        let mut c = Circuit::new();
        let a = c.input("a");
        let b = c.input("b");
        let bal = StructuralBalancer::build(&mut c, "sb").unwrap();
        c.connect_input(a, bal.in_a, Time::ZERO).unwrap();
        c.connect_input(b, bal.in_b, Time::ZERO).unwrap();
        let y1 = c.probe(bal.out_y1, "y1");
        let y2 = c.probe(bal.out_y2, "y2");
        (Simulator::new(c), a, b, y1, y2)
    }

    #[test]
    fn structural_matches_behavioral_alternation() {
        let (mut sim, a, _b, y1, y2) = structural_fixture();
        for i in 0..6 {
            sim.schedule_input(a, Time::from_ps(60.0 * i as f64))
                .unwrap();
        }
        sim.run().unwrap();
        assert_eq!(sim.probe_count(y1), 3);
        assert_eq!(sim.probe_count(y2), 3);
    }

    #[test]
    fn structural_handles_simultaneous_arrivals() {
        let (mut sim, a, b, y1, y2) = structural_fixture();
        sim.schedule_input(a, Time::from_ps(7.0)).unwrap();
        sim.schedule_input(b, Time::from_ps(7.0)).unwrap();
        sim.run().unwrap();
        assert_eq!(sim.probe_count(y1), 1);
        assert_eq!(sim.probe_count(y2), 1);
    }

    #[test]
    fn structural_conserves_pulses() {
        let (mut sim, a, b, y1, y2) = structural_fixture();
        let times = [0.0, 50.0, 100.0, 150.0, 200.0];
        for &t in &times {
            sim.schedule_input(a, Time::from_ps(t)).unwrap();
            sim.schedule_input(b, Time::from_ps(t + 25.0)).unwrap();
        }
        sim.run().unwrap();
        assert_eq!(sim.probe_count(y1) + sim.probe_count(y2), 2 * times.len());
    }

    /// Structural JJ budget reconciles with the catalog's composite count.
    #[test]
    fn structural_jj_count_matches_catalog() {
        let mut c = Circuit::new();
        StructuralBalancer::build(&mut c, "sb").unwrap();
        assert_eq!(c.total_jj(), u64::from(catalog::JJ_BALANCER));
    }

    /// Hazard windows carry the paper's timing parameters. (Each cell's
    /// JJ count and delay range reconcile with its `spec` row in
    /// `spec::tests::signatures_reconcile_with_cells`.)
    #[test]
    fn static_meta_reconciles_with_catalog() {
        let bal_meta = Balancer::new("b").static_meta();
        assert_eq!(
            bal_meta.hazards,
            vec![Hazard::Transition {
                window: catalog::t_bff()
            }]
        );
        let mrg_meta = Merger::new("m").static_meta();
        assert_eq!(
            mrg_meta.hazards,
            vec![Hazard::Collision {
                window: catalog::t_merger()
            }]
        );
        let ndro_meta = crate::storage::Ndro::new("n").static_meta();
        assert_eq!(ndro_meta.hazards.len(), 2);
    }
}
