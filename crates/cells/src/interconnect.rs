//! Stateless interconnect cells: JTL, splitter, and merger.

use usfq_sim::circuit::{NodeRef, SinkRef};
use usfq_sim::component::{BurstStep, CellState, Component, Ctx, Hazard, StaticMeta};
use usfq_sim::stats::StatKind;
use usfq_sim::{Burst, Circuit, SimError, Time};

use crate::catalog;

/// A Josephson transmission line stage: a 1-in/1-out repeater that
/// sharpens and retimes pulses (paper Table 1).
#[derive(Debug, Clone)]
pub struct Jtl {
    name: String,
    delay: Time,
}

impl Jtl {
    /// Input port.
    pub const IN: usize = 0;
    /// Output port.
    pub const OUT: usize = 0;

    /// Creates a JTL with the catalog delay.
    pub fn new(name: impl Into<String>) -> Self {
        Jtl {
            name: name.into(),
            delay: catalog::t_jtl(),
        }
    }

    /// Creates a JTL with an explicit delay (e.g. a tuned delay line).
    pub fn with_delay(name: impl Into<String>, delay: Time) -> Self {
        Jtl {
            name: name.into(),
            delay,
        }
    }
}

impl Component for Jtl {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn jj_count(&self) -> u32 {
        catalog::JJ_JTL
    }
    fn switching_jjs(&self) -> f64 {
        f64::from(catalog::JJ_JTL)
    }
    fn on_pulse(&self, _state: &mut CellState, _port: usize, _now: Time, ctx: &mut Ctx) {
        ctx.emit(Self::OUT, self.delay);
    }
    fn step_burst(
        &self,
        _state: &mut CellState,
        _port: usize,
        burst: &Burst,
        ctx: &mut Ctx,
    ) -> BurstStep {
        ctx.emit_burst(Self::OUT, burst.delayed(self.delay));
        BurstStep::Consumed
    }
    fn static_meta(&self) -> StaticMeta {
        StaticMeta::new("jtl", self.delay)
    }
}

/// A splitter: every input pulse is reproduced on both outputs
/// (paper Table 1). Physical RSFQ requires one of these for every
/// fan-out point.
#[derive(Debug, Clone)]
pub struct Splitter {
    name: String,
    delay: Time,
}

impl Splitter {
    /// Input port.
    pub const IN: usize = 0;
    /// First output port.
    pub const OUT_A: usize = 0;
    /// Second output port.
    pub const OUT_B: usize = 1;

    /// Creates a splitter with the catalog delay.
    pub fn new(name: impl Into<String>) -> Self {
        Splitter {
            name: name.into(),
            delay: catalog::t_splitter(),
        }
    }
}

impl Component for Splitter {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        2
    }
    fn jj_count(&self) -> u32 {
        catalog::JJ_SPLITTER
    }
    /// Calibrated against the paper's Fig. 21 power band.
    fn switching_jjs(&self) -> f64 {
        1.0
    }
    fn on_pulse(&self, _state: &mut CellState, _port: usize, _now: Time, ctx: &mut Ctx) {
        ctx.emit(Self::OUT_A, self.delay);
        ctx.emit(Self::OUT_B, self.delay);
    }
    fn step_burst(
        &self,
        _state: &mut CellState,
        _port: usize,
        burst: &Burst,
        ctx: &mut Ctx,
    ) -> BurstStep {
        let out = burst.delayed(self.delay);
        ctx.emit_burst(Self::OUT_A, out);
        ctx.emit_burst(Self::OUT_B, out);
        BurstStep::Consumed
    }
    fn static_meta(&self) -> StaticMeta {
        StaticMeta::new("splitter", self.delay)
    }
}

/// A 2:1 merger (confluence buffer): a pulse on either input produces an
/// output pulse — the OR of two pulse trains.
///
/// Two pulses arriving within the cell's collision window produce only
/// **one** output pulse; the loss is recorded as
/// [`StatKind::MergerCollision`]. This is the paper's Fig. 5 failure mode
/// that motivates the balancer-based adder. Its state's time 0 is the
/// end of the collision window the last accepted pulse opened.
#[derive(Debug, Clone)]
pub struct Merger {
    name: String,
    delay: Time,
    window: Time,
}

impl Merger {
    /// First input port.
    pub const IN_A: usize = 0;
    /// Second input port.
    pub const IN_B: usize = 1;
    /// Output port.
    pub const OUT: usize = 0;

    /// Creates a merger whose collision window equals its propagation
    /// delay (the paper: input pulse spacing "is dictated by the
    /// intrinsic delay of the merger cell").
    pub fn new(name: impl Into<String>) -> Self {
        Self::with_window(name, catalog::t_merger())
    }

    /// Creates a merger with an explicit collision window.
    pub fn with_window(name: impl Into<String>, window: Time) -> Self {
        Merger {
            name: name.into(),
            delay: catalog::t_merger(),
            window,
        }
    }

    /// The end of the collision window a pulse accepted at `t` opens.
    fn window_end(&self, t: Time) -> Time {
        t.checked_add(self.window).unwrap_or(Time::MAX)
    }
}

impl Component for Merger {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        2
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn jj_count(&self) -> u32 {
        catalog::JJ_MERGER
    }
    fn switching_jjs(&self) -> f64 {
        f64::from(catalog::JJ_MERGER) / 2.0
    }
    fn on_pulse(&self, state: &mut CellState, _port: usize, now: Time, ctx: &mut Ctx) {
        if now < state.time(0) {
            ctx.record(StatKind::MergerCollision);
            return;
        }
        state.set_time(0, self.window_end(now));
        ctx.emit(Self::OUT, self.delay);
    }
    fn step_burst(
        &self,
        state: &mut CellState,
        _port: usize,
        burst: &Burst,
        ctx: &mut Ctx,
    ) -> BurstStep {
        if self.window == Time::ZERO {
            // Collisions are impossible, so behaviour is purely
            // count-based and even envelope (jittered) trains pass
            // through unchanged.
            state.set_time(0, burst.last());
            ctx.emit_burst(Self::OUT, burst.delayed(self.delay));
            return BurstStep::Consumed;
        }
        // A real collision window reads *exact* arrival times: an
        // envelope train must materialize so each pulse is judged at
        // its actual jittered arrival.
        if !burst.is_exact() {
            return BurstStep::PulseByPulse;
        }
        // Closed form only when no pulse of the train collides: the
        // train's internal spacing clears the window and its head is
        // clear of the previously accepted pulse. Otherwise decline
        // (without touching state) and let the engine expand.
        let spaced = burst.count() == 1 || burst.min_gap() >= self.window;
        if spaced && burst.first() >= state.time(0) {
            state.set_time(0, self.window_end(burst.last()));
            ctx.emit_burst(Self::OUT, burst.delayed(self.delay));
            BurstStep::Consumed
        } else {
            BurstStep::PulseByPulse
        }
    }
    fn static_meta(&self) -> StaticMeta {
        StaticMeta::new("merger", self.delay).with_hazard(Hazard::Collision {
            window: self.window,
        })
    }
}

/// An *n*:1 merger built as a balanced binary tree of [`Merger`] cells
/// with their **physical** collision windows intact — the temporal
/// router's output arbiter. Pulses on any input reach the single
/// output; simultaneous arrivals within a merger's window are lost and
/// tallied as [`StatKind::MergerCollision`], which is exactly the
/// failure mode temporal (TDM) arbitration exists to avoid.
///
/// A single-input tree degenerates to a [`Jtl`] passthrough so the
/// `inputs`/`output` contract holds for every `n >= 1`.
#[derive(Debug)]
pub struct MergerTree {
    /// The `n` input sinks, in order.
    pub inputs: Vec<SinkRef>,
    /// The arbitrated output node.
    pub output: NodeRef,
    /// Number of merger cells instantiated (`n - 1` when the leaf
    /// layer is even, otherwise one odd input rides a JTL passthrough).
    pub mergers: usize,
}

impl MergerTree {
    /// Instantiates a tree over `n` inputs into `circuit`. Mergers are
    /// named `{name}_m{i}`; odd leftovers pass through `{name}_j{i}`.
    ///
    /// # Errors
    ///
    /// Propagates wiring errors from the circuit builder (none occur
    /// for a well-formed build).
    pub fn build(circuit: &mut Circuit, name: &str, n: usize) -> Result<Self, SimError> {
        assert!(n >= 1, "MergerTree needs at least one input");
        let mut inputs = Vec::with_capacity(n);
        let mut nodes: Vec<NodeRef> = Vec::with_capacity(n.div_ceil(2));
        let mut m_idx = 0usize;
        // Leaf layer: pair external inputs into mergers; an odd
        // leftover enters through a JTL so it is a node like the rest.
        let mut i = 0;
        while i + 1 < n {
            let m = circuit.add(Merger::new(format!("{name}_m{m_idx}")));
            m_idx += 1;
            inputs.push(m.input(Merger::IN_A));
            inputs.push(m.input(Merger::IN_B));
            nodes.push(m.output(Merger::OUT));
            i += 2;
        }
        if i < n {
            let j = circuit.add(Jtl::new(format!("{name}_j0")));
            inputs.push(j.input(Jtl::IN));
            nodes.push(j.output(Jtl::OUT));
        }
        // Reduce pairwise; an odd node is carried up unchanged.
        while nodes.len() > 1 {
            let mut next = Vec::with_capacity(nodes.len().div_ceil(2));
            for pair in nodes.chunks(2) {
                if let [a, b] = *pair {
                    let m = circuit.add(Merger::new(format!("{name}_m{m_idx}")));
                    m_idx += 1;
                    circuit.connect(a, m.input(Merger::IN_A), Time::ZERO)?;
                    circuit.connect(b, m.input(Merger::IN_B), Time::ZERO)?;
                    next.push(m.output(Merger::OUT));
                } else {
                    next.push(pair[0]);
                }
            }
            nodes = next;
        }
        Ok(MergerTree {
            inputs,
            output: nodes[0],
            mergers: m_idx,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usfq_sim::{Circuit, Simulator};

    fn pulse_times(ps: &[f64]) -> Vec<Time> {
        ps.iter().map(|&p| Time::from_ps(p)).collect()
    }

    #[test]
    fn jtl_delays() {
        let mut c = Circuit::new();
        let input = c.input("in");
        let j = c.add(Jtl::with_delay("j", Time::from_ps(7.0)));
        c.connect_input(input, j.input(Jtl::IN), Time::ZERO)
            .unwrap();
        let p = c.probe(j.output(Jtl::OUT), "out");
        let mut sim = Simulator::new(c);
        sim.schedule_input(input, Time::from_ps(2.0)).unwrap();
        sim.run().unwrap();
        assert_eq!(sim.probe_times(p), &[Time::from_ps(9.0)]);
    }

    #[test]
    fn splitter_duplicates() {
        let mut c = Circuit::new();
        let input = c.input("in");
        let s = c.add(Splitter::new("s"));
        c.connect_input(input, s.input(Splitter::IN), Time::ZERO)
            .unwrap();
        let pa = c.probe(s.output(Splitter::OUT_A), "a");
        let pb = c.probe(s.output(Splitter::OUT_B), "b");
        let mut sim = Simulator::new(c);
        sim.schedule_pulses(input, pulse_times(&[0.0, 10.0]))
            .unwrap();
        sim.run().unwrap();
        assert_eq!(sim.probe_count(pa), 2);
        assert_eq!(sim.probe_count(pb), 2);
    }

    fn merger_fixture() -> (
        Circuit,
        usfq_sim::InputId,
        usfq_sim::InputId,
        usfq_sim::ProbeId,
    ) {
        let mut c = Circuit::new();
        let a = c.input("a");
        let b = c.input("b");
        let m = c.add(Merger::new("m"));
        c.connect_input(a, m.input(Merger::IN_A), Time::ZERO)
            .unwrap();
        c.connect_input(b, m.input(Merger::IN_B), Time::ZERO)
            .unwrap();
        let y = c.probe(m.output(Merger::OUT), "y");
        (c, a, b, y)
    }

    #[test]
    fn merger_passes_spaced_pulses() {
        let (c, a, b, y) = merger_fixture();
        let mut sim = Simulator::new(c);
        sim.schedule_pulses(a, pulse_times(&[0.0, 20.0])).unwrap();
        sim.schedule_pulses(b, pulse_times(&[10.0, 30.0])).unwrap();
        sim.run().unwrap();
        assert_eq!(sim.probe_count(y), 4);
        assert_eq!(sim.activity().anomaly_count(StatKind::MergerCollision), 0);
    }

    #[test]
    fn merger_loses_coincident_pulse() {
        let (c, a, b, y) = merger_fixture();
        let mut sim = Simulator::new(c);
        sim.schedule_input(a, Time::from_ps(10.0)).unwrap();
        sim.schedule_input(b, Time::from_ps(12.0)).unwrap(); // within 5 ps window
        sim.run().unwrap();
        assert_eq!(sim.probe_count(y), 1);
        assert_eq!(sim.activity().anomaly_count(StatKind::MergerCollision), 1);
    }

    /// The paper's Fig. 5b: four pulses into a merger tree, three out.
    #[test]
    fn four_to_one_merger_tree_collision() {
        let mut c = Circuit::new();
        let inputs: Vec<_> = (0..4).map(|i| c.input(format!("a{i}"))).collect();
        let m0 = c.add(Merger::new("m0"));
        let m1 = c.add(Merger::new("m1"));
        let m2 = c.add(Merger::new("m2"));
        c.connect_input(inputs[0], m0.input(Merger::IN_A), Time::ZERO)
            .unwrap();
        c.connect_input(inputs[1], m0.input(Merger::IN_B), Time::ZERO)
            .unwrap();
        c.connect_input(inputs[2], m1.input(Merger::IN_A), Time::ZERO)
            .unwrap();
        c.connect_input(inputs[3], m1.input(Merger::IN_B), Time::ZERO)
            .unwrap();
        c.connect(m0.output(Merger::OUT), m2.input(Merger::IN_A), Time::ZERO)
            .unwrap();
        c.connect(m1.output(Merger::OUT), m2.input(Merger::IN_B), Time::ZERO)
            .unwrap();
        let y = c.probe(m2.output(Merger::OUT), "y");
        let mut sim = Simulator::new(c);
        // Two pairs, spaced so first-level mergers pass them but the
        // second level sees two coincident arrivals.
        sim.schedule_input(inputs[0], Time::from_ps(0.0)).unwrap();
        sim.schedule_input(inputs[2], Time::from_ps(0.0)).unwrap();
        sim.schedule_input(inputs[1], Time::from_ps(30.0)).unwrap();
        sim.schedule_input(inputs[3], Time::from_ps(45.0)).unwrap();
        sim.run().unwrap();
        // 4 pulses in, 3 out: the coincident pair at the root merged.
        assert_eq!(sim.probe_count(y), 3);
        assert!(sim.activity().anomaly_count(StatKind::MergerCollision) >= 1);
    }

    #[test]
    fn merger_reset_clears_window() {
        let m = Merger::new("m");
        let mut state = m.power_on();
        let mut ctx = Ctx::default();
        m.on_pulse(&mut state, Merger::IN_A, Time::from_ps(100.0), &mut ctx);
        state = m.power_on();
        let mut ctx2 = Ctx::default();
        // Would collide without the reset.
        m.on_pulse(&mut state, Merger::IN_B, Time::from_ps(101.0), &mut ctx2);
        assert_eq!(ctx2.emissions().len(), 1);
    }
}
