//! Toggle flip-flops: TFF (divide-by-two) and TFF2 (alternating
//! demultiplexer), the building blocks of the pulse-number multiplier.

use usfq_sim::component::{BurstStep, CellState, Component, Ctx, StaticMeta};
use usfq_sim::{Burst, Time};

use crate::catalog;

/// A toggle flip-flop used as a frequency divider: every *second* input
/// pulse produces an output pulse. Its state bit holds the fluxon an
/// odd pulse count leaves.
#[derive(Debug, Clone)]
pub struct Tff {
    name: String,
    delay: Time,
}

impl Tff {
    /// Input port.
    pub const IN: usize = 0;
    /// Output port (half the input rate).
    pub const OUT: usize = 0;

    /// Creates a TFF; the first output appears on the second input pulse.
    pub fn new(name: impl Into<String>) -> Self {
        Tff {
            name: name.into(),
            delay: catalog::t_tff2(),
        }
    }
}

impl Component for Tff {
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
        catalog::JJ_TFF
    }
    fn on_pulse(&self, state: &mut CellState, _port: usize, _now: Time, ctx: &mut Ctx) {
        if state.bit(0) {
            ctx.emit(Self::OUT, self.delay);
        }
        state.bits ^= 1;
    }
    fn step_burst(
        &self,
        state: &mut CellState,
        _port: usize,
        burst: &Burst,
        ctx: &mut Ctx,
    ) -> BurstStep {
        // Pulse k of the train emits iff the state *before* it is high,
        // i.e. at even offsets when already toggled, odd otherwise.
        let off = u64::from(!state.bit(0));
        ctx.emit_burst(Self::OUT, burst.decimate(off, 2).delayed(self.delay));
        state.bits ^= u8::from(burst.count() % 2 == 1);
        BurstStep::Consumed
    }
    fn static_meta(&self) -> StaticMeta {
        StaticMeta::new("tff", self.delay)
    }
}

/// A dual-port toggle flip-flop (paper Table 1): input pulses are
/// distributed through alternating output ports, so each output carries
/// half the input rate. The paper's PNM (Fig. 9b) uses TFF2s so the
/// generated stream keeps a uniform rate. Its state bit is the output
/// the next pulse takes.
#[derive(Debug, Clone)]
pub struct Tff2 {
    name: String,
    delay: Time,
}

impl Tff2 {
    /// Input port.
    pub const IN: usize = 0;
    /// First output (receives pulse 1, 3, 5, …).
    pub const OUT_A: usize = 0;
    /// Second output (receives pulse 2, 4, 6, …).
    pub const OUT_B: usize = 1;

    /// Creates a TFF2; the first pulse exits on [`Tff2::OUT_A`].
    pub fn new(name: impl Into<String>) -> Self {
        Tff2 {
            name: name.into(),
            delay: catalog::t_tff2(),
        }
    }
}

impl Component for Tff2 {
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
        catalog::JJ_TFF2
    }
    fn on_pulse(&self, state: &mut CellState, _port: usize, _now: Time, ctx: &mut Ctx) {
        ctx.emit(usize::from(state.bits), self.delay);
        state.bits ^= 1;
    }
    fn step_burst(
        &self,
        state: &mut CellState,
        _port: usize,
        burst: &Burst,
        ctx: &mut Ctx,
    ) -> BurstStep {
        // Even offsets continue on the pending port, odd offsets on the
        // other; emitting the even train first keeps pulse-index order.
        let out = burst.delayed(self.delay);
        let next_out = usize::from(state.bits);
        ctx.emit_burst(next_out, out.decimate(0, 2));
        ctx.emit_burst(next_out ^ 1, out.decimate(1, 2));
        state.bits ^= u8::from(burst.count() % 2 == 1);
        BurstStep::Consumed
    }
    fn static_meta(&self) -> StaticMeta {
        StaticMeta::new("tff2", self.delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usfq_sim::{Circuit, Simulator};

    #[test]
    fn tff_divides_by_two() {
        let mut c = Circuit::new();
        let input = c.input("in");
        let t = c.add(Tff::new("t"));
        c.connect_input(input, t.input(Tff::IN), Time::ZERO)
            .unwrap();
        let p = c.probe(t.output(Tff::OUT), "out");
        let mut sim = Simulator::new(c);
        for i in 0..10 {
            sim.schedule_input(input, Time::from_ps(10.0 * i as f64))
                .unwrap();
        }
        sim.run().unwrap();
        assert_eq!(sim.probe_count(p), 5);
    }

    #[test]
    fn tff_chain_divides_by_four() {
        let mut c = Circuit::new();
        let input = c.input("in");
        let t0 = c.add(Tff::new("t0"));
        let t1 = c.add(Tff::new("t1"));
        c.connect_input(input, t0.input(Tff::IN), Time::ZERO)
            .unwrap();
        c.connect(t0.output(Tff::OUT), t1.input(Tff::IN), Time::ZERO)
            .unwrap();
        let p = c.probe(t1.output(Tff::OUT), "out");
        let mut sim = Simulator::new(c);
        for i in 0..16 {
            sim.schedule_input(input, Time::from_ps(10.0 * i as f64))
                .unwrap();
        }
        sim.run().unwrap();
        assert_eq!(sim.probe_count(p), 4);
    }

    #[test]
    fn tff2_alternates_outputs() {
        let mut c = Circuit::new();
        let input = c.input("in");
        let t = c.add(Tff2::new("t"));
        c.connect_input(input, t.input(Tff2::IN), Time::ZERO)
            .unwrap();
        let pa = c.probe(t.output(Tff2::OUT_A), "a");
        let pb = c.probe(t.output(Tff2::OUT_B), "b");
        let mut sim = Simulator::new(c);
        for i in 0..7 {
            sim.schedule_input(input, Time::from_ps(10.0 * i as f64))
                .unwrap();
        }
        sim.run().unwrap();
        assert_eq!(sim.probe_count(pa), 4); // pulses 1,3,5,7
        assert_eq!(sim.probe_count(pb), 3); // pulses 2,4,6
    }

    #[test]
    fn tff2_reset_restarts_on_a() {
        let t = Tff2::new("t");
        let mut state = t.power_on();
        let mut ctx = Ctx::default();
        t.on_pulse(&mut state, Tff2::IN, Time::ZERO, &mut ctx);
        assert_eq!(ctx.emissions()[0].0, Tff2::OUT_A);
        state = t.power_on();
        let mut ctx2 = Ctx::default();
        t.on_pulse(&mut state, Tff2::IN, Time::ZERO, &mut ctx2);
        assert_eq!(ctx2.emissions()[0].0, Tff2::OUT_A);
    }

    #[test]
    fn tff2_uses_paper_delay() {
        let t = Tff2::new("t");
        assert_eq!(t.jj_count(), catalog::JJ_TFF2);
        let mut ctx = Ctx::default();
        t.on_pulse(&mut t.power_on(), Tff2::IN, Time::ZERO, &mut ctx);
        assert_eq!(ctx.emissions()[0].1, Time::from_ps(20.0));
    }
}
