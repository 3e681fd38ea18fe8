//! Storage-loop cells: DFF, DFF2, and NDRO.

use usfq_sim::component::{BurstStep, CellState, Component, Ctx, Hazard, StaticMeta};
use usfq_sim::stats::StatKind;
use usfq_sim::{Burst, Time};

use crate::catalog;

/// A destructive-read D flip-flop (paper Table 1): a pulse at `S` stores a
/// "1" in the SQUID loop; a pulse at `R` (the read/clock port) resets the
/// loop and, if it held a "1", emits an output pulse. Its state bit is
/// the stored bit.
#[derive(Debug, Clone)]
pub struct Dff {
    name: String,
    delay: Time,
}

impl Dff {
    /// Set (data) port.
    pub const IN_S: usize = 0;
    /// Reset/read (clock) port.
    pub const IN_R: usize = 1;
    /// Output port.
    pub const OUT_Q: usize = 0;

    /// Creates a DFF in the "0" state.
    pub fn new(name: impl Into<String>) -> Self {
        Dff {
            name: name.into(),
            delay: catalog::t_ff(),
        }
    }

    /// The bit a DFF in `state` stores.
    pub fn state(state: CellState) -> bool {
        state.bit(0)
    }
}

impl Component for Dff {
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
        catalog::JJ_DFF
    }
    fn on_pulse(&self, state: &mut CellState, port: usize, _now: Time, ctx: &mut Ctx) {
        match port {
            Self::IN_S => {
                if state.bit(0) {
                    ctx.record(StatKind::IgnoredPulse);
                } else {
                    state.set_bit(0, true);
                }
            }
            Self::IN_R => {
                if state.bit(0) {
                    state.set_bit(0, false);
                    ctx.emit(Self::OUT_Q, self.delay);
                }
            }
            _ => unreachable!("DFF has two inputs"),
        }
    }
    fn step_burst(
        &self,
        state: &mut CellState,
        port: usize,
        burst: &Burst,
        ctx: &mut Ctx,
    ) -> BurstStep {
        match port {
            Self::IN_S => {
                // Only the first set pulse of an empty loop lands; every
                // other pulse of the train is ignored.
                let ignored = burst.count() - u64::from(!state.bit(0));
                state.set_bit(0, true);
                ctx.record_many(StatKind::IgnoredPulse, ignored);
            }
            Self::IN_R => {
                // The first read drains the loop; the rest see a "0".
                if state.bit(0) {
                    state.set_bit(0, false);
                    ctx.emit_burst(Self::OUT_Q, burst.prefix(1).delayed(self.delay));
                }
            }
            _ => unreachable!("DFF has two inputs"),
        }
        BurstStep::Consumed
    }
    fn static_meta(&self) -> StaticMeta {
        StaticMeta::new("dff", self.delay).with_hazard(Hazard::Setup {
            control: Self::IN_S,
            sampled: Self::IN_R,
            window: self.delay,
        })
    }
}

/// A dual-read D flip-flop (paper Table 1): `A` sets the SQUID; a pulse at
/// `C1` (`C2`) resets it and, if set, emits on `Y1` (`Y2`). The balancer
/// output stage is built from two of these.
#[derive(Debug, Clone)]
pub struct Dff2 {
    name: String,
    delay: Time,
}

impl Dff2 {
    /// Set port.
    pub const IN_A: usize = 0;
    /// Read-and-reset port steering to `Y1`.
    pub const IN_C1: usize = 1;
    /// Read-and-reset port steering to `Y2`.
    pub const IN_C2: usize = 2;
    /// Output read by `C1`.
    pub const OUT_Y1: usize = 0;
    /// Output read by `C2`.
    pub const OUT_Y2: usize = 1;

    /// Creates a DFF2 in the "0" state.
    pub fn new(name: impl Into<String>) -> Self {
        Dff2 {
            name: name.into(),
            delay: catalog::t_ff(),
        }
    }
}

impl Component for Dff2 {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        3
    }
    fn num_outputs(&self) -> usize {
        2
    }
    fn jj_count(&self) -> u32 {
        catalog::JJ_DFF2
    }
    fn on_pulse(&self, state: &mut CellState, port: usize, _now: Time, ctx: &mut Ctx) {
        match port {
            Self::IN_A => {
                if state.bit(0) {
                    ctx.record(StatKind::IgnoredPulse);
                } else {
                    state.set_bit(0, true);
                }
            }
            Self::IN_C1 => {
                if state.bit(0) {
                    state.set_bit(0, false);
                    ctx.emit(Self::OUT_Y1, self.delay);
                }
            }
            Self::IN_C2 => {
                if state.bit(0) {
                    state.set_bit(0, false);
                    ctx.emit(Self::OUT_Y2, self.delay);
                }
            }
            _ => unreachable!("DFF2 has three inputs"),
        }
    }
    fn step_burst(
        &self,
        state: &mut CellState,
        port: usize,
        burst: &Burst,
        ctx: &mut Ctx,
    ) -> BurstStep {
        match port {
            Self::IN_A => {
                let ignored = burst.count() - u64::from(!state.bit(0));
                state.set_bit(0, true);
                ctx.record_many(StatKind::IgnoredPulse, ignored);
            }
            Self::IN_C1 | Self::IN_C2 => {
                if state.bit(0) {
                    state.set_bit(0, false);
                    let out = if port == Self::IN_C1 {
                        Self::OUT_Y1
                    } else {
                        Self::OUT_Y2
                    };
                    ctx.emit_burst(out, burst.prefix(1).delayed(self.delay));
                }
            }
            _ => unreachable!("DFF2 has three inputs"),
        }
        BurstStep::Consumed
    }
    fn static_meta(&self) -> StaticMeta {
        StaticMeta::new("dff2", self.delay)
            .with_hazard(Hazard::Setup {
                control: Self::IN_A,
                sampled: Self::IN_C1,
                window: self.delay,
            })
            .with_hazard(Hazard::Setup {
                control: Self::IN_A,
                sampled: Self::IN_C2,
                window: self.delay,
            })
    }
}

/// A non-destructive read-out cell (paper Table 1): `S`/`R` set and reset
/// an internal loop; each pulse at `CLK` reads the state *without*
/// altering it, emitting on `Q` when the loop holds a "1".
///
/// This is the workhorse of the U-SFQ multiplier (the RL operand gates a
/// pulse stream through the CLK port) and of the coefficient memory bank.
/// Its state bit is the stored bit.
#[derive(Debug, Clone)]
pub struct Ndro {
    name: String,
    /// The bit the cell powers on with.
    initial: bool,
    delay: Time,
}

impl Ndro {
    /// Set port.
    pub const IN_S: usize = 0;
    /// Reset port.
    pub const IN_R: usize = 1;
    /// Non-destructive read (clock) port.
    pub const IN_CLK: usize = 2;
    /// Output port.
    pub const OUT_Q: usize = 0;

    /// Creates an NDRO in the "0" state.
    pub fn new(name: impl Into<String>) -> Self {
        Ndro {
            name: name.into(),
            initial: false,
            delay: catalog::t_ff(),
        }
    }

    /// Creates an NDRO already holding a "1" (e.g. pre-set by the epoch
    /// marker, as in the unipolar multiplier). Its power-on state is
    /// that "1" ([`Component::power_on`]), so a fresh or reset simulator
    /// starts it set.
    pub fn new_set(name: impl Into<String>) -> Self {
        Ndro {
            initial: true,
            ..Ndro::new(name)
        }
    }

    /// The bit an NDRO in `state` stores.
    pub fn state(state: CellState) -> bool {
        state.bit(0)
    }
}

impl Component for Ndro {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        3
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn jj_count(&self) -> u32 {
        catalog::JJ_NDRO
    }
    /// Calibrated (together with the splitter and inverter weights) so
    /// the event-counted bipolar multiplier lands in the paper's
    /// measured 68–135 nW Fig. 21 active-power band.
    fn switching_jjs(&self) -> f64 {
        2.0
    }
    fn power_on(&self) -> CellState {
        CellState {
            bits: u8::from(self.initial),
            ..CellState::default()
        }
    }
    fn on_pulse(&self, state: &mut CellState, port: usize, _now: Time, ctx: &mut Ctx) {
        match port {
            Self::IN_S => state.set_bit(0, true),
            Self::IN_R => state.set_bit(0, false),
            Self::IN_CLK => {
                if state.bit(0) {
                    ctx.emit(Self::OUT_Q, self.delay);
                }
            }
            _ => unreachable!("NDRO has three inputs"),
        }
    }
    fn step_burst(
        &self,
        state: &mut CellState,
        port: usize,
        burst: &Burst,
        ctx: &mut Ctx,
    ) -> BurstStep {
        match port {
            Self::IN_S => state.set_bit(0, true),
            Self::IN_R => state.set_bit(0, false),
            Self::IN_CLK => {
                // Non-destructive read: the whole clock train gates
                // through (or is absorbed) according to the stored bit.
                if state.bit(0) {
                    ctx.emit_burst(Self::OUT_Q, burst.delayed(self.delay));
                }
            }
            _ => unreachable!("NDRO has three inputs"),
        }
        BurstStep::Consumed
    }
    fn static_meta(&self) -> StaticMeta {
        StaticMeta::new("ndro", self.delay)
            .with_hazard(Hazard::Setup {
                control: Self::IN_S,
                sampled: Self::IN_CLK,
                window: self.delay,
            })
            .with_hazard(Hazard::Setup {
                control: Self::IN_R,
                sampled: Self::IN_CLK,
                window: self.delay,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usfq_sim::{Circuit, Simulator};

    #[test]
    fn dff_stores_and_releases() {
        let mut c = Circuit::new();
        let d_in = c.input("d");
        let clk = c.input("clk");
        let dff = c.add(Dff::new("dff"));
        c.connect_input(d_in, dff.input(Dff::IN_S), Time::ZERO)
            .unwrap();
        c.connect_input(clk, dff.input(Dff::IN_R), Time::ZERO)
            .unwrap();
        let q = c.probe(dff.output(Dff::OUT_Q), "q");
        let mut sim = Simulator::new(c);
        // Clock with nothing stored: no output.
        sim.schedule_input(clk, Time::from_ps(10.0)).unwrap();
        // Store then clock: one output.
        sim.schedule_input(d_in, Time::from_ps(20.0)).unwrap();
        sim.schedule_input(clk, Time::from_ps(30.0)).unwrap();
        // Clock again: state was destroyed, no output.
        sim.schedule_input(clk, Time::from_ps(40.0)).unwrap();
        sim.run().unwrap();
        assert_eq!(sim.probe_count(q), 1);
    }

    #[test]
    fn dff_double_set_records_ignored_pulse() {
        let dff = Dff::new("d");
        let mut state = dff.power_on();
        let mut ctx = Ctx::default();
        dff.on_pulse(&mut state, Dff::IN_S, Time::ZERO, &mut ctx);
        dff.on_pulse(&mut state, Dff::IN_S, Time::from_ps(1.0), &mut ctx);
        assert_eq!(ctx.stats(), &[StatKind::IgnoredPulse]);
        assert!(Dff::state(state));
        state = dff.power_on();
        assert!(!Dff::state(state));
    }

    #[test]
    fn dff2_steers_reads() {
        let mut c = Circuit::new();
        let a = c.input("a");
        let c1 = c.input("c1");
        let c2 = c.input("c2");
        let ff = c.add(Dff2::new("ff"));
        c.connect_input(a, ff.input(Dff2::IN_A), Time::ZERO)
            .unwrap();
        c.connect_input(c1, ff.input(Dff2::IN_C1), Time::ZERO)
            .unwrap();
        c.connect_input(c2, ff.input(Dff2::IN_C2), Time::ZERO)
            .unwrap();
        let y1 = c.probe(ff.output(Dff2::OUT_Y1), "y1");
        let y2 = c.probe(ff.output(Dff2::OUT_Y2), "y2");
        let mut sim = Simulator::new(c);
        sim.schedule_input(a, Time::from_ps(0.0)).unwrap();
        sim.schedule_input(c1, Time::from_ps(10.0)).unwrap(); // reads to Y1
        sim.schedule_input(a, Time::from_ps(20.0)).unwrap();
        sim.schedule_input(c2, Time::from_ps(30.0)).unwrap(); // reads to Y2
        sim.schedule_input(c1, Time::from_ps(40.0)).unwrap(); // empty: nothing
        sim.run().unwrap();
        assert_eq!(sim.probe_count(y1), 1);
        assert_eq!(sim.probe_count(y2), 1);
    }

    #[test]
    fn ndro_read_is_non_destructive() {
        let mut c = Circuit::new();
        let s = c.input("s");
        let r = c.input("r");
        let clk = c.input("clk");
        let n = c.add(Ndro::new("n"));
        c.connect_input(s, n.input(Ndro::IN_S), Time::ZERO).unwrap();
        c.connect_input(r, n.input(Ndro::IN_R), Time::ZERO).unwrap();
        c.connect_input(clk, n.input(Ndro::IN_CLK), Time::ZERO)
            .unwrap();
        let q = c.probe(n.output(Ndro::OUT_Q), "q");
        let mut sim = Simulator::new(c);
        sim.schedule_input(s, Time::from_ps(0.0)).unwrap();
        // Three reads while set: three outputs.
        for t in [10.0, 20.0, 30.0] {
            sim.schedule_input(clk, Time::from_ps(t)).unwrap();
        }
        sim.schedule_input(r, Time::from_ps(40.0)).unwrap();
        // Two reads while reset: nothing.
        for t in [50.0, 60.0] {
            sim.schedule_input(clk, Time::from_ps(t)).unwrap();
        }
        sim.run().unwrap();
        assert_eq!(sim.probe_count(q), 3);
    }

    #[test]
    fn ndro_new_set_starts_high() {
        let n = Ndro::new_set("n");
        let mut state = n.power_on();
        assert!(Ndro::state(state));
        let mut ctx = Ctx::default();
        n.on_pulse(&mut state, Ndro::IN_CLK, Time::ZERO, &mut ctx);
        assert_eq!(ctx.emissions().len(), 1);
        // Reset returns to the programmed power-on "1", even after the
        // loop was cleared.
        n.on_pulse(&mut state, Ndro::IN_R, Time::ZERO, &mut ctx);
        assert!(!Ndro::state(state));
        state = n.power_on();
        assert!(Ndro::state(state));
        // A plain NDRO still powers on at "0".
        let plain = Ndro::new("p");
        let mut state = plain.power_on();
        plain.on_pulse(&mut state, Ndro::IN_S, Time::ZERO, &mut ctx);
        state = plain.power_on();
        assert!(!Ndro::state(state));
    }
}
