//! Race-logic primitives: first-arrival (min) and last-arrival (max).
//!
//! In race logic a value is the arrival time of a single pulse, so
//! `min(a, b)` is "whichever pulse arrives first" and `max(a, b)` is
//! "when both have arrived" (paper §2.2.1 and Fig. 2a). The FA cell costs
//! 8 JJs versus >4 kJJ for a binary minimum — the paper's motivating
//! example for temporal encoding.

use usfq_sim::component::{CellState, Component, Ctx, Hazard, StaticMeta};
use usfq_sim::stats::StatKind;
use usfq_sim::Time;

use crate::catalog;

/// First-arrival cell: emits one pulse at the earlier of its two inputs,
/// computing the race-logic **minimum**. `RST` re-arms it for the next
/// epoch. Its state bit marks that it fired.
#[derive(Debug, Clone)]
pub struct FirstArrival {
    name: String,
    delay: Time,
}

impl FirstArrival {
    /// First operand.
    pub const IN_A: usize = 0;
    /// Second operand.
    pub const IN_B: usize = 1;
    /// Epoch reset (re-arm) port.
    pub const IN_RST: usize = 2;
    /// Output port.
    pub const OUT: usize = 0;

    /// Creates an armed FA cell.
    pub fn new(name: impl Into<String>) -> Self {
        FirstArrival {
            name: name.into(),
            delay: catalog::t_ff(),
        }
    }
}

impl Component for FirstArrival {
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
        catalog::JJ_FIRST_ARRIVAL
    }
    fn on_pulse(&self, state: &mut CellState, port: usize, _now: Time, ctx: &mut Ctx) {
        match port {
            Self::IN_A | Self::IN_B => {
                if state.bit(0) {
                    ctx.record(StatKind::IgnoredPulse);
                } else {
                    state.set_bit(0, true);
                    ctx.emit(Self::OUT, self.delay);
                }
            }
            Self::IN_RST => state.bits = 0,
            _ => unreachable!("FA has three inputs"),
        }
    }
    fn static_meta(&self) -> StaticMeta {
        StaticMeta::new("fa", self.delay)
    }
}

/// Last-arrival cell: emits one pulse once *both* inputs have arrived,
/// computing the race-logic **maximum**. `RST` re-arms it. Its state
/// bits 0 and 1 mark each operand seen, and bit 2 that it fired.
#[derive(Debug, Clone)]
pub struct LastArrival {
    name: String,
    delay: Time,
}

impl LastArrival {
    /// First operand.
    pub const IN_A: usize = 0;
    /// Second operand.
    pub const IN_B: usize = 1;
    /// Epoch reset (re-arm) port.
    pub const IN_RST: usize = 2;
    /// Output port.
    pub const OUT: usize = 0;

    /// Creates an armed LA cell.
    pub fn new(name: impl Into<String>) -> Self {
        LastArrival {
            name: name.into(),
            delay: catalog::t_ff(),
        }
    }
}

impl Component for LastArrival {
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
        catalog::JJ_LAST_ARRIVAL
    }
    fn on_pulse(&self, state: &mut CellState, port: usize, _now: Time, ctx: &mut Ctx) {
        match port {
            Self::IN_A | Self::IN_B => state.set_bit(port as u32, true),
            Self::IN_RST => {
                state.bits = 0;
                return;
            }
            _ => unreachable!("LA has three inputs"),
        }
        // Both operands seen, not yet fired.
        if state.bits == 0b011 {
            state.set_bit(2, true);
            ctx.emit(Self::OUT, self.delay);
        }
    }
    fn static_meta(&self) -> StaticMeta {
        StaticMeta::new("la", self.delay)
    }
}

/// Inhibit cell: passes the data pulse only if it arrives *before* the
/// inhibiting pulse — the conditional of computational temporal logic
/// (Tzimpragos et al., the paper's ref 51). `RST` re-arms it. Its state
/// bit 0 marks that it fired, and bit 1 that it is inhibited.
#[derive(Debug, Clone)]
pub struct Inhibit {
    name: String,
    delay: Time,
}

impl Inhibit {
    /// Data input.
    pub const IN_A: usize = 0;
    /// Inhibiting input.
    pub const IN_B: usize = 1;
    /// Epoch reset (re-arm) port.
    pub const IN_RST: usize = 2;
    /// Output port.
    pub const OUT: usize = 0;

    /// Creates an armed inhibit cell.
    pub fn new(name: impl Into<String>) -> Self {
        Inhibit {
            name: name.into(),
            delay: catalog::t_ff(),
        }
    }
}

impl Component for Inhibit {
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
        catalog::JJ_INHIBIT
    }
    fn on_pulse(&self, state: &mut CellState, port: usize, _now: Time, ctx: &mut Ctx) {
        match port {
            Self::IN_A => {
                // Inhibited or already fired.
                if state.bits != 0 {
                    ctx.record(StatKind::IgnoredPulse);
                } else {
                    state.set_bit(0, true);
                    ctx.emit(Self::OUT, self.delay);
                }
            }
            Self::IN_B => state.set_bit(1, true),
            Self::IN_RST => state.bits = 0,
            _ => unreachable!("inhibit has three inputs"),
        }
    }
    fn static_meta(&self) -> StaticMeta {
        // The inhibit decision races: B must settle before A samples it.
        StaticMeta::new("inhibit", self.delay).with_hazard(Hazard::Setup {
            control: Self::IN_B,
            sampled: Self::IN_A,
            window: self.delay,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usfq_sim::{Circuit, Simulator};

    fn race_fixture<C: Component + 'static>(
        cell: C,
    ) -> (
        Simulator,
        usfq_sim::InputId,
        usfq_sim::InputId,
        usfq_sim::InputId,
        usfq_sim::ProbeId,
    ) {
        let mut c = Circuit::new();
        let a = c.input("a");
        let b = c.input("b");
        let rst = c.input("rst");
        let f = c.add(cell);
        c.connect_input(a, f.input(0), Time::ZERO).unwrap();
        c.connect_input(b, f.input(1), Time::ZERO).unwrap();
        c.connect_input(rst, f.input(2), Time::ZERO).unwrap();
        let out = c.probe(f.output(0), "out");
        (Simulator::new(c), a, b, rst, out)
    }

    /// The paper's Fig. 2a: min(A=2, B=3) = 2.
    #[test]
    fn fa_computes_min() {
        let (mut sim, a, b, _rst, out) = race_fixture(FirstArrival::new("fa"));
        let slot = 10.0;
        sim.schedule_input(a, Time::from_ps(2.0 * slot)).unwrap();
        sim.schedule_input(b, Time::from_ps(3.0 * slot)).unwrap();
        sim.run().unwrap();
        let times = sim.probe_times(out);
        assert_eq!(times.len(), 1);
        assert_eq!(times[0], Time::from_ps(2.0 * slot) + catalog::t_ff());
    }

    #[test]
    fn fa_rearms_after_reset() {
        let (mut sim, a, b, rst, out) = race_fixture(FirstArrival::new("fa"));
        sim.schedule_input(b, Time::from_ps(5.0)).unwrap();
        sim.schedule_input(rst, Time::from_ps(50.0)).unwrap();
        sim.schedule_input(a, Time::from_ps(60.0)).unwrap();
        sim.run().unwrap();
        assert_eq!(sim.probe_count(out), 2);
        assert_eq!(sim.activity().anomaly_count(StatKind::IgnoredPulse), 0);
    }

    #[test]
    fn la_computes_max() {
        let (mut sim, a, b, _rst, out) = race_fixture(LastArrival::new("la"));
        let slot = 10.0;
        sim.schedule_input(a, Time::from_ps(2.0 * slot)).unwrap();
        sim.schedule_input(b, Time::from_ps(7.0 * slot)).unwrap();
        sim.run().unwrap();
        let times = sim.probe_times(out);
        assert_eq!(times.len(), 1);
        assert_eq!(times[0], Time::from_ps(7.0 * slot) + catalog::t_ff());
    }

    #[test]
    fn la_single_input_never_fires() {
        let (mut sim, a, _b, _rst, out) = race_fixture(LastArrival::new("la"));
        sim.schedule_input(a, Time::from_ps(5.0)).unwrap();
        sim.run().unwrap();
        assert_eq!(sim.probe_count(out), 0);
    }

    #[test]
    fn la_rearms_after_reset() {
        let (mut sim, a, b, rst, out) = race_fixture(LastArrival::new("la"));
        sim.schedule_input(a, Time::from_ps(1.0)).unwrap();
        sim.schedule_input(b, Time::from_ps(2.0)).unwrap();
        sim.schedule_input(rst, Time::from_ps(50.0)).unwrap();
        sim.schedule_input(a, Time::from_ps(60.0)).unwrap();
        sim.schedule_input(b, Time::from_ps(70.0)).unwrap();
        sim.run().unwrap();
        assert_eq!(sim.probe_count(out), 2);
    }

    #[test]
    fn inhibit_passes_early_data() {
        let (mut sim, a, b, _rst, out) = race_fixture(Inhibit::new("inh"));
        sim.schedule_input(a, Time::from_ps(10.0)).unwrap();
        sim.schedule_input(b, Time::from_ps(20.0)).unwrap();
        sim.run().unwrap();
        assert_eq!(sim.probe_count(out), 1);
    }

    #[test]
    fn inhibit_blocks_late_data() {
        let (mut sim, a, b, _rst, out) = race_fixture(Inhibit::new("inh"));
        sim.schedule_input(b, Time::from_ps(10.0)).unwrap();
        sim.schedule_input(a, Time::from_ps(20.0)).unwrap();
        sim.run().unwrap();
        assert_eq!(sim.probe_count(out), 0);
    }

    #[test]
    fn inhibit_rearms_after_reset() {
        let (mut sim, a, b, rst, out) = race_fixture(Inhibit::new("inh"));
        sim.schedule_input(b, Time::from_ps(10.0)).unwrap();
        sim.schedule_input(a, Time::from_ps(20.0)).unwrap(); // blocked
        sim.schedule_input(rst, Time::from_ps(50.0)).unwrap();
        sim.schedule_input(a, Time::from_ps(60.0)).unwrap(); // passes
        sim.run().unwrap();
        assert_eq!(sim.probe_count(out), 1);
    }
}
