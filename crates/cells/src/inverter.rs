//! The clocked inverter, which complements a pulse stream.

use usfq_sim::component::{BurstStep, CellState, Component, Ctx, Hazard, StaticMeta};
use usfq_sim::{Burst, Time};

use crate::catalog;

/// A clocked RSFQ inverter.
///
/// RSFQ logic cannot express "absence of a pulse" combinationally, so the
/// inverter is clocked: at each `CLK` pulse it emits an output *only if no
/// input pulse arrived since the previous clock*. Driven by the slot
/// clock, it turns a pulse stream for `p` into a stream for `1 − p` —
/// exactly the ¬A the paper's bipolar multiplier needs, with the paper's
/// measured t_INV = 9 ps setting the unary multiplier's maximum slot
/// frequency (§4.1: "maximum frequency of ≈ 111 GHz"). Its state bit
/// marks an input pulse since the previous clock.
#[derive(Debug, Clone)]
pub struct ClockedInverter {
    name: String,
    delay: Time,
}

impl ClockedInverter {
    /// Data input port.
    pub const IN: usize = 0;
    /// Clock port.
    pub const IN_CLK: usize = 1;
    /// Output port (complement of the input stream).
    pub const OUT: usize = 0;

    /// Creates an inverter with the paper's 9 ps clock-to-output delay.
    pub fn new(name: impl Into<String>) -> Self {
        ClockedInverter {
            name: name.into(),
            delay: catalog::t_inverter(),
        }
    }
}

impl Component for ClockedInverter {
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
        catalog::JJ_INVERTER
    }
    /// Calibrated against the paper's Fig. 21 power band.
    fn switching_jjs(&self) -> f64 {
        1.0
    }
    fn on_pulse(&self, state: &mut CellState, port: usize, _now: Time, ctx: &mut Ctx) {
        match port {
            Self::IN => state.bits = 1,
            Self::IN_CLK => {
                if state.bits == 0 {
                    ctx.emit(Self::OUT, self.delay);
                }
                state.bits = 0;
            }
            _ => unreachable!("inverter has two inputs"),
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
            Self::IN => state.bits = 1,
            Self::IN_CLK => {
                // No data pulses interleave a coalesced clock train, so
                // at most the first clock is suppressed; the rest all
                // close empty slots and emit.
                let skip = u64::from(state.bits);
                ctx.emit_burst(Self::OUT, burst.suffix(skip).delayed(self.delay));
                state.bits = 0;
            }
            _ => unreachable!("inverter has two inputs"),
        }
        BurstStep::Consumed
    }
    fn static_meta(&self) -> StaticMeta {
        StaticMeta::new("inverter", self.delay).with_hazard(Hazard::Setup {
            control: Self::IN,
            sampled: Self::IN_CLK,
            window: self.delay,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usfq_sim::{Circuit, Simulator};

    /// Stream with pulses in slots {0, 2} of 4 → inverse has slots {1, 3}.
    #[test]
    fn complements_a_stream() {
        let mut c = Circuit::new();
        let din = c.input("in");
        let clk = c.input("clk");
        let inv = c.add(ClockedInverter::new("inv"));
        c.connect_input(din, inv.input(ClockedInverter::IN), Time::ZERO)
            .unwrap();
        c.connect_input(clk, inv.input(ClockedInverter::IN_CLK), Time::ZERO)
            .unwrap();
        let q = c.probe(inv.output(ClockedInverter::OUT), "q");

        let mut sim = Simulator::new(c);
        let slot = 20.0;
        // Input pulses early in slots 0 and 2; clock at each slot's end.
        sim.schedule_input(din, Time::from_ps(2.0)).unwrap();
        sim.schedule_input(din, Time::from_ps(2.0 + 2.0 * slot))
            .unwrap();
        for s in 0..4u32 {
            sim.schedule_input(clk, Time::from_ps(slot * (s as f64 + 1.0) - 1.0))
                .unwrap();
        }
        sim.run().unwrap();
        let out = sim.probe_times(q).to_vec();
        assert_eq!(out.len(), 2);
        // Outputs correspond to the clocks closing slots 1 and 3.
        assert_eq!(out[0], Time::from_ps(2.0 * slot - 1.0 + 9.0));
        assert_eq!(out[1], Time::from_ps(4.0 * slot - 1.0 + 9.0));
    }

    #[test]
    fn all_ones_stream_inverts_to_silence() {
        let inv = ClockedInverter::new("i");
        let mut state = inv.power_on();
        let mut ctx = Ctx::default();
        for s in 0..8u32 {
            inv.on_pulse(
                &mut state,
                ClockedInverter::IN,
                Time::from_ps(10.0 * s as f64),
                &mut ctx,
            );
            inv.on_pulse(
                &mut state,
                ClockedInverter::IN_CLK,
                Time::from_ps(10.0 * s as f64 + 5.0),
                &mut ctx,
            );
        }
        assert!(ctx.emissions().is_empty());
    }

    #[test]
    fn silence_inverts_to_full_rate() {
        let inv = ClockedInverter::new("i");
        let mut state = inv.power_on();
        let mut ctx = Ctx::default();
        for s in 0..8u32 {
            inv.on_pulse(
                &mut state,
                ClockedInverter::IN_CLK,
                Time::from_ps(10.0 * s as f64),
                &mut ctx,
            );
        }
        assert_eq!(ctx.emissions().len(), 8);
    }

    #[test]
    fn reset_clears_pending_input() {
        let inv = ClockedInverter::new("i");
        let mut state = inv.power_on();
        let mut ctx = Ctx::default();
        inv.on_pulse(&mut state, ClockedInverter::IN, Time::ZERO, &mut ctx);
        state = inv.power_on();
        inv.on_pulse(
            &mut state,
            ClockedInverter::IN_CLK,
            Time::from_ps(1.0),
            &mut ctx,
        );
        // After reset the pending input is forgotten, so the clock emits.
        assert_eq!(ctx.emissions().len(), 1);
    }
}
