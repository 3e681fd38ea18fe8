//! The U-SFQ multipliers (paper §4.1).
//!
//! A product `p_A · p_B` is computed by letting the race-logic operand
//! `B` *gate* the pulse stream `A` through an NDRO: pulses of `A` that
//! arrive before the RL pulse pass; later ones are blocked. The count of
//! surviving pulses, divided by `N_max`, is the product. The bipolar
//! variant adds a second NDRO carrying `¬A` after `B`, realising the
//! XNOR form `(A ∧ B) ∨ (¬A ∧ ¬B)` of stochastic computing.

use usfq_cells::interconnect::{Merger, Splitter};
use usfq_cells::inverter::ClockedInverter;
use usfq_cells::storage::Ndro;
use usfq_encoding::{Epoch, PulseStream, RlValue};
use usfq_sim::{Circuit, InputId, ProbeId, Time};

use crate::error::CoreError;
use crate::rig::Rig;

/// Exact count of uniform-stream pulses passing a race-logic gate.
///
/// With `count` pulses centred uniformly in an epoch of `n_max` slots,
/// pulse `k` sits at fraction `(2k+1)/(2·count)`; it passes a gate at
/// slot `gate` iff `(2k+1)·n_max < 2·count·gate`. This closed form is
/// the functional mirror of the structural multiplier and is what the
/// fast accelerator models use.
pub fn gated_count(count: u64, gate_slot: u64, n_max: u64) -> u64 {
    if count == 0 || gate_slot == 0 {
        return 0;
    }
    let q = (2u128 * u128::from(count) * u128::from(gate_slot) - 1) / u128::from(n_max);
    // Number of odd integers 2k+1 <= q.
    (q.div_ceil(2) as u64).min(count)
}

/// The unipolar U-SFQ multiplier (paper Fig. 3c, left).
///
/// One NDRO: the epoch marker `E` sets its loop, the RL operand `B`
/// resets it, and the pulse stream `A` drives the non-destructive read
/// port, so exactly the pulses before `B` emerge at `Q`.
///
/// [`UnipolarMultiplier::multiply`] runs the full pulse-level simulation;
/// [`UnipolarMultiplier::multiply_streams`] operates on already-encoded
/// operands.
#[derive(Debug, Clone, Copy)]
pub struct UnipolarMultiplier {
    epoch: Epoch,
}

impl UnipolarMultiplier {
    /// Creates a multiplier for the given epoch.
    pub fn new(epoch: Epoch) -> Self {
        UnipolarMultiplier { epoch }
    }

    /// The multiplier's epoch.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Latency of one multiplication: the epoch duration (paper §4.1:
    /// `2^B · t_INV`).
    pub fn latency(&self) -> Time {
        self.epoch.duration()
    }

    /// Multiplies two unipolar values through the simulated circuit.
    ///
    /// # Errors
    ///
    /// Returns an encoding error if either operand is outside `[0, 1]`,
    /// or a simulation error if the circuit fails to settle.
    pub fn multiply(&self, a: f64, b: f64) -> Result<PulseStream, CoreError> {
        let stream = PulseStream::from_unipolar(a, self.epoch)?;
        let gate = RlValue::from_unipolar(b, self.epoch)?;
        self.multiply_streams(stream, gate)
    }

    /// Multiplies already-encoded operands through the simulated circuit.
    ///
    /// # Errors
    ///
    /// Returns a simulation error if the circuit fails to settle.
    pub fn multiply_streams(&self, a: PulseStream, b: RlValue) -> Result<PulseStream, CoreError> {
        let mut rig = Rig::new(self.circuit()?);
        rig.run(|stimulus, io| {
            // The epoch marker arrives first; the RL gate is scheduled
            // before the stream so that at an exact tie the reset wins
            // ("pulses arriving before B pass through; pulses after B
            // do not").
            stimulus.schedule_input(io.e, Time::ZERO)?;
            stimulus.schedule_input(io.b, b.pulse_time_from(Time::ZERO))?;
            stimulus.schedule_burst(io.a, a.burst_from(Time::ZERO))
        })?;
        Ok(PulseStream::from_count(
            (rig.sim().probe_count(rig.io().q) as u64).min(self.epoch.n_max()),
            self.epoch,
        )?)
    }

    /// The multiplier's circuit: one NDRO whose set port takes the epoch
    /// marker `E`, reset port the RL operand `B` and read port the
    /// stream `A`, probed at `Q`.
    ///
    /// # Errors
    ///
    /// Propagates circuit wiring errors.
    pub fn circuit(&self) -> Result<(Circuit, UnipolarIo), CoreError> {
        let mut c = Circuit::new();
        let e = c.input("E");
        let b = c.input("B");
        let a = c.input("A");
        let ndro = c.add(Ndro::new("ndro"));
        c.connect_input(e, ndro.input(Ndro::IN_S), Time::ZERO)?;
        c.connect_input(b, ndro.input(Ndro::IN_R), Time::ZERO)?;
        c.connect_input(a, ndro.input(Ndro::IN_CLK), Time::ZERO)?;
        let q = c.probe(ndro.output(Ndro::OUT_Q), "Q");
        Ok((c, UnipolarIo { e, b, a, q }))
    }

    /// Functional mirror of [`UnipolarMultiplier::multiply`]: identical
    /// result without event simulation.
    ///
    /// # Errors
    ///
    /// Returns an encoding error if either operand is outside `[0, 1]`.
    pub fn multiply_functional(&self, a: f64, b: f64) -> Result<PulseStream, CoreError> {
        let stream = PulseStream::from_unipolar(a, self.epoch)?;
        let gate = RlValue::from_unipolar(b, self.epoch)?;
        let count = gated_count(stream.count(), gate.slot(), self.epoch.n_max());
        Ok(PulseStream::from_count(count, self.epoch)?)
    }
}

/// The bipolar U-SFQ multiplier (paper Fig. 3c, right).
///
/// Two NDROs realise `(A ∧ B) ∨ (¬A ∧ ¬B)`: the top passes stream `A`
/// until the RL pulse `B`, the bottom passes the inverted stream `¬A`
/// (generated by a slot-clocked inverter) after `B`; a merger joins the
/// two disjoint windows.
#[derive(Debug, Clone, Copy)]
pub struct BipolarMultiplier {
    epoch: Epoch,
}

impl BipolarMultiplier {
    /// Creates a bipolar multiplier for the given epoch.
    pub fn new(epoch: Epoch) -> Self {
        BipolarMultiplier { epoch }
    }

    /// The multiplier's epoch.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Multiplies two bipolar values (`[−1, 1]`) through the simulated
    /// circuit and returns the bipolar-encoded product stream.
    ///
    /// # Errors
    ///
    /// Returns an encoding error if an operand is outside `[−1, 1]`, or
    /// a simulation error if the circuit fails to settle.
    pub fn multiply(&self, a: f64, b: f64) -> Result<PulseStream, CoreError> {
        let stream = PulseStream::from_bipolar(a, self.epoch)?;
        let gate = RlValue::from_bipolar(b, self.epoch)?;
        self.multiply_streams(stream, gate)
    }

    /// Multiplies already-encoded bipolar operands through the simulated
    /// circuit.
    ///
    /// # Errors
    ///
    /// Returns a simulation error if the circuit fails to settle.
    pub fn multiply_streams(&self, a: PulseStream, b: RlValue) -> Result<PulseStream, CoreError> {
        self.multiply_on(&mut Rig::new(self.circuit()?), a, b)
    }

    /// Multiplies through the simulated circuit and additionally returns
    /// the event-counted **active power** in watts, averaged over the
    /// epoch under the given power model — the measurement behind the
    /// paper's Fig. 21.
    ///
    /// # Errors
    ///
    /// Returns a simulation error if the circuit fails to settle.
    pub fn multiply_with_power(
        &self,
        a: PulseStream,
        b: RlValue,
        model: &usfq_sim::power::PowerModel,
    ) -> Result<(PulseStream, f64), CoreError> {
        let (circuit, io) = self.circuit()?;
        let mut rig = Rig::new((circuit.clone(), io));
        let stream = self.multiply_on(&mut rig, a, b)?;
        let power = model.active_power_w(&circuit, rig.sim().activity(), self.epoch.duration());
        Ok((stream, power))
    }

    /// Multiplies already-encoded bipolar operands on a rig of
    /// [`BipolarMultiplier::circuit`].
    ///
    /// # Errors
    ///
    /// Returns a simulation error if the circuit fails to settle.
    pub fn multiply_on(
        &self,
        rig: &mut Rig<BipolarIo>,
        a: PulseStream,
        b: RlValue,
    ) -> Result<PulseStream, CoreError> {
        // The inverter samples each slot at its end (half-slot offset
        // keeps the complement stream clear of the slot boundaries).
        let slot = self.epoch.slot_width();
        let clock = usfq_sim::Burst::uniform(slot / 2, slot, self.epoch.n_max());
        rig.run(|stimulus, io| {
            stimulus.schedule_input(io.e, Time::ZERO)?;
            stimulus.schedule_input(io.b, b.pulse_time_from(Time::ZERO))?;
            stimulus.schedule_burst(io.clk, clock)?;
            // Stream pulses are placed on the slot grid so each slot
            // carries at most one pulse — the inverter's sampling
            // assumption.
            stimulus.schedule_burst(io.a, a.burst_on_grid(Time::ZERO))
        })?;
        Ok(PulseStream::from_count(
            (rig.sim().probe_count(rig.io().out) as u64).min(self.epoch.n_max()),
            self.epoch,
        )?)
    }

    /// The standalone multiplier: [`BipolarMultiplierPorts::build`]
    /// driven by inputs `E`, `B`, `A` and `slot_clk`, probed at `OUT`.
    ///
    /// # Errors
    ///
    /// Propagates circuit wiring errors.
    pub fn circuit(&self) -> Result<(Circuit, BipolarIo), CoreError> {
        let mut c = Circuit::new();
        let e = c.input("E");
        let b = c.input("B");
        let a = c.input("A");
        let clk = c.input("slot_clk");
        let ports = BipolarMultiplierPorts::build(&mut c, "mult", self.epoch)?;
        c.connect_input(a, ports.in_a, Time::ZERO)?;
        c.connect_input(b, ports.in_b, Time::ZERO)?;
        c.connect_input(e, ports.in_e, Time::ZERO)?;
        c.connect_input(clk, ports.in_clk, Time::ZERO)?;
        let out = c.probe(ports.out, "OUT");
        Ok((c, BipolarIo { e, b, a, clk, out }))
    }

    /// Functional mirror of [`BipolarMultiplier::multiply`] using exact
    /// slot-grid arithmetic.
    ///
    /// # Errors
    ///
    /// Returns an encoding error if an operand is outside `[−1, 1]`.
    pub fn multiply_functional(&self, a: f64, b: f64) -> Result<PulseStream, CoreError> {
        let stream = PulseStream::from_bipolar(a, self.epoch)?;
        let gate = RlValue::from_bipolar(b, self.epoch)?;
        Ok(self.multiply_counts(stream, gate)?)
    }

    /// Exact bipolar product on encoded operands (slot-grid semantics,
    /// identical to the structural circuit).
    ///
    /// # Errors
    ///
    /// Never fails for operands of this epoch; the `Result` mirrors the
    /// encoding constructor.
    pub fn multiply_counts(
        &self,
        a: PulseStream,
        b: RlValue,
    ) -> Result<PulseStream, usfq_encoding::EncodingError> {
        let n_max = self.epoch.n_max();
        let gate = b.slot();
        // Grid slot k of an n-pulse stream is ⌊(2k+1)·N/(2n)⌋, which is
        // below the (integer) gate iff (2k+1)·N < 2·n·gate — the same
        // closed form as `gated_count`. The slots are distinct, so the
        // complement stream ¬A occupies the remaining slots and the
        // bottom NDRO passes those at or beyond the gate.
        let pass_top = gated_count(a.count(), gate, n_max);
        let occupied_at_or_after_gate = a.count() - pass_top;
        let pass_bottom = (n_max - gate) - occupied_at_or_after_gate;
        PulseStream::from_count((pass_top + pass_bottom).min(n_max), self.epoch)
    }
}

/// Port handles of a gate-level bipolar multiplier instantiated by
/// [`BipolarMultiplierPorts::build`] — the reusable netlist form used
/// by the structural DPU, which places many multipliers in one circuit.
#[derive(Debug, Clone, Copy)]
pub struct BipolarMultiplierPorts {
    /// Epoch marker (sets top NDRO / resets bottom).
    pub in_e: usfq_sim::SinkRef,
    /// RL operand (resets top NDRO / sets bottom, retimed).
    pub in_b: usfq_sim::SinkRef,
    /// Pulse-stream operand (slot-grid schedule expected).
    pub in_a: usfq_sim::SinkRef,
    /// Slot clock for the inverter (one pulse per slot, mid-slot).
    pub in_clk: usfq_sim::SinkRef,
    /// Product stream output.
    pub out: usfq_sim::NodeRef,
}

impl BipolarMultiplierPorts {
    /// Instantiates the paper's Fig. 3c bipolar multiplier into
    /// `circuit`: two NDROs, a clocked inverter, an output merger, and
    /// three splitters (46 JJs).
    ///
    /// # Errors
    ///
    /// Propagates circuit wiring errors.
    pub fn build(
        circuit: &mut Circuit,
        name: &str,
        epoch: Epoch,
    ) -> Result<Self, usfq_sim::SimError> {
        let c = circuit;
        // Stream A fans out to the top NDRO's read port and the inverter.
        let spl_a = c.add(Splitter::new(format!("{name}.spl_a")));
        // RL gate B fans out to both NDROs (reset top / set bottom).
        let spl_b = c.add(Splitter::new(format!("{name}.spl_b")));
        // Epoch marker fans out to both NDROs (set top / reset bottom).
        let spl_e = c.add(Splitter::new(format!("{name}.spl_e")));
        let top = c.add(Ndro::new(format!("{name}.ndro_top")));
        let bottom = c.add(Ndro::new(format!("{name}.ndro_bottom")));
        let inv = c.add(ClockedInverter::new(format!("{name}.inv")));
        let merger = c.add(Merger::new(format!("{name}.mrg_out")));

        c.connect(
            spl_e.output(Splitter::OUT_A),
            top.input(Ndro::IN_S),
            Time::ZERO,
        )?;
        c.connect(
            spl_e.output(Splitter::OUT_B),
            bottom.input(Ndro::IN_R),
            Time::ZERO,
        )?;
        c.connect(
            spl_b.output(Splitter::OUT_A),
            top.input(Ndro::IN_R),
            Time::ZERO,
        )?;
        // The inverted stream reaches the bottom NDRO half a slot plus
        // one inverter delay after the original pulse; the set strobe is
        // retimed by the same lag (a tuned JTL run in a real layout) so
        // "¬A after B" cuts at the intended slot.
        let set_lag = (epoch.slot_width() / 2 + usfq_cells::catalog::t_inverter())
            .saturating_sub(usfq_cells::catalog::t_splitter());
        c.connect(
            spl_b.output(Splitter::OUT_B),
            bottom.input(Ndro::IN_S),
            set_lag,
        )?;
        c.connect(
            spl_a.output(Splitter::OUT_A),
            top.input(Ndro::IN_CLK),
            Time::ZERO,
        )?;
        c.connect(
            spl_a.output(Splitter::OUT_B),
            inv.input(ClockedInverter::IN),
            Time::ZERO,
        )?;
        c.connect(
            inv.output(ClockedInverter::OUT),
            bottom.input(Ndro::IN_CLK),
            Time::ZERO,
        )?;
        c.connect(
            top.output(Ndro::OUT_Q),
            merger.input(Merger::IN_A),
            Time::ZERO,
        )?;
        c.connect(
            bottom.output(Ndro::OUT_Q),
            merger.input(Merger::IN_B),
            Time::ZERO,
        )?;

        Ok(BipolarMultiplierPorts {
            in_e: spl_e.input(Splitter::IN),
            in_b: spl_b.input(Splitter::IN),
            in_a: spl_a.input(Splitter::IN),
            in_clk: inv.input(ClockedInverter::IN_CLK),
            out: merger.output(Merger::OUT),
        })
    }
}

/// The ids of a standalone unipolar multiplier
/// ([`UnipolarMultiplier::circuit`]).
#[derive(Debug, Clone, Copy)]
pub struct UnipolarIo {
    /// Epoch marker.
    pub e: InputId,
    /// Race-logic operand.
    pub b: InputId,
    /// Pulse-stream operand.
    pub a: InputId,
    /// Product stream.
    pub q: ProbeId,
}

/// The ids of a standalone bipolar multiplier
/// ([`BipolarMultiplier::circuit`]).
#[derive(Debug, Clone, Copy)]
pub struct BipolarIo {
    /// Epoch marker.
    pub e: InputId,
    /// Race-logic operand.
    pub b: InputId,
    /// Pulse-stream operand.
    pub a: InputId,
    /// Slot clock for the inverter.
    pub clk: InputId,
    /// Product stream.
    pub out: ProbeId,
}

/// Slot ids occupied by a `count`-pulse stream on the slot grid
/// (mirrors [`PulseStream::schedule_on_grid`]); used by tests to verify
/// the closed-form `multiply_counts` against explicit enumeration.
#[cfg(test)]
fn grid_slots(count: u64, n_max: u64) -> Vec<u64> {
    (0..count)
        .map(|k| (u128::from(2 * k + 1) * u128::from(n_max) / u128::from(2 * count)) as u64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use usfq_sim::check::for_all;

    fn epoch(bits: u32) -> Epoch {
        Epoch::from_bits(bits).unwrap()
    }

    /// The paper's Fig. 3b first example: 3-bit epoch, result 1/8.
    #[test]
    fn paper_example_3bit() {
        let e = epoch(3);
        let m = UnipolarMultiplier::new(e);
        // A = 0.5 (4 pulses of 8), B = 0.25 (slot 2): product 0.125.
        let out = m.multiply(0.5, 0.25).unwrap();
        assert_eq!(out.value(), 0.125);
    }

    /// The paper's Fig. 3b second example: 4-bit epoch, result 6/16.
    #[test]
    fn paper_example_4bit() {
        let e = epoch(4);
        let m = UnipolarMultiplier::new(e);
        let out = m.multiply(0.75, 0.5).unwrap();
        assert_eq!(out.value(), 6.0 / 16.0);
    }

    #[test]
    fn unipolar_identity_and_annihilator() {
        let e = epoch(6);
        let m = UnipolarMultiplier::new(e);
        assert_eq!(m.multiply(0.625, 1.0).unwrap().value(), 0.625);
        assert_eq!(m.multiply(0.625, 0.0).unwrap().count(), 0);
        assert_eq!(m.multiply(0.0, 0.8).unwrap().count(), 0);
    }

    #[test]
    fn latency_is_epoch_duration() {
        let e = epoch(8);
        let m = UnipolarMultiplier::new(e);
        // 2^8 × 9 ps = 2.304 ns (paper §4.1).
        assert_eq!(m.latency(), Time::from_ns(2.304));
        assert_eq!(m.epoch(), e);
    }

    #[test]
    fn structural_matches_functional_unipolar() {
        let e = epoch(5);
        let m = UnipolarMultiplier::new(e);
        for a in [0.0, 0.25, 0.4375, 0.5, 0.875, 1.0] {
            for b in [0.0, 0.125, 0.5, 0.75, 1.0] {
                let s = m.multiply(a, b).unwrap();
                let f = m.multiply_functional(a, b).unwrap();
                assert_eq!(s.count(), f.count(), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn gated_count_closed_form() {
        assert_eq!(gated_count(8, 8, 16), 4);
        assert_eq!(gated_count(16, 16, 16), 16);
        assert_eq!(gated_count(1, 8, 16), 0);
        assert_eq!(gated_count(1, 9, 16), 1);
        assert_eq!(gated_count(0, 8, 16), 0);
        assert_eq!(gated_count(8, 0, 16), 0);
    }

    #[test]
    fn bipolar_sign_table() {
        let e = epoch(6);
        let m = BipolarMultiplier::new(e);
        let lsb = 4.0 * e.lsb();
        let cases = [
            (0.5, 0.5, 0.25),
            (-0.5, 0.5, -0.25),
            (0.5, -0.5, -0.25),
            (-0.5, -0.5, 0.25),
            (1.0, 1.0, 1.0),
            (-1.0, 1.0, -1.0),
            (-1.0, -1.0, 1.0),
            (0.0, 0.7, 0.0),
        ];
        for (a, b, want) in cases {
            let got = m.multiply(a, b).unwrap().value_bipolar();
            assert!(
                (got - want).abs() <= lsb,
                "a={a} b={b}: got {got}, want {want}"
            );
        }
    }

    #[test]
    fn bipolar_structural_matches_functional() {
        let e = epoch(5);
        let m = BipolarMultiplier::new(e);
        for a in [-1.0, -0.5, -0.25, 0.0, 0.375, 0.75, 1.0] {
            for b in [-1.0, -0.625, 0.0, 0.5, 1.0] {
                let s = m.multiply(a, b).unwrap();
                let f = m.multiply_functional(a, b).unwrap();
                assert_eq!(s.count(), f.count(), "a={a} b={b}");
            }
        }
    }

    /// |simulated product − a·b| ≤ 1.5 LSB across the operand space.
    #[test]
    fn unipolar_product_accuracy() {
        for_all(256, |rng| {
            let (a, b) = (rng.gen_range(0.0..=1.0), rng.gen_range(0.0..=1.0));
            let e = epoch(7);
            let m = UnipolarMultiplier::new(e);
            let got = m.multiply_functional(a, b).unwrap().value();
            assert!(
                (got - a * b).abs() <= 1.5 * e.lsb() + 1e-12,
                "a={a} b={b} got={got}"
            );
        });
    }

    /// Functional bipolar product within 3 LSB of the real product
    /// (bipolar quantization doubles the step).
    #[test]
    fn bipolar_product_accuracy() {
        for_all(256, |rng| {
            let (a, b) = (rng.gen_range(-1.0..=1.0), rng.gen_range(-1.0..=1.0));
            let e = epoch(8);
            let m = BipolarMultiplier::new(e);
            let got = m.multiply_functional(a, b).unwrap().value_bipolar();
            assert!(
                (got - a * b).abs() <= 6.0 * e.lsb() + 1e-12,
                "a={a} b={b} got={got}"
            );
        });
    }

    /// The gate count never exceeds the stream count and is monotone
    /// in the gate position.
    #[test]
    fn gated_count_properties() {
        for_all(256, |rng| {
            let [count, g1, g2] = [(); 3].map(|()| rng.gen_range(0u64..=256));
            let n_max = 256;
            let (lo, hi) = if g1 <= g2 { (g1, g2) } else { (g2, g1) };
            assert!(gated_count(count, lo, n_max) <= gated_count(count, hi, n_max));
            assert!(gated_count(count, hi, n_max) <= count);
        });
    }

    /// The closed-form bipolar product equals explicit slot-grid
    /// enumeration.
    #[test]
    fn multiply_counts_matches_enumeration() {
        for_all(256, |rng| {
            let (count, gate) = (rng.gen_range(0u64..=32), rng.gen_range(0u64..=32));
            let e = Epoch::from_bits(5).unwrap();
            let m = BipolarMultiplier::new(e);
            let a = PulseStream::from_count(count, e).unwrap();
            let b = RlValue::from_slot(gate, e).unwrap();
            let closed = m.multiply_counts(a, b).unwrap().count();
            let slots = grid_slots(count, 32);
            let top = slots.iter().filter(|&&s| s < gate).count() as u64;
            let bottom = (32 - gate) - slots.iter().filter(|&&s| s >= gate).count() as u64;
            assert_eq!(closed, top + bottom);
        });
    }
}
