//! Race-logic shift registers (paper §4.4).
//!
//! The FIR's delay line must shift *RL-encoded* samples by one epoch per
//! tap. The paper weighs three constructions:
//!
//! 1. **B2RC** — binary DFF words plus binary→RL converters: correct but
//!    up to 3.2× the binary area (§4.4.1);
//! 2. **DFF-based RL** — a DFF per *time slot*: exponential in bits
//!    (§4.4.2);
//! 3. **Integrator buffer** — an inductor integrates a clock from the RL
//!    input's arrival; charge/discharge reproduces the delay one epoch
//!    later at constant JJ cost (§4.4.3). This is the paper's choice.
//!
//! [`ShiftRegisterKind`] carries the area models for all three plus the
//! plain binary baseline (the Fig. 12 comparison); [`IntegratorBuffer`]
//! is the simulatable cell; [`MemoryCell`] interleaves two buffers; and
//! [`RlShiftRegister`] is the functional delay line the FIR uses.

use std::collections::VecDeque;

use usfq_cells::catalog;
use usfq_encoding::{Epoch, RlValue};
use usfq_sim::component::{CellState, Component, Ctx, StaticMeta};
use usfq_sim::Time;

/// The four shift-register constructions compared in the paper's Fig. 12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShiftRegisterKind {
    /// Plain binary DFF words (no RL interface) — the baseline.
    Binary,
    /// Binary words + binary-to-RL converters (§4.4.1).
    B2rc,
    /// One DFF per time slot (§4.4.2) — exponential in bits.
    DffRl,
    /// Integrator-based RL buffer cells (§4.4.3) — the paper's proposal.
    IntegratorBuffer,
}

impl ShiftRegisterKind {
    /// JJ cost of a `words`-deep shift register at `bits` resolution.
    ///
    /// Anchors: a binary word is `bits` DFFs; B2RC multiplies the binary
    /// bank by the paper's 3.2× converter overhead; the DFF-RL register
    /// needs `2^bits` DFFs per word; the integrator memory cell is the
    /// constant [`catalog::JJ_MEMORY_CELL`].
    pub fn area_jj(self, bits: u32, words: u64) -> u64 {
        let dff = u64::from(catalog::JJ_DFF);
        match self {
            ShiftRegisterKind::Binary => words * u64::from(bits) * dff,
            ShiftRegisterKind::B2rc => {
                // 3.2× the binary bank (converter chain of TFFs + DFFs).
                let binary = words * u64::from(bits) * dff;
                (binary as f64 * 3.2).round() as u64
            }
            ShiftRegisterKind::DffRl => words * (1u64 << bits) * dff,
            ShiftRegisterKind::IntegratorBuffer => words * u64::from(catalog::JJ_MEMORY_CELL),
        }
    }

    /// All four kinds, in the paper's Fig. 12 legend order.
    pub fn all() -> [ShiftRegisterKind; 4] {
        [
            ShiftRegisterKind::Binary,
            ShiftRegisterKind::B2rc,
            ShiftRegisterKind::DffRl,
            ShiftRegisterKind::IntegratorBuffer,
        ]
    }
}

/// Timer tags of the [`IntegratorBuffer`] state machine.
const TAG_COMPARATOR: u64 = 1;
const TAG_OUTPUT: u64 = 2;

/// The integrator-based RL buffer (paper §4.4.3, Fig. 10b-c).
///
/// The RL input closes switch ① and an inductor integrates a clock; when
/// comparator junction J1 reaches critical current (half an epoch) the
/// circuit flips to discharging through switch ②; when the current
/// returns to baseline, J2 emits the output pulse. Charging and
/// discharging take one full epoch, so the pulse re-appears with its
/// delay intact in the next epoch.
///
/// The behavioral model schedules the charge and discharge phases as
/// timers, exposing the same three externally visible events the SPICE
/// waveform (paper Fig. 11) shows: input, comparator flip, output.
/// Its state bit marks a sample in flight (charging or discharging).
#[derive(Debug, Clone)]
pub struct IntegratorBuffer {
    name: String,
    epoch: Epoch,
}

impl IntegratorBuffer {
    /// RL data input.
    pub const IN: usize = 0;
    /// Delayed RL output.
    pub const OUT: usize = 0;

    /// Creates a buffer delaying by one epoch of the given geometry.
    pub fn new(name: impl Into<String>, epoch: Epoch) -> Self {
        IntegratorBuffer {
            name: name.into(),
            epoch,
        }
    }

    /// Half an epoch: the charge duration until J1 kicks back.
    fn half_epoch(&self) -> Time {
        self.epoch.duration() / 2
    }
}

impl Component for IntegratorBuffer {
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
        catalog::JJ_INTEGRATOR
    }
    fn on_pulse(&self, state: &mut CellState, _port: usize, _now: Time, ctx: &mut Ctx) {
        if state.bit(0) {
            // A second pulse while busy is ignored (one sample per epoch).
            ctx.record(usfq_sim::stats::StatKind::IgnoredPulse);
            return;
        }
        state.set_bit(0, true);
        ctx.schedule_timer(TAG_COMPARATOR, self.half_epoch());
    }
    fn on_timer(&self, state: &mut CellState, tag: u64, _now: Time, ctx: &mut Ctx) {
        match tag {
            TAG_COMPARATOR => {
                // J1 kicked back; discharge takes the other half epoch.
                ctx.schedule_timer(TAG_OUTPUT, self.half_epoch());
            }
            TAG_OUTPUT => {
                state.set_bit(0, false);
                ctx.emit(Self::OUT, Time::ZERO);
            }
            _ => unreachable!("unknown integrator timer"),
        }
    }
    fn static_meta(&self) -> StaticMeta {
        // Charge + discharge reproduce the pulse exactly one epoch later.
        // The buffer holds one sample per epoch: a second data pulse
        // while charging is dropped, which the count analysis and the
        // sanitizer model as a capacity of 1.
        StaticMeta::custom("integrator", self.epoch.duration(), self.epoch.duration())
            .with_counting_capacity(1)
    }
}

/// A memory cell: two integrator buffers interleaved by a demux/mux pair
/// (paper Fig. 10d) so one buffer can delay epoch `n` while the other
/// absorbs epoch `n+1`.
#[derive(Debug, Clone, Copy)]
pub struct MemoryCell;

impl MemoryCell {
    /// Builds the cell into `circuit`, returning
    /// `(data_in, select_in, data_out)` refs. Pulse the select input at
    /// every epoch boundary.
    ///
    /// # Errors
    ///
    /// Propagates circuit wiring errors.
    pub fn build(
        circuit: &mut usfq_sim::Circuit,
        name: &str,
        epoch: Epoch,
    ) -> Result<(usfq_sim::SinkRef, usfq_sim::SinkRef, usfq_sim::NodeRef), usfq_sim::SimError> {
        use usfq_cells::switch::{Demux, Mux};
        let demux = circuit.add(Demux::new(format!("{name}.demux")));
        let buf_a = circuit.add(IntegratorBuffer::new(format!("{name}.buf_a"), epoch));
        let buf_b = circuit.add(IntegratorBuffer::new(format!("{name}.buf_b"), epoch));
        let mux = circuit.add(Mux::new(format!("{name}.mux")));
        circuit.connect(
            demux.output(Demux::OUT_A),
            buf_a.input(IntegratorBuffer::IN),
            Time::ZERO,
        )?;
        circuit.connect(
            demux.output(Demux::OUT_B),
            buf_b.input(IntegratorBuffer::IN),
            Time::ZERO,
        )?;
        circuit.connect(
            buf_a.output(IntegratorBuffer::OUT),
            mux.input(Mux::IN_A),
            Time::ZERO,
        )?;
        circuit.connect(
            buf_b.output(IntegratorBuffer::OUT),
            mux.input(Mux::IN_B),
            Time::ZERO,
        )?;
        Ok((
            demux.input(Demux::IN),
            demux.input(Demux::IN_SEL),
            mux.output(Mux::OUT),
        ))
    }
}

/// A functional race-logic shift register: a FIFO of RL samples, one
/// slot per tap, shifting one position per epoch — the `z⁻¹` chain of
/// the FIR accelerator.
#[derive(Debug, Clone)]
pub struct RlShiftRegister {
    epoch: Epoch,
    taps: VecDeque<Option<RlValue>>,
}

impl RlShiftRegister {
    /// Creates a register of `depth` stages, initially empty.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(epoch: Epoch, depth: usize) -> Self {
        assert!(depth > 0, "shift register needs at least one stage");
        RlShiftRegister {
            epoch,
            taps: VecDeque::from(vec![None; depth]),
        }
    }

    /// The register's epoch.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Number of stages.
    pub fn depth(&self) -> usize {
        self.taps.len()
    }

    /// Pushes this epoch's sample and returns the sample shifted out of
    /// the last stage (the `depth`-epochs-old value).
    pub fn shift(&mut self, value: Option<RlValue>) -> Option<RlValue> {
        self.taps.push_front(value);
        self.taps.pop_back().flatten()
    }

    /// The sample delayed by `stage + 1` epochs (stage 0 is the newest).
    ///
    /// # Panics
    ///
    /// Panics if `stage >= depth`.
    pub fn tap(&self, stage: usize) -> Option<RlValue> {
        self.taps[stage]
    }

    /// Clears all stages.
    pub fn clear(&mut self) {
        for t in &mut self.taps {
            *t = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usfq_sim::{Circuit, Simulator};

    fn epoch(bits: u32) -> Epoch {
        Epoch::with_slot(bits, Time::from_ps(10.0)).unwrap()
    }

    /// Fig. 12's orderings at 8 and 16 bits.
    #[test]
    fn area_model_orderings() {
        for bits in [8u32, 16] {
            let words = 32;
            let binary = ShiftRegisterKind::Binary.area_jj(bits, words);
            let b2rc = ShiftRegisterKind::B2rc.area_jj(bits, words);
            let dff_rl = ShiftRegisterKind::DffRl.area_jj(bits, words);
            let buffer = ShiftRegisterKind::IntegratorBuffer.area_jj(bits, words);
            assert!(binary < b2rc, "bits {bits}");
            assert!(b2rc < dff_rl, "bits {bits}");
            assert!(buffer < b2rc, "bits {bits}");
            assert!(buffer < dff_rl, "bits {bits}");
        }
    }

    /// §4.4.3's anchors: buffer overhead ≈ 2.5× at 8 bits, ≈ 1.3× at 16.
    #[test]
    fn buffer_overhead_vs_binary() {
        let r8 = ShiftRegisterKind::IntegratorBuffer.area_jj(8, 1) as f64
            / ShiftRegisterKind::Binary.area_jj(8, 1) as f64;
        let r16 = ShiftRegisterKind::IntegratorBuffer.area_jj(16, 1) as f64
            / ShiftRegisterKind::Binary.area_jj(16, 1) as f64;
        assert!((2.2..=2.8).contains(&r8), "8-bit overhead {r8}");
        assert!((1.1..=1.5).contains(&r16), "16-bit overhead {r16}");
    }

    #[test]
    fn all_kinds_enumerated() {
        assert_eq!(ShiftRegisterKind::all().len(), 4);
    }

    /// Fig. 11's behaviour: the output pulse appears with the same slot
    /// offset, one epoch later.
    #[test]
    fn integrator_delays_by_one_epoch() {
        let e = epoch(4); // 160 ps epoch
        let mut c = Circuit::new();
        let input = c.input("in");
        let buf = c.add(IntegratorBuffer::new("buf", e));
        c.connect_input(input, buf.input(IntegratorBuffer::IN), Time::ZERO)
            .unwrap();
        let out = c.probe(buf.output(IntegratorBuffer::OUT), "out");
        let mut sim = Simulator::new(c);
        let rl = RlValue::from_slot(5, e).unwrap();
        sim.schedule_input(input, rl.pulse_time_from(Time::ZERO))
            .unwrap();
        sim.run().unwrap();
        let times = sim.probe_times(out);
        assert_eq!(times.len(), 1);
        assert_eq!(times[0], rl.pulse_time_from(Time::ZERO) + e.duration());
        // Decoded in the next epoch, the value is unchanged.
        let decoded = RlValue::from_pulse_time(times[0], e.duration(), e).unwrap();
        assert_eq!(decoded.slot(), 5);
    }

    #[test]
    fn integrator_ignores_second_pulse_while_busy() {
        let e = epoch(4);
        let mut c = Circuit::new();
        let input = c.input("in");
        let buf = c.add(IntegratorBuffer::new("buf", e));
        c.connect_input(input, buf.input(IntegratorBuffer::IN), Time::ZERO)
            .unwrap();
        let out = c.probe(buf.output(IntegratorBuffer::OUT), "out");
        let mut sim = Simulator::new(c);
        sim.schedule_input(input, Time::from_ps(10.0)).unwrap();
        sim.schedule_input(input, Time::from_ps(20.0)).unwrap(); // busy
        sim.run().unwrap();
        assert_eq!(sim.probe_count(out), 1);
    }

    /// Chained memory cells delay by one epoch per cell.
    #[test]
    fn memory_cell_interleaves_epochs() {
        let e = epoch(4);
        let dur = e.duration();
        let mut c = Circuit::new();
        let input = c.input("in");
        let sel = c.input("sel");
        let (d_in, s_in, d_out) = MemoryCell::build(&mut c, "cell", e).unwrap();
        c.connect_input(input, d_in, Time::ZERO).unwrap();
        c.connect_input(sel, s_in, Time::ZERO).unwrap();
        let out = c.probe(d_out, "out");
        let mut sim = Simulator::new(c);
        // Two consecutive epochs carry slots 3 and 9; select toggles at
        // each epoch boundary.
        let v0 = RlValue::from_slot(3, e).unwrap();
        let v1 = RlValue::from_slot(9, e).unwrap();
        sim.schedule_input(input, v0.pulse_time_from(Time::ZERO))
            .unwrap();
        sim.schedule_input(input, v1.pulse_time_from(dur)).unwrap();
        sim.schedule_input(sel, dur).unwrap();
        sim.schedule_input(sel, dur.scale(2)).unwrap();
        sim.run().unwrap();
        let times = sim.probe_times(out).to_vec();
        assert_eq!(times.len(), 2);
        // Each output is one epoch after its input (plus switch delays).
        let tol = Time::from_ps(15.0);
        let want0 = v0.pulse_time_from(Time::ZERO) + dur;
        let want1 = v1.pulse_time_from(dur) + dur;
        assert!(
            times[0].abs_diff(want0) <= tol,
            "{:?} vs {want0:?}",
            times[0]
        );
        assert!(
            times[1].abs_diff(want1) <= tol,
            "{:?} vs {want1:?}",
            times[1]
        );
    }

    #[test]
    fn functional_register_shifts() {
        let e = epoch(4);
        let mut reg = RlShiftRegister::new(e, 3);
        assert_eq!(reg.depth(), 3);
        assert_eq!(reg.epoch(), e);
        let v = |s| RlValue::from_slot(s, e).unwrap();
        assert_eq!(reg.shift(Some(v(1))), None);
        assert_eq!(reg.shift(Some(v(2))), None);
        assert_eq!(reg.shift(Some(v(3))), None);
        assert_eq!(reg.shift(Some(v(4))), Some(v(1)));
        assert_eq!(reg.tap(0), Some(v(4)));
        assert_eq!(reg.tap(1), Some(v(3)));
        reg.clear();
        assert_eq!(reg.shift(None), None);
        assert_eq!(reg.tap(1), None);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn zero_depth_panics() {
        let _ = RlShiftRegister::new(epoch(4), 0);
    }
}
