//! The unipolar processing element (paper §5.2, Fig. 13) and arrays of
//! them.
//!
//! A PE chains the three §4 blocks: RL-gated multiplier → balancer
//! adder → integrator. It computes `(in1·in2 + in3) / 2` (the balancer
//! halves) and returns the result re-encoded in RL, which is what lets
//! PEs feed each other in a CGRA/spatial-array fabric.

use usfq_cells::balancer::Balancer;
use usfq_cells::catalog;
use usfq_cells::storage::Ndro;
use usfq_encoding::{Epoch, PulseStream, RlValue};
use usfq_sim::component::{BurstStep, CellState, Component, Ctx, StaticMeta};
use usfq_sim::{Burst, Circuit, InputId, ProbeId, Time};

use crate::blocks::gated_count;
use crate::error::CoreError;
use crate::rig::Rig;

/// Timer tag for the integrator's delayed output pulse.
const TAG_EMIT: u64 = 1;

/// Accumulates a pulse stream and re-emits it as a race-logic pulse in
/// the next epoch: the PE's integrator stage (paper §5.2: "the
/// accumulated result is returned in a RL format facilitating the
/// interface among PEs").
///
/// Ports: `IN` counts stream pulses; a pulse on `EPOCH` (the epoch
/// boundary) latches the count `n` and schedules one output pulse `n`
/// slots into the following epoch. Its state's first word is the count.
#[derive(Debug, Clone)]
pub struct StreamToRlIntegrator {
    name: String,
    epoch: Epoch,
}

impl StreamToRlIntegrator {
    /// Stream input port.
    pub const IN: usize = 0;
    /// Epoch-boundary marker port.
    pub const IN_EPOCH: usize = 1;
    /// RL output port.
    pub const OUT: usize = 0;

    /// Creates an integrator for the given epoch.
    pub fn new(name: impl Into<String>, epoch: Epoch) -> Self {
        StreamToRlIntegrator {
            name: name.into(),
            epoch,
        }
    }
}

impl Component for StreamToRlIntegrator {
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
        catalog::JJ_INTEGRATOR
    }
    fn on_pulse(&self, state: &mut CellState, port: usize, _now: Time, ctx: &mut Ctx) {
        match port {
            Self::IN => state.words[0] += 1,
            Self::IN_EPOCH => {
                let slots = state.words[0].min(self.epoch.n_max());
                state.words[0] = 0;
                ctx.schedule_timer(TAG_EMIT, self.epoch.slot_width().scale(slots));
            }
            _ => unreachable!("integrator has two inputs"),
        }
    }
    fn step_burst(
        &self,
        state: &mut CellState,
        port: usize,
        burst: &Burst,
        _ctx: &mut Ctx,
    ) -> BurstStep {
        match port {
            Self::IN => {
                state.words[0] += burst.count();
                BurstStep::Consumed
            }
            // The epoch marker schedules a timer, which the coalesced
            // path cannot express — expand it (markers are single
            // pulses anyway).
            _ => BurstStep::PulseByPulse,
        }
    }
    fn on_timer(&self, _state: &mut CellState, _tag: u64, _now: Time, ctx: &mut Ctx) {
        ctx.emit(Self::OUT, Time::ZERO);
    }
    fn static_meta(&self) -> StaticMeta {
        // Timer-driven: after the epoch marker the RL output fires
        // anywhere from immediately (count 0) to a full epoch later
        // (count N_max), so the static window spans the whole epoch.
        // The counter saturates at N_max data pulses — the capacity the
        // static count analysis (USFQ012) and the runtime sanitizer
        // both check against.
        StaticMeta::custom("integrator", Time::ZERO, self.epoch.duration())
            .with_counting_capacity(self.epoch.n_max())
    }
}

/// The unipolar U-SFQ processing element.
///
/// [`ProcessingElement::mac`] runs the full pulse-level pipeline on one
/// circuit, built on the first call and rerun for every MAC;
/// [`ProcessingElement::mac_functional`] is the exact fast mirror.
#[derive(Debug)]
pub struct ProcessingElement {
    epoch: Epoch,
    rig: Option<Rig<PeIo>>,
}

/// The ids of a processing element's circuit
/// ([`ProcessingElement::circuit`]).
#[derive(Debug, Clone, Copy)]
pub struct PeIo {
    /// Epoch marker (sets the multiplier NDRO).
    pub e: InputId,
    /// RL operand `in1` (resets the multiplier NDRO).
    pub in1: InputId,
    /// Pulse-stream operand `in2` (the NDRO's read port).
    pub in2: InputId,
    /// Pulse-stream operand `in3` (the balancer's second input).
    pub in3: InputId,
    /// Epoch-end marker latching the integrator.
    pub epoch_end: InputId,
    /// The integrator's RL output.
    pub out: ProbeId,
}

impl ProcessingElement {
    /// Creates a PE for the given epoch.
    pub fn new(epoch: Epoch) -> Self {
        ProcessingElement { epoch, rig: None }
    }

    /// The PE's epoch.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// JJ cost — the paper's 126-JJ anchor.
    pub fn jj_count(&self) -> u64 {
        u64::from(catalog::JJ_PE)
    }

    /// Latency of one MAC: the result's RL pulse lands in the *next*
    /// epoch, so two epochs wall-clock; the pipelined issue interval is
    /// one epoch at the balancer slot (t_BFF, the slowest stage).
    pub fn latency(&self) -> Time {
        catalog::t_bff().scale(self.epoch.n_max()).scale(2)
    }

    /// Pipelined issue interval: one epoch at t_BFF per slot.
    pub fn issue_interval(&self) -> Time {
        catalog::t_bff().scale(self.epoch.n_max())
    }

    /// Computes `(in1·in2 + in3) / 2` through the simulated
    /// multiplier → balancer → integrator pipeline. `in1` is the RL
    /// operand, `in2` and `in3` pulse streams; the result is the RL
    /// value observed in the following epoch. The circuit is built on
    /// the first call and rerun by every later one.
    ///
    /// # Errors
    ///
    /// Returns encoding errors for out-of-range operands or a simulation
    /// error.
    pub fn mac(&mut self, in1: f64, in2: f64, in3: f64) -> Result<RlValue, CoreError> {
        let mut rig = match self.rig.take() {
            Some(rig) => rig,
            None => Rig::new(self.circuit()?),
        };
        let out = self.mac_on(&mut rig, in1, in2, in3);
        self.rig = Some(rig);
        out
    }

    /// [`ProcessingElement::mac`] on a rig of
    /// [`ProcessingElement::circuit`].
    ///
    /// # Errors
    ///
    /// Returns encoding errors for out-of-range operands or a simulation
    /// error.
    pub fn mac_on(
        &self,
        rig: &mut Rig<PeIo>,
        in1: f64,
        in2: f64,
        in3: f64,
    ) -> Result<RlValue, CoreError> {
        let rl = RlValue::from_unipolar(in1, self.epoch)?;
        let s2 = PulseStream::from_unipolar(in2, self.epoch)?;
        let s3 = PulseStream::from_unipolar(in3, self.epoch)?;
        // Offset in3 half a slot to interleave at the balancer.
        let half = self.epoch.slot_width() / 2;
        // Latch slightly after the epoch ends so in-flight pulses land.
        let latch = self.epoch.duration() + Time::from_ps(20.0);
        rig.run(|stimulus, io| {
            stimulus.schedule_input(io.e, Time::ZERO)?;
            stimulus.schedule_input(io.in1, rl.pulse_time_from(Time::ZERO))?;
            stimulus.schedule_burst(io.in2, s2.burst_from(Time::ZERO))?;
            stimulus.schedule_burst(io.in3, s3.burst_from(Time::ZERO).delayed(half))?;
            stimulus.schedule_input(io.epoch_end, latch)
        })?;
        let times = rig.sim().probe_times(rig.io().out);
        if times.len() != 1 {
            return Err(CoreError::InvalidConfig(format!(
                "integrator emitted {} pulses, expected 1",
                times.len()
            )));
        }
        Ok(RlValue::from_pulse_time(times[0], latch, self.epoch)?)
    }

    /// The MAC pipeline (paper Fig. 13): multiplier NDRO → balancer
    /// adder → RL integrator.
    ///
    /// # Errors
    ///
    /// Propagates circuit wiring errors.
    pub fn circuit(&self) -> Result<(Circuit, PeIo), CoreError> {
        let mut c = Circuit::new();
        let e = c.input("E");
        let in1 = c.input("in1");
        let in2 = c.input("in2");
        let in3 = c.input("in3");
        let epoch_end = c.input("epoch_end");

        let ndro = c.add(Ndro::new("mult"));
        let bal = c.add(Balancer::new("add"));
        let integ = c.add(StreamToRlIntegrator::new("integ", self.epoch));

        c.connect_input(e, ndro.input(Ndro::IN_S), Time::ZERO)?;
        c.connect_input(in1, ndro.input(Ndro::IN_R), Time::ZERO)?;
        c.connect_input(in2, ndro.input(Ndro::IN_CLK), Time::ZERO)?;
        c.connect(
            ndro.output(Ndro::OUT_Q),
            bal.input(Balancer::IN_A),
            Time::ZERO,
        )?;
        c.connect_input(in3, bal.input(Balancer::IN_B), Time::ZERO)?;
        c.connect(
            bal.output(Balancer::OUT_Y1),
            integ.input(StreamToRlIntegrator::IN),
            Time::ZERO,
        )?;
        c.connect_input(
            epoch_end,
            integ.input(StreamToRlIntegrator::IN_EPOCH),
            Time::ZERO,
        )?;
        let out = c.probe(integ.output(StreamToRlIntegrator::OUT), "out");
        Ok((
            c,
            PeIo {
                e,
                in1,
                in2,
                in3,
                epoch_end,
                out,
            },
        ))
    }

    /// Exact functional mirror of [`ProcessingElement::mac`].
    ///
    /// # Errors
    ///
    /// Returns encoding errors for out-of-range operands.
    pub fn mac_functional(&self, in1: f64, in2: f64, in3: f64) -> Result<RlValue, CoreError> {
        let rl = RlValue::from_unipolar(in1, self.epoch)?;
        let s2 = PulseStream::from_unipolar(in2, self.epoch)?;
        let s3 = PulseStream::from_unipolar(in3, self.epoch)?;
        let product = gated_count(s2.count(), rl.slot(), self.epoch.n_max());
        // Balancer Y1 rounds odd totals up.
        let sum = (product + s3.count()).div_ceil(2);
        Ok(RlValue::from_slot(sum.min(self.epoch.n_max()), self.epoch)?)
    }
}

/// An array of PEs, the fabric of a CGRA / spatial architecture
/// (paper Fig. 13b). Functional: it maps MAC workloads across the grid
/// and reports aggregate area and throughput.
#[derive(Debug, Clone, Copy)]
pub struct PeArray {
    epoch: Epoch,
    rows: usize,
    cols: usize,
}

impl PeArray {
    /// Creates a `rows × cols` array.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if either dimension is zero.
    pub fn new(epoch: Epoch, rows: usize, cols: usize) -> Result<Self, CoreError> {
        if rows == 0 || cols == 0 {
            return Err(CoreError::InvalidConfig(format!(
                "PE array dimensions must be positive, got {rows}×{cols}"
            )));
        }
        Ok(PeArray { epoch, rows, cols })
    }

    /// Number of PEs.
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// True only for the degenerate case `new` rejects; present for API
    /// completeness.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total JJ cost (PEs only; routing fabric excluded as in the paper).
    pub fn area_jj(&self) -> u64 {
        self.len() as u64 * u64::from(catalog::JJ_PE)
    }

    /// Aggregate MAC throughput in operations per second: every PE
    /// completes one MAC per issue interval.
    pub fn throughput_ops(&self) -> f64 {
        let interval = ProcessingElement::new(self.epoch).issue_interval();
        self.len() as f64 / interval.as_secs()
    }

    /// Valid (no-padding) 2-D convolution of `input` with `kernel`,
    /// computed MAC-by-MAC on functional PEs round-robined across the
    /// array. Inputs and kernel must be unipolar.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the kernel is larger than
    /// the input, or encoding errors for out-of-range values.
    pub fn convolve2d(
        &self,
        input: &[Vec<f64>],
        kernel: &[Vec<f64>],
    ) -> Result<Vec<Vec<f64>>, CoreError> {
        let (ih, iw) = (input.len(), input.first().map_or(0, Vec::len));
        let (kh, kw) = (kernel.len(), kernel.first().map_or(0, Vec::len));
        if kh == 0 || kw == 0 || kh > ih || kw > iw {
            return Err(CoreError::InvalidConfig(format!(
                "kernel {kh}×{kw} does not fit input {ih}×{iw}"
            )));
        }
        let pe = ProcessingElement::new(self.epoch);
        let norm = (kh * kw) as f64;
        let mut out = vec![vec![0.0; iw - kw + 1]; ih - kh + 1];
        for (oy, row) in out.iter_mut().enumerate() {
            for (ox, cell) in row.iter_mut().enumerate() {
                // Accumulate through the PE chain: acc ← (x·k + acc)/2
                // is rescaled afterwards; to keep unary semantics simple
                // we average the per-element products, as the counting
                // DPU does.
                let mut total = 0.0;
                for ky in 0..kh {
                    for kx in 0..kw {
                        let prod = pe
                            .mac_functional(kernel[ky][kx], input[oy + ky][ox + kx], 0.0)?
                            .value()
                            * 2.0; // undo the balancer halving
                        total += prod;
                    }
                }
                *cell = total / norm;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usfq_sim::check::for_all;

    fn epoch(bits: u32) -> Epoch {
        Epoch::with_slot(bits, catalog::t_bff()).unwrap()
    }

    #[test]
    fn pe_area_is_paper_anchor() {
        let pe = ProcessingElement::new(epoch(8));
        assert_eq!(pe.jj_count(), 126);
    }

    #[test]
    fn pe_mac_structural_basic() {
        let mut pe = ProcessingElement::new(epoch(5));
        // (0.5 · 0.5 + 0.25) / 2 = 0.25.
        let out = pe.mac(0.5, 0.5, 0.25).unwrap();
        assert!(
            (out.value() - 0.25).abs() <= 2.0 * pe.epoch().lsb(),
            "{}",
            out.value()
        );
    }

    #[test]
    fn pe_structural_matches_functional() {
        let mut pe = ProcessingElement::new(epoch(5));
        for (a, b, c) in [
            (0.0, 0.0, 0.0),
            (1.0, 1.0, 1.0),
            (0.5, 0.75, 0.25),
            (0.25, 0.125, 0.875),
        ] {
            let s = pe.mac(a, b, c).unwrap();
            let f = pe.mac_functional(a, b, c).unwrap();
            assert!(
                (s.slot() as i64 - f.slot() as i64).abs() <= 1,
                "a={a} b={b} c={c}: structural {} functional {}",
                s.slot(),
                f.slot()
            );
        }
    }

    #[test]
    fn pe_latency_formula() {
        let pe = ProcessingElement::new(epoch(8));
        assert_eq!(pe.issue_interval(), Time::from_ns(3.072));
        assert_eq!(pe.latency(), Time::from_ns(6.144));
    }

    #[test]
    fn pe_addition_mode() {
        // Setting in1 = 1 turns the PE into an adder (paper §5.2).
        let pe = ProcessingElement::new(epoch(6));
        let out = pe.mac_functional(1.0, 0.5, 0.25).unwrap();
        assert!((out.value() - 0.375).abs() <= pe.epoch().lsb());
    }

    #[test]
    fn array_geometry_and_area() {
        let arr = PeArray::new(epoch(8), 4, 8).unwrap();
        assert_eq!(arr.len(), 32);
        assert!(!arr.is_empty());
        assert_eq!(arr.area_jj(), 32 * 126);
        assert!(PeArray::new(epoch(8), 0, 3).is_err());
    }

    #[test]
    fn array_throughput_scales() {
        let small = PeArray::new(epoch(8), 1, 1).unwrap();
        let big = PeArray::new(epoch(8), 4, 4).unwrap();
        let ratio = big.throughput_ops() / small.throughput_ops();
        assert!((ratio - 16.0).abs() < 1e-9);
    }

    #[test]
    fn convolution_identity_kernel() {
        let arr = PeArray::new(epoch(8), 2, 2).unwrap();
        let input = vec![
            vec![0.1, 0.2, 0.3],
            vec![0.4, 0.5, 0.6],
            vec![0.7, 0.8, 0.9],
        ];
        let kernel = vec![vec![1.0]];
        let out = arr.convolve2d(&input, &kernel).unwrap();
        for (y, row) in out.iter().enumerate() {
            for (x, &v) in row.iter().enumerate() {
                assert!((v - input[y][x]).abs() <= 2.0 / 256.0, "({y},{x})");
            }
        }
    }

    #[test]
    fn convolution_box_blur() {
        let arr = PeArray::new(epoch(8), 2, 2).unwrap();
        let input = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let kernel = vec![vec![1.0, 1.0], vec![1.0, 1.0]];
        let out = arr.convolve2d(&input, &kernel).unwrap();
        assert_eq!(out.len(), 1);
        assert!((out[0][0] - 0.5).abs() <= 4.0 / 256.0);
    }

    #[test]
    fn convolution_rejects_oversized_kernel() {
        let arr = PeArray::new(epoch(6), 1, 1).unwrap();
        let input = vec![vec![0.5]];
        let kernel = vec![vec![0.5, 0.5]];
        assert!(arr.convolve2d(&input, &kernel).is_err());
    }

    /// Functional MAC approximates (a·b + c)/2 within 1.5 LSB.
    #[test]
    fn mac_accuracy() {
        for_all(256, |rng| {
            let [a, b, c] = [(); 3].map(|()| rng.gen_range(0.0..=1.0));
            let pe = ProcessingElement::new(epoch(7));
            let out = pe.mac_functional(a, b, c).unwrap();
            let want = (a * b + c) / 2.0;
            assert!(
                (out.value() - want).abs() <= 1.5 * pe.epoch().lsb() + 1e-12,
                "a={a} b={b} c={c}: got {}",
                out.value()
            );
        });
    }
}
