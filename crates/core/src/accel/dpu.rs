//! The U-SFQ dot-product unit (paper §5.3, Fig. 15).
//!
//! `L` bipolar multipliers operate in parallel — affordable precisely
//! because each is ~46 JJs — and an `L:1` counting network accumulates
//! their product streams, so the top output encodes
//! `(a₀b₀ + a₁b₁ + … ) / L`.

use usfq_encoding::{Epoch, PulseStream, RlValue};
use usfq_sim::{Burst, Circuit, InputId, ProbeId, Time};

use crate::blocks::{BipolarMultiplier, BipolarMultiplierPorts, CountingNetwork};
use crate::error::CoreError;
use crate::rig::Rig;

/// An `L`-lane bipolar dot-product unit.
#[derive(Debug)]
pub struct DotProductUnit {
    epoch: Epoch,
    lanes: usize,
    rig: Option<Rig<DpuIo>>,
}

/// The ids of the monolithic DPU circuit ([`DotProductUnit::circuit`]).
#[derive(Debug, Clone)]
pub struct DpuIo {
    /// Epoch marker shared by every lane.
    pub e: InputId,
    /// Slot clock shared by every lane's inverter.
    pub clk: InputId,
    /// Per lane, the pulse-stream operand.
    pub a: Vec<InputId>,
    /// Per lane, the race-logic operand.
    pub b: Vec<InputId>,
    /// The counting tree's root.
    pub top: ProbeId,
}

impl DotProductUnit {
    /// Creates a DPU with `lanes` parallel multipliers (a power of two,
    /// matching the counting network).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] unless `lanes` is a power of
    /// two and at least 2.
    pub fn new(epoch: Epoch, lanes: usize) -> Result<Self, CoreError> {
        // Constructing the network validates the width.
        CountingNetwork::new(epoch, lanes)?;
        Ok(DotProductUnit {
            epoch,
            lanes,
            rig: None,
        })
    }

    /// The DPU's epoch.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Number of multiplier lanes L.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Computes the dot product `a · b` of bipolar vectors through the
    /// full pulse-level pipeline (lane multipliers + counting network).
    /// The result is the true dot product — the network's `1/L` scaling
    /// is undone before returning.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the vectors don't match
    /// the lane count, encoding errors for out-of-range elements, or a
    /// simulation error.
    pub fn dot(&self, a: &[f64], b: &[f64]) -> Result<f64, CoreError> {
        self.check_lengths(a, b)?;
        let mult = BipolarMultiplier::new(self.epoch);
        let products = a
            .iter()
            .zip(b)
            .map(|(&ai, &bi)| {
                // RL operand on the a side, stream on the b side.
                mult.multiply(bi, ai)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let net = CountingNetwork::new(self.epoch, self.lanes)?;
        let top = net.accumulate(&products)?;
        Ok(self.decode(top))
    }

    /// Functional mirror of [`DotProductUnit::dot`]: exact unary
    /// semantics without event simulation. Used for the paper's
    /// parameter sweeps.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] on a length mismatch or
    /// encoding errors for out-of-range elements.
    pub fn dot_functional(&self, a: &[f64], b: &[f64]) -> Result<f64, CoreError> {
        self.check_lengths(a, b)?;
        let mult = BipolarMultiplier::new(self.epoch);
        let products = a
            .iter()
            .zip(b)
            .map(|(&ai, &bi)| {
                let stream = PulseStream::from_bipolar(ai, self.epoch)?;
                let gate = RlValue::from_bipolar(bi, self.epoch)?;
                Ok(mult.multiply_counts(stream, gate)?)
            })
            .collect::<Result<Vec<_>, CoreError>>()?;
        let net = CountingNetwork::new(self.epoch, self.lanes)?;
        let top = net.accumulate_functional(&products)?;
        Ok(self.decode(top))
    }

    /// Computes the dot product in **one monolithic circuit** — all `L`
    /// gate-level bipolar multipliers and the balancer counting tree
    /// instantiated together, sharing one epoch marker and one slot
    /// clock, exactly as the paper's Fig. 15 draws it. One simulation,
    /// one answer. The circuit is built on the first call and rerun by
    /// every later one.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] on a length mismatch,
    /// encoding errors for out-of-range elements, or a simulation error.
    pub fn dot_monolithic(&mut self, a: &[f64], b: &[f64]) -> Result<f64, CoreError> {
        let mut rig = match self.rig.take() {
            Some(rig) => rig,
            None => Rig::new(self.circuit()?),
        };
        let out = self.dot_on(&mut rig, a, b);
        self.rig = Some(rig);
        out
    }

    /// [`DotProductUnit::dot_monolithic`] on a rig of
    /// [`DotProductUnit::circuit`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] on a length mismatch,
    /// encoding errors for out-of-range elements, or a simulation error.
    pub fn dot_on(&self, rig: &mut Rig<DpuIo>, a: &[f64], b: &[f64]) -> Result<f64, CoreError> {
        self.check_lengths(a, b)?;
        let gates = b
            .iter()
            .map(|&bi| Ok(RlValue::from_bipolar(bi, self.epoch)?.pulse_time_from(Time::ZERO)))
            .collect::<Result<Vec<_>, CoreError>>()?;
        let streams = a
            .iter()
            .map(|&ai| Ok(PulseStream::from_bipolar(ai, self.epoch)?.burst_on_grid(Time::ZERO)))
            .collect::<Result<Vec<_>, CoreError>>()?;
        let slot = self.epoch.slot_width();
        let clock = Burst::uniform(slot / 2, slot, self.epoch.n_max());
        rig.run(|stimulus, io| {
            stimulus.schedule_input(io.e, Time::ZERO)?;
            // RL gates first, so exact ties favour the reset (see
            // `BipolarMultiplier::multiply_on`).
            for (&input, &at) in io.b.iter().zip(&gates) {
                stimulus.schedule_input(input, at)?;
            }
            stimulus.schedule_burst(io.clk, clock)?;
            for (&input, &stream) in io.a.iter().zip(&streams) {
                stimulus.schedule_burst(input, stream)?;
            }
            Ok(())
        })?;
        let count = (rig.sim().probe_count(rig.io().top) as u64).min(self.epoch.n_max());
        Ok(self.decode(PulseStream::from_count(count, self.epoch)?))
    }

    /// The monolithic circuit (paper Fig. 15): one gate-level bipolar
    /// multiplier per lane, all driven by the shared `E` and `slot_clk`
    /// inputs, feeding the `L:1` balancer counting tree.
    ///
    /// # Errors
    ///
    /// Propagates circuit wiring errors.
    pub fn circuit(&self) -> Result<(Circuit, DpuIo), CoreError> {
        let mut c = Circuit::new();
        let e = c.input("E");
        let clk = c.input("slot_clk");
        let mut a = Vec::with_capacity(self.lanes);
        let mut b = Vec::with_capacity(self.lanes);
        let mut lane_outs = Vec::with_capacity(self.lanes);
        for i in 0..self.lanes {
            let ports = BipolarMultiplierPorts::build(&mut c, &format!("m{i}"), self.epoch)?;
            let sa = c.input(format!("a{i}"));
            let sb = c.input(format!("b{i}"));
            c.connect_input(sa, ports.in_a, Time::ZERO)?;
            c.connect_input(sb, ports.in_b, Time::ZERO)?;
            c.connect_input(e, ports.in_e, Time::ZERO)?;
            c.connect_input(clk, ports.in_clk, Time::ZERO)?;
            a.push(sa);
            b.push(sb);
            lane_outs.push(ports.out);
        }
        let top = CountingNetwork::build_tree(&mut c, lane_outs, "bal")?;
        let top = c.probe(top, "top");
        Ok((c, DpuIo { e, clk, a, b, top }))
    }

    /// Weight-stationary dot product: the weights live in a
    /// [`MemoryBank`](crate::blocks::MemoryBank) (one NDRO word per
    /// lane, regenerated as a stream each epoch — the deployment the
    /// paper's §4.3 memory serves) and only the activation vector `x`
    /// arrives per epoch, in RL form.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the bank or `x` don't
    /// match the lane count or epochs disagree; encoding errors for
    /// out-of-range activations.
    pub fn dot_stored(
        &self,
        weights: &crate::blocks::MemoryBank,
        x: &[f64],
    ) -> Result<f64, CoreError> {
        if weights.len() != self.lanes || x.len() != self.lanes {
            return Err(CoreError::InvalidConfig(format!(
                "expected {} weights and activations, got {} and {}",
                self.lanes,
                weights.len(),
                x.len()
            )));
        }
        if weights.epoch() != self.epoch {
            return Err(CoreError::InvalidConfig(
                "weight bank epoch differs from the DPU's".into(),
            ));
        }
        let mult = BipolarMultiplier::new(self.epoch);
        let products = x
            .iter()
            .enumerate()
            .map(|(i, &xi)| {
                let gate = RlValue::from_bipolar(xi, self.epoch)?;
                Ok(mult.multiply_counts(weights.stream(i), gate)?)
            })
            .collect::<Result<Vec<_>, CoreError>>()?;
        let net = CountingNetwork::new(self.epoch, self.lanes)?;
        let top = net.accumulate_functional(&products)?;
        Ok(self.decode(top))
    }

    fn check_lengths(&self, a: &[f64], b: &[f64]) -> Result<(), CoreError> {
        if a.len() != self.lanes || b.len() != self.lanes {
            return Err(CoreError::InvalidConfig(format!(
                "expected two vectors of length {}, got {} and {}",
                self.lanes,
                a.len(),
                b.len()
            )));
        }
        Ok(())
    }

    /// Decodes the network's top output: bipolar value × L undoes the
    /// counting network's averaging.
    fn decode(&self, top: PulseStream) -> f64 {
        top.value_bipolar() * self.lanes as f64
    }

    /// Matrix–vector product: each row of `matrix` is one dot product
    /// through the unit (time-multiplexed, as a single physical DPU
    /// would be).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if any row or `x` doesn't
    /// match the lane count, or encoding errors for out-of-range
    /// elements.
    pub fn matvec(&self, matrix: &[Vec<f64>], x: &[f64]) -> Result<Vec<f64>, CoreError> {
        matrix
            .iter()
            .map(|row| self.dot_functional(row, x))
            .collect()
    }

    /// Worst-case quantization error of the unit: each lane contributes
    /// up to ~2 bipolar LSBs and the network ±1 pulse scaled by L.
    pub fn error_bound(&self) -> f64 {
        let lsb = 2.0 * self.epoch.lsb();
        self.lanes as f64 * 2.5 * lsb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usfq_sim::check::for_all;

    fn epoch(bits: u32) -> Epoch {
        Epoch::with_slot(bits, usfq_cells::catalog::t_bff()).unwrap()
    }

    #[test]
    fn rejects_bad_lane_counts() {
        let e = epoch(6);
        assert!(DotProductUnit::new(e, 0).is_err());
        assert!(DotProductUnit::new(e, 3).is_err());
        let dpu = DotProductUnit::new(e, 4).unwrap();
        assert_eq!(dpu.lanes(), 4);
        assert_eq!(dpu.epoch(), e);
    }

    #[test]
    fn rejects_length_mismatch() {
        let dpu = DotProductUnit::new(epoch(6), 4).unwrap();
        assert!(dpu.dot_functional(&[0.1, 0.2], &[0.3, 0.4]).is_err());
        assert!(dpu.dot_functional(&[0.1; 4], &[0.3; 2]).is_err());
    }

    #[test]
    fn orthogonal_vectors_dot_to_zero() {
        let dpu = DotProductUnit::new(epoch(8), 4).unwrap();
        let a = [1.0, 0.0, -1.0, 0.0];
        let b = [0.0, 1.0, 0.0, -1.0];
        let got = dpu.dot_functional(&a, &b).unwrap();
        assert!(got.abs() <= dpu.error_bound(), "got {got}");
    }

    #[test]
    fn unit_vectors() {
        let dpu = DotProductUnit::new(epoch(8), 4).unwrap();
        let a = [1.0, 1.0, 1.0, 1.0];
        let got = dpu.dot_functional(&a, &a).unwrap();
        assert!((got - 4.0).abs() <= dpu.error_bound(), "got {got}");
    }

    #[test]
    fn monolithic_circuit_matches_functional() {
        let mut dpu = DotProductUnit::new(epoch(5), 4).unwrap();
        let a = [0.5, -0.25, 0.75, -1.0];
        let b = [0.25, 0.5, -0.5, 0.125];
        let mono = dpu.dot_monolithic(&a, &b).unwrap();
        let func = dpu.dot_functional(&a, &b).unwrap();
        // Per-stage balancer rounding in the live tree vs the exact
        // pairwise-ceil mirror: allow the tree depth in pulses.
        let pulse = dpu.lanes() as f64 * 2.0 * dpu.epoch().lsb();
        assert!(
            (mono - func).abs() <= 2.0 * pulse,
            "mono {mono}, functional {func}"
        );
        let want: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!(
            (mono - want).abs() <= dpu.error_bound(),
            "mono {mono}, want {want}"
        );
    }

    #[test]
    fn matvec_matches_reference() {
        let dpu = DotProductUnit::new(epoch(9), 4).unwrap();
        let m = vec![
            vec![0.5, -0.5, 0.25, 0.0],
            vec![1.0, 1.0, -1.0, -1.0],
            vec![0.0, 0.125, 0.0, -0.75],
        ];
        let x = [0.5, 0.25, -0.5, 1.0];
        let got = dpu.matvec(&m, &x).unwrap();
        for (row, g) in m.iter().zip(&got) {
            let want: f64 = row.iter().zip(&x).map(|(a, b)| a * b).sum();
            assert!((g - want).abs() <= dpu.error_bound(), "{g} vs {want}");
        }
        // Bad row length propagates the error.
        assert!(dpu.matvec(&[vec![0.0; 3]], &x).is_err());
    }

    #[test]
    fn stored_weights_match_direct_dot() {
        use crate::blocks::MemoryBank;
        let e = epoch(8);
        let dpu = DotProductUnit::new(e, 4).unwrap();
        let w = [0.5, -0.25, 0.75, -1.0];
        let x = [0.25, 0.5, -0.5, 0.125];
        let bank = MemoryBank::from_bipolar(&w, e).unwrap();
        let stored = dpu.dot_stored(&bank, &x).unwrap();
        let direct = dpu.dot_functional(&x, &w).unwrap();
        // The bank clamps the all-ones word, so allow one extra pulse.
        let pulse = 4.0 * 2.0 * e.lsb();
        assert!(
            (stored - direct).abs() <= 2.0 * pulse,
            "{stored} vs {direct}"
        );
        let want: f64 = w.iter().zip(&x).map(|(a, b)| a * b).sum();
        assert!(
            (stored - want).abs() <= dpu.error_bound(),
            "{stored} vs {want}"
        );
    }

    #[test]
    fn stored_weights_validation() {
        use crate::blocks::MemoryBank;
        let e = epoch(6);
        let dpu = DotProductUnit::new(e, 4).unwrap();
        let bank = MemoryBank::from_bipolar(&[0.1, 0.2], e).unwrap();
        assert!(dpu.dot_stored(&bank, &[0.0; 4]).is_err());
        let other = Epoch::with_slot(7, usfq_cells::catalog::t_bff()).unwrap();
        let bank = MemoryBank::from_bipolar(&[0.1; 4], other).unwrap();
        assert!(dpu.dot_stored(&bank, &[0.0; 4]).is_err());
    }

    #[test]
    fn structural_matches_functional_small() {
        let dpu = DotProductUnit::new(epoch(5), 4).unwrap();
        let a = [0.5, -0.25, 0.75, -1.0];
        let b = [0.25, 0.5, -0.5, 0.125];
        let s = dpu.dot(&a, &b).unwrap();
        let f = dpu.dot_functional(&a, &b).unwrap();
        // One network pulse is worth L·2/N_max in bipolar value.
        let pulse = dpu.lanes() as f64 * 2.0 * dpu.epoch().lsb();
        assert!(
            (s - f).abs() <= 1.5 * pulse,
            "structural {s}, functional {f}"
        );
    }

    /// Functional dot product tracks the real dot product within the
    /// documented quantization bound.
    #[test]
    fn dot_accuracy() {
        for_all(256, |rng| {
            let (a, b) = (rng.vec(-1.0..=1.0, 8), rng.vec(-1.0..=1.0, 8));
            let dpu = DotProductUnit::new(epoch(9), 8).unwrap();
            let got = dpu.dot_functional(&a, &b).unwrap();
            let want: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!(
                (got - want).abs() <= dpu.error_bound(),
                "got {got}, want {want}, bound {}",
                dpu.error_bound()
            );
        });
    }
}
