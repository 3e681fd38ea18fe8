//! A fully structural (pulse-level) U-SFQ FIR datapath for small
//! configurations — every output sample is computed by simulating the
//! complete paper Fig. 17 pipeline:
//!
//! * coefficient streams regenerated each epoch by simulated
//!   [`PulseNumberMultiplier`] TFF2/NDRO chains (the memory bank),
//! * one bipolar multiplier circuit per tap, gated by the RL-encoded
//!   delayed samples,
//! * a balancer counting tree accumulating the tap products.
//!
//! The inter-epoch sample delay (the RL shift register) is sequenced by
//! a [`RlShiftRegister`]; its integrator memory cell is validated
//! structurally in `blocks::shift`. This keeps the per-sample circuits
//! acyclic so each epoch is a set of self-contained simulations.
//!
//! Like the physical wave-pipelined datapath, which takes a new sample
//! every epoch, the filter builds its circuits once, on the first
//! sample, as [`Rig`]s: one PNM per tap (the tap's word is fixed at
//! construction), one bipolar multiplier the taps share, and one `L:1`
//! counting tree. Every later sample reruns them, so each sample still
//! simulates every PNM, every multiplication and the tree, but pays no
//! circuit build.

use usfq_encoding::{Epoch, PulseStream, RlValue};
use usfq_sim::CoalesceStats;

use crate::blocks::{
    BipolarIo, BipolarMultiplier, CountingIo, CountingNetwork, MemoryBank, PnmIo,
    PulseNumberMultiplier, RlShiftRegister,
};
use crate::error::CoreError;
use crate::rig::Rig;

/// A pulse-level U-SFQ FIR filter.
#[derive(Debug)]
pub struct StructuralFir {
    epoch: Epoch,
    bank: MemoryBank,
    shift: RlShiftRegister,
    net: CountingNetwork,
    gain: f64,
    rigs: Option<FirRigs>,
}

/// The datapath's circuits, built on the first sample.
#[derive(Debug)]
struct FirRigs {
    /// One PNM per tap, programmed with the tap's coefficient word.
    pnms: Vec<Rig<PnmIo>>,
    /// The bipolar multiplier every tap's product runs through.
    mult: Rig<BipolarIo>,
    /// The `L:1` counting tree.
    tree: Rig<CountingIo>,
}

impl StructuralFir {
    /// Builds the filter at `bits` resolution. Coefficients are
    /// normalised to `[−1, 1]`; the gain is re-applied on output.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an empty coefficient
    /// set or an unsupported resolution.
    pub fn new(coeffs: &[f64], bits: u32) -> Result<Self, CoreError> {
        if coeffs.is_empty() {
            return Err(CoreError::InvalidConfig(
                "FIR needs at least one coefficient".into(),
            ));
        }
        let slot = usfq_cells::catalog::t_tff2().scale(u64::from(bits));
        let epoch = Epoch::with_slot(bits, slot)?;
        let max_abs = coeffs
            .iter()
            .fold(0.0f64, |m, &c| m.max(c.abs()))
            .max(f64::MIN_POSITIVE);
        let normalised: Vec<f64> = coeffs.iter().map(|&c| c / max_abs).collect();
        let bank = MemoryBank::from_bipolar(&normalised, epoch)?;
        Ok(StructuralFir {
            epoch,
            bank,
            shift: RlShiftRegister::new(epoch, coeffs.len()),
            net: CountingNetwork::new(epoch, coeffs.len().next_power_of_two().max(2))?,
            gain: max_abs,
            rigs: None,
        })
    }

    /// The filter's epoch.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Number of taps.
    pub fn taps(&self) -> usize {
        self.bank.len()
    }

    /// Filters one sample through the simulated datapath.
    ///
    /// # Errors
    ///
    /// Returns an encoding error if `x` is outside `[−1, 1]`, or a
    /// simulation error from any stage.
    pub fn push(&mut self, x: f64) -> Result<f64, CoreError> {
        let rl = RlValue::from_bipolar(x, self.epoch)?;
        self.shift.shift(Some(rl));
        let mut rigs = match self.rigs.take() {
            Some(rigs) => rigs,
            None => self.build_rigs()?,
        };
        let out = self.simulate_sample(&mut rigs);
        self.rigs = Some(rigs);
        out
    }

    fn build_rigs(&self) -> Result<FirRigs, CoreError> {
        let pnm = PulseNumberMultiplier::new(self.epoch);
        let pnms = (0..self.taps())
            .map(|k| Ok(Rig::new(pnm.circuit(self.bank.word(k))?)))
            .collect::<Result<_, CoreError>>()?;
        Ok(FirRigs {
            pnms,
            mult: Rig::new(BipolarMultiplier::new(self.epoch).circuit()?),
            tree: Rig::new(self.net.circuit()?),
        })
    }

    fn simulate_sample(&self, rigs: &mut FirRigs) -> Result<f64, CoreError> {
        let n_max = self.epoch.n_max();
        let zero = RlValue::from_slot(n_max / 2, self.epoch)?;
        let pnm = PulseNumberMultiplier::new(self.epoch);
        let mult = BipolarMultiplier::new(self.epoch);
        let lanes = self.net.width();

        // Regenerate each coefficient stream through the simulated PNM
        // and multiply it against the tap's delayed RL sample through
        // the simulated two-NDRO circuit.
        let mut products = Vec::with_capacity(lanes);
        for (k, pnm_rig) in rigs.pnms.iter_mut().enumerate() {
            let coeff_stream = pnm.generate_on(pnm_rig)?;
            let sample = self.shift.tap(k).unwrap_or(zero);
            products.push(mult.multiply_on(&mut rigs.mult, coeff_stream, sample)?);
        }
        // Pad to the counting tree's width with bipolar-zero streams.
        for _ in self.taps()..lanes {
            products.push(PulseStream::from_count(n_max / 2, self.epoch)?);
        }
        let top = self.net.accumulate_on(&mut rigs.tree, &products)?;
        Ok(top.value_bipolar() * lanes as f64 * self.gain)
    }

    /// The burst-coalescing counters of every sample simulated so far,
    /// summed over the datapath's rigs.
    pub fn coalesce(&self) -> CoalesceStats {
        let mut total = CoalesceStats::default();
        if let Some(rigs) = &self.rigs {
            for rig in &rigs.pnms {
                total.merge(&rig.coalesce());
            }
            total.merge(&rigs.mult.coalesce());
            total.merge(&rigs.tree.coalesce());
        }
        total
    }

    /// Filters a whole signal, resetting the delay line first.
    ///
    /// # Errors
    ///
    /// As [`StructuralFir::push`].
    pub fn filter(&mut self, input: &[f64]) -> Result<Vec<f64>, CoreError> {
        self.shift.clear();
        input.iter().map(|&x| self.push(x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::{fir_reference, UsfqFir};

    #[test]
    fn construction_validates() {
        assert!(StructuralFir::new(&[], 5).is_err());
        let f = StructuralFir::new(&[0.5, 0.25], 5).unwrap();
        assert_eq!(f.taps(), 2);
        assert_eq!(f.epoch().bits(), 5);
    }

    /// The full pulse-level datapath tracks the double-precision
    /// reference within unary quantization.
    #[test]
    fn tracks_reference() {
        let coeffs = [0.5, 0.3, 0.2];
        let input: Vec<f64> = (0..24).map(|i| (i as f64 * 0.4).sin() * 0.8).collect();
        let mut fir = StructuralFir::new(&coeffs, 6).unwrap();
        let got = fir.filter(&input).unwrap();
        let want = fir_reference(&coeffs, &input);
        // 4 lanes × one pulse worth of rounding per stage at 6 bits.
        let tol = 4.0 * 2.0 / 64.0 * 0.5 * 3.0;
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!((g - w).abs() <= tol, "sample {i}: {g} vs {w}");
        }
    }

    /// The structural datapath and the functional [`UsfqFir`] agree.
    #[test]
    fn matches_functional_model() {
        let coeffs = [0.4, -0.6, 0.2, 0.8];
        let input: Vec<f64> = (0..16).map(|i| (i as f64 * 0.7).cos() * 0.9).collect();
        let mut structural = StructuralFir::new(&coeffs, 5).unwrap();
        let mut functional = UsfqFir::new(&coeffs, 5).unwrap();
        let s = structural.filter(&input).unwrap();
        let f = functional.filter(&input).unwrap();
        // Both quantize identically up to the counting tree's balancer
        // bias (one pulse per stage, scaled to values).
        let tol = 4.0 * 2.0 / 32.0 * 0.8 * 2.0;
        for (i, (a, b)) in s.iter().zip(&f).enumerate() {
            assert!(
                (a - b).abs() <= tol,
                "sample {i}: structural {a}, functional {b}"
            );
        }
    }

    /// Negative coefficients and inputs work through the bipolar path.
    #[test]
    fn bipolar_path() {
        let coeffs = [-1.0];
        let input = [0.75, -0.5, 0.0];
        let mut fir = StructuralFir::new(&coeffs, 6).unwrap();
        let out = fir.filter(&input).unwrap();
        for (y, x) in out.iter().zip(&input) {
            assert!((y + x).abs() <= 0.1, "negating filter: {y} vs {x}");
        }
    }
}
