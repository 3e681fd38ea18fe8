//! Switching-activity power model.
//!
//! RSFQ power splits into (paper §2.1.2 and §5.4.5):
//!
//! * **Active** power — each pulse that traverses a cell switches a handful
//!   of junctions; every 2π phase slip of a junction with critical current
//!   `I_c` dissipates ≈ `I_c · Φ0`. We charge each *handled* pulse with the
//!   cell's [`switching_jjs`](crate::Component::switching_jjs) × one
//!   flux-quantum switching energy.
//! * **Passive** (static) power — the resistive bias network draws constant
//!   current. It is proportional to the JJ count and dominates in plain
//!   RSFQ; ERSFQ/eSFQ eliminate it for ~1.4× area (the paper quotes the
//!   same trade-off).
//!
//! Constants are calibrated so the model reproduces the paper's measured
//! anchors (see `EXPERIMENTS.md`): bipolar multiplier 68–135 nW active,
//! balancer ≈ 0.17 µW, 32-tap DPU 8.45 µW active / 4.8 mW passive, PE
//! 262 µW passive.

use crate::circuit::Circuit;
use crate::stats::ActivityReport;
use crate::time::Time;

/// Magnetic flux quantum, Φ0 = h / 2e, in webers.
pub const FLUX_QUANTUM_WB: f64 = 2.067_833_848e-15;

/// Default junction critical current for the MIT-LL SFQ5ee 10 kA/cm²
/// process assumed by the paper, in amperes.
pub const DEFAULT_IC_A: f64 = 1.0e-4;

/// Default per-JJ static bias power in watts.
///
/// Back-computed from the paper's anchors: a 126-JJ PE draws 262 µW
/// (≈ 2.1 µW/JJ) and a ≈ 3 kJJ 32-tap DPU draws 4.8 mW (≈ 1.6 µW/JJ).
pub const DEFAULT_BIAS_W_PER_JJ: f64 = 1.8e-6;

/// Energy and bias parameters for power evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Energy dissipated per switching junction per pulse, joules.
    pub switch_energy_j: f64,
    /// Static bias power per junction, watts (zero models ERSFQ/eSFQ).
    pub bias_w_per_jj: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel {
            switch_energy_j: FLUX_QUANTUM_WB * DEFAULT_IC_A,
            bias_w_per_jj: DEFAULT_BIAS_W_PER_JJ,
        }
    }
}

impl PowerModel {
    /// An RSFQ model with resistive biasing (the paper's default).
    pub fn rsfq() -> Self {
        Self::default()
    }

    /// An ERSFQ/eSFQ model: no static bias power, 1.4× area overhead is
    /// accounted separately by the caller (paper §5.4.5).
    pub fn ersfq() -> Self {
        PowerModel {
            bias_w_per_jj: 0.0,
            ..Self::default()
        }
    }

    /// Total active energy, in joules, of a run described by `activity`
    /// over `circuit`.
    pub fn active_energy_j(&self, circuit: &Circuit, activity: &ActivityReport) -> f64 {
        circuit
            .topo
            .models
            .iter()
            .zip(&activity.handled)
            .map(|(model, &n)| n as f64 * model.switching_jjs() * self.switch_energy_j)
            .sum()
    }

    /// Average active power over a window of duration `window`, watts.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn active_power_w(
        &self,
        circuit: &Circuit,
        activity: &ActivityReport,
        window: Time,
    ) -> f64 {
        assert!(window > Time::ZERO, "power window must be positive");
        self.active_energy_j(circuit, activity) / window.as_secs()
    }

    /// Static bias power of the circuit, watts.
    pub fn passive_power_w(&self, circuit: &Circuit) -> f64 {
        circuit.total_jj() as f64 * self.bias_w_per_jj
    }

    /// Active + passive power, watts.
    pub fn total_power_w(&self, circuit: &Circuit, activity: &ActivityReport, window: Time) -> f64 {
        self.active_power_w(circuit, activity, window) + self.passive_power_w(circuit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::component::Buffer;

    fn circuit_with_two_buffers() -> Circuit {
        let mut c = Circuit::new();
        // 8 JJs each → switching_jjs = 2.
        c.add(Buffer::with_jj_count("a", Time::from_ps(1.0), 8));
        c.add(Buffer::with_jj_count("b", Time::from_ps(1.0), 8));
        c
    }

    #[test]
    fn active_energy_scales_with_activity() {
        let c = circuit_with_two_buffers();
        let mut act = ActivityReport::with_components(2);
        act.handled[0] = 10;
        act.handled[1] = 0;
        let m = PowerModel::default();
        let e = m.active_energy_j(&c, &act);
        let expected = 10.0 * 2.0 * FLUX_QUANTUM_WB * DEFAULT_IC_A;
        assert!((e - expected).abs() < expected * 1e-12);
    }

    #[test]
    fn active_power_divides_by_window() {
        let c = circuit_with_two_buffers();
        let mut act = ActivityReport::with_components(2);
        act.handled[0] = 1000;
        let m = PowerModel::default();
        let p = m.active_power_w(&c, &act, Time::from_ns(1.0));
        // 1000 pulses × 2 JJ × 2.07e-19 J over 1 ns ≈ 0.41 µW.
        assert!(p > 0.3e-6 && p < 0.6e-6, "got {p}");
    }

    #[test]
    fn passive_power_proportional_to_jj() {
        let c = circuit_with_two_buffers();
        let m = PowerModel::default();
        assert!((m.passive_power_w(&c) - 16.0 * DEFAULT_BIAS_W_PER_JJ).abs() < 1e-18);
        assert_eq!(PowerModel::ersfq().passive_power_w(&c), 0.0);
    }

    #[test]
    fn total_is_sum() {
        let c = circuit_with_two_buffers();
        let mut act = ActivityReport::with_components(2);
        act.handled[0] = 5;
        let m = PowerModel::rsfq();
        let w = Time::from_ns(2.0);
        let total = m.total_power_w(&c, &act, w);
        let parts = m.active_power_w(&c, &act, w) + m.passive_power_w(&c);
        assert!((total - parts).abs() < 1e-18);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        let c = circuit_with_two_buffers();
        let act = ActivityReport::with_components(2);
        PowerModel::default().active_power_w(&c, &act, Time::ZERO);
    }
}
