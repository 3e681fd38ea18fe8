//! Area (Josephson-junction count) models for U-SFQ blocks and
//! accelerators.
//!
//! All constants trace to [`usfq_cells::catalog`]; composite formulas
//! follow the structures of paper §4–5. The unary hallmark is that
//! *datapath* area is independent of bit resolution — only coefficient
//! storage scales with `B`.

use usfq_cells::catalog;

use crate::blocks::ShiftRegisterKind;

/// Per-tap interconnect overhead of a multi-tap accelerator: splitter
/// trees for the epoch/slot clocks and JTL runs between lanes.
/// Calibrated so the U-SFQ FIR's area crossover against the binary
/// baseline lands at the paper's Fig. 20b boundary (~9 bits at 32 taps).
pub const INTERCONNECT_PER_TAP_JJ: u64 = 60;

/// Area overhead of ERSFQ/eSFQ biasing, which eliminates static power
/// by replacing bias resistors with limiting junctions at "a slight
/// (1.4×) increment in area" (paper §5.4.5).
pub const ERSFQ_AREA_FACTOR: f64 = 1.4;

/// JJ cost of a block re-implemented in ERSFQ/eSFQ: same logic, no
/// static power, 1.4× the junctions.
pub fn ersfq_jj(rsfq_jj: u64) -> u64 {
    (rsfq_jj as f64 * ERSFQ_AREA_FACTOR).round() as u64
}

/// JJ count of the unipolar multiplier (constant in bits — Fig. 4).
pub fn unipolar_multiplier_jj() -> u64 {
    u64::from(catalog::JJ_UNIPOLAR_MULTIPLIER)
}

/// JJ count of the bipolar multiplier (constant in bits — Fig. 4).
pub fn bipolar_multiplier_jj() -> u64 {
    u64::from(catalog::JJ_BIPOLAR_MULTIPLIER)
}

/// JJ count of an `inputs`:1 merger-tree adder.
pub fn merger_adder_jj(inputs: usize) -> u64 {
    (inputs.saturating_sub(1)) as u64 * u64::from(catalog::JJ_MERGER)
}

/// JJ count of the 2:2 balancer adder (constant in bits — Fig. 8).
pub fn balancer_adder_jj() -> u64 {
    u64::from(catalog::JJ_BALANCER)
}

/// JJ count of an M:1 counting network: a balancer tree of `M − 1`
/// cells (paper Fig. 6d builds the 4:1 network from three balancers).
pub fn counting_network_jj(width: usize) -> u64 {
    debug_assert!(width.is_power_of_two() && width >= 2);
    (width as u64 - 1) * u64::from(catalog::JJ_BALANCER)
}

/// JJ count of a `bits`-stage pulse-number multiplier.
pub fn pnm_jj(bits: u32) -> u64 {
    let stages = u64::from(bits);
    stages * u64::from(catalog::JJ_TFF2 + catalog::JJ_NDRO)
        + stages.saturating_sub(1) * u64::from(catalog::JJ_MERGER)
}

/// JJ count of the coefficient memory bank: an NDRO per stored bit plus
/// the paper's 10 % merger/clock overhead, plus one shared PNM clock
/// chain (paper §4.3).
pub fn memory_bank_jj(words: usize, bits: u32) -> u64 {
    let ndros = words as u64 * u64::from(bits) * u64::from(catalog::JJ_NDRO);
    (ndros as f64 * 1.10).round() as u64 + pnm_jj(bits)
}

/// JJ count of the unipolar PE — the paper's 126-JJ anchor.
pub fn pe_jj() -> u64 {
    u64::from(catalog::JJ_PE)
}

/// JJ count of an `n`-PE array.
pub fn pe_array_jj(n: usize) -> u64 {
    n as u64 * pe_jj()
}

/// JJ count of an `L`-lane DPU: L bipolar multipliers + the counting
/// network (paper Fig. 15; constant in bits — Fig. 16).
pub fn dpu_jj(lanes: usize) -> u64 {
    lanes as u64 * bipolar_multiplier_jj() + counting_network_jj(lanes)
}

/// What the FIR drives downstream, which decides the output-conversion
/// hardware (paper §5.4: "the circuit after our FIR may expect pulse
/// streams (no need to convert) or RL ... the FIR latency is not
/// affected and area increases by 50-200 JJs").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FirOutputFormat {
    /// Downstream consumes pulse streams directly: no conversion.
    PulseStream,
    /// Downstream expects race logic: one stream-to-RL integrator plus
    /// its interface JTLs.
    RaceLogic,
    /// Downstream expects binary: an SFQ pulse counter (a TFF ripple
    /// chain with DFF readout, one stage per bit).
    Binary,
}

/// JJ cost of the FIR's output conversion stage.
pub fn fir_output_conversion_jj(format: FirOutputFormat, bits: u32) -> u64 {
    match format {
        FirOutputFormat::PulseStream => 0,
        FirOutputFormat::RaceLogic => {
            u64::from(catalog::JJ_INTEGRATOR) + 11 * u64::from(catalog::JJ_JTL)
        }
        FirOutputFormat::Binary => u64::from(bits) * u64::from(catalog::JJ_TFF + catalog::JJ_DFF),
    }
}

/// JJ count of the complete U-SFQ FIR: the DPU datapath, the coefficient
/// bank, the RL shift register (one integrator memory cell per tap), and
/// per-tap interconnect (paper §5.4.3).
pub fn fir_jj(taps: usize, bits: u32) -> u64 {
    let lanes = taps.next_power_of_two().max(2);
    dpu_jj(lanes)
        + memory_bank_jj(taps, bits)
        + ShiftRegisterKind::IntegratorBuffer.area_jj(bits, taps as u64)
        + taps as u64 * INTERCONNECT_PER_TAP_JJ
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::StreamToRlIntegrator;
    use crate::blocks::IntegratorBuffer;
    use usfq_cells::spec_for;
    use usfq_encoding::Epoch;
    use usfq_sim::component::Buffer;
    use usfq_sim::{Component, Time};

    /// The cells defined outside `usfq-cells` resolve to catalog rows by
    /// kind and port counts: the integrators carry the row's JJ count,
    /// and the caller-sized `Buffer`'s row has none.
    #[test]
    fn integrators_and_buffer_resolve_to_catalog_rows() {
        let epoch = Epoch::with_slot(8, catalog::t_bff()).unwrap();
        let cells: [(Box<dyn Component>, bool); 3] = [
            (Box::new(StreamToRlIntegrator::new("i", epoch)), true),
            (Box::new(IntegratorBuffer::new("b", epoch)), true),
            (Box::new(Buffer::new("j", Time::ZERO)), false),
        ];
        for (cell, in_catalog) in &cells {
            let meta = cell.static_meta();
            let spec = spec_for(meta.kind, cell.num_inputs(), cell.num_outputs())
                .unwrap_or_else(|| panic!("no row for `{}`", cell.name()));
            let want = in_catalog.then(|| cell.jj_count());
            assert_eq!(spec.jj, want, "JJ count of `{}`", cell.name());
        }
    }

    #[test]
    fn multipliers_are_constant_in_bits() {
        assert_eq!(unipolar_multiplier_jj(), 14);
        assert_eq!(bipolar_multiplier_jj(), 46);
    }

    #[test]
    fn merger_adder_scales_with_inputs() {
        assert_eq!(merger_adder_jj(2), 5);
        assert_eq!(merger_adder_jj(4), 15);
        assert_eq!(merger_adder_jj(1), 0);
    }

    #[test]
    fn counting_network_counts() {
        assert_eq!(counting_network_jj(2), 84);
        assert_eq!(counting_network_jj(4), 3 * 84);
        assert_eq!(counting_network_jj(8), 7 * 84);
    }

    #[test]
    fn pnm_and_memory_bank() {
        // 8 stages: 8×(10+11) + 7×5 = 203.
        assert_eq!(pnm_jj(8), 203);
        let bank = memory_bank_jj(32, 8);
        // 32 words × 8 bits × 11 JJ × 1.1 + PNM.
        assert_eq!(bank, (32.0 * 8.0 * 11.0 * 1.1_f64).round() as u64 + 203);
    }

    #[test]
    fn pe_matches_paper() {
        assert_eq!(pe_jj(), 126);
        assert_eq!(pe_array_jj(10), 1260);
    }

    /// Fig. 16's qualitative claims: the unary DPU is independent of
    /// bits and linear-ish in lanes.
    #[test]
    fn dpu_area_scaling() {
        let d32 = dpu_jj(32);
        let d64 = dpu_jj(64);
        let d128 = dpu_jj(128);
        assert!(d64 > d32 && d128 > d64);
        // 32 lanes: 32 multipliers × 46 + 31 balancers × 84 = 4076 JJs.
        assert_eq!(d32, 32 * 46 + 31 * 84);
    }

    /// The FIR area is dominated by per-tap datapath, near-constant in
    /// bits (only the coefficient bank grows).
    #[test]
    fn fir_area_weak_in_bits() {
        let a8 = fir_jj(32, 8);
        let a16 = fir_jj(32, 16);
        assert!(a16 > a8);
        assert!((a16 as f64) < (a8 as f64) * 1.5, "a8={a8} a16={a16}");
    }

    #[test]
    fn fir_area_grows_with_taps() {
        assert!(fir_jj(256, 8) > fir_jj(32, 8) * 6);
    }

    /// §5.4: RL output conversion costs 50–200 JJ; streams are free.
    #[test]
    fn output_conversion_in_paper_range() {
        assert_eq!(fir_output_conversion_jj(FirOutputFormat::PulseStream, 8), 0);
        let rl = fir_output_conversion_jj(FirOutputFormat::RaceLogic, 8);
        assert!((50..=200).contains(&rl), "{rl}");
        let b8 = fir_output_conversion_jj(FirOutputFormat::Binary, 8);
        let b16 = fir_output_conversion_jj(FirOutputFormat::Binary, 16);
        assert_eq!(b16, 2 * b8);
        assert!((50..=250).contains(&b8), "{b8}");
    }

    /// §5.4.5: ERSFQ trades 1.4× area for zero static power; even so
    /// the ERSFQ PE stays far below the binary MAC.
    #[test]
    fn ersfq_trade_off() {
        assert_eq!(ersfq_jj(pe_jj()), 176);
        assert!(ersfq_jj(pe_jj()) < 9_000);
    }
}
