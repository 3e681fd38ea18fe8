//! Josephson-junction counts and timing parameters for every cell.
//!
//! The paper measures *area* exclusively as the number of JJs, and all of
//! its comparisons hang off a handful of anchors it states explicitly:
//!
//! * merger = **5 JJs** (paper Fig. 5);
//! * race-logic first-arrival cell = **8 JJs** (paper §2.2.1);
//! * the complete unipolar U-SFQ PE = **126 JJs** (paper §5.2);
//! * the bipolar multiplier saves **370×** vs. the 17 kJJ bit-parallel
//!   8-bit binary multiplier (paper §4.1) ⇒ ≈ 46 JJs;
//! * the balancer saves **11×–200×** vs. 931–16 683 JJ binary adders
//!   (paper §4.2) ⇒ ≈ 84 JJs;
//! * the integrator-based RL memory cell costs **2.5×** an 8-bit binary
//!   shift-register word and **1.3×** a 16-bit one (paper §4.4.3)
//!   ⇒ ≈ 120 JJs.
//!
//! Counts for primitive cells follow the public RSFQ cell libraries the
//! paper cites ([11, 58]); composite counts are chosen so the sums land on
//! the paper's anchors exactly, and the reconciliation is tested in this
//! module.
//!
//! Timing values the paper states are used verbatim: t_INV = 9 ps,
//! t_BFF = 12 ps, t_TFF2 = 20 ps.

use usfq_sim::Time;

/// JJ count of a Josephson transmission line stage (buffer).
pub const JJ_JTL: u32 = 2;
/// JJ count of a splitter (1→2 fan-out).
pub const JJ_SPLITTER: u32 = 3;
/// JJ count of a 2:1 merger (paper Fig. 5: "built with 5 JJs").
pub const JJ_MERGER: u32 = 5;
/// JJ count of a D flip-flop.
pub const JJ_DFF: u32 = 6;
/// JJ count of a dual-read D flip-flop (DFF2).
pub const JJ_DFF2: u32 = 9;
/// JJ count of a toggle flip-flop (divide-by-two).
pub const JJ_TFF: u32 = 8;
/// JJ count of a dual-port toggle flip-flop (TFF2, alternating outputs).
pub const JJ_TFF2: u32 = 10;
/// JJ count of a non-destructive read-out cell (NDRO).
pub const JJ_NDRO: u32 = 11;
/// JJ count of a clocked inverter.
pub const JJ_INVERTER: u32 = 10;
/// JJ count of the race-logic first-arrival cell (paper §2.2.1: "FA
/// requires only 8 JJs").
pub const JJ_FIRST_ARRIVAL: u32 = 8;
/// JJ count of a last-arrival cell (RL max; same loop structure as FA plus
/// a confluence stage).
pub const JJ_LAST_ARRIVAL: u32 = 10;
/// JJ count of the temporal-logic inhibit cell (a gated FA loop,
/// following the computational temporal logic of the paper's ref 51).
pub const JJ_INHIBIT: u32 = 10;
/// JJ count of the balancer routing unit (B-flip-flop of [Polonsky'94] plus
/// its splitter/merger harness, paper Fig. 6f). Chosen so the full
/// balancer reconciles with the paper's 11×–200× adder-savings anchor.
pub const JJ_ROUTING_UNIT: u32 = 44;
/// JJ count of the balancer output stage: two DFF2s facing each other
/// through mergers, read through two splitters (paper Fig. 6b).
pub const JJ_OUTPUT_STAGE: u32 = 2 * JJ_DFF2 + 2 * JJ_SPLITTER + 2 * JJ_MERGER;
/// JJ count of the complete 2:2 balancer: input splitters + routing unit +
/// output stage. 2·3 + 44 + 34 = 84 ⇒ 931/84 ≈ 11× and 16 683/84 ≈ 199×,
/// the paper's stated savings range.
pub const JJ_BALANCER: u32 = 2 * JJ_SPLITTER + JJ_ROUTING_UNIT + JJ_OUTPUT_STAGE;
/// JJ count of an RSFQ 1:2 demultiplexer [Zheng'99].
pub const JJ_DEMUX: u32 = 7;
/// JJ count of an RSFQ 2:1 multiplexer [Zheng'99].
pub const JJ_MUX: u32 = 7;
/// JJ count of the unipolar U-SFQ multiplier: one NDRO gated by the RL
/// operand plus an input splitter (paper Fig. 3c left).
pub const JJ_UNIPOLAR_MULTIPLIER: u32 = JJ_NDRO + JJ_SPLITTER;
/// JJ count of the bipolar U-SFQ multiplier: two NDROs, a clocked
/// inverter, an output merger, and three splitters (paper Fig. 3c right).
/// 2·11 + 10 + 5 + 3·3 = 46 ⇒ 17 000/46 ≈ 370×, the paper's savings vs.
/// the bit-parallel binary multiplier.
pub const JJ_BIPOLAR_MULTIPLIER: u32 = 2 * JJ_NDRO + JJ_INVERTER + JJ_MERGER + 3 * JJ_SPLITTER;
/// JJ count of the integrator-based RL buffer: two NDRO switches (paper
/// Fig. 10c's ① and ②), the two comparator junctions J1/J2, and two JTL
/// pickup stages. The inductor itself contributes no JJs. Chosen so the
/// unipolar PE (multiplier + balancer + integrator) reconciles with the
/// paper's 126-JJ anchor: 14 + 84 + 28 = 126.
pub const JJ_INTEGRATOR: u32 = 2 * JJ_NDRO + 2 + 2 * JJ_JTL;
/// JJ count of the complete unipolar processing element (paper §5.2:
/// "The number of JJs for the U-SFQ PE is 126").
pub const JJ_PE: u32 = JJ_UNIPOLAR_MULTIPLIER + JJ_BALANCER + JJ_INTEGRATOR;
/// JJ count of one RL shift-register memory cell: two integrator buffers
/// interleaved through a mux/demux pair plus clock fan-out JTLs (paper
/// Fig. 10d). Calibrated to the paper's §4.4.3 anchors (2.5× an 8-bit
/// binary word, 1.3× a 16-bit one).
pub const JJ_MEMORY_CELL: u32 = 2 * JJ_INTEGRATOR + JJ_DEMUX + JJ_MUX + 25 * JJ_JTL;

/// Propagation delay of a JTL stage.
pub fn t_jtl() -> Time {
    Time::from_ps(3.0)
}
/// Propagation delay of a splitter.
pub fn t_splitter() -> Time {
    Time::from_ps(4.0)
}
/// Propagation delay (and collision window) of a merger.
pub fn t_merger() -> Time {
    Time::from_ps(5.0)
}
/// Propagation delay of DFF/DFF2/NDRO read paths.
pub fn t_ff() -> Time {
    Time::from_ps(5.0)
}
/// Clock-to-output delay of the clocked inverter — the paper's measured
/// t_INV = 9 ps, which sets the unary multiplier's slot width.
pub fn t_inverter() -> Time {
    Time::from_ps(9.0)
}
/// Routing-state transition time of the balancer flip-flop — the paper's
/// t_BFF = 12 ps, which sets the balancer adder's slot width.
pub fn t_bff() -> Time {
    Time::from_ps(12.0)
}
/// Propagation delay of TFF and TFF2 — the paper's t_TFF2 = 20 ps, which
/// sets the PNM clock period and hence FIR latency.
pub fn t_tff2() -> Time {
    Time::from_ps(20.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's §5.2 anchor: the unipolar PE is exactly 126 JJs.
    #[test]
    fn pe_reconciles_to_paper_anchor() {
        assert_eq!(JJ_PE, 126);
    }

    /// The paper's §4.1 anchor: 370× savings vs. the 17 kJJ BP multiplier.
    #[test]
    fn bipolar_multiplier_reconciles() {
        assert_eq!(JJ_BIPOLAR_MULTIPLIER, 46);
        let savings = 17_000.0 / f64::from(JJ_BIPOLAR_MULTIPLIER);
        assert!((365.0..=375.0).contains(&savings), "savings {savings}");
    }

    /// The paper's §4.2 anchor: balancer saves 11×–200× vs. binary adders
    /// of 931 (4-bit) to 16 683 (16-bit) JJs.
    #[test]
    fn balancer_reconciles() {
        assert_eq!(JJ_BALANCER, 84);
        let low = 931.0 / f64::from(JJ_BALANCER);
        let high = 16_683.0 / f64::from(JJ_BALANCER);
        assert!((10.5..=12.0).contains(&low), "low {low}");
        assert!((190.0..=210.0).contains(&high), "high {high}");
    }

    /// The paper's §4.4.3 anchors: the RL memory cell costs ~2.5× an
    /// 8-bit binary shift-register word and ~1.3× a 16-bit one.
    #[test]
    fn memory_cell_reconciles() {
        let binary_word = |bits: u32| bits * JJ_DFF;
        let r8 = f64::from(JJ_MEMORY_CELL) / f64::from(binary_word(8));
        let r16 = f64::from(JJ_MEMORY_CELL) / f64::from(binary_word(16));
        assert!((2.2..=2.8).contains(&r8), "8-bit ratio {r8}");
        assert!((1.1..=1.5).contains(&r16), "16-bit ratio {r16}");
    }

    #[test]
    fn paper_stated_timings() {
        assert_eq!(t_inverter(), Time::from_ps(9.0));
        assert_eq!(t_bff(), Time::from_ps(12.0));
        assert_eq!(t_tff2(), Time::from_ps(20.0));
    }

    #[test]
    fn primitive_counts_match_cited_libraries() {
        assert_eq!(JJ_MERGER, 5); // paper Fig. 5
        assert_eq!(JJ_FIRST_ARRIVAL, 8); // paper §2.2.1
        assert_eq!(JJ_UNIPOLAR_MULTIPLIER, 14);
    }
}
