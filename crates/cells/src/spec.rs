//! One row of catalog facts per cell kind.
//!
//! The U-SFQ paper mixes two pulse encodings in one fabric: **race logic**
//! (a value is the *arrival time* of a single pulse inside an epoch) and
//! **pulse streams** (a value is the *count* of pulses inside an epoch).
//! Some cells are agnostic (a JTL delays whatever passes through), but
//! others only make sense in one domain — feeding a race-logic wire into
//! a TFF divides an arrival time by two, which is meaningless.
//!
//! Each [`CellSpec`] row holds one kind's facts: the domain each port
//! carries, each output's pulse bound per epoch, whether the cell holds
//! state, and its catalog JJ count. [`spec_for`] is the only code that
//! maps a kind string to these facts; `usfq-lint`'s JJ check (USFQ009)
//! and its dataflow pass (USFQ011–USFQ016) both read the rows. A cell
//! whose kind or port counts match no row is unknown, and the lint
//! treats it conservatively (all ports [`PortDomain::Any`], outputs
//! unbounded: no false errors).
//!
//! Rows are keyed on `(kind, inputs, outputs)` because two distinct
//! cells share the `"integrator"` kind string: the 2-input
//! stream-to-race integrator (counts pulses, emits one race-logic pulse
//! per epoch) and the 1-input race-logic integrator buffer.

use crate::catalog::{
    JJ_BALANCER, JJ_DEMUX, JJ_DFF, JJ_DFF2, JJ_FIRST_ARRIVAL, JJ_INHIBIT, JJ_INTEGRATOR,
    JJ_INVERTER, JJ_JTL, JJ_LAST_ARRIVAL, JJ_MERGER, JJ_MUX, JJ_NDRO, JJ_ROUTING_UNIT, JJ_SPLITTER,
    JJ_TFF, JJ_TFF2,
};

/// The encoding a cell port produces or requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortDomain {
    /// Race-logic: the value is the pulse's arrival time within the epoch.
    /// At most one data pulse per epoch.
    Race,
    /// Pulse-stream: the value is the number of pulses within the epoch.
    Stream,
    /// Domain-agnostic: the port accepts (or the output inherits no fixed)
    /// encoding — clocks, resets, selects, and transparent interconnect.
    Any,
    /// Output-only: the output carries whatever domain the cell's data
    /// inputs carry (JTL, splitter, merger, mux). The dataflow pass joins
    /// the resolved input domains to decide.
    Follow,
}

/// How many pulses an output can emit per epoch under hazard-free
/// semantics, given the bound `pᵢ` arriving at each input port `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PulseBound {
    /// `pᵢ`: at most one pulse out per pulse on input `i`.
    Port(usize),
    /// `Σ`: every arriving pulse passes.
    Sum,
    /// `⌊p₀/2⌋`: a toggle halves the count.
    HalfDown,
    /// `⌈p₀/2⌉`: a dual toggle's first output.
    HalfUp,
    /// `⌈Σ/2⌉`: a balancer splits its arrivals evenly.
    HalfSum,
    /// `min(p₀+p₁, 1+p₂)`: first arrival has one winner per race, and
    /// a reset re-arms it for one more.
    FaMin,
    /// `min(p₀, p₁, 1+p₂)`: last arrival.
    LaMin,
    /// `min(p₀, 1+p₂)`: inhibit.
    InhibitMin,
}

/// The catalog facts of one cell kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellSpec {
    /// Kind string, as reported by [`usfq_sim::StaticMeta::kind`].
    pub kind: &'static str,
    /// Required domain per input port (`Any` = no constraint).
    pub inputs: &'static [PortDomain],
    /// Per output port: its produced domain (`Follow` = inherits from
    /// inputs) and its pulse bound.
    pub outputs: &'static [(PortDomain, PulseBound)],
    /// Whether the cell holds state across pulses. Stateful cells fanning
    /// out into conflicting domains are flagged by USFQ016 because their
    /// internal state couples the consumers.
    pub stateful: bool,
    /// Catalog JJ count, which USFQ009 checks; `None` where the count is
    /// instance-specific (`buffer`).
    pub jj: Option<u32>,
}

use PortDomain::{Any, Follow, Race, Stream};
use PulseBound::{FaMin, HalfDown, HalfSum, HalfUp, InhibitMin, LaMin, Port, Sum};

const fn row(
    kind: &'static str,
    inputs: &'static [PortDomain],
    outputs: &'static [(PortDomain, PulseBound)],
    stateful: bool,
    jj: Option<u32>,
) -> CellSpec {
    CellSpec {
        kind,
        inputs,
        outputs,
        stateful,
        jj,
    }
}

#[rustfmt::skip]
static CELLS: &[CellSpec] = &[
    //  kind            inputs                outputs: (domain, bound)                  state  JJ
    row("jtl",          &[Any],               &[(Follow, Port(0))],                     false, Some(JJ_JTL)),
    row("buffer",       &[Any],               &[(Follow, Port(0))],                     false, None),
    row("splitter",     &[Any],               &[(Follow, Port(0)), (Follow, Port(0))],  false, Some(JJ_SPLITTER)),
    row("merger",       &[Any, Any],          &[(Follow, Sum)],                         false, Some(JJ_MERGER)),
    row("mux",          &[Any, Any],          &[(Follow, Sum)],                         false, Some(JJ_MUX)),
    // IN, IN_SEL -> OUT_A, OUT_B: the select flip-flop decouples the
    // outputs from each other, so they do not follow jointly.
    row("demux",        &[Any, Any],          &[(Any, Port(0)), (Any, Port(0))],        true,  Some(JJ_DEMUX)),
    // S, R -> Q and A, C1, C2 -> Y1, Y2: one read pulse per clock.
    row("dff",          &[Any, Any],          &[(Any, Port(1))],                        true,  Some(JJ_DFF)),
    row("dff2",         &[Any, Any, Any],     &[(Any, Port(1)), (Any, Port(2))],        true,  Some(JJ_DFF2)),
    // S, R, CLK -> Q: set/reset sample a level (either encoding can
    // drive them, e.g. the bipolar multiplier sets with a race-logic
    // pulse), but each CLK read emits at most one pulse, so Q is a
    // counted stream gated by CLK.
    row("ndro",         &[Any, Any, Stream],  &[(Stream, Port(2))],                     true,  Some(JJ_NDRO)),
    // A TFF halves a *count*; applied to a race-logic pulse it would
    // swallow the value entirely.
    row("tff",          &[Stream],            &[(Stream, HalfDown)],                    true,  Some(JJ_TFF)),
    row("tff2",         &[Stream],            &[(Stream, HalfUp), (Stream, HalfDown)],  true,  Some(JJ_TFF2)),
    // IN, IN_CLK -> OUT: emits (clk - in) pulses, a count complement,
    // at most one per clock pulse.
    row("inverter",     &[Stream, Stream],    &[(Stream, Port(1))],                     true,  Some(JJ_INVERTER)),
    // A, B, RST -> OUT: first/last-arrival and inhibit compare
    // arrival *times*; their output is again an arrival time.
    row("fa",           &[Race, Race, Any],   &[(Race, FaMin)],                         true,  Some(JJ_FIRST_ARRIVAL)),
    row("la",           &[Race, Race, Any],   &[(Race, LaMin)],                         true,  Some(JJ_LAST_ARRIVAL)),
    row("inhibit",      &[Race, Race, Any],   &[(Race, InhibitMin)],                    true,  Some(JJ_INHIBIT)),
    row("balancer",     &[Stream, Stream],    &[(Stream, HalfSum), (Stream, HalfSum)],  true,  Some(JJ_BALANCER)),
    row("routing-unit", &[Stream, Stream],    &[(Stream, HalfSum), (Stream, HalfSum)],  true,  Some(JJ_ROUTING_UNIT)),
    // Stream-to-race integrator: IN (counted), IN_EPOCH (epoch
    // marker) -> OUT (one pulse per marker, whose delay encodes the
    // count).
    row("integrator",   &[Stream, Any],       &[(Race, Port(1))],                       true,  Some(JJ_INTEGRATOR)),
    // Race-logic integrator buffer: regenerates one race pulse.
    row("integrator",   &[Race],              &[(Race, Port(0))],                       true,  Some(JJ_INTEGRATOR)),
];

/// The row for a cell of `kind` with `inputs` input ports and `outputs`
/// output ports. `None` when no row matches: the cell is unknown, and
/// callers should treat it conservatively.
pub fn spec_for(kind: &str, inputs: usize, outputs: usize) -> Option<&'static CellSpec> {
    CELLS
        .iter()
        .find(|s| s.kind == kind && s.inputs.len() == inputs && s.outputs.len() == outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        Balancer, ClockedInverter, Demux, Dff, Dff2, FirstArrival, Inhibit, Jtl, LastArrival,
        Merger, Mux, Ndro, RoutingUnit, Splitter, Tff, Tff2,
    };
    use usfq_sim::Component;

    /// Every catalog cell's row must exist and match its actual port
    /// counts, JJ count and delay range — the table cannot drift from
    /// the implementations.
    #[test]
    fn signatures_reconcile_with_cells() {
        let cells: Vec<Box<dyn Component>> = vec![
            Box::new(Jtl::new("u")),
            Box::new(Splitter::new("u")),
            Box::new(Merger::new("u")),
            Box::new(Dff::new("u")),
            Box::new(Dff2::new("u")),
            Box::new(Ndro::new("u")),
            Box::new(Tff::new("u")),
            Box::new(Tff2::new("u")),
            Box::new(ClockedInverter::new("u")),
            Box::new(FirstArrival::new("u")),
            Box::new(LastArrival::new("u")),
            Box::new(Inhibit::new("u")),
            Box::new(Balancer::new("u")),
            Box::new(RoutingUnit::new("u")),
            Box::new(Demux::new("u")),
            Box::new(Mux::new("u")),
        ];
        for cell in &cells {
            let meta = cell.static_meta();
            let spec = spec_for(meta.kind, cell.num_inputs(), cell.num_outputs())
                .unwrap_or_else(|| panic!("no row for kind `{}`", meta.kind));
            assert_eq!(
                spec.inputs.len(),
                cell.num_inputs(),
                "input arity mismatch for `{}`",
                meta.kind
            );
            assert_eq!(
                spec.outputs.len(),
                cell.num_outputs(),
                "output arity mismatch for `{}`",
                meta.kind
            );
            assert_eq!(
                spec.jj,
                Some(cell.jj_count()),
                "JJ count of `{}`",
                meta.kind
            );
            assert!(meta.min_delay <= meta.max_delay);
        }
    }

    #[test]
    fn follow_only_appears_on_outputs_of_stateless_interconnect() {
        for (kind, ins, outs) in [
            ("jtl", 1, 1),
            ("buffer", 1, 1),
            ("splitter", 1, 2),
            ("merger", 2, 1),
            ("mux", 2, 1),
            ("demux", 2, 2),
            ("dff", 2, 1),
            ("dff2", 3, 2),
            ("ndro", 3, 1),
            ("tff", 1, 1),
            ("tff2", 1, 2),
            ("inverter", 2, 1),
            ("fa", 3, 1),
            ("la", 3, 1),
            ("inhibit", 3, 1),
            ("balancer", 2, 2),
            ("routing-unit", 2, 2),
            ("integrator", 2, 1),
            ("integrator", 1, 1),
        ] {
            let spec = spec_for(kind, ins, outs).unwrap();
            assert!(
                !spec.inputs.contains(&Follow),
                "`{kind}` declares Follow on an input"
            );
            if spec.outputs.iter().any(|&(d, _)| d == Follow) {
                assert!(!spec.stateful, "`{kind}` is stateful but uses Follow");
            }
        }
    }

    #[test]
    fn unknown_kinds_and_arities_are_none() {
        assert!(spec_for("flux-capacitor", 2, 1).is_none());
        assert!(spec_for("jtl", 2, 1).is_none());
        assert!(spec_for("integrator", 3, 1).is_none());
        assert!(spec_for("tff", 1, 2).is_none());
    }

    #[test]
    fn integrator_is_disambiguated_by_arity() {
        let s2 = spec_for("integrator", 2, 1).unwrap();
        let s1 = spec_for("integrator", 1, 1).unwrap();
        assert_eq!(s2.inputs, &[Stream, Any]);
        assert_eq!(s2.outputs, &[(Race, Port(1))]);
        assert_eq!(s1.inputs, &[Race]);
        assert_eq!(s1.outputs, &[(Race, Port(0))]);
    }

    #[test]
    fn kind_lookup_covers_catalog_cells() {
        let jj = |kind, ins, outs| spec_for(kind, ins, outs).and_then(|s| s.jj);
        assert_eq!(jj("merger", 2, 1), Some(JJ_MERGER));
        assert_eq!(jj("balancer", 2, 2), Some(JJ_BALANCER));
        assert_eq!(jj("integrator", 2, 1), Some(JJ_INTEGRATOR));
        assert!(spec_for("buffer", 1, 1).is_some());
        assert_eq!(jj("buffer", 1, 1), None);
        assert_eq!(jj("custom", 1, 1), None);
        assert_eq!(jj("", 0, 0), None);
    }
}
