//! # usfq-lint — static netlist analysis for U-SFQ circuits
//!
//! Analyzes any [`usfq_sim::Circuit`] *without simulating it*:
//!
//! 1. **Structural checks** — single-fanout legality (`USFQ001`),
//!    unconnected input ports (`USFQ002`), components unreachable from
//!    every external input (`USFQ003`), probes on dead logic
//!    (`USFQ004`), feedback loops outside an explicit allowlist
//!    (`USFQ005`), and JJ counts that disagree with the cell catalog
//!    (`USFQ009`).
//! 2. **Static timing** — propagates conservative `[min, max]`
//!    pulse-arrival windows from the inputs through wire and cell
//!    delays, then flags merger collision-window overlaps (`USFQ006`),
//!    balancer-transition and NDRO/inverter setup races (`USFQ007`),
//!    and probes whose worst-case settling time blows the epoch budget
//!    (`USFQ008`).
//! 3. **Encoding-domain dataflow** — resolves which encoding (race-logic
//!    arrival time vs pulse-stream count) every wire carries and bounds
//!    worst-case pulse counts per output, to a fixpoint with widening
//!    on feedback loops. Flags domain mismatches (`USFQ011`), counter
//!    overflow (`USFQ012`), provably-dead cells (`USFQ013`), unconsumed
//!    outputs (`USFQ014`), race-logic arrivals past the epoch end
//!    (`USFQ015`), and stateful fanout into conflicting domains
//!    (`USFQ016`).
//! 4. **Slack / timing closure** — a backward required-time pass from
//!    every probe endpoint against the epoch budget, reporting the
//!    worst-slack critical paths (`USFQ017`) and repairs whose padding
//!    bill exceeds the available slack (`USFQ018`). See [`slack_report`]
//!    and the [`fix`](crate::Fix) machinery: findings with a mechanical
//!    remedy carry a machine-applicable [`Fix`], and
//!    [`fix_to_fixpoint`] repairs a circuit to a clean lint fixpoint
//!    (`usfq-lint --fix`).
//!
//! Findings carry stable codes and render as text, JSON, or SARIF; see
//! [`LintReport`] and [`to_sarif`]. Netlists can acknowledge expected
//! findings with waivers, which downgrade matching diagnostics to
//! `Info` instead of hiding them. The `usfq-lint` binary runs the
//! analyzer over every netlist shipped in [`usfq_core::netlists`].
//!
//! ```
//! use usfq_lint::lint_netlist;
//!
//! for netlist in usfq_core::netlists::shipped_netlists() {
//!     let report = lint_netlist(&netlist);
//!     assert!(!report.has_errors(), "{}", report.render_text());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checks;
mod diag;
mod domain;
mod fix;
mod slack;
mod timing;

pub use diag::{to_sarif, Code, Diagnostic, LintReport, Severity};
pub use fix::{
    actionable_fixes, fix_to_fixpoint, fixes_from_sarif, Fix, FixOptions, FixOutcome, FixSource,
};
pub use slack::{EndpointSlack, SlackReport};

use usfq_core::netlists::BuiltNetlist;
use usfq_sim::{Circuit, CircuitGraph, Time};

/// The operating envelope a circuit is analyzed under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintConfig {
    /// Every external input pulses at most once, somewhere in
    /// `[0, input_window]`.
    pub input_window: Time,
    /// If set, the latest pulse at any probe must not exceed this
    /// budget (`USFQ008` otherwise).
    pub epoch_budget: Option<Time>,
    /// Name substrings marking components allowed to sit on feedback
    /// loops. A cycle is tolerated (timing merely skipped, `USFQ010`)
    /// only when every member matches; otherwise it is a `USFQ005`
    /// error.
    pub cycle_allowlist: Vec<String>,
    /// Upper bound on pulses per external input per epoch (the epoch's
    /// `n_max` for shipped netlists). Seeds the pulse-count dataflow;
    /// `None` leaves input counts unbounded, silencing `USFQ012`.
    pub epoch_pulse_capacity: Option<u64>,
    /// Latest instant a race-logic pulse may arrive and still encode a
    /// representable value. Enables `USFQ015` when set.
    pub rl_epoch_end: Option<Time>,
    /// Waivers: `(code, component-substring)` pairs. A diagnostic whose
    /// code matches and whose component name contains the substring is
    /// downgraded to `Info` (still reported, marked `[waived]`).
    pub waivers: Vec<(String, String)>,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            input_window: Time::ZERO,
            epoch_budget: None,
            cycle_allowlist: Vec::new(),
            epoch_pulse_capacity: None,
            rl_epoch_end: None,
            waivers: Vec::new(),
        }
    }
}

impl LintConfig {
    /// This envelope with every *timing* waiver (`USFQ006`–`USFQ008`)
    /// removed: the configuration `usfq-lint --fix` repairs under, so
    /// acknowledged hazards become actionable findings again while
    /// structural waivers (e.g. intentionally-floating config pins)
    /// stay acknowledged.
    pub fn without_timing_waivers(&self) -> LintConfig {
        let mut cfg = self.clone();
        cfg.waivers
            .retain(|(code, _)| !matches!(code.as_str(), "USFQ006" | "USFQ007" | "USFQ008"));
        cfg
    }
}

/// Whether a `(code, component-substring)` waiver list acknowledges a
/// finding of `code` on `component`.
pub(crate) fn waiver_matches(
    waivers: &[(String, String)],
    code: Code,
    component: Option<&str>,
) -> bool {
    waivers.iter().any(|(c, substr)| {
        c == code.as_str() && component.is_some_and(|name| name.contains(substr.as_str()))
    })
}

/// Runs every check on `circuit` under `config`.
pub fn lint(circuit: &Circuit, name: &str, config: &LintConfig) -> LintReport {
    let g = CircuitGraph::new(circuit);
    let mut diags = Vec::new();
    checks::fanout(circuit, &mut diags);
    checks::unconnected_inputs(&g, &mut diags);
    checks::reachability(&g, &mut diags);
    checks::jj_accounting(&g, &mut diags);
    let cyclic = checks::cycles(&g, &config.cycle_allowlist, &mut diags);
    let timing = timing::analyze(&g, &cyclic, config, &mut diags);
    slack::analyze(&g, &timing, config, &mut diags);
    domain::analyze(&g, &timing, config, &mut diags);
    for d in &mut diags {
        if waiver_matches(&config.waivers, d.code, d.component.as_deref()) {
            d.waive();
        }
    }
    LintReport::new(name, diags)
}

/// The [`LintConfig`] a shipped netlist is analyzed under: its own
/// operating envelope plus its acknowledged waivers.
pub fn lint_config_for(netlist: &BuiltNetlist) -> LintConfig {
    LintConfig {
        input_window: netlist.input_window,
        epoch_budget: Some(netlist.epoch_budget),
        cycle_allowlist: netlist.cycle_allowlist.clone(),
        epoch_pulse_capacity: Some(netlist.epoch.n_max()),
        rl_epoch_end: Some(netlist.input_window),
        waivers: netlist
            .waivers
            .iter()
            .map(|&(code, comp)| (code.to_string(), comp.to_string()))
            .collect(),
    }
}

/// Lints a shipped netlist under its own operating envelope.
pub fn lint_netlist(netlist: &BuiltNetlist) -> LintReport {
    lint(&netlist.circuit, netlist.name, &lint_config_for(netlist))
}

/// The static `[min, max]` arrival window of every probe, in probe
/// order: entry `i` belongs to the probe whose [`usfq_sim::ProbeId`]
/// has index `i`. `None` when the probe's source is on or downstream of
/// a feedback loop, or can never fire at all.
///
/// This is the analyzer's soundness contract: for any single pulse per
/// input inside `[0, config.input_window]`, every simulated arrival at
/// a probe falls inside the window reported here. The test suite
/// property-checks that claim against the event simulator.
pub fn probe_windows(
    circuit: &Circuit,
    config: &LintConfig,
) -> Vec<(String, Option<(Time, Time)>)> {
    // The timing pass lists probes in tap order; put each back at its id.
    let mut windows: Vec<_> = circuit
        .probe_taps()
        .map(|(id, _)| id)
        .zip(timing_parts(circuit, config).1.probe_windows)
        .collect();
    windows.sort_unstable_by_key(|&(id, _)| id);
    windows.into_iter().map(|(_, window)| window).collect()
}

/// Runs only the slack/critical-path layer: per-endpoint arrival,
/// required time (the epoch budget), signed slack, and the
/// argmax-arrival critical path. Empty when `config.epoch_budget` is
/// `None` — slack is meaningless without a required time.
pub fn slack_report(circuit: &Circuit, config: &LintConfig) -> SlackReport {
    let (g, timing) = timing_parts(circuit, config);
    let mut scratch = Vec::new();
    slack::analyze(&g, &timing, config, &mut scratch)
}

/// Graph view + cycle detection + forward timing, diagnostics
/// discarded: the shared front half of [`probe_windows`],
/// [`slack_report`], and the `--fix` budget-extension step.
pub(crate) fn timing_parts<'a>(
    circuit: &'a Circuit,
    config: &LintConfig,
) -> (CircuitGraph<'a>, timing::TimingResult) {
    let g = CircuitGraph::new(circuit);
    let mut scratch = Vec::new();
    let cyclic = checks::cycles(&g, &config.cycle_allowlist, &mut scratch);
    let timing = timing::analyze(&g, &cyclic, config, &mut scratch);
    (g, timing)
}
