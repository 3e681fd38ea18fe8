//! Encoding-domain and pulse-count dataflow analysis.
//!
//! Two abstract domains are propagated to a fixpoint over the netlist
//! graph, cycles included:
//!
//! * **Encoding domain** — per output port, which encoding the wire
//!   carries: race-logic (`Race`), pulse-stream (`Stream`), unresolved
//!   (`Bot`), or provably mixed (`Top`). The lattice is
//!   `Bot < {Race, Stream} < Top` with pointwise join; port domains
//!   come from each cell's [`usfq_cells::spec`] row. Height 2, so the
//!   forward fixpoint needs no widening.
//! * **Pulse-count interval** — per output port, a conservative
//!   `[0, hi]` bound on how many pulses the port can emit per epoch,
//!   with `hi` either finite or `Unbounded`. The transfer function
//!   evaluates each output's [`PulseBound`] from the cell's row, under
//!   hazard-free semantics (a TFF halves, a merger sums, an NDRO emits
//!   one pulse per clock read, …). Counts on feedback loops are widened
//!   to `Unbounded` after a bounded number of updates.
//!
//! The derived checks:
//!
//! * `USFQ011` — a `Race`/`Stream`-required input port driven by a wire
//!   resolved to the other (or to `Top`).
//! * `USFQ012` — worst-case count at a counting cell's data port
//!   exceeds its declared [`counting capacity`](usfq_sim::StaticMeta).
//! * `USFQ013` — a fully-wired, reachable cell all of whose outputs
//!   have count bound `0`: pulses arrive but provably never leave.
//! * `USFQ014` — a reachable cell none of whose outputs feed a wire or
//!   probe.
//! * `USFQ015` — a race-logic port whose worst-case static arrival
//!   (from the timing pass) lands past the declared epoch end.
//! * `USFQ016` — a stateful cell whose output fans out, through
//!   passthrough interconnect, into ports requiring conflicting
//!   domains.

use usfq_cells::{spec_for, CellSpec, PortDomain, PulseBound};
use usfq_sim::graph::{CircuitGraph as Graph, Driver};
use usfq_sim::Time;

use crate::diag::{Code, Diagnostic};
use crate::timing::TimingResult;
use crate::LintConfig;

/// Abstract encoding carried by a wire. `Bot < {Race, Stream} < Top`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AbsDom {
    /// Unresolved: no concrete encoding has reached this wire.
    Bot,
    Race,
    Stream,
    /// Conflicting: both encodings can reach this wire.
    Top,
}

impl AbsDom {
    fn join(self, other: AbsDom) -> AbsDom {
        match (self, other) {
            (AbsDom::Bot, x) | (x, AbsDom::Bot) => x,
            (a, b) if a == b => a,
            _ => AbsDom::Top,
        }
    }

    fn name(self) -> &'static str {
        match self {
            AbsDom::Bot => "unresolved",
            AbsDom::Race => "race-logic",
            AbsDom::Stream => "pulse-stream",
            AbsDom::Top => "mixed",
        }
    }
}

/// Upper bound of a `[0, hi]` pulse-count interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Count {
    Finite(u64),
    Unbounded,
}

impl Count {
    const ZERO: Count = Count::Finite(0);

    fn add(self, other: Count) -> Count {
        match (self, other) {
            (Count::Finite(a), Count::Finite(b)) => Count::Finite(a.saturating_add(b)),
            _ => Count::Unbounded,
        }
    }

    fn min(self, other: Count) -> Count {
        match (self, other) {
            (Count::Finite(a), Count::Finite(b)) => Count::Finite(a.min(b)),
            (Count::Finite(a), Count::Unbounded) | (Count::Unbounded, Count::Finite(a)) => {
                Count::Finite(a)
            }
            _ => Count::Unbounded,
        }
    }

    fn halve_down(self) -> Count {
        match self {
            Count::Finite(a) => Count::Finite(a / 2),
            Count::Unbounded => Count::Unbounded,
        }
    }

    fn halve_up(self) -> Count {
        match self {
            Count::Finite(a) => Count::Finite(a.div_ceil(2)),
            Count::Unbounded => Count::Unbounded,
        }
    }

    fn is_zero(self) -> bool {
        self == Count::ZERO
    }
}

impl std::fmt::Display for Count {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Count::Finite(a) => write!(f, "{a}"),
            Count::Unbounded => f.write_str("unbounded"),
        }
    }
}

/// How many times a component's counts may be recomputed before its
/// outputs are widened to `Unbounded` (terminates loop growth).
const WIDEN_AFTER: u32 = 8;

fn domain_name(d: PortDomain) -> &'static str {
    match d {
        PortDomain::Race => "race-logic",
        PortDomain::Stream => "pulse-stream",
        PortDomain::Any => "any",
        PortDomain::Follow => "follow",
    }
}

/// A passthrough cell forwards pulses without reinterpreting them:
/// every output is declared [`PortDomain::Follow`].
fn is_passthrough(spec: &CellSpec) -> bool {
    !spec.outputs.is_empty() && spec.outputs.iter().all(|&(d, _)| d == PortDomain::Follow)
}

/// Each component's catalog row, resolved once per pass; `None` for
/// cells no row describes.
fn specs(g: &Graph) -> Vec<Option<&'static CellSpec>> {
    (0..g.len())
        .map(|c| spec_for(g.kind(c), g.num_inputs(c), g.num_outputs(c)))
        .collect()
}

/// Runs the dataflow pass and appends findings to `diags`.
pub(crate) fn analyze(
    g: &Graph,
    timing: &TimingResult,
    cfg: &LintConfig,
    diags: &mut Vec<Diagnostic>,
) {
    let specs = specs(g);
    let reachable = g.reachable_from_inputs();
    let input_cap = input_count(cfg);

    let out_dom = domain_fixpoint(g, &specs);
    let out_cnt = count_fixpoint(g, &specs, input_cap);

    check_domain_mismatch(g, &specs, &out_dom, diags);
    check_count_overflow(g, input_cap, &out_cnt, diags);
    check_dead_cells(g, input_cap, &reachable, &out_cnt, diags);
    check_unconsumed_outputs(g, &reachable, diags);
    check_race_past_epoch(g, &specs, timing, cfg, diags);
    check_conflicting_fanout(g, &specs, diags);
}

/// The latest worst-case arrival over every race-logic-required port:
/// the minimal `rl_epoch_end` this netlist can meet. `None` when no
/// covered port requires the race-logic domain. The `--fix` engine uses
/// this to extend the epoch end during timing closure, mirroring how
/// the budget itself is extended.
pub(crate) fn required_race_epoch_end(g: &Graph, timing: &TimingResult) -> Option<Time> {
    let mut latest = None;
    for (c, &spec) in specs(g).iter().enumerate() {
        for port in 0..g.num_inputs(c) {
            if required_domain(spec, port) != Some(PortDomain::Race) {
                continue;
            }
            if let Some(window) = timing.port_windows[c][port] {
                latest = Some(latest.map_or(window.max, |l: Time| l.max(window.max)));
            }
        }
    }
    latest
}

/// The concrete domain an input port requires, if any.
fn required_domain(spec: Option<&CellSpec>, port: usize) -> Option<PortDomain> {
    match spec.and_then(|s| s.inputs.get(port)) {
        Some(&d @ (PortDomain::Race | PortDomain::Stream)) => Some(d),
        _ => None,
    }
}

/// Forward fixpoint of produced encoding domains. Only `Follow`
/// outputs change across iterations; the lattice has height 2 and
/// joins are monotone, so this terminates on any graph.
fn domain_fixpoint(g: &Graph, specs: &[Option<&CellSpec>]) -> Vec<Vec<AbsDom>> {
    let n = g.len();
    let mut out_dom: Vec<Vec<AbsDom>> = (0..n)
        .map(|c| {
            (0..g.num_outputs(c))
                .map(|o| match specs[c].map(|s| s.outputs[o].0) {
                    Some(PortDomain::Race) => AbsDom::Race,
                    Some(PortDomain::Stream) => AbsDom::Stream,
                    _ => AbsDom::Bot,
                })
                .collect()
        })
        .collect();

    let follows: Vec<usize> = (0..n)
        .filter(|&c| specs[c].is_some_and(is_passthrough))
        .collect();
    loop {
        let mut changed = false;
        for &c in &follows {
            // Join everything arriving on any input port: a passthrough
            // cell's outputs all carry the joined encoding.
            let mut dom = AbsDom::Bot;
            for d in g.all_drivers(c) {
                if let Driver::Comp(src, sp, _) = *d {
                    dom = dom.join(out_dom[src][sp]);
                }
            }
            for slot in &mut out_dom[c] {
                if *slot != dom {
                    *slot = dom.join(*slot);
                    changed = true;
                }
            }
        }
        if !changed {
            return out_dom;
        }
    }
}

/// The count bound each external input delivers per epoch: the
/// configured epoch capacity, or unbounded without one.
fn input_count(cfg: &LintConfig) -> Count {
    cfg.epoch_pulse_capacity
        .map_or(Count::Unbounded, Count::Finite)
}

/// Sum of count bounds arriving at one input port.
fn port_count(g: &Graph, out_cnt: &[Vec<Count>], input_cap: Count, c: usize, port: usize) -> Count {
    let mut total = Count::ZERO;
    for d in g.drivers(c, port) {
        total = total.add(match *d {
            Driver::Input(..) => input_cap,
            Driver::Comp(src, sp, _) => out_cnt[src][sp],
        });
    }
    total
}

/// Forward fixpoint of per-output pulse-count bounds, widened to
/// `Unbounded` on components updated more than [`WIDEN_AFTER`] times
/// (only feedback loops re-update a component).
fn count_fixpoint(g: &Graph, specs: &[Option<&CellSpec>], input_cap: Count) -> Vec<Vec<Count>> {
    let n = g.len();
    let mut out_cnt: Vec<Vec<Count>> = (0..n)
        .map(|c| vec![Count::ZERO; g.num_outputs(c)])
        .collect();
    let mut bumps = vec![0u32; n];
    let mut queue: Vec<usize> = (0..n).collect();
    let mut queued = vec![true; n];
    while let Some(c) = queue.pop() {
        queued[c] = false;
        let ports: Vec<Count> = (0..g.num_inputs(c))
            .map(|p| port_count(g, &out_cnt, input_cap, c, p))
            .collect();
        let mut outs = transfer(specs[c], &ports, g.num_outputs(c));
        if bumps[c] > WIDEN_AFTER {
            outs = vec![Count::Unbounded; g.num_outputs(c)];
        }
        if outs != out_cnt[c] {
            out_cnt[c] = outs;
            bumps[c] += 1;
            for s in g.succs(c) {
                if !queued[s] {
                    queued[s] = true;
                    queue.push(s);
                }
            }
        }
    }
    out_cnt
}

/// Count transfer under hazard-free semantics: each output's bound is
/// its row's [`PulseBound`] evaluated on `ports`, the summed bound
/// arriving at each input port.
fn transfer(spec: Option<&CellSpec>, ports: &[Count], n_out: usize) -> Vec<Count> {
    let total = ports.iter().fold(Count::ZERO, |a, &b| a.add(b));
    // No pulse ever arrives: the cell is never activated and cannot
    // emit, whatever its kind.
    if total.is_zero() {
        return vec![Count::ZERO; n_out];
    }
    // Cells no row describes: conservatively unbounded.
    let Some(spec) = spec else {
        return vec![Count::Unbounded; n_out];
    };
    let p = |i: usize| ports.get(i).copied().unwrap_or(Count::ZERO);
    let one_more = Count::Finite(1).add(p(2));
    spec.outputs
        .iter()
        .map(|&(_, rule)| match rule {
            PulseBound::Port(i) => p(i),
            PulseBound::Sum => total,
            PulseBound::HalfDown => p(0).halve_down(),
            PulseBound::HalfUp => p(0).halve_up(),
            PulseBound::HalfSum => total.halve_up(),
            PulseBound::FaMin => p(0).add(p(1)).min(one_more),
            PulseBound::LaMin => p(0).min(p(1)).min(one_more),
            PulseBound::InhibitMin => p(0).min(one_more),
        })
        .collect()
}

/// `USFQ011` — concrete produced domain disagrees with the concrete
/// required domain at a consumer port.
fn check_domain_mismatch(
    g: &Graph,
    specs: &[Option<&CellSpec>],
    out_dom: &[Vec<AbsDom>],
    diags: &mut Vec<Diagnostic>,
) {
    for (c, &spec) in specs.iter().enumerate() {
        for port in 0..g.num_inputs(c) {
            let Some(required) = required_domain(spec, port) else {
                continue;
            };
            for d in g.drivers(c, port) {
                let Driver::Comp(src, sp, _) = *d else {
                    continue;
                };
                let produced = out_dom[src][sp];
                let mismatch = matches!(
                    (produced, required),
                    (AbsDom::Top, _)
                        | (AbsDom::Race, PortDomain::Stream)
                        | (AbsDom::Stream, PortDomain::Race)
                );
                if mismatch {
                    diags.push(Diagnostic::new(
                        Code::DomainMismatch,
                        Some(g.name(c).to_string()),
                        format!(
                            "input port {port} of this {} requires a {} wire \
                             but is driven by {} output {} carrying a {} value",
                            g.kind(c),
                            domain_name(required),
                            g.name(src),
                            sp,
                            produced.name()
                        ),
                    ));
                }
            }
        }
    }
}

/// `USFQ012` — the bound arriving at a counting cell's data port (port
/// 0 by convention, mirroring the runtime sanitizer) exceeds its
/// declared capacity. Only finite bounds are reported: an unbounded
/// bound is a cycle artifact, not a proof of overflow.
fn check_count_overflow(
    g: &Graph,
    input_cap: Count,
    out_cnt: &[Vec<Count>],
    diags: &mut Vec<Diagnostic>,
) {
    for c in 0..g.len() {
        let Some(capacity) = g.counting_capacity(c) else {
            continue;
        };
        if g.num_inputs(c) == 0 {
            continue;
        }
        let arriving = port_count(g, out_cnt, input_cap, c, 0);
        if let Count::Finite(hi) = arriving {
            if hi > capacity {
                diags.push(Diagnostic::new(
                    Code::CountOverflow,
                    Some(g.name(c).to_string()),
                    format!(
                        "up to {hi} pulses can arrive at the data port of \
                         this {}, exceeding its counting capacity of \
                         {capacity}",
                        g.kind(c)
                    ),
                ));
            }
        }
    }
}

/// `USFQ013` — a reachable, fully-wired cell whose every output has
/// count bound zero while pulses do arrive. Cells with undriven inputs
/// are excluded: those are already `USFQ002` and their deadness is a
/// wiring gap, not a dataflow fact.
fn check_dead_cells(
    g: &Graph,
    input_cap: Count,
    reachable: &[bool],
    out_cnt: &[Vec<Count>],
    diags: &mut Vec<Diagnostic>,
) {
    for c in 0..g.len() {
        if !reachable[c] || g.num_outputs(c) == 0 {
            continue;
        }
        if (0..g.num_inputs(c)).any(|p| g.drivers(c, p).is_empty()) {
            continue;
        }
        let dead = out_cnt[c].iter().all(|cnt| cnt.is_zero());
        if !dead {
            continue;
        }
        // Re-summed only for the few dead cells: keeping the
        // fixpoint's per-port sums for every cell would cost more.
        let arriving = (0..g.num_inputs(c))
            .map(|p| port_count(g, out_cnt, input_cap, c, p))
            .fold(Count::ZERO, Count::add);
        if !arriving.is_zero() {
            diags.push(Diagnostic::new(
                Code::DeadCell,
                Some(g.name(c).to_string()),
                format!(
                    "up to {arriving} pulse(s) reach this {} per epoch but \
                     its outputs provably never fire",
                    g.kind(c)
                ),
            ));
        }
    }
}

/// `USFQ014` — a reachable cell with outputs, none of which feed a
/// wire or probe.
fn check_unconsumed_outputs(g: &Graph, reachable: &[bool], diags: &mut Vec<Diagnostic>) {
    let mut probed = vec![false; g.len()];
    for (_, source) in g.probes() {
        if let usfq_sim::ProbeSource::Output(comp, _) = source {
            probed[comp.index()] = true;
        }
    }
    for c in 0..g.len() {
        if !reachable[c] || g.num_outputs(c) == 0 || probed[c] || g.succs(c).next().is_some() {
            continue;
        }
        diags.push(Diagnostic::new(
            Code::UnconsumedOutput,
            Some(g.name(c).to_string()),
            format!(
                "no output of this {} feeds a wire or probe; every pulse \
                 it produces is silently discarded",
                g.kind(c)
            ),
        ));
    }
}

/// `USFQ015` — a race-logic input port whose worst-case static arrival
/// lands past the declared epoch end: the encoded value cannot be
/// represented inside the epoch.
fn check_race_past_epoch(
    g: &Graph,
    specs: &[Option<&CellSpec>],
    timing: &TimingResult,
    cfg: &LintConfig,
    diags: &mut Vec<Diagnostic>,
) {
    let Some(epoch_end) = cfg.rl_epoch_end else {
        return;
    };
    for (c, &spec) in specs.iter().enumerate() {
        for port in 0..g.num_inputs(c) {
            if required_domain(spec, port) != Some(PortDomain::Race) {
                continue;
            }
            let Some(window) = timing.port_windows[c][port] else {
                continue;
            };
            if window.max > epoch_end {
                diags.push(Diagnostic::new(
                    Code::RacePastEpoch,
                    Some(g.name(c).to_string()),
                    format!(
                        "race-logic input port {port} of this {} can receive \
                         a pulse at {:.1} ps, past the {:.1} ps epoch end — \
                         the encoded value is unrepresentable",
                        g.kind(c),
                        window.max.as_ps(),
                        epoch_end.as_ps()
                    ),
                ));
            }
        }
    }
}

/// `USFQ016` — a stateful cell's output reaches, through passthrough
/// interconnect, input ports requiring *both* concrete domains: its
/// internal state couples consumers that disagree on the encoding.
fn check_conflicting_fanout(g: &Graph, specs: &[Option<&CellSpec>], diags: &mut Vec<Diagnostic>) {
    for c in 0..g.len() {
        let Some(spec) = specs[c] else { continue };
        if !spec.stateful {
            continue;
        }
        for o in 0..g.num_outputs(c) {
            let (mut wants_race, mut wants_stream) = (false, false);
            let mut stack = vec![(c, o)];
            let mut visited = vec![(c, o)];
            while let Some((src, sp)) = stack.pop() {
                for (dst, dport) in g.sinks(src, sp) {
                    match required_domain(specs[dst], dport) {
                        Some(PortDomain::Race) => wants_race = true,
                        Some(PortDomain::Stream) => wants_stream = true,
                        _ => {}
                    }
                    if specs[dst].is_some_and(is_passthrough) {
                        for next_out in 0..g.num_outputs(dst) {
                            if !visited.contains(&(dst, next_out)) {
                                visited.push((dst, next_out));
                                stack.push((dst, next_out));
                            }
                        }
                    }
                }
            }
            if wants_race && wants_stream {
                diags.push(Diagnostic::new(
                    Code::ConflictingFanout,
                    Some(g.name(c).to_string()),
                    format!(
                        "output {o} of this stateful {} fans out into both a \
                         race-logic and a pulse-stream consumer; one of them \
                         misreads the cell's state",
                        g.kind(c)
                    ),
                ));
            }
        }
    }
}
