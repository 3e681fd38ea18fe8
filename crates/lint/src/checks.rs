//! Structural checks: fanout legality, connectivity, reachability,
//! cycle detection, and JJ accounting.

use usfq_cells::catalog::jj_for_kind;
use usfq_sim::graph::{sccs, CircuitGraph as Graph};
use usfq_sim::{Circuit, ProbeSource};

use crate::diag::{Code, Diagnostic};
use crate::fix::{Fix, FixSource};

/// USFQ001 — every output net (component output or external input) must
/// drive at most one sink; physical fan-out needs explicit splitters.
pub(crate) fn fanout(circuit: &Circuit, diags: &mut Vec<Diagnostic>) {
    for overflow in circuit.fanout_overflows() {
        let (what, source) = if overflow.comp.is_some() {
            (
                format!("output {} of the component", overflow.port),
                FixSource::Output {
                    component: overflow.name.clone(),
                    port: overflow.port,
                },
            )
        } else {
            (
                "the external input".to_string(),
                FixSource::Input {
                    name: overflow.name.clone(),
                },
            )
        };
        diags.push(
            Diagnostic::new(
                Code::FanoutViolation,
                Some(overflow.name.clone()),
                format!(
                    "{what} drives {} sinks; a physical SFQ output drives exactly \
                     one — insert a splitter tree",
                    overflow.sinks
                ),
            )
            .with_fix(Fix::SplitterTree { source }),
        );
    }
}

/// USFQ002 — input ports with no driver. Warning: some cells are
/// legitimately part-wired (e.g. an NDRO set once at init time), but a
/// floating port usually means a forgotten `connect`.
pub(crate) fn unconnected_inputs(g: &Graph, diags: &mut Vec<Diagnostic>) {
    for (c, ports) in g.drivers.iter().enumerate() {
        for (port, drv) in ports.iter().enumerate() {
            if drv.is_empty() {
                diags.push(Diagnostic::new(
                    Code::UnconnectedInput,
                    Some(g.names[c].clone()),
                    format!(
                        "input port {port} of this {} has no driver; it can \
                         never receive a pulse",
                        g.meta[c].kind
                    ),
                ));
            }
        }
    }
}

/// USFQ003 / USFQ004 — components (and the probes tapping them) that no
/// external input can ever pulse.
pub(crate) fn reachability(g: &Graph, diags: &mut Vec<Diagnostic>) {
    let reachable = g.reachable_from_inputs();
    for (c, &ok) in reachable.iter().enumerate() {
        if !ok {
            diags.push(Diagnostic::new(
                Code::UnreachableComponent,
                Some(g.names[c].clone()),
                "no path from any external input reaches this component; it \
                 is dead logic"
                    .to_string(),
            ));
        }
    }
    for (name, source) in &g.probes {
        if let ProbeSource::Output(comp, port) = source {
            if !reachable[comp.index()] {
                diags.push(Diagnostic::new(
                    Code::DanglingProbe,
                    Some(name.clone()),
                    format!(
                        "probe taps output {port} of unreachable component \
                         `{}`; it will never record a pulse",
                        g.names[comp.index()]
                    ),
                ));
            }
        }
    }
}

/// USFQ009 — a component whose declared kind has a catalog entry must
/// carry exactly the catalog JJ count, or area accounting drifts.
pub(crate) fn jj_accounting(g: &Graph, diags: &mut Vec<Diagnostic>) {
    for c in 0..g.len() {
        if let Some(expected) = jj_for_kind(g.meta[c].kind) {
            if g.jj[c] != expected {
                diags.push(Diagnostic::new(
                    Code::JjMismatch,
                    Some(g.names[c].clone()),
                    format!(
                        "component of kind `{}` reports {} JJs but the cell \
                         catalog says {expected}",
                        g.meta[c].kind, g.jj[c]
                    ),
                ));
            }
        }
    }
}

/// USFQ005 — strongly connected components of the comp→comp wire graph.
///
/// Returns the set of components that sit on any cycle (allowlisted or
/// not); the timing pass skips them and everything downstream. A cycle
/// is tolerated only if *every* member's name contains at least one
/// allowlist substring — otherwise it is an error, because a static
/// arrival-window analysis cannot bound it and a real pulse could
/// circulate forever.
pub(crate) fn cycles(g: &Graph, allowlist: &[String], diags: &mut Vec<Diagnostic>) -> Vec<bool> {
    let mut cyclic = vec![false; g.len()];
    for scc in sccs(g.len(), |c| &g.succs[c]).iter() {
        let is_cycle = scc.len() > 1 || g.succs[scc[0]].contains(&scc[0]);
        if !is_cycle {
            continue;
        }
        for &c in scc {
            cyclic[c] = true;
        }
        let covered = scc
            .iter()
            .all(|&c| allowlist.iter().any(|pat| g.names[c].contains(pat)));
        if !covered {
            let mut members: Vec<&str> = scc.iter().map(|&c| g.names[c].as_str()).collect();
            members.sort_unstable();
            diags.push(Diagnostic::new(
                Code::CombinationalCycle,
                Some(members[0].to_string()),
                format!(
                    "feedback loop through {{{}}} is not covered by the cycle \
                     allowlist; static timing cannot bound it",
                    members.join(", ")
                ),
            ));
        }
    }
    cyclic
}
