//! Conservative static timing: propagate `[min, max]` pulse-arrival
//! windows from the external inputs through wire and cell delays, then
//! test each component's declared hazards against the windows reaching
//! its input ports.
//!
//! The analysis is *sound* for acyclic pulse logic under the envelope
//! assumption (every external input pulses at most once, somewhere in
//! `[0, input_window]`): a simulated pulse can only ever arrive inside
//! the static window computed here — the soundness test suite checks
//! exactly that against the event simulator. It is deliberately
//! *incomplete*: windows overlapping does not prove two pulses really
//! collide, which is why hazard findings are warnings, not errors.

use usfq_cells::catalog::t_jtl;
use usfq_sim::component::Hazard;
use usfq_sim::graph::{CircuitGraph as Graph, Driver};
use usfq_sim::{ProbeSource, Time};

use crate::diag::{Code, Diagnostic};
use crate::fix::Fix;
use crate::LintConfig;

/// A closed arrival interval `[min, max]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Window {
    pub min: Time,
    pub max: Time,
}

impl Window {
    pub(crate) fn union(self, other: Window) -> Window {
        Window {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    fn shift(self, delay: Time) -> Window {
        Window {
            min: self.min + delay,
            max: self.max + delay,
        }
    }

    /// Can a pulse in `self` land within `margin` of a pulse in `other`?
    fn within(self, other: Window, margin: Time) -> bool {
        self.min <= other.max + margin && other.min <= self.max + margin
    }
}

/// Everything the timing pass derived, for callers beyond diagnostics.
pub(crate) struct TimingResult {
    /// Per probe: `(name, arrival window)`. `None` when the probe's
    /// source is skipped (cyclic region) or can never fire.
    pub probe_windows: Vec<(String, Option<(Time, Time)>)>,
    /// `port_windows[comp][port]` — arrival window at each input port.
    /// `None` when undriven or in a skipped (cyclic) region.
    pub port_windows: Vec<Vec<Option<Window>>>,
    /// `out_windows[comp]` — the window in which the component can emit
    /// a pulse. `None` when it can never fire or timing is skipped.
    pub out_windows: Vec<Option<Window>>,
    /// Components on or downstream of a feedback loop (windows
    /// unbounded, hazards unchecked).
    pub skipped: Vec<bool>,
    /// Topological order of the covered (non-skipped) region — the
    /// slack pass walks it backwards for required-time propagation.
    pub order: Vec<usize>,
}

impl TimingResult {
    /// The latest worst-case arrival over every covered probe: the
    /// minimal epoch budget this netlist can meet. `None` when no probe
    /// has a bounded window.
    pub fn max_probe_arrival(&self) -> Option<Time> {
        self.probe_windows
            .iter()
            .filter_map(|(_, w)| w.map(|(_, max)| max))
            .max()
    }
}

/// Runs the pass; `cyclic[c]` marks components on a feedback loop.
pub(crate) fn analyze(
    g: &Graph,
    cyclic: &[bool],
    cfg: &LintConfig,
    diags: &mut Vec<Diagnostic>,
) -> TimingResult {
    // Timing is skipped on every cyclic component and everything it
    // feeds: their windows are unbounded.
    let mut skipped: Vec<bool> = cyclic.to_vec();
    let mut stack: Vec<usize> = (0..g.len()).filter(|&c| cyclic[c]).collect();
    while let Some(c) = stack.pop() {
        for s in g.succs(c) {
            if !skipped[s] {
                skipped[s] = true;
                stack.push(s);
            }
        }
    }
    let n_skipped = skipped.iter().filter(|&&s| s).count();
    if n_skipped > 0 {
        diags.push(Diagnostic::new(
            Code::TimingSkipped,
            None,
            format!(
                "{n_skipped} component(s) sit on or downstream of a feedback \
                 loop; arrival windows and hazard checks do not cover them"
            ),
        ));
    }

    let input_window = Window {
        min: Time::ZERO,
        max: cfg.input_window,
    };

    // Topological order over the acyclic (non-skipped) region. Every
    // driver of a non-skipped component is either an external input or
    // another non-skipped component, so in-degrees close.
    let order = g.topo_order(&skipped);

    // Forward propagation. `out_window[c]` is the window in which `c`
    // can emit a pulse; `None` means it can never fire.
    let mut out_window: Vec<Option<Window>> = vec![None; g.len()];
    let mut port_windows: Vec<Vec<Option<Window>>> =
        (0..g.len()).map(|c| vec![None; g.num_inputs(c)]).collect();
    for &c in &order {
        for (port, window) in port_windows[c].iter_mut().enumerate() {
            for d in g.drivers(c, port) {
                let arriving = match *d {
                    Driver::Input(_, delay) => Some(input_window.shift(delay)),
                    Driver::Comp(src, _, delay) => out_window[src].map(|w| w.shift(delay)),
                };
                if let Some(w) = arriving {
                    *window = Some(window.map_or(w, |cur| cur.union(w)));
                }
            }
        }
        let driven = port_windows[c]
            .iter()
            .flatten()
            .copied()
            .reduce(Window::union);
        out_window[c] = driven.map(|w| Window {
            min: w.min + g.min_delay(c),
            max: w.max + g.max_delay(c),
        });
    }

    // Hazard checks on the covered region.
    for c in 0..g.len() {
        if skipped[c] {
            continue;
        }
        for hazard in g.hazards(c) {
            check_hazard(g, c, hazard, &port_windows[c], diags);
        }
    }

    // Budget check and probe windows.
    let mut probe_windows = Vec::new();
    for (name, source) in g.probes() {
        let window = match source {
            ProbeSource::Input(_) => Some((Time::ZERO, cfg.input_window)),
            ProbeSource::Output(comp, _) => {
                let c = comp.index();
                if skipped[c] {
                    None
                } else {
                    out_window[c].map(|w| (w.min, w.max))
                }
            }
        };
        if let (Some(budget), Some((_, max))) = (cfg.epoch_budget, window) {
            if max > budget {
                diags.push(Diagnostic::new(
                    Code::BudgetExceeded,
                    Some(name.to_string()),
                    format!(
                        "worst-case arrival at this probe is {:.1} ps, past \
                         the {:.1} ps epoch budget",
                        max.as_ps(),
                        budget.as_ps()
                    ),
                ));
            }
        }
        probe_windows.push((name.to_string(), window));
    }

    TimingResult {
        probe_windows,
        port_windows,
        out_windows: out_window,
        skipped,
        order,
    }
}

/// The padding repair that delays `port` of component `c` by at least
/// `pad`: a JTL chain on every wire into the port, rounded up to whole
/// catalog stages. `None` when no padding is needed.
fn pad_fix(g: &Graph, c: usize, port: usize, pad: Time) -> Option<Fix> {
    if pad == Time::ZERO {
        return None;
    }
    let stage = t_jtl().as_fs();
    let count = pad.as_fs().div_ceil(stage);
    Some(Fix::InsertJtls {
        component: g.name(c).to_string(),
        port,
        count: u32::try_from(count).unwrap_or(u32::MAX),
    })
}

/// Minimal delay that moves window `later` entirely past `earlier`'s
/// hazard margin: afterwards `later.min > earlier.max + margin`, so the
/// pair can no longer land within `margin` of each other.
fn separation_pad(earlier: Window, later: Window, margin: Time) -> Time {
    (earlier.max + margin + Time::from_fs(1)).saturating_sub(later.min)
}

fn check_hazard(
    g: &Graph,
    c: usize,
    hazard: &Hazard,
    ports: &[Option<Window>],
    diags: &mut Vec<Diagnostic>,
) {
    match *hazard {
        Hazard::Collision { window } => {
            // A zero-width window models ideal confluence: no possible
            // collision, nothing to check.
            if window == Time::ZERO {
                return;
            }
            for_each_overlap(ports, window, |a, b| {
                let mut d = Diagnostic::new(
                    Code::MergerCollision,
                    Some(g.name(c).to_string()),
                    format!(
                        "pulses on input ports {a} and {b} can arrive within \
                         the {:.1} ps collision window of this {}; one pulse \
                         may be silently dropped",
                        window.as_ps(),
                        g.kind(c)
                    ),
                );
                if let Some(fix) = overlap_fix(g, c, a, b, ports, window) {
                    d = d.with_fix(fix);
                }
                diags.push(d);
            });
        }
        Hazard::Transition { window } => {
            for_each_overlap(ports, window, |a, b| {
                let mut d = Diagnostic::new(
                    Code::SetupRace,
                    Some(g.name(c).to_string()),
                    format!(
                        "pulses on input ports {a} and {b} can land within \
                         the {:.1} ps internal-transition window of this {}; \
                         the second pulse may be misrouted",
                        window.as_ps(),
                        g.kind(c)
                    ),
                );
                if let Some(fix) = overlap_fix(g, c, a, b, ports, window) {
                    d = d.with_fix(fix);
                }
                diags.push(d);
            });
        }
        Hazard::Setup {
            control,
            sampled,
            window,
        } => {
            let (Some(ctrl), Some(smp)) = (
                ports.get(control).copied().flatten(),
                ports.get(sampled).copied().flatten(),
            ) else {
                return;
            };
            // The sampling pulse must not land while the control state
            // is still settling: [ctrl.min, ctrl.max + window] must not
            // intersect [smp.min, smp.max].
            let settling = Window {
                min: ctrl.min,
                max: ctrl.max + window,
            };
            if settling.within(smp, Time::ZERO) {
                let mut d = Diagnostic::new(
                    Code::SetupRace,
                    Some(g.name(c).to_string()),
                    format!(
                        "input port {sampled} can sample this {} while port \
                         {control} is still settling (needs {:.1} ps of \
                         setup)",
                        g.kind(c),
                        window.as_ps()
                    ),
                );
                // Only delaying the sampled side helps: the control
                // state must be fully settled before the sample lands.
                let pad = separation_pad(ctrl, smp, window);
                if let Some(fix) = pad_fix(g, c, sampled, pad) {
                    d = d.with_fix(fix);
                }
                diags.push(d);
            }
        }
        // `Hazard` is non-exhaustive: unknown future hazards are not
        // checkable here and must not crash the analyzer.
        _ => {}
    }
}

/// The cheaper of the two paddings that separate overlapping port
/// windows `a` and `b` by more than `margin`: delay whichever port
/// needs the smaller shift (ties go to the higher-numbered port, so
/// clock- or read-like late ports are preferred deterministically).
fn overlap_fix(
    g: &Graph,
    c: usize,
    a: usize,
    b: usize,
    ports: &[Option<Window>],
    margin: Time,
) -> Option<Fix> {
    let (wa, wb) = (ports[a]?, ports[b]?);
    let pad_a = separation_pad(wb, wa, margin);
    let pad_b = separation_pad(wa, wb, margin);
    if pad_a < pad_b {
        pad_fix(g, c, a, pad_a)
    } else {
        pad_fix(g, c, b, pad_b)
    }
}

/// Invokes `hit(a, b)` for every pair of driven ports whose windows can
/// produce pulses within `margin` of each other.
fn for_each_overlap(ports: &[Option<Window>], margin: Time, mut hit: impl FnMut(usize, usize)) {
    for a in 0..ports.len() {
        let Some(wa) = ports[a] else { continue };
        for (b, wb) in ports.iter().enumerate().skip(a + 1) {
            let Some(wb) = *wb else { continue };
            if wa.within(wb, margin) {
                hit(a, b);
            }
        }
    }
}
