//! Slack and critical-path analysis: the timing-closure layer.
//!
//! Built on the forward arrival windows of [`crate::timing`], this pass
//! adds the classic static-timing other half: a backward
//! *required-time* propagation from every probe endpoint (seeded with
//! the epoch budget) through wire and worst-case cell delays, giving
//! each component a **slack** — how much later it could emit before
//! some downstream probe misses the budget. Slack is signed: negative
//! slack means the budget is already blown through that component.
//!
//! Two diagnostics come out of it:
//!
//! * `USFQ017` (info) — for the K worst-slack probe endpoints, the
//!   critical path: the argmax-arrival predecessor chain from the
//!   endpoint back to an external input. This is the report a designer
//!   reads to decide where to spend area.
//! * `USFQ018` (warning) — a repair suggested by the hazard checks
//!   needs more padding than its component has downstream slack, so
//!   applying it will stretch the epoch. Emitted only for repairs whose
//!   parent finding is not waived: acknowledged hazards are not going
//!   to be repaired, so their area/latency bill is not owed.
//!
//! Endpoint extraction is embarrassingly parallel (each probe walks its
//! own predecessor chain over shared read-only state), so fabrics with
//! many probes fan out over [`Runner`] threads.

use std::collections::HashSet;

use usfq_cells::catalog::t_jtl;
use usfq_sim::graph::{CircuitGraph as Graph, Driver};
use usfq_sim::{ProbeSource, Runner, Time};

use crate::diag::{Code, Diagnostic};
use crate::fix::Fix;
use crate::timing::TimingResult;
use crate::LintConfig;

/// Probe count at and beyond which endpoint extraction fans out over
/// [`Runner`] threads; below it the sequential loop wins.
const PARALLEL_PROBE_THRESHOLD: usize = 64;

/// How many worst-slack endpoints get a `USFQ017` critical-path report.
const REPORTED_ENDPOINTS: usize = 4;

/// Slack at one probe endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndpointSlack {
    /// The probe name.
    pub probe: String,
    /// Worst-case (latest) static arrival at the probe. `None` when the
    /// endpoint sits on or downstream of a feedback loop, or can never
    /// fire.
    pub arrival: Option<Time>,
    /// The required arrival: the epoch budget.
    pub required: Time,
    /// `required − arrival` in femtoseconds; negative when the budget
    /// is blown. `None` whenever `arrival` is.
    pub slack_fs: Option<i64>,
    /// The critical path, input first: the argmax-arrival predecessor
    /// chain (`in:<name>` marks the external input). Endpoints without
    /// a bounded arrival report just their own component.
    pub path: Vec<String>,
}

/// Everything the slack pass derived.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlackReport {
    /// Per-probe slack, in probe order.
    pub endpoints: Vec<EndpointSlack>,
    /// The minimum endpoint slack, when any endpoint has one.
    pub worst_slack_fs: Option<i64>,
}

impl SlackReport {
    /// Endpoint indices from worst slack to best (endpoints without a
    /// slack excluded), ties broken by probe name.
    pub fn ranked(&self) -> Vec<usize> {
        let mut ranked: Vec<usize> = (0..self.endpoints.len())
            .filter(|&i| self.endpoints[i].slack_fs.is_some())
            .collect();
        ranked.sort_by(|&x, &y| {
            self.endpoints[x]
                .slack_fs
                .cmp(&self.endpoints[y].slack_fs)
                .then(self.endpoints[x].probe.cmp(&self.endpoints[y].probe))
        });
        ranked
    }
}

/// Runs the pass and appends `USFQ017`/`USFQ018` findings.
pub(crate) fn analyze(
    g: &Graph,
    timing: &TimingResult,
    cfg: &LintConfig,
    diags: &mut Vec<Diagnostic>,
) -> SlackReport {
    let Some(budget) = cfg.epoch_budget else {
        // No budget, no required times: slack is undefined everywhere.
        return SlackReport {
            endpoints: Vec::new(),
            worst_slack_fs: None,
        };
    };
    let budget_fs = budget.as_fs() as i64;
    let input_window = cfg.input_window;

    let compute = |_: usize, &(name, source): &(&str, ProbeSource)| -> EndpointSlack {
        let name = name.to_string();
        match source {
            ProbeSource::Input(input) => EndpointSlack {
                probe: name,
                arrival: Some(input_window),
                required: budget,
                slack_fs: Some(budget_fs - input_window.as_fs() as i64),
                path: vec![format!("in:{}", g.input_name(input.index()))],
            },
            ProbeSource::Output(comp, _) => {
                let c = comp.index();
                let window = if timing.skipped[c] {
                    None
                } else {
                    timing.out_windows[c]
                };
                match window {
                    Some(w) => EndpointSlack {
                        probe: name,
                        arrival: Some(w.max),
                        required: budget,
                        slack_fs: Some(budget_fs - w.max.as_fs() as i64),
                        path: trace_path(g, timing, input_window, c),
                    },
                    None => EndpointSlack {
                        probe: name,
                        arrival: None,
                        required: budget,
                        slack_fs: None,
                        path: vec![g.name(c).to_string()],
                    },
                }
            }
        }
    };
    let probes: Vec<(&str, ProbeSource)> = g.probes().collect();
    let endpoints: Vec<EndpointSlack> = if probes.len() >= PARALLEL_PROBE_THRESHOLD {
        Runner::from_env().map(&probes, compute)
    } else {
        probes.iter().map(|p| compute(0, p)).collect()
    };

    let report = SlackReport {
        worst_slack_fs: endpoints.iter().filter_map(|e| e.slack_fs).min(),
        endpoints,
    };

    for &i in report.ranked().iter().take(REPORTED_ENDPOINTS) {
        let e = &report.endpoints[i];
        let (Some(arrival), Some(slack)) = (e.arrival, e.slack_fs) else {
            continue;
        };
        diags.push(Diagnostic::new(
            Code::CriticalPath,
            Some(e.probe.clone()),
            format!(
                "worst-case arrival {:.1} ps against the {:.1} ps epoch \
                 budget leaves {:+.1} ps of slack; critical path: {}",
                arrival.as_ps(),
                e.required.as_ps(),
                slack as f64 / 1000.0,
                render_path(&e.path)
            ),
        ));
    }

    check_slack_deficits(g, timing, cfg, budget_fs, diags);
    report
}

/// Backward required-time propagation plus the `USFQ018` check: for
/// every suggested (unwaived) padding repair, compare its delay bill
/// against the component's downstream slack.
fn check_slack_deficits(
    g: &Graph,
    timing: &TimingResult,
    cfg: &LintConfig,
    budget_fs: i64,
    diags: &mut Vec<Diagnostic>,
) {
    // An acknowledged (waived) hazard is not going to be repaired: its
    // padding bill is not owed. With no bill owed there is nothing to
    // check, so the backward pass is skipped.
    let owes_padding = |d: &Diagnostic| match &d.fix {
        Some(Fix::InsertJtls { component, .. }) => {
            !crate::waiver_matches(&cfg.waivers, d.code, Some(component))
        }
        _ => false,
    };
    if !diags.iter().any(owes_padding) {
        return;
    }
    // required[c]: latest allowed emission (fs) keeping every
    // downstream probe inside the budget. Seed at probed components,
    // then walk the covered region in reverse topological order — every
    // successor of `c` is processed before `c`, so its contribution has
    // already landed.
    let mut required: Vec<Option<i64>> = vec![None; g.len()];
    for (_, source) in g.probes() {
        if let ProbeSource::Output(comp, _) = source {
            let c = comp.index();
            if !timing.skipped[c] {
                required[c] = Some(required[c].map_or(budget_fs, |r| r.min(budget_fs)));
            }
        }
    }
    for &c in timing.order.iter().rev() {
        let Some(r) = required[c] else { continue };
        let lat = g.max_delay(c).as_fs() as i64;
        for d in g.all_drivers(c) {
            if let Driver::Comp(src, _, delay) = *d {
                let cand = r - lat - delay.as_fs() as i64;
                required[src] = Some(required[src].map_or(cand, |cur| cur.min(cand)));
            }
        }
    }

    let index_of: std::collections::HashMap<&str, usize> =
        (0..g.len()).map(|i| (g.name(i), i)).collect();
    let t_stage = t_jtl().as_fs() as i64;
    let mut seen: HashSet<(String, usize)> = HashSet::new();
    let mut deficits = Vec::new();
    for d in diags.iter().filter(|d| owes_padding(d)) {
        let Some(Fix::InsertJtls {
            component,
            port,
            count,
        }) = &d.fix
        else {
            continue;
        };
        if !seen.insert((component.clone(), *port)) {
            continue;
        }
        let Some(&c) = index_of.get(component.as_str()) else {
            continue;
        };
        let slack = match (required[c], timing.out_windows[c]) {
            (Some(r), Some(w)) => r - w.max.as_fs() as i64,
            _ => continue,
        };
        let pad = i64::from(*count) * t_stage;
        if pad > slack {
            deficits.push(Diagnostic::new(
                Code::SlackDeficit,
                Some(component.clone()),
                format!(
                    "repairing input port {port} needs {:.1} ps of padding \
                     but `{component}` has only {:.1} ps of downstream \
                     slack; applying it stretches the epoch budget",
                    pad as f64 / 1000.0,
                    slack as f64 / 1000.0
                ),
            ));
        }
    }
    diags.extend(deficits);
}

/// The argmax-arrival predecessor chain from `endpoint` back to an
/// external input, rendered input-first.
fn trace_path(
    g: &Graph,
    timing: &TimingResult,
    input_window: Time,
    endpoint: usize,
) -> Vec<String> {
    enum Src {
        Input(usize),
        Comp(usize),
    }
    let mut path = vec![g.name(endpoint).to_string()];
    let mut cur = endpoint;
    // The covered region is acyclic, so the chain is bounded by the
    // component count; the loop bound is a defensive backstop.
    for _ in 0..=g.len() {
        let mut best: Option<(Time, Src)> = None;
        for d in g.all_drivers(cur) {
            let cand = match *d {
                Driver::Input(i, delay) => Some((input_window + delay, Src::Input(i))),
                Driver::Comp(src, _, delay) => {
                    timing.out_windows[src].map(|w| (w.max + delay, Src::Comp(src)))
                }
            };
            if let Some((t, s)) = cand {
                // Strict `>` keeps the first-seen maximum: ties resolve
                // by port then wire order, deterministically.
                if best.as_ref().map_or(true, |b| t > b.0) {
                    best = Some((t, s));
                }
            }
        }
        match best {
            Some((_, Src::Comp(src))) => {
                path.push(g.name(src).to_string());
                cur = src;
            }
            Some((_, Src::Input(i))) => {
                path.push(format!("in:{}", g.input_name(i)));
                break;
            }
            None => break,
        }
    }
    path.reverse();
    path
}

/// Joins a path with `->`, eliding the middle of very long chains so
/// fabric-scale reports stay readable.
fn render_path(path: &[String]) -> String {
    const HEAD: usize = 6;
    const TAIL: usize = 5;
    if path.len() <= HEAD + TAIL + 1 {
        path.join(" -> ")
    } else {
        format!(
            "{} -> ... ({} cells omitted) ... -> {}",
            path[..HEAD].join(" -> "),
            path.len() - HEAD - TAIL,
            path[path.len() - TAIL..].join(" -> ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lint, slack_report};
    use usfq_cells::interconnect::Merger;
    use usfq_sim::component::Buffer;
    use usfq_sim::Circuit;

    fn chain() -> (Circuit, LintConfig) {
        let mut c = Circuit::new();
        let x = c.input("x");
        let b1 = c.add(Buffer::new("b1", Time::from_ps(3.0)));
        let b2 = c.add(Buffer::new("b2", Time::from_ps(5.0)));
        c.connect_input(x, b1.input(0), Time::from_ps(2.0)).unwrap();
        c.connect(b1.output(0), b2.input(0), Time::from_ps(1.0))
            .unwrap();
        c.probe(b2.output(0), "end");
        let cfg = LintConfig {
            input_window: Time::from_ps(10.0),
            epoch_budget: Some(Time::from_ps(100.0)),
            ..LintConfig::default()
        };
        (c, cfg)
    }

    #[test]
    fn endpoint_slack_and_path_are_exact() {
        let (c, cfg) = chain();
        let report = slack_report(&c, &cfg);
        assert_eq!(report.endpoints.len(), 1);
        let e = &report.endpoints[0];
        // Arrival: 10 (window) + 2 + 3 + 1 + 5 = 21 ps.
        assert_eq!(e.arrival, Some(Time::from_ps(21.0)));
        assert_eq!(e.slack_fs, Some((Time::from_ps(79.0)).as_fs() as i64));
        assert_eq!(report.worst_slack_fs, e.slack_fs);
        assert_eq!(e.path, vec!["in:x", "b1", "b2"]);
    }

    #[test]
    fn negative_slack_is_signed() {
        let (c, mut cfg) = chain();
        cfg.epoch_budget = Some(Time::from_ps(15.0));
        let report = slack_report(&c, &cfg);
        assert_eq!(
            report.endpoints[0].slack_fs,
            Some(-(Time::from_ps(6.0).as_fs() as i64))
        );
    }

    #[test]
    fn critical_path_diags_are_emitted() {
        let (c, cfg) = chain();
        let report = lint(&c, "chain", &cfg);
        assert_eq!(report.count(Code::CriticalPath), 1);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == Code::CriticalPath)
            .unwrap();
        assert_eq!(d.component.as_deref(), Some("end"));
        assert!(d.message.contains("+79.0 ps of slack"), "{}", d.message);
        assert!(d.message.contains("in:x -> b1 -> b2"), "{}", d.message);
    }

    fn tight_merger() -> (Circuit, LintConfig) {
        let mut c = Circuit::new();
        let a = c.input("a");
        let b = c.input("b");
        let m = c.add(Merger::new("m"));
        c.connect_input(a, m.input(Merger::IN_A), Time::ZERO)
            .unwrap();
        c.connect_input(b, m.input(Merger::IN_B), Time::ZERO)
            .unwrap();
        c.probe(m.output(Merger::OUT), "out");
        let cfg = LintConfig {
            input_window: Time::from_ps(20.0),
            // Just enough for the unrepaired netlist: padding a port to
            // clear the collision window cannot fit.
            epoch_budget: Some(Time::from_ps(30.0)),
            ..LintConfig::default()
        };
        (c, cfg)
    }

    #[test]
    fn slack_deficit_fires_when_padding_exceeds_slack() {
        let (c, cfg) = tight_merger();
        let report = lint(&c, "tight", &cfg);
        assert!(report.has(Code::MergerCollision));
        assert_eq!(report.count(Code::SlackDeficit), 1);
    }

    #[test]
    fn slack_deficit_respects_waivers() {
        let (c, mut cfg) = tight_merger();
        cfg.waivers.push(("USFQ006".into(), "m".into()));
        let report = lint(&c, "tight", &cfg);
        assert!(report.has(Code::MergerCollision));
        assert!(!report.has(Code::SlackDeficit));
    }

    #[test]
    fn long_paths_elide_the_middle() {
        let path: Vec<String> = (0..30).map(|i| format!("c{i}")).collect();
        let rendered = render_path(&path);
        assert!(rendered.contains("(19 cells omitted)"));
        assert!(rendered.starts_with("c0 -> "));
        assert!(rendered.ends_with(" -> c29"));
    }
}
