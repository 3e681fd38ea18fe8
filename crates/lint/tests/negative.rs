//! Every lint check must fire on a circuit seeded with exactly that
//! defect — and stay quiet on a clean one.

use usfq_cells::{Balancer, Dff, FirstArrival, Jtl, Merger, Ndro, Splitter, Tff};
use usfq_lint::{lint, lint_netlist, probe_windows, Code, LintConfig, Severity};
use usfq_sim::component::{Buffer, CellState, Component, Ctx, StaticMeta};
use usfq_sim::{Circuit, Time};

fn ps(v: f64) -> Time {
    Time::from_ps(v)
}

fn window_config(input_window: Time) -> LintConfig {
    LintConfig {
        input_window,
        ..LintConfig::default()
    }
}

#[test]
fn clean_chain_reports_nothing() {
    let mut c = Circuit::new();
    let input = c.input("in");
    let j = c.add(Jtl::new("j"));
    c.connect_input(input, j.input(0), Time::ZERO).unwrap();
    c.probe(j.output(0), "out");

    let report = lint(&c, "clean", &LintConfig::default());
    assert!(
        report.diagnostics.is_empty(),
        "unexpected findings:\n{}",
        report.render_text()
    );
}

#[test]
fn usfq001_fires_on_unsplit_fanout() {
    let mut c = Circuit::new();
    let input = c.input("in");
    let src = c.add(Jtl::new("src"));
    let a = c.add(Jtl::new("a"));
    let b = c.add(Jtl::new("b"));
    c.connect_input(input, src.input(0), Time::ZERO).unwrap();
    // Electrical fan-out without a splitter: illegal in physical RSFQ.
    c.connect(src.output(0), a.input(0), Time::ZERO).unwrap();
    c.connect(src.output(0), b.input(0), Time::ZERO).unwrap();

    let report = lint(&c, "fanout", &LintConfig::default());
    assert!(report.has(Code::FanoutViolation));
    assert!(report.has_errors());
    let diag = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::FanoutViolation)
        .unwrap();
    assert_eq!(diag.component.as_deref(), Some("src"));
    assert!(diag.message.contains("2 sinks"));
}

#[test]
fn usfq002_fires_on_floating_input_port() {
    let mut c = Circuit::new();
    let input = c.input("in");
    let m = c.add(Merger::with_window("m", Time::ZERO));
    // Only IN_A is wired; IN_B floats.
    c.connect_input(input, m.input(Merger::IN_A), Time::ZERO)
        .unwrap();
    c.probe(m.output(Merger::OUT), "out");

    let report = lint(&c, "floating", &LintConfig::default());
    assert!(report.has(Code::UnconnectedInput));
    assert!(!report.has_errors(), "USFQ002 is a warning, not an error");
}

#[test]
fn usfq003_and_usfq004_fire_on_dead_logic() {
    let mut c = Circuit::new();
    let input = c.input("in");
    let live = c.add(Jtl::new("live"));
    c.connect_input(input, live.input(0), Time::ZERO).unwrap();
    c.probe(live.output(0), "ok");
    // An island no input reaches, with a probe on it.
    let dead = c.add(Jtl::new("dead"));
    c.probe(dead.output(0), "silent");

    let report = lint(&c, "dead", &LintConfig::default());
    assert!(report.has(Code::UnreachableComponent));
    assert!(report.has(Code::DanglingProbe));
    let dangling = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::DanglingProbe)
        .unwrap();
    assert_eq!(dangling.component.as_deref(), Some("silent"));
}

#[test]
fn usfq005_fires_on_unallowlisted_cycle() {
    let mut c = Circuit::new();
    let input = c.input("in");
    let m = c.add(Merger::with_window("m", Time::ZERO));
    let j = c.add(Jtl::new("j"));
    c.connect_input(input, m.input(Merger::IN_A), Time::ZERO)
        .unwrap();
    c.connect(m.output(Merger::OUT), j.input(0), Time::ZERO)
        .unwrap();
    // Feedback: the JTL re-enters the merger.
    c.connect(j.output(0), m.input(Merger::IN_B), Time::ZERO)
        .unwrap();
    c.probe(j.output(0), "out");

    let report = lint(&c, "cycle", &LintConfig::default());
    assert!(report.has(Code::CombinationalCycle));
    assert!(report.has_errors());
    let diag = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::CombinationalCycle)
        .unwrap();
    assert!(diag.message.contains('j') && diag.message.contains('m'));
}

/// Two uncovered cycles, the second fed by the first, a merger that
/// re-enters itself and an allowlisted ring: USFQ005 reports each
/// uncovered cycle once, the self-loop included, names every member,
/// and leaves the ring to USFQ010, which counts every component on or
/// downstream of a loop.
#[test]
fn usfq005_and_usfq010_pin_every_loop() {
    let mut c = Circuit::new();
    let input = c.input("in");
    // Cycle a: a_m -> a_sp -> a_j -> a_m, whose splitter also feeds b.
    let a_m = c.add(Merger::with_window("a_m", Time::ZERO));
    let a_sp = c.add(Splitter::new("a_sp"));
    let a_j = c.add(Jtl::new("a_j"));
    c.connect_input(input, a_m.input(Merger::IN_A), Time::ZERO)
        .unwrap();
    c.connect(a_m.output(Merger::OUT), a_sp.input(0), ps(1.0))
        .unwrap();
    c.connect(a_sp.output(0), a_j.input(0), Time::ZERO).unwrap();
    c.connect(a_j.output(0), a_m.input(Merger::IN_B), ps(2.0))
        .unwrap();
    // Cycle b: b_m -> b_j1 -> b_j2 -> b_m.
    let b_m = c.add(Merger::with_window("b_m", Time::ZERO));
    let b_j1 = c.add(Jtl::new("b_j1"));
    let b_j2 = c.add(Jtl::new("b_j2"));
    c.connect(a_sp.output(1), b_m.input(Merger::IN_A), Time::ZERO)
        .unwrap();
    c.connect(b_m.output(Merger::OUT), b_j1.input(0), Time::ZERO)
        .unwrap();
    c.connect(b_j1.output(0), b_j2.input(0), ps(3.0)).unwrap();
    c.connect(b_j2.output(0), b_m.input(Merger::IN_B), Time::ZERO)
        .unwrap();
    // A self-loop.
    let selfie = c.input("selfie");
    let s = c.add(Merger::with_window("s", Time::ZERO));
    c.connect_input(selfie, s.input(Merger::IN_A), Time::ZERO)
        .unwrap();
    c.connect(s.output(Merger::OUT), s.input(Merger::IN_B), ps(4.0))
        .unwrap();
    // The allowlisted ring, and a JTL past it.
    let fed = c.input("fed");
    let ring_m = c.add(Merger::with_window("ring_m", Time::ZERO));
    let ring_sp = c.add(Splitter::new("ring_sp"));
    let tail = c.add(Jtl::new("tail"));
    c.connect_input(fed, ring_m.input(Merger::IN_A), Time::ZERO)
        .unwrap();
    c.connect(ring_m.output(Merger::OUT), ring_sp.input(0), Time::ZERO)
        .unwrap();
    c.connect(ring_sp.output(0), ring_m.input(Merger::IN_B), Time::ZERO)
        .unwrap();
    c.connect(ring_sp.output(1), tail.input(0), Time::ZERO)
        .unwrap();
    c.probe(tail.output(0), "out");

    let config = LintConfig {
        cycle_allowlist: vec!["ring".to_string()],
        ..LintConfig::default()
    };
    let report = lint(&c, "loops", &config);
    let pinned: Vec<(Code, Severity, Option<&str>, &str)> = report
        .diagnostics
        .iter()
        .filter(|d| matches!(d.code, Code::CombinationalCycle | Code::TimingSkipped))
        .map(|d| {
            (
                d.code,
                d.severity,
                d.component.as_deref(),
                d.message.as_str(),
            )
        })
        .collect();
    let uncovered = |first, members| {
        let message = format!(
            "feedback loop through {{{members}}} is not covered by the cycle \
             allowlist; static timing cannot bound it"
        );
        (
            Code::CombinationalCycle,
            Severity::Error,
            Some(first),
            message,
        )
    };
    let expected = [
        uncovered("a_j", "a_j, a_m, a_sp"),
        uncovered("b_j1", "b_j1, b_j2, b_m"),
        uncovered("s", "s"),
        (
            Code::TimingSkipped,
            Severity::Info,
            None,
            "10 component(s) sit on or downstream of a feedback loop; arrival \
             windows and hazard checks do not cover them"
                .to_string(),
        ),
    ];
    let expected: Vec<_> = expected
        .iter()
        .map(|(code, severity, component, message)| {
            (*code, *severity, *component, message.as_str())
        })
        .collect();
    assert_eq!(pinned, expected, "{}", report.render_text());
}

#[test]
fn usfq010_allowlisted_cycle_downgrades_to_skipped_timing() {
    let mut c = Circuit::new();
    let input = c.input("in");
    let m = c.add(Merger::with_window("ring_m", Time::ZERO));
    let j = c.add(Jtl::new("ring_j"));
    c.connect_input(input, m.input(Merger::IN_A), Time::ZERO)
        .unwrap();
    c.connect(m.output(Merger::OUT), j.input(0), Time::ZERO)
        .unwrap();
    c.connect(j.output(0), m.input(Merger::IN_B), Time::ZERO)
        .unwrap();
    c.probe(j.output(0), "out");

    let config = LintConfig {
        cycle_allowlist: vec!["ring".to_string()],
        ..LintConfig::default()
    };
    let report = lint(&c, "ring", &config);
    assert!(!report.has(Code::CombinationalCycle));
    assert!(report.has(Code::TimingSkipped));
    assert!(!report.has_errors());

    // The probe sits on the ring: its arrival window is unknowable.
    let windows = probe_windows(&c, &config);
    assert_eq!(windows.len(), 1);
    assert_eq!(windows[0], ("out".to_string(), None));
}

#[test]
fn usfq006_fires_on_overlapping_merger_inputs() {
    let mut c = Circuit::new();
    let a = c.input("a");
    let b = c.input("b");
    let m = c.add(Merger::new("m")); // real t_merger collision window
    c.connect_input(a, m.input(Merger::IN_A), Time::ZERO)
        .unwrap();
    c.connect_input(b, m.input(Merger::IN_B), Time::ZERO)
        .unwrap();
    c.probe(m.output(Merger::OUT), "out");

    // Both inputs can pulse anywhere in [0, 100 ps]: windows overlap.
    let report = lint(&c, "collision", &window_config(ps(100.0)));
    assert!(report.has(Code::MergerCollision));
    assert!(!report.has_errors(), "hazards are warnings");

    // An ideal (zero-window) merger cannot collide.
    let mut c2 = Circuit::new();
    let a2 = c2.input("a");
    let b2 = c2.input("b");
    let m2 = c2.add(Merger::with_window("m", Time::ZERO));
    c2.connect_input(a2, m2.input(Merger::IN_A), Time::ZERO)
        .unwrap();
    c2.connect_input(b2, m2.input(Merger::IN_B), Time::ZERO)
        .unwrap();
    c2.probe(m2.output(Merger::OUT), "out");
    let report2 = lint(&c2, "ideal", &window_config(ps(100.0)));
    assert!(!report2.has(Code::MergerCollision));
}

#[test]
fn usfq007_fires_on_balancer_transition_overlap() {
    let mut c = Circuit::new();
    let a = c.input("a");
    let b = c.input("b");
    let bal = c.add(Balancer::new("bal"));
    c.connect_input(a, bal.input(Balancer::IN_A), Time::ZERO)
        .unwrap();
    c.connect_input(b, bal.input(Balancer::IN_B), Time::ZERO)
        .unwrap();
    c.probe(bal.output(Balancer::OUT_Y1), "y1");
    c.probe(bal.output(Balancer::OUT_Y2), "y2");

    let report = lint(&c, "transition", &window_config(ps(50.0)));
    assert!(report.has(Code::SetupRace));
    assert!(!report.has_errors());
}

#[test]
fn usfq007_fires_on_ndro_setup_race_and_respects_separation() {
    // Racy: set and clock windows overlap.
    let mut c = Circuit::new();
    let s = c.input("s");
    let r = c.input("r");
    let clk = c.input("clk");
    let n = c.add(Ndro::new("n"));
    c.connect_input(s, n.input(Ndro::IN_S), Time::ZERO).unwrap();
    c.connect_input(r, n.input(Ndro::IN_R), Time::ZERO).unwrap();
    c.connect_input(clk, n.input(Ndro::IN_CLK), Time::ZERO)
        .unwrap();
    c.probe(n.output(Ndro::OUT_Q), "q");
    let report = lint(&c, "race", &window_config(ps(20.0)));
    assert!(report.has(Code::SetupRace));

    // Safe: the clock wire delay pushes sampling far past settling.
    let mut c2 = Circuit::new();
    let s2 = c2.input("s");
    let r2 = c2.input("r");
    let clk2 = c2.input("clk");
    let n2 = c2.add(Ndro::new("n"));
    c2.connect_input(s2, n2.input(Ndro::IN_S), Time::ZERO)
        .unwrap();
    c2.connect_input(r2, n2.input(Ndro::IN_R), Time::ZERO)
        .unwrap();
    c2.connect_input(clk2, n2.input(Ndro::IN_CLK), ps(500.0))
        .unwrap();
    c2.probe(n2.output(Ndro::OUT_Q), "q");
    let report2 = lint(&c2, "separated", &window_config(ps(20.0)));
    assert!(!report2.has(Code::SetupRace));
}

#[test]
fn usfq008_fires_when_arrival_exceeds_budget() {
    let mut c = Circuit::new();
    let input = c.input("in");
    let j = c.add(Jtl::new("j"));
    c.connect_input(input, j.input(0), Time::ZERO).unwrap();
    c.probe(j.output(0), "out");

    let config = LintConfig {
        input_window: ps(10.0),
        epoch_budget: Some(ps(5.0)),
        ..LintConfig::default()
    };
    let report = lint(&c, "budget", &config);
    assert!(report.has(Code::BudgetExceeded));
    assert!(report.has_errors());
}

/// A cell that claims a catalog kind but carries the wrong JJ count.
struct MisCountedJtl;

impl Component for MisCountedJtl {
    fn name(&self) -> &'static str {
        "bad_jtl"
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn jj_count(&self) -> u32 {
        99
    }
    fn on_pulse(&self, _state: &mut CellState, _port: usize, _now: Time, ctx: &mut Ctx) {
        ctx.emit(0, Time::ZERO);
    }
    fn static_meta(&self) -> StaticMeta {
        StaticMeta::new("jtl", Time::ZERO)
    }
}

#[test]
fn usfq009_fires_on_jj_catalog_mismatch() {
    let mut c = Circuit::new();
    let input = c.input("in");
    let bad = c.add(MisCountedJtl);
    c.connect_input(input, bad.input(0), Time::ZERO).unwrap();
    c.probe(bad.output(0), "out");

    let report = lint(&c, "jj", &LintConfig::default());
    assert!(report.has(Code::JjMismatch));
    assert!(report.has_errors());
    let diag = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::JjMismatch)
        .unwrap();
    assert!(diag.message.contains("99"));
}

/// A cell that borrows the `tff` kind string but declares two outputs,
/// so its kind and port counts match no catalog row.
struct TwoOutputTff;

impl Component for TwoOutputTff {
    fn name(&self) -> &'static str {
        "odd_tff"
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        2
    }
    fn jj_count(&self) -> u32 {
        99
    }
    fn on_pulse(&self, _state: &mut CellState, _port: usize, _now: Time, ctx: &mut Ctx) {
        ctx.emit(1, Time::ZERO);
    }
    fn static_meta(&self) -> StaticMeta {
        StaticMeta::new("tff", Time::ZERO)
    }
}

#[test]
fn catalog_kind_with_other_port_counts_is_unknown() {
    let mut c = Circuit::new();
    let input = c.input("in");
    let odd = c.add(TwoOutputTff);
    let buf = c.add(Buffer::new("buf", ps(3.0)));
    c.connect_input(input, odd.input(0), Time::ZERO).unwrap();
    c.connect(odd.output(1), buf.input(0), Time::ZERO).unwrap();
    c.probe(buf.output(0), "out");

    let config = LintConfig {
        epoch_pulse_capacity: Some(4),
        ..LintConfig::default()
    };
    let report = lint(&c, "odd-tff", &config);
    // An unknown cell gets no JJ check and no domain or count facts.
    assert!(!report.has(Code::JjMismatch));
    assert!(!report.has_errors(), "{}", report.render_text());
}

#[test]
fn probe_windows_track_wire_and_cell_delays() {
    let mut c = Circuit::new();
    let input = c.input("in");
    let j = c.add(Jtl::new("j")); // catalog t_jtl = 3 ps
    c.connect_input(input, j.input(0), ps(2.0)).unwrap();
    c.probe(j.output(0), "out");

    let windows = probe_windows(&c, &window_config(ps(10.0)));
    assert_eq!(
        windows,
        vec![("out".to_string(), Some((ps(5.0), ps(15.0))))]
    );
}

/// Windows come back in probe-id order, not in the order the probes
/// tap the netlist (component outputs by component, then inputs).
#[test]
fn probe_windows_are_in_probe_id_order() {
    let mut c = Circuit::new();
    let x = c.input("x");
    let b1 = c.add(Jtl::new("j1"));
    let b2 = c.add(Jtl::new("j2"));
    c.connect_input(x, b1.input(0), ps(2.0)).unwrap();
    c.connect(b1.output(0), b2.input(0), ps(1.0)).unwrap();
    let ids = [
        c.probe_input(x, "x"),
        c.probe(b2.output(0), "b2"),
        c.probe(b1.output(0), "b1"),
    ];
    let windows = probe_windows(&c, &window_config(ps(10.0)));
    assert_eq!(
        windows,
        vec![
            ("x".to_string(), Some((ps(0.0), ps(10.0)))),
            ("b2".to_string(), Some((ps(9.0), ps(19.0)))),
            ("b1".to_string(), Some((ps(5.0), ps(15.0)))),
        ]
    );
    for id in ids {
        assert_eq!(windows[id.index()].0, c.probe_name(id).unwrap());
    }
}

/// A sink that counts pulses and declares its counting capacity, like
/// the stream-to-RL integrator does.
struct CountingSink {
    capacity: u64,
}

impl Component for CountingSink {
    fn name(&self) -> &'static str {
        "ctr"
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn jj_count(&self) -> u32 {
        4
    }
    fn on_pulse(&self, _state: &mut CellState, _port: usize, _now: Time, _ctx: &mut Ctx) {}
    fn static_meta(&self) -> StaticMeta {
        StaticMeta::new("ctr", Time::ZERO).with_counting_capacity(self.capacity)
    }
}

#[test]
fn usfq011_fires_on_race_wire_into_stream_port() {
    // FA emits a race-logic arrival time; a TFF divides a pulse count.
    let mut c = Circuit::new();
    let a = c.input("a");
    let b = c.input("b");
    let rst = c.input("rst");
    let fa = c.add(FirstArrival::new("fa"));
    c.connect_input(a, fa.input(FirstArrival::IN_A), Time::ZERO)
        .unwrap();
    c.connect_input(b, fa.input(FirstArrival::IN_B), Time::ZERO)
        .unwrap();
    c.connect_input(rst, fa.input(FirstArrival::IN_RST), Time::ZERO)
        .unwrap();
    let t = c.add(Tff::new("t"));
    c.connect(fa.output(FirstArrival::OUT), t.input(Tff::IN), Time::ZERO)
        .unwrap();
    c.probe(t.output(Tff::OUT), "out");

    let report = lint(&c, "race-into-stream", &LintConfig::default());
    assert!(report.has(Code::DomainMismatch));
    assert!(report.has_errors());
    let diag = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::DomainMismatch)
        .unwrap();
    assert_eq!(diag.component.as_deref(), Some("t"));
    assert!(diag.message.contains("pulse-stream"));
    assert!(diag.message.contains("race-logic"));

    // The same wire into a domain-agnostic JTL is fine.
    let mut c2 = Circuit::new();
    let a2 = c2.input("a");
    let b2 = c2.input("b");
    let rst2 = c2.input("rst");
    let fa2 = c2.add(FirstArrival::new("fa"));
    c2.connect_input(a2, fa2.input(FirstArrival::IN_A), Time::ZERO)
        .unwrap();
    c2.connect_input(b2, fa2.input(FirstArrival::IN_B), Time::ZERO)
        .unwrap();
    c2.connect_input(rst2, fa2.input(FirstArrival::IN_RST), Time::ZERO)
        .unwrap();
    let j = c2.add(Jtl::new("j"));
    c2.connect(fa2.output(FirstArrival::OUT), j.input(0), Time::ZERO)
        .unwrap();
    c2.probe(j.output(0), "out");
    let report2 = lint(&c2, "race-into-jtl", &LintConfig::default());
    assert!(!report2.has(Code::DomainMismatch));
}

#[test]
fn usfq012_fires_when_count_bound_exceeds_capacity() {
    let build = |capacity| {
        let mut c = Circuit::new();
        let a = c.input("a");
        let b = c.input("b");
        let m = c.add(Merger::with_window("m", Time::ZERO));
        c.connect_input(a, m.input(Merger::IN_A), Time::ZERO)
            .unwrap();
        c.connect_input(b, m.input(Merger::IN_B), Time::ZERO)
            .unwrap();
        let ctr = c.add(CountingSink { capacity });
        c.connect(m.output(Merger::OUT), ctr.input(0), Time::ZERO)
            .unwrap();
        c.probe(ctr.output(0), "out");
        c
    };
    let config = LintConfig {
        epoch_pulse_capacity: Some(2),
        ..LintConfig::default()
    };

    // Two inputs of up to 2 pulses each merge into 4 ≥ capacity 2.
    let report = lint(&build(2), "overflow", &config);
    assert!(report.has(Code::CountOverflow));
    assert!(!report.has_errors(), "USFQ012 is a warning");
    let diag = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::CountOverflow)
        .unwrap();
    assert_eq!(diag.component.as_deref(), Some("ctr"));
    assert!(diag.message.contains('4') && diag.message.contains('2'));

    // A large enough counter absorbs the worst case.
    let report2 = lint(&build(4), "fits", &config);
    assert!(!report2.has(Code::CountOverflow));

    // Unknown input counts never claim an overflow.
    let report3 = lint(&build(2), "unknown", &LintConfig::default());
    assert!(!report3.has(Code::CountOverflow));
}

#[test]
fn usfq013_fires_on_provably_dead_toggle() {
    let build = || {
        let mut c = Circuit::new();
        let a = c.input("a");
        let t = c.add(Tff::new("t"));
        c.connect_input(a, t.input(Tff::IN), Time::ZERO).unwrap();
        c.probe(t.output(Tff::OUT), "out");
        c
    };

    // At most one pulse per epoch: a TFF halves it to zero.
    let config = LintConfig {
        epoch_pulse_capacity: Some(1),
        ..LintConfig::default()
    };
    let report = lint(&build(), "dead-toggle", &config);
    assert!(report.has(Code::DeadCell));
    assert!(!report.has_errors(), "USFQ013 is a warning");
    let diag = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::DeadCell)
        .unwrap();
    assert_eq!(diag.component.as_deref(), Some("t"));

    // With two pulses the toggle emits one: alive.
    let config2 = LintConfig {
        epoch_pulse_capacity: Some(2),
        ..LintConfig::default()
    };
    let report2 = lint(&build(), "live-toggle", &config2);
    assert!(!report2.has(Code::DeadCell));
}

#[test]
fn usfq014_fires_when_no_output_is_consumed() {
    let build = |probe_tail: bool| {
        let mut c = Circuit::new();
        let a = c.input("a");
        let spl = c.add(Splitter::new("spl"));
        c.connect_input(a, spl.input(Splitter::IN), Time::ZERO)
            .unwrap();
        let j = c.add(Jtl::new("j"));
        let tail = c.add(Jtl::new("tail"));
        c.connect(spl.output(Splitter::OUT_A), j.input(0), Time::ZERO)
            .unwrap();
        c.connect(spl.output(Splitter::OUT_B), tail.input(0), Time::ZERO)
            .unwrap();
        c.probe(j.output(0), "out");
        if probe_tail {
            c.probe(tail.output(0), "tail");
        }
        c
    };

    let report = lint(&build(false), "discarded", &LintConfig::default());
    assert!(report.has(Code::UnconsumedOutput));
    assert!(!report.has_errors(), "USFQ014 is a warning");
    let diag = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::UnconsumedOutput)
        .unwrap();
    assert_eq!(diag.component.as_deref(), Some("tail"));

    // A probe counts as consumption.
    let report2 = lint(&build(true), "probed", &LintConfig::default());
    assert!(!report2.has(Code::UnconsumedOutput));
}

#[test]
fn usfq015_fires_when_race_arrival_passes_epoch_end() {
    let build = || {
        let mut c = Circuit::new();
        let a = c.input("a");
        let b = c.input("b");
        let rst = c.input("rst");
        let fa = c.add(FirstArrival::new("fa"));
        // The long wire pushes IN_A's window to [500, 510] ps.
        c.connect_input(a, fa.input(FirstArrival::IN_A), ps(500.0))
            .unwrap();
        c.connect_input(b, fa.input(FirstArrival::IN_B), Time::ZERO)
            .unwrap();
        c.connect_input(rst, fa.input(FirstArrival::IN_RST), Time::ZERO)
            .unwrap();
        c.probe(fa.output(FirstArrival::OUT), "out");
        c
    };

    let config = LintConfig {
        input_window: ps(10.0),
        rl_epoch_end: Some(ps(100.0)),
        ..LintConfig::default()
    };
    let report = lint(&build(), "late-race", &config);
    assert!(report.has(Code::RacePastEpoch));
    assert!(!report.has_errors(), "USFQ015 is a warning");
    let diag = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::RacePastEpoch)
        .unwrap();
    assert_eq!(diag.component.as_deref(), Some("fa"));

    // A generous epoch end absorbs the delay; no epoch end disables
    // the check entirely.
    let config2 = LintConfig {
        input_window: ps(10.0),
        rl_epoch_end: Some(ps(1000.0)),
        ..LintConfig::default()
    };
    assert!(!lint(&build(), "roomy", &config2).has(Code::RacePastEpoch));
    let config3 = LintConfig {
        input_window: ps(10.0),
        ..LintConfig::default()
    };
    assert!(!lint(&build(), "unset", &config3).has(Code::RacePastEpoch));
}

#[test]
fn usfq016_fires_on_stateful_fanout_into_conflicting_domains() {
    // A DFF's output is encoding-agnostic, so USFQ011 cannot object —
    // but splitting it into a race consumer AND a stream consumer means
    // one of them misreads the stored state.
    let mut c = Circuit::new();
    let s = c.input("s");
    let r = c.input("r");
    let b = c.input("b");
    let rst = c.input("rst");
    let d = c.add(Dff::new("d"));
    c.connect_input(s, d.input(Dff::IN_S), Time::ZERO).unwrap();
    c.connect_input(r, d.input(Dff::IN_R), Time::ZERO).unwrap();
    let spl = c.add(Splitter::new("spl"));
    c.connect(d.output(Dff::OUT_Q), spl.input(Splitter::IN), Time::ZERO)
        .unwrap();
    let fa = c.add(FirstArrival::new("fa"));
    c.connect(
        spl.output(Splitter::OUT_A),
        fa.input(FirstArrival::IN_A),
        Time::ZERO,
    )
    .unwrap();
    c.connect_input(b, fa.input(FirstArrival::IN_B), Time::ZERO)
        .unwrap();
    c.connect_input(rst, fa.input(FirstArrival::IN_RST), Time::ZERO)
        .unwrap();
    let t = c.add(Tff::new("t"));
    c.connect(spl.output(Splitter::OUT_B), t.input(Tff::IN), Time::ZERO)
        .unwrap();
    c.probe(fa.output(FirstArrival::OUT), "race");
    c.probe(t.output(Tff::OUT), "count");

    let report = lint(&c, "conflicted", &LintConfig::default());
    assert!(report.has(Code::ConflictingFanout));
    assert!(report.has_errors());
    assert!(
        !report.has(Code::DomainMismatch),
        "an agnostic output must not trip USFQ011"
    );
    let diag = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::ConflictingFanout)
        .unwrap();
    assert_eq!(diag.component.as_deref(), Some("d"));

    // Fanning the same DFF into two stream consumers is consistent.
    let mut c2 = Circuit::new();
    let s2 = c2.input("s");
    let r2 = c2.input("r");
    let d2 = c2.add(Dff::new("d"));
    c2.connect_input(s2, d2.input(Dff::IN_S), Time::ZERO)
        .unwrap();
    c2.connect_input(r2, d2.input(Dff::IN_R), Time::ZERO)
        .unwrap();
    let spl2 = c2.add(Splitter::new("spl"));
    c2.connect(d2.output(Dff::OUT_Q), spl2.input(Splitter::IN), Time::ZERO)
        .unwrap();
    let ta = c2.add(Tff::new("ta"));
    let tb = c2.add(Tff::new("tb"));
    c2.connect(spl2.output(Splitter::OUT_A), ta.input(Tff::IN), Time::ZERO)
        .unwrap();
    c2.connect(spl2.output(Splitter::OUT_B), tb.input(Tff::IN), Time::ZERO)
        .unwrap();
    c2.probe(ta.output(Tff::OUT), "a");
    c2.probe(tb.output(Tff::OUT), "b");
    let report2 = lint(&c2, "consistent", &LintConfig::default());
    assert!(!report2.has(Code::ConflictingFanout));
}

#[test]
fn waivers_downgrade_matching_findings_to_info() {
    let mut c = Circuit::new();
    let a = c.input("a");
    let b = c.input("b");
    let m = c.add(Merger::new("m"));
    c.connect_input(a, m.input(Merger::IN_A), Time::ZERO)
        .unwrap();
    c.connect_input(b, m.input(Merger::IN_B), Time::ZERO)
        .unwrap();
    c.probe(m.output(Merger::OUT), "out");

    let unwaived = lint(&c, "loud", &window_config(ps(100.0)));
    assert_eq!(unwaived.worst_severity(), Some(Severity::Warning));

    let config = LintConfig {
        input_window: ps(100.0),
        waivers: vec![("USFQ006".to_string(), "m".to_string())],
        ..LintConfig::default()
    };
    let waived = lint(&c, "quiet", &config);
    assert_eq!(waived.worst_severity(), Some(Severity::Info));
    let diag = &waived.diagnostics[0];
    assert_eq!(diag.code, Code::MergerCollision);
    assert!(diag.is_waived());
    assert!(diag.message.contains("[waived]"));

    // A waiver for a different component leaves the finding alone.
    let config2 = LintConfig {
        input_window: ps(100.0),
        waivers: vec![("USFQ006".to_string(), "other".to_string())],
        ..LintConfig::default()
    };
    let kept = lint(&c, "still-loud", &config2);
    assert_eq!(kept.worst_severity(), Some(Severity::Warning));
}

#[test]
fn encoding_checks_are_silent_on_the_catalogue() {
    for netlist in usfq_core::netlists::shipped_netlists() {
        let report = lint_netlist(&netlist);
        for code in [
            Code::DomainMismatch,
            Code::CountOverflow,
            Code::DeadCell,
            Code::UnconsumedOutput,
            Code::RacePastEpoch,
            Code::ConflictingFanout,
        ] {
            assert_eq!(
                report.count(code),
                0,
                "`{}` unexpectedly fires {code} ({}):\n{}",
                netlist.name,
                code.as_str(),
                report.render_text()
            );
        }
    }
}

#[test]
fn shipped_netlists_pass_deny_warnings() {
    // Every expected warning is covered by a waiver, so a strict run
    // sees nothing above Info — the CI lint gate relies on this.
    for netlist in usfq_core::netlists::shipped_netlists() {
        let report = lint_netlist(&netlist);
        assert!(
            report.worst_severity() <= Some(Severity::Info),
            "`{}` has unwaived findings:\n{}",
            netlist.name,
            report.render_text()
        );
    }
}

#[test]
fn shipped_netlists_are_error_free() {
    let catalogue = usfq_core::netlists::shipped_netlists();
    assert!(!catalogue.is_empty());
    for netlist in &catalogue {
        let report = lint_netlist(netlist);
        assert!(
            !report.has_errors(),
            "shipped netlist `{}` has lint errors:\n{}",
            netlist.name,
            report.render_text()
        );
    }
}
