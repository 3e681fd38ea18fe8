//! Diagnostics: stable codes, severities, and report rendering.

use std::fmt;

use crate::fix::Fix;

/// Every check the analyzer performs, with a stable `USFQxxx` code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum Code {
    /// `USFQ001` — an output (or external input) drives more than one
    /// sink without a splitter tree.
    FanoutViolation,
    /// `USFQ002` — a component input port has no driver.
    UnconnectedInput,
    /// `USFQ003` — a component is unreachable from every external input.
    UnreachableComponent,
    /// `USFQ004` — a probe taps a component that can never fire.
    DanglingProbe,
    /// `USFQ005` — a feedback loop not covered by the cycle allowlist.
    CombinationalCycle,
    /// `USFQ006` — two merger inputs can arrive within the collision
    /// window (paper Fig. 5 pulse loss).
    MergerCollision,
    /// `USFQ007` — a setup/transition race: a sampled or paired input
    /// can arrive inside another input's hazard window (§4.2 balancer
    /// transitions, NDRO/inverter setup).
    SetupRace,
    /// `USFQ008` — a probe's worst-case settling time exceeds the epoch
    /// budget.
    BudgetExceeded,
    /// `USFQ009` — a component's JJ count disagrees with the catalog
    /// row its kind and port counts match.
    JjMismatch,
    /// `USFQ010` — timing analysis was skipped for components on or
    /// downstream of an (allowlisted) cycle.
    TimingSkipped,
    /// `USFQ011` — a port requiring one encoding domain (race-logic or
    /// pulse-stream) is driven by a wire resolved to the other.
    DomainMismatch,
    /// `USFQ012` — the worst-case pulse count arriving at a counting
    /// cell's data port exceeds its declared counting capacity.
    CountOverflow,
    /// `USFQ013` — a reachable component whose outputs provably never
    /// carry a pulse (count interval `[0, 0]`).
    DeadCell,
    /// `USFQ014` — a reachable component none of whose outputs feed a
    /// wire or probe: every pulse it produces is silently discarded.
    UnconsumedOutput,
    /// `USFQ015` — a race-logic port whose worst-case arrival lands past
    /// the declared epoch end, so the encoded value is unrepresentable.
    RacePastEpoch,
    /// `USFQ016` — a stateful cell's output fans out (through
    /// passthrough interconnect) into ports requiring conflicting
    /// domains, coupling consumers that disagree on the encoding.
    ConflictingFanout,
    /// `USFQ017` — informational critical-path report: one of the K
    /// worst-slack probe endpoints, with its slack against the epoch
    /// budget and the argmax-arrival path back to an external input.
    CriticalPath,
    /// `USFQ018` — a suggested repair needs more padding than the
    /// repaired component has downstream slack, so applying it forces
    /// the epoch budget to stretch (timing closure at an area *and*
    /// latency cost).
    SlackDeficit,
}

impl Code {
    /// The stable textual code, e.g. `"USFQ006"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::FanoutViolation => "USFQ001",
            Code::UnconnectedInput => "USFQ002",
            Code::UnreachableComponent => "USFQ003",
            Code::DanglingProbe => "USFQ004",
            Code::CombinationalCycle => "USFQ005",
            Code::MergerCollision => "USFQ006",
            Code::SetupRace => "USFQ007",
            Code::BudgetExceeded => "USFQ008",
            Code::JjMismatch => "USFQ009",
            Code::TimingSkipped => "USFQ010",
            Code::DomainMismatch => "USFQ011",
            Code::CountOverflow => "USFQ012",
            Code::DeadCell => "USFQ013",
            Code::UnconsumedOutput => "USFQ014",
            Code::RacePastEpoch => "USFQ015",
            Code::ConflictingFanout => "USFQ016",
            Code::CriticalPath => "USFQ017",
            Code::SlackDeficit => "USFQ018",
        }
    }

    /// Every code, in `USFQ001..=USFQ018` order (SARIF rule inventory).
    pub fn all() -> &'static [Code] {
        &[
            Code::FanoutViolation,
            Code::UnconnectedInput,
            Code::UnreachableComponent,
            Code::DanglingProbe,
            Code::CombinationalCycle,
            Code::MergerCollision,
            Code::SetupRace,
            Code::BudgetExceeded,
            Code::JjMismatch,
            Code::TimingSkipped,
            Code::DomainMismatch,
            Code::CountOverflow,
            Code::DeadCell,
            Code::UnconsumedOutput,
            Code::RacePastEpoch,
            Code::ConflictingFanout,
            Code::CriticalPath,
            Code::SlackDeficit,
        ]
    }

    /// One-line rule description (SARIF `shortDescription`).
    pub fn summary(self) -> &'static str {
        match self {
            Code::FanoutViolation => "output drives multiple sinks without a splitter",
            Code::UnconnectedInput => "component input port has no driver",
            Code::UnreachableComponent => "component unreachable from every external input",
            Code::DanglingProbe => "probe taps a component that can never fire",
            Code::CombinationalCycle => "feedback loop outside the cycle allowlist",
            Code::MergerCollision => "merger inputs can collide within the loss window",
            Code::SetupRace => "setup/transition hazard window can be violated",
            Code::BudgetExceeded => "worst-case settling exceeds the epoch budget",
            Code::JjMismatch => "JJ count disagrees with the cell catalog",
            Code::TimingSkipped => "timing analysis skipped on a cyclic region",
            Code::DomainMismatch => "port driven by the wrong encoding domain",
            Code::CountOverflow => "pulse count can exceed the cell's counting capacity",
            Code::DeadCell => "reachable component provably never emits a pulse",
            Code::UnconsumedOutput => "no output of this component is wired or probed",
            Code::RacePastEpoch => "race-logic arrival can land past the epoch end",
            Code::ConflictingFanout => "stateful cell fans out into conflicting domains",
            Code::CriticalPath => "worst-slack critical path to this probe endpoint",
            Code::SlackDeficit => "suggested repair exceeds the downstream slack",
        }
    }

    /// The severity this code is reported at.
    pub fn severity(self) -> Severity {
        match self {
            Code::FanoutViolation
            | Code::CombinationalCycle
            | Code::BudgetExceeded
            | Code::JjMismatch => Severity::Error,
            Code::DomainMismatch | Code::ConflictingFanout => Severity::Error,
            Code::UnconnectedInput
            | Code::UnreachableComponent
            | Code::DanglingProbe
            | Code::MergerCollision
            | Code::SetupRace
            | Code::CountOverflow
            | Code::DeadCell
            | Code::UnconsumedOutput
            | Code::RacePastEpoch
            | Code::SlackDeficit => Severity::Warning,
            Code::TimingSkipped | Code::CriticalPath => Severity::Info,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How serious a finding is. Ordered: `Info < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Severity {
    /// Informational note; never fails a run.
    Info,
    /// Suspicious but possibly intended (e.g. init-time NDRO ports).
    Warning,
    /// A defect: the netlist is rejected.
    Error,
}

impl Severity {
    /// Lower-case label used in both renderings.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding, anchored to a component (or input/probe) path when one
/// exists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The check that fired.
    pub code: Code,
    /// Severity: `code.severity()` unless the finding was waived, in
    /// which case it is downgraded to [`Severity::Info`].
    pub severity: Severity,
    /// The offending component/input/probe name, if localized.
    pub component: Option<String>,
    /// Human-readable explanation.
    pub message: String,
    /// A machine-applicable repair, when the finding has a mechanical
    /// remedy. Serialized into SARIF `fixes` and applied by
    /// `usfq-lint --fix`.
    pub fix: Option<Fix>,
}

impl Diagnostic {
    /// Creates a diagnostic for `code` at its default severity.
    pub fn new(code: Code, component: Option<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            component,
            message: message.into(),
            fix: None,
        }
    }

    /// Attaches a machine-applicable repair.
    pub fn with_fix(mut self, fix: Fix) -> Self {
        self.fix = Some(fix);
        self
    }

    /// Downgrades the finding to [`Severity::Info`], marking it as
    /// acknowledged by a netlist waiver. The original code is kept so
    /// reports stay auditable.
    pub fn waive(&mut self) {
        if self.severity > Severity::Info {
            self.severity = Severity::Info;
            self.message.push_str(" [waived]");
        }
    }

    /// Whether this finding was downgraded by [`Diagnostic::waive`].
    pub fn is_waived(&self) -> bool {
        self.severity == Severity::Info && self.code.severity() > Severity::Info
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.severity, self.code)?;
        if let Some(c) = &self.component {
            write!(f, " `{c}`")?;
        }
        write!(f, ": {}", self.message)?;
        if let Some(fix) = &self.fix {
            write!(f, " [fix: {}]", fix.to_directive())?;
        }
        Ok(())
    }
}

/// The outcome of linting one netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintReport {
    /// Name of the analyzed netlist.
    pub netlist: String,
    /// All findings, most severe first.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Creates a report, sorting findings by descending severity, then
    /// code, then component path.
    pub fn new(netlist: impl Into<String>, mut diagnostics: Vec<Diagnostic>) -> Self {
        diagnostics.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then(a.code.cmp(&b.code))
                .then(a.component.cmp(&b.component))
                .then(a.message.cmp(&b.message))
        });
        LintReport {
            netlist: netlist.into(),
            diagnostics,
        }
    }

    /// True if any finding is an error.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.count_severity(Severity::Error)
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.count_severity(Severity::Warning)
    }

    fn count_severity(&self, s: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == s).count()
    }

    /// The most severe finding in the report, if any.
    pub fn worst_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// Number of findings with the given code.
    pub fn count(&self, code: Code) -> usize {
        self.diagnostics.iter().filter(|d| d.code == code).count()
    }

    /// Whether a code fired at all.
    pub fn has(&self, code: Code) -> bool {
        self.count(code) > 0
    }

    /// Human-readable rendering, one finding per line.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}: {} error(s), {} warning(s), {} finding(s)",
            self.netlist,
            self.error_count(),
            self.warning_count(),
            self.diagnostics.len()
        );
        for d in &self.diagnostics {
            let _ = writeln!(out, "  {d}");
        }
        out
    }

    /// JSON rendering (hand-rolled: the analyzer carries no serializer
    /// dependency).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"netlist\":\"{}\",\"errors\":{},\"warnings\":{},\"diagnostics\":[",
            escape_json(&self.netlist),
            self.error_count(),
            self.warning_count()
        );
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"code\":\"{}\",\"severity\":\"{}\",\"component\":",
                d.code, d.severity
            );
            match &d.component {
                Some(c) => {
                    let _ = write!(out, "\"{}\"", escape_json(c));
                }
                None => out.push_str("null"),
            }
            let _ = write!(out, ",\"message\":\"{}\",\"fix\":", escape_json(&d.message));
            match &d.fix {
                Some(fix) => {
                    let _ = write!(out, "\"{}\"", escape_json(&fix.to_directive()));
                }
                None => out.push_str("null"),
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Renders a set of reports as a single SARIF 2.1.0 log (one run, one
/// result per diagnostic), for code-scanning upload and CI annotation.
/// Hand-rolled like [`LintReport::to_json`]: no serializer dependency.
pub fn to_sarif(reports: &[LintReport]) -> String {
    use std::fmt::Write as _;

    fn sarif_level(s: Severity) -> &'static str {
        match s {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "note",
        }
    }

    let mut out = String::new();
    out.push_str(
        "{\"version\":\"2.1.0\",\
         \"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
         \"runs\":[{\"tool\":{\"driver\":{\"name\":\"usfq-lint\",\
         \"informationUri\":\"https://example.invalid/usfq-lint\",\
         \"rules\":[",
    );
    for (i, code) in Code::all().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"id\":\"{}\",\"shortDescription\":{{\"text\":\"{}\"}},\
             \"defaultConfiguration\":{{\"level\":\"{}\"}}}}",
            code.as_str(),
            escape_json(code.summary()),
            sarif_level(code.severity())
        );
    }
    out.push_str("]}},\"results\":[");
    let mut first = true;
    for report in reports {
        for d in &report.diagnostics {
            if !first {
                out.push(',');
            }
            first = false;
            let location = match &d.component {
                Some(c) => format!("{}::{}", report.netlist, c),
                None => report.netlist.clone(),
            };
            let _ = write!(
                out,
                "{{\"ruleId\":\"{}\",\"level\":\"{}\",\
                 \"message\":{{\"text\":\"{}\"}},\
                 \"locations\":[{{\"logicalLocations\":[{{\
                 \"fullyQualifiedName\":\"{}\"}}]}}]",
                d.code,
                sarif_level(d.severity),
                escape_json(&d.message),
                escape_json(&location)
            );
            // Machine-applicable repairs ride along as SARIF fixes: the
            // netlist is not a text artifact, so the "replacement" is an
            // insertion of the repair directive at a synthetic location
            // in a `usfq-netlist:` URI. `fixes_from_sarif` reverses this.
            if let Some(fix) = &d.fix {
                let _ = write!(
                    out,
                    ",\"fixes\":[{{\"description\":{{\"text\":\"{}\"}},\
                     \"artifactChanges\":[{{\
                     \"artifactLocation\":{{\"uri\":\"usfq-netlist:{}\"}},\
                     \"replacements\":[{{\
                     \"deletedRegion\":{{\"startLine\":1,\"startColumn\":1,\
                     \"endLine\":1,\"endColumn\":1}},\
                     \"insertedContent\":{{\"text\":\"{}\"}}}}]}}]}}]",
                    escape_json(&fix.describe()),
                    escape_json(&report.netlist),
                    escape_json(&fix.to_directive())
                );
            }
            out.push('}');
        }
    }
    out.push_str("]}]}");
    out
}

/// Escapes a string for embedding in a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_ordered() {
        assert_eq!(Code::FanoutViolation.as_str(), "USFQ001");
        assert_eq!(Code::TimingSkipped.as_str(), "USFQ010");
        assert_eq!(Code::DomainMismatch.as_str(), "USFQ011");
        assert_eq!(Code::ConflictingFanout.as_str(), "USFQ016");
        assert_eq!(Code::CriticalPath.as_str(), "USFQ017");
        assert_eq!(Code::SlackDeficit.as_str(), "USFQ018");
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        let all = Code::all();
        assert_eq!(all.len(), 18);
        for (i, code) in all.iter().enumerate() {
            assert_eq!(code.as_str(), format!("USFQ{:03}", i + 1));
            assert!(!code.summary().is_empty());
        }
    }

    #[test]
    fn waive_downgrades_to_info_and_is_detectable() {
        let mut d = Diagnostic::new(Code::SetupRace, Some("ndro".into()), "race");
        assert!(!d.is_waived());
        d.waive();
        assert_eq!(d.severity, Severity::Info);
        assert!(d.message.ends_with("[waived]"));
        assert!(d.is_waived());
        // Waiving twice does not stack the marker.
        d.waive();
        assert_eq!(d.message.matches("[waived]").count(), 1);
        // A genuine Info finding is not "waived".
        let info = Diagnostic::new(Code::TimingSkipped, None, "skipped");
        assert!(!info.is_waived());
    }

    #[test]
    fn worst_severity_reflects_top_finding() {
        let empty = LintReport::new("e", vec![]);
        assert_eq!(empty.worst_severity(), None);
        let warn = LintReport::new("w", vec![Diagnostic::new(Code::SetupRace, None, "race")]);
        assert_eq!(warn.worst_severity(), Some(Severity::Warning));
    }

    #[test]
    fn sarif_log_lists_rules_and_results() {
        let reports = vec![LintReport::new(
            "demo",
            vec![Diagnostic::new(
                Code::DomainMismatch,
                Some("tff".into()),
                "stream port driven by race wire",
            )],
        )];
        let sarif = to_sarif(&reports);
        assert!(sarif.contains("\"version\":\"2.1.0\""));
        assert!(sarif.contains("\"name\":\"usfq-lint\""));
        // All eighteen rules are declared even when only one fires.
        for code in Code::all() {
            assert!(sarif.contains(&format!("\"id\":\"{}\"", code.as_str())));
        }
        assert!(sarif.contains("\"ruleId\":\"USFQ011\""));
        assert!(sarif.contains("\"level\":\"error\""));
        assert!(sarif.contains("\"fullyQualifiedName\":\"demo::tff\""));
        // Balanced braces: cheap structural sanity for the hand-rolled JSON.
        assert_eq!(sarif.matches('{').count(), sarif.matches('}').count());
    }

    #[test]
    fn report_sorts_and_counts() {
        let report = LintReport::new(
            "t",
            vec![
                Diagnostic::new(Code::TimingSkipped, None, "skipped"),
                Diagnostic::new(Code::FanoutViolation, Some("m".into()), "fanout"),
                Diagnostic::new(Code::MergerCollision, Some("m".into()), "collision"),
            ],
        );
        assert_eq!(report.diagnostics[0].code, Code::FanoutViolation);
        assert!(report.has_errors());
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.warning_count(), 1);
        assert!(report.has(Code::TimingSkipped));
        assert_eq!(report.count(Code::BudgetExceeded), 0);
    }

    #[test]
    fn text_rendering_lists_findings() {
        let report = LintReport::new(
            "demo",
            vec![Diagnostic::new(
                Code::UnconnectedInput,
                Some("ndro".into()),
                "input 1 has no driver",
            )],
        );
        let text = report.render_text();
        assert!(text.contains("demo: 0 error(s), 1 warning(s)"));
        assert!(text.contains("warning [USFQ002] `ndro`: input 1 has no driver"));
    }

    #[test]
    fn json_rendering_escapes() {
        let report = LintReport::new(
            "d\"q",
            vec![Diagnostic::new(Code::JjMismatch, None, "line\nbreak")],
        );
        let json = report.to_json();
        assert!(json.contains("\"netlist\":\"d\\\"q\""));
        assert!(json.contains("\"component\":null"));
        assert!(json.contains("line\\nbreak"));
        assert!(json.contains("\"fix\":null"));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn fixes_render_in_every_format() {
        let fix = crate::Fix::InsertJtls {
            component: "acc".into(),
            port: 1,
            count: 2,
        };
        let report = LintReport::new(
            "demo",
            vec![Diagnostic::new(Code::SetupRace, Some("acc".into()), "race").with_fix(fix)],
        );
        let text = report.render_text();
        assert!(text.contains("[fix: insert-jtls at=acc#1 count=2]"));
        let json = report.to_json();
        assert!(json.contains("\"fix\":\"insert-jtls at=acc#1 count=2\""));
        let sarif = to_sarif(std::slice::from_ref(&report));
        assert!(sarif.contains("\"fixes\":["));
        assert!(sarif.contains("\"uri\":\"usfq-netlist:demo\""));
        assert!(sarif.contains("insert-jtls at=acc#1 count=2"));
        assert_eq!(sarif.matches('{').count(), sarif.matches('}').count());
    }
}
