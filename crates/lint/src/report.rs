//! Findings and their text rendering.

use std::fmt::Write as _;

/// Severity of a finding. Today every rule is `Deny` (the binary exits
/// nonzero); `Warn` exists so informational diagnostics — unused
/// waivers — can ride the same pipeline without failing the build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Fails the lint run unless waived.
    Deny,
    /// Reported, never fails the run.
    Warn,
}

/// One diagnostic: a rule fired at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (`determinism`, `no-alloc`, …).
    pub rule: &'static str,
    /// Human explanation, including the offending construct.
    pub message: String,
    /// Whether an inline waiver suppressed it.
    pub waived: bool,
    /// Deny (gates the build) or Warn (informational).
    pub severity: Severity,
}

/// Everything one lint run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, waived ones included (`--verbose` prints them).
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Findings that should fail the run: unwaived and `Deny`.
    pub fn unwaived(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| !f.waived && f.severity == Severity::Deny)
    }

    /// Does the run pass?
    #[must_use]
    pub fn clean(&self) -> bool {
        self.unwaived().next().is_none()
    }

    /// Sort by file, then line, then rule — deterministic output order
    /// regardless of scan order.
    pub fn sort(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    }

    /// Human-readable rendering: one `file:line: [rule] message` per
    /// finding, waived findings summarised, final verdict line.
    #[must_use]
    pub fn render_text(&self, verbose: bool) -> String {
        let mut out = String::new();
        for f in &self.findings {
            if f.waived && !verbose {
                continue;
            }
            let tag = match (f.waived, f.severity) {
                (true, _) => "waived",
                (false, Severity::Warn) => "warning",
                (false, Severity::Deny) => "error",
            };
            let _ = writeln!(out, "{}:{}: {tag}[{}] {}", f.file, f.line, f.rule, f.message);
        }
        let errors = self.unwaived().count();
        let waived = self.findings.iter().filter(|f| f.waived).count();
        let warnings = self
            .findings
            .iter()
            .filter(|f| !f.waived && f.severity == Severity::Warn)
            .count();
        let _ = writeln!(
            out,
            "dses-lint: {} file(s), {errors} error(s), {warnings} warning(s), {waived} waiver(s) honoured",
            self.files_scanned
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, line: u32, waived: bool) -> Finding {
        Finding {
            file: "crates/x/src/lib.rs".into(),
            line,
            rule,
            message: "a \"message\" with quotes".into(),
            waived,
            severity: Severity::Deny,
        }
    }

    #[test]
    fn clean_accounts_for_waivers_and_warnings() {
        let mut r = Report::default();
        r.findings.push(finding("determinism", 3, true));
        assert!(r.clean());
        r.findings.push(Finding {
            severity: Severity::Warn,
            ..finding("unused-waiver", 9, false)
        });
        assert!(r.clean());
        r.findings.push(finding("no-alloc", 5, false));
        assert!(!r.clean());
    }

    #[test]
    fn text_hides_waived_unless_verbose() {
        let mut r = Report::default();
        r.findings.push(finding("determinism", 3, true));
        assert!(!r.render_text(false).contains("waived["));
        assert!(r.render_text(true).contains("waived[determinism]"));
    }

    #[test]
    fn sort_is_by_file_line_rule() {
        let mut r = Report::default();
        r.findings.push(finding("no-alloc", 9, false));
        r.findings.push(finding("determinism", 3, false));
        r.sort();
        assert_eq!(r.findings[0].line, 3);
    }
}
