//! The per-file rule catalogue and checking engine.
//!
//! Every rule here works on the raw token stream from [`crate::lexer`]
//! plus a little bracket matching — no parse tree. The shared token
//! utilities ([`crate::items::Code`]) and the directive scanner live in
//! [`crate::items`], because the semantic tier builds on the same
//! foundations. The catalogue:
//!
//! | id | guards against |
//! |----|----------------|
//! | `determinism` | `HashMap`/`HashSet`, `Instant`/`SystemTime`, `std::env` in result-affecting library code |
//! | `no-alloc` | allocating constructs inside `// dses-lint: deny(alloc)` functions |
//! | `panic-hygiene` | `unwrap()` / `expect()` / `panic!` / `todo!` / `unimplemented!` in library code |
//! | `float-totality` | `partial_cmp(…).unwrap()` and `==`/`!=` against float literals outside the blessed helpers |
//! | `header-conformance` | crate roots missing `#![forbid(unsafe_code)]` / `#![warn(missing_docs)]` |
//! | `waiver-syntax` | malformed waivers: missing reason, unknown rule id |
//! | `unused-waiver` | *(warning)* waivers that suppress nothing |
//!
//! The semantic tier ([`crate::semantic`]) adds `no-alloc-transitive`,
//! `determinism-transitive`, `layering`, and `state-needs`; their
//! waivers are honoured there, so this engine only validates their ids.
//!
//! Findings are suppressed by inline waivers:
//!
//! ```text
//! // dses-lint: allow(<rule>[, <rule>…]) -- <reason>
//! ```
//!
//! placed on the offending line (trailing) or on the line directly above
//! it (the waiver then covers the *next* line of code). A reason is
//! mandatory. `allow-file(<rule>) -- <reason>` at any point waives the
//! rule for the whole file — for files whose idiom systematically
//! triggers a rule (e.g. exact-zero guards in special-function code).
//! `// dses-lint: deny(alloc)` immediately before a `fn` opts that
//! function *into* the `no-alloc` rule.

use crate::config::Config;
use crate::items::{in_spans, scan_directives, Code, Directive, DirectiveKind};
use crate::lexer::TokenKind;
use crate::report::{Finding, Severity};

/// Which compilation target a file belongs to — decides which rules run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code: all rules apply.
    Lib,
    /// Binary code (`src/main.rs`, `src/bin/**`): exempt from
    /// `panic-hygiene` and `determinism` (exhibits may time themselves
    /// and crash on bad CLI input).
    Bin,
    /// Tests, benches, examples, fixtures: only waiver hygiene applies.
    Test,
}

/// Is this file a crate root, and of which target?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RootKind {
    /// `src/lib.rs`: needs the full preamble.
    LibRoot,
    /// `src/main.rs` of a bin-only crate: needs `forbid(unsafe_code)`.
    BinRoot,
}

/// One file to check, with the context the driver derived for it.
#[derive(Debug, Clone, Copy)]
pub struct FileInput<'a> {
    /// Workspace-relative path, `/`-separated (also used in findings).
    pub path: &'a str,
    /// Crate directory name under `crates/` (`sim`, `core`, …).
    pub crate_id: &'a str,
    /// Target kind.
    pub kind: FileKind,
    /// Set when the file is a crate root.
    pub root: Option<RootKind>,
    /// File contents.
    pub src: &'a str,
}

/// All rule ids a waiver may name.
pub const RULE_IDS: &[&str] = &[
    "determinism",
    "no-alloc",
    "panic-hygiene",
    "float-totality",
    "header-conformance",
    "determinism-transitive",
    "no-alloc-transitive",
    "layering",
    "state-needs",
    "divide-budget",
    "loop-alloc",
    "grow-once",
    "demand-monomorphism",
];

/// Rules enforced by the semantic (workspace-wide) tier. Their waivers
/// are resolved in [`crate::semantic`], so the per-file engine must not
/// warn when it cannot see a use for them.
pub const SEMANTIC_RULES: &[&str] = &[
    "determinism-transitive",
    "no-alloc-transitive",
    "layering",
    "state-needs",
];

/// Rules enforced by the dataflow (CFG) tier, `--dataflow`. Like the
/// semantic rules, their waivers are resolved workspace-wide, so the
/// per-file engine must not judge them unused.
pub const DATAFLOW_RULES: &[&str] = &[
    "divide-budget",
    "loop-alloc",
    "grow-once",
    "demand-monomorphism",
];

/// Which tier enforces `rule` — for the cross-tier unused-waiver
/// accounting.
#[must_use]
pub fn tier_of(rule: &str) -> &'static str {
    if SEMANTIC_RULES.contains(&rule) {
        "semantic"
    } else if DATAFLOW_RULES.contains(&rule) {
        "dataflow"
    } else {
        "file"
    }
}

/// Check one file against every applicable rule, resolving waivers.
/// Returned findings include waived ones (marked) and waiver-hygiene
/// diagnostics.
#[must_use]
pub fn check_file(input: &FileInput<'_>, cfg: &Config) -> Vec<Finding> {
    let code = Code::new(input.src);
    Engine {
        input,
        cfg,
        code: &code,
        findings: Vec::new(),
    }
    .run()
}

struct Engine<'a> {
    input: &'a FileInput<'a>,
    cfg: &'a Config,
    code: &'a Code<'a>,
    findings: Vec<Finding>,
}

impl Engine<'_> {
    fn run(mut self) -> Vec<Finding> {
        let (directives, issues) = scan_directives(self.code);
        for issue in issues {
            self.emit("waiver-syntax", issue.line, issue.message, Severity::Deny);
        }
        let test_spans = self.code.test_spans();
        let deny_spans = self.deny_alloc_spans(&directives);

        let in_test = |p: usize| in_spans(&test_spans, p);

        // --- code rules, raw findings first ---
        let mut raw: Vec<Finding> = Vec::new();
        let checked_kind = self.input.kind;
        if checked_kind == FileKind::Lib {
            if self.rule_on("determinism") {
                self.determinism(&mut raw, &in_test);
            }
            if self.rule_on("panic-hygiene") {
                self.panic_hygiene(&mut raw, &in_test);
            }
            if self.rule_on("float-totality")
                && !self.cfg.is_blessed("float-totality", self.input.path)
            {
                self.float_totality(&mut raw, &in_test);
            }
        }
        if checked_kind != FileKind::Test && self.rule_on("no-alloc") {
            self.no_alloc(&mut raw, &deny_spans);
        }
        if self.input.root.is_some() && self.rule_on("header-conformance") {
            self.header_conformance(&mut raw);
        }

        // --- resolve waivers ---
        for f in &mut raw {
            if let Some(d) = directives.iter().find(|d| d.waives(f.rule, f.line)) {
                d.mark_used();
                f.waived = true;
            }
        }
        self.findings.append(&mut raw);

        // --- waiver hygiene ---
        for d in &directives {
            if let DirectiveKind::Allow { rules, .. } = &d.kind {
                for r in rules {
                    if !RULE_IDS.contains(&r.as_str()) {
                        self.emit(
                            "waiver-syntax",
                            d.line,
                            format!("waiver names unknown rule `{r}`"),
                            Severity::Deny,
                        );
                    }
                }
                // Waivers naming a semantic or dataflow rule
                // are consumed by the workspace passes; this engine
                // cannot judge them unused (the driver's cross-tier
                // accounting does, once the owning tier has run).
                let workspace_tier = rules.iter().any(|r| tier_of(r) != "file");
                if !d.is_used() && !workspace_tier {
                    self.emit(
                        "unused-waiver",
                        d.line,
                        "waiver suppresses nothing on the line it covers".to_string(),
                        Severity::Warn,
                    );
                }
            }
        }

        self.findings
    }

    fn rule_on(&self, rule: &str) -> bool {
        self.cfg.rule_applies(rule, self.input.crate_id)
    }

    fn emit(&mut self, rule: &'static str, line: u32, message: String, severity: Severity) {
        self.findings.push(Finding {
            file: self.input.path.to_string(),
            line,
            rule,
            message,
            waived: false,
            severity,
        });
    }

    /// Code-position spans (exclusive of the braces) of functions
    /// annotated `// dses-lint: deny(alloc)`, with the function name.
    fn deny_alloc_spans(&mut self, directives: &[Directive]) -> Vec<(usize, usize, String)> {
        let mut spans = Vec::new();
        for d in directives {
            if !matches!(d.kind, DirectiveKind::DenyAlloc) {
                continue;
            }
            // first `fn` at or after the covered line
            let Some(fn_pos) = (0..self.code.len())
                .find(|&p| self.code.line(p) >= d.covers && self.code.text(p) == "fn")
            else {
                self.emit(
                    "waiver-syntax",
                    d.line,
                    "deny(alloc) is not followed by a function".to_string(),
                    Severity::Deny,
                );
                continue;
            };
            let name = if fn_pos + 1 < self.code.len() {
                self.code.text(fn_pos + 1).to_string()
            } else {
                String::from("?")
            };
            let Some(open) = (fn_pos..self.code.len()).find(|&p| self.code.text(p) == "{") else {
                continue;
            };
            let Some(close) = self.code.match_bracket(open, "{", "}") else {
                continue;
            };
            spans.push((open, close, name));
        }
        spans
    }

    // ----- rules -----

    fn determinism<F: Fn(usize) -> bool>(&self, out: &mut Vec<Finding>, in_test: &F) {
        for p in 0..self.code.len() {
            if self.code.kind(p) != TokenKind::Ident || in_test(p) {
                continue;
            }
            let t = self.code.text(p);
            let message = match t {
                "HashMap" | "HashSet" => Some(format!(
                    "`{t}` has nondeterministic iteration order in general; use `BTreeMap`/`BTreeSet`, \
                     or waive with the invariant that it is never iterated"
                )),
                "Instant" | "SystemTime" => Some(format!(
                    "`{t}` reads the wall clock — results must not depend on time"
                )),
                "env" if p >= 2
                    && self.code.text(p - 1) == "::"
                    && self.code.text(p - 2) == "std" =>
                {
                    Some("`std::env` makes results depend on the environment".to_string())
                }
                _ => None,
            };
            if let Some(message) = message {
                out.push(self.finding("determinism", self.code.line(p), message));
            }
        }
    }

    fn panic_hygiene<F: Fn(usize) -> bool>(&self, out: &mut Vec<Finding>, in_test: &F) {
        for p in 0..self.code.len() {
            if self.code.kind(p) != TokenKind::Ident || in_test(p) {
                continue;
            }
            let t = self.code.text(p);
            let flagged = match t {
                "unwrap" | "expect" => {
                    p >= 1 && self.code.text(p - 1) == "." && self.code.get(p + 1) == Some("(")
                }
                "panic" | "todo" | "unimplemented" => self.code.get(p + 1) == Some("!"),
                _ => false,
            };
            if flagged {
                out.push(self.finding(
                    "panic-hygiene",
                    self.code.line(p),
                    format!(
                        "`{t}` in library code — return a `Result`, use `debug_assert!`, or \
                         waive with the invariant that makes it unreachable"
                    ),
                ));
            }
        }
    }

    fn float_totality<F: Fn(usize) -> bool>(&self, out: &mut Vec<Finding>, in_test: &F) {
        for p in 0..self.code.len() {
            if in_test(p) {
                continue;
            }
            let t = self.code.text(p);
            // `partial_cmp(…).unwrap()` / `.expect(…)`
            if t == "partial_cmp"
                && self.code.kind(p) == TokenKind::Ident
                && self.code.get(p + 1) == Some("(")
            {
                if let Some(close) = self.code.match_bracket(p + 1, "(", ")") {
                    if self.code.get(close + 1) == Some(".")
                        && matches!(self.code.get(close + 2), Some("unwrap" | "expect"))
                    {
                        out.push(self.finding(
                            "float-totality",
                            self.code.line(p),
                            "`partial_cmp(…).unwrap()` panics on NaN; use `f64::total_cmp` \
                             (or the OrdF64 wrapper)"
                                .to_string(),
                        ));
                    }
                }
                continue;
            }
            // `x == 1.0`, `0.0 != y` — equality against a float literal
            if matches!(t, "==" | "!=") && self.code.kind(p) == TokenKind::Punct {
                let prev_float = p >= 1 && self.code.kind(p - 1) == TokenKind::Float;
                let next_float = match self.code.get(p + 1) {
                    Some("-") => {
                        p + 2 < self.code.len() && self.code.kind(p + 2) == TokenKind::Float
                    }
                    Some(_) => self.code.kind(p + 1) == TokenKind::Float,
                    None => false,
                };
                if prev_float || next_float {
                    out.push(self.finding(
                        "float-totality",
                        self.code.line(p),
                        format!(
                            "bare `{t}` against a float literal; compare via `to_bits()` or a \
                             tolerance, or waive if the exact-value comparison is intended"
                        ),
                    ));
                }
            }
        }
    }

    fn no_alloc(&self, out: &mut Vec<Finding>, spans: &[(usize, usize, String)]) {
        for &(start, end, ref name) in spans {
            for p in start + 1..end {
                let t = self.code.text(p);
                let flagged = match t {
                    "new" | "from" | "with_capacity" => {
                        p >= 2
                            && self.code.text(p - 1) == "::"
                            && matches!(
                                self.code.text(p - 2),
                                "Vec" | "Box" | "String" | "VecDeque" | "BinaryHeap"
                            )
                    }
                    "to_vec" | "collect" | "to_string" | "to_owned" => {
                        p >= 1 && self.code.text(p - 1) == "."
                    }
                    "vec" | "format" => self.code.get(p + 1) == Some("!"),
                    _ => false,
                };
                // method-call `with_capacity` (not behind `::`)
                let flagged =
                    flagged || (t == "with_capacity" && p >= 1 && self.code.text(p - 1) == ".");
                if flagged {
                    out.push(self.finding(
                        "no-alloc",
                        self.code.line(p),
                        format!(
                            "`{t}` allocates inside `deny(alloc)` fn `{name}` — reuse workspace \
                             buffers instead"
                        ),
                    ));
                }
            }
        }
    }

    fn header_conformance(&self, out: &mut Vec<Finding>) {
        // collect inner attributes `#![…]`
        let mut attrs = String::new();
        let mut p = 0usize;
        while p + 2 < self.code.len() {
            if self.code.text(p) == "#"
                && self.code.text(p + 1) == "!"
                && self.code.text(p + 2) == "["
            {
                if let Some(end) = self.code.match_bracket(p + 2, "[", "]") {
                    for q in p + 3..end {
                        attrs.push_str(self.code.text(q));
                    }
                    attrs.push(' ');
                    p = end + 1;
                    continue;
                }
            }
            p += 1;
        }
        let missing_forbid = !attrs.contains("forbid(unsafe_code)");
        let missing_docs = self.input.root == Some(RootKind::LibRoot)
            && !(attrs.contains("warn(missing_docs)") || attrs.contains("deny(missing_docs)"));
        if missing_forbid {
            out.push(self.finding(
                "header-conformance",
                1,
                "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
            ));
        }
        if missing_docs {
            out.push(self.finding(
                "header-conformance",
                1,
                "library crate root is missing `#![warn(missing_docs)]`".to_string(),
            ));
        }
    }

    fn finding(&self, rule: &'static str, line: u32, message: String) -> Finding {
        Finding {
            file: self.input.path.to_string(),
            line,
            rule,
            message,
            waived: false,
            severity: Severity::Deny,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(src: &str) -> Vec<Finding> {
        let input = FileInput {
            path: "crates/sim/src/x.rs",
            crate_id: "sim",
            kind: FileKind::Lib,
            root: None,
            src,
        };
        check_file(&input, &Config::default())
    }

    fn errors(src: &str) -> Vec<Finding> {
        check(src)
            .into_iter()
            .filter(|f| !f.waived && f.severity == Severity::Deny)
            .collect()
    }

    #[test]
    fn hashmap_flagged_and_waivable() {
        let bad = "use std::collections::HashMap;\n";
        assert_eq!(errors(bad).len(), 1);
        let waived =
            "// dses-lint: allow(determinism) -- keyed lookups only, never iterated\nuse std::collections::HashMap;\n";
        assert!(errors(waived).is_empty());
        let trailing =
            "use std::collections::HashMap; // dses-lint: allow(determinism) -- never iterated\n";
        assert!(errors(trailing).is_empty());
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { x.unwrap(); }\n}\nfn g() { y.unwrap(); }\n";
        let errs = errors(src);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert_eq!(errs[0].line, 5);
    }

    #[test]
    fn waiver_without_reason_is_a_finding() {
        let src = "// dses-lint: allow(determinism)\nuse std::collections::HashMap;\n";
        let errs = errors(src);
        assert!(errs.iter().any(|f| f.rule == "waiver-syntax"));
        assert!(errs.iter().any(|f| f.rule == "determinism"));
    }

    #[test]
    fn deny_alloc_flags_allocation() {
        let src = "// dses-lint: deny(alloc)\nfn hot() { let v = Vec::new(); }\nfn cold() { let v = Vec::new(); }\n";
        let errs = errors(src);
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].rule, "no-alloc");
        assert_eq!(errs[0].line, 2);
    }

    #[test]
    fn float_eq_and_partial_cmp() {
        let src = "fn f(x: f64) -> bool { x == 0.0 }\nfn g(a: f64, b: f64) { a.partial_cmp(&b).unwrap(); }\n";
        let errs = errors(src);
        assert_eq!(errs.iter().filter(|f| f.rule == "float-totality").count(), 2);
        // but to_bits comparison is fine
        assert!(errors("fn f(x: f64, y: f64) -> bool { x.to_bits() == y.to_bits() }").is_empty());
    }

    #[test]
    fn panics_in_strings_and_docs_are_ignored() {
        let src = "/// call `x.unwrap()` to crash\nfn f() { let s = \"panic!\"; }\n";
        assert!(errors(src).is_empty());
    }

    #[test]
    fn unused_waiver_warns_but_passes() {
        let src = "// dses-lint: allow(determinism) -- stale\nfn f() {}\n";
        let all = check(src);
        assert!(all
            .iter()
            .any(|f| f.rule == "unused-waiver" && f.severity == Severity::Warn));
        assert!(all.iter().all(|f| f.waived || f.severity == Severity::Warn));
    }

    #[test]
    fn semantic_rule_waivers_are_not_flagged_unused() {
        // the per-file engine cannot see semantic-tier usage; it must
        // neither warn `unused-waiver` nor reject the rule id
        let src = "// dses-lint: allow(no-alloc-transitive) -- grow-once buffer\nfn f() {}\n";
        let all = check(src);
        assert!(all.is_empty(), "{all:?}");
    }

    #[test]
    fn header_rule_checks_roots_only() {
        let input = FileInput {
            path: "crates/sim/src/lib.rs",
            crate_id: "sim",
            kind: FileKind::Lib,
            root: Some(RootKind::LibRoot),
            src: "//! docs\n#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n",
        };
        assert!(check_file(&input, &Config::default()).is_empty());
        let bad = FileInput {
            src: "//! docs\n",
            ..input
        };
        assert_eq!(check_file(&bad, &Config::default()).len(), 2);
    }

    #[test]
    fn bin_kind_skips_panic_and_determinism() {
        let input = FileInput {
            path: "crates/cli/src/main.rs",
            crate_id: "cli",
            kind: FileKind::Bin,
            root: None,
            src: "fn main() { std::env::args(); x.unwrap(); }\n",
        };
        assert!(check_file(&input, &Config::default()).is_empty());
    }

    #[test]
    fn allow_file_covers_whole_file() {
        let src = "// dses-lint: allow-file(float-totality) -- exact-zero guards throughout\nfn f(x: f64) -> bool { x == 0.0 }\nfn g(x: f64) -> bool { x == 1.0 }\n";
        assert!(errors(src).is_empty());
    }
}
