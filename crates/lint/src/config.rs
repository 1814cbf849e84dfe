//! `lint.toml` — per-crate rule scoping, hand-rolled parser.
//!
//! The workspace commits one `lint.toml` at its root; the driver reads
//! it to decide which crates each rule applies to and which files are
//! blessed. The format is a deliberately tiny TOML subset — sections,
//! and `key = value` where value is a string, a bool, or an array of
//! strings — parsed here without any dependency:
//!
//! ```toml
//! # which crates' results the paper's numbers depend on
//! [workspace]
//! result_affecting = ["sim", "core", "queueing", "dist", "workload"]
//!
//! [rules.determinism]
//! enabled = true
//! crates = ["sim", "core", "queueing", "dist", "workload"]
//!
//! [rules.float-totality]
//! blessed = ["crates/sim/src/fast.rs", "crates/dist/src/numeric.rs"]
//! ```
//!
//! Unknown sections (a `[rules.<id>]` naming no rule among them) and
//! unknown keys are errors: a typo in the config silently disabling a
//! rule is exactly the kind of bug this crate exists to prevent.

use std::collections::BTreeMap;

/// Scoping for one rule, from a `[rules.<id>]` section.
#[derive(Debug, Clone, Default)]
pub struct RuleConfig {
    /// `enabled = false` turns the rule off entirely.
    pub enabled: Option<bool>,
    /// If set, the rule only applies inside these crates (directory
    /// names under `crates/`).
    pub crates: Option<Vec<String>>,
    /// Crates exempt from the rule.
    pub exclude_crates: Vec<String>,
    /// Workspace-relative file paths exempt from the rule (the
    /// "blessed" total-order helpers for `float-totality`).
    pub blessed: Vec<String>,
    /// `budget = N` — rule-specific integer budget. For `divide-budget`
    /// it caps the budget any single `divides(N)` annotation may
    /// declare, keeping per-function budgets honest.
    pub budget: Option<u32>,
}

/// Parsed `lint.toml`.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Crates whose outputs feed the paper's exhibits.
    pub result_affecting: Vec<String>,
    /// Per-rule scoping, keyed by rule id.
    pub rules: BTreeMap<String, RuleConfig>,
    /// Declared crate-layering DAG: each crate maps to the crates it may
    /// depend on (`[layering]` section, `crate = ["dep", …]`). Empty
    /// when undeclared — the layering analysis is then skipped.
    pub layering: BTreeMap<String, Vec<String>>,
}

impl Config {
    /// The committed workspace configuration, used when no `lint.toml`
    /// is found (so `dses-lint <file>` works from anywhere).
    #[must_use]
    pub fn default_workspace() -> Self {
        let text = include_str!("../../../lint.toml");
        // The committed config must parse; this is covered by tests, and
        // a broken embedded default should fail loudly, not lint with
        // half a config.
        match Self::parse(text) {
            Ok(c) => c,
            // dses-lint: allow(panic-hygiene) -- embedded lint.toml is
            // validated by the crate's own test suite at commit time
            Err(e) => panic!("embedded lint.toml is invalid: {e}"),
        }
    }

    /// Is `rule` enabled for `crate_id` under this config?
    #[must_use]
    pub fn rule_applies(&self, rule: &str, crate_id: &str) -> bool {
        let Some(rc) = self.rules.get(rule) else {
            return true;
        };
        if rc.enabled == Some(false) {
            return false;
        }
        if rc.exclude_crates.iter().any(|c| c == crate_id) {
            return false;
        }
        match &rc.crates {
            Some(list) => list.iter().any(|c| c == crate_id),
            None => true,
        }
    }

    /// Is `path` (workspace-relative, `/`-separated) blessed for `rule`?
    #[must_use]
    pub fn is_blessed(&self, rule: &str, path: &str) -> bool {
        self.rules
            .get(rule)
            .is_some_and(|rc| rc.blessed.iter().any(|b| b == path))
    }

    /// Parse the TOML subset. Errors carry a line number.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut cfg = Self::default();
        let mut section = String::new();
        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                let known = section == "workspace"
                    || section == "layering"
                    || section
                        .strip_prefix("rules.")
                        .is_some_and(|r| crate::rules::RULE_IDS.contains(&r));
                if !known {
                    return Err(format!("line {lineno}: unknown section [{section}]"));
                }
                continue;
            }
            let Some(eq) = line.find('=') else {
                return Err(format!("line {lineno}: expected `key = value`"));
            };
            let key = line[..eq].trim();
            let value = parse_value(line[eq + 1..].trim())
                .map_err(|e| format!("line {lineno}: {e}"))?;
            match (section.as_str(), key) {
                ("workspace", "result_affecting") => {
                    cfg.result_affecting = value.into_array()?;
                }
                ("workspace", k) => {
                    return Err(format!("line {lineno}: unknown workspace key `{k}`"));
                }
                ("layering", k) => {
                    cfg.layering.insert(k.to_string(), value.into_array()?);
                }
                (s, k) => {
                    let Some(rule) = s.strip_prefix("rules.") else {
                        return Err(format!("line {lineno}: `{k}` outside any section"));
                    };
                    let rc = cfg.rules.entry(rule.to_string()).or_default();
                    match k {
                        "enabled" => rc.enabled = Some(value.into_bool()?),
                        "crates" => rc.crates = Some(value.into_array()?),
                        "exclude_crates" => rc.exclude_crates = value.into_array()?,
                        "blessed" => rc.blessed = value.into_array()?,
                        "budget" => rc.budget = Some(value.into_int()?),
                        other => {
                            return Err(format!(
                                "line {lineno}: unknown key `{other}` in [rules.{rule}]"
                            ));
                        }
                    }
                }
            }
        }
        Ok(cfg)
    }
}

/// Drop a `#`-comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, b) in line.bytes().enumerate() {
        match b {
            b'"' => in_str = !in_str,
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

enum Value {
    Str(String),
    Bool(bool),
    Int(u32),
    Array(Vec<String>),
}

impl Value {
    fn into_array(self) -> Result<Vec<String>, String> {
        match self {
            Value::Array(a) => Ok(a),
            Value::Str(s) => Ok(vec![s]),
            Value::Bool(_) | Value::Int(_) => Err("expected an array of strings".into()),
        }
    }
    fn into_bool(self) -> Result<bool, String> {
        match self {
            Value::Bool(b) => Ok(b),
            _ => Err("expected true or false".into()),
        }
    }
    fn into_int(self) -> Result<u32, String> {
        match self {
            Value::Int(n) => Ok(n),
            _ => Err("expected a non-negative integer".into()),
        }
    }
}

fn parse_value(text: &str) -> Result<Value, String> {
    if text == "true" {
        return Ok(Value::Bool(true));
    }
    if text == "false" {
        return Ok(Value::Bool(false));
    }
    if text.bytes().all(|b| b.is_ascii_digit()) && !text.is_empty() {
        return text
            .parse::<u32>()
            .map(Value::Int)
            .map_err(|_| format!("integer out of range `{text}`"));
    }
    if let Some(inner) = text.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or_else(|| "unterminated array".to_string())?;
        let mut items = Vec::new();
        for part in split_top_level(inner) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match parse_value(part)? {
                Value::Str(s) => items.push(s),
                _ => return Err("arrays may only contain strings".into()),
            }
        }
        return Ok(Value::Array(items));
    }
    if let Some(inner) = text.strip_prefix('"') {
        let inner = inner
            .strip_suffix('"')
            .ok_or_else(|| "unterminated string".to_string())?;
        if inner.contains('"') {
            return Err("nested quote in string".into());
        }
        return Ok(Value::Str(inner.to_string()));
    }
    Err(format!("cannot parse value `{text}`"))
}

/// Split on commas outside quotes (single-line arrays only).
fn split_top_level(text: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0usize;
    let mut in_str = false;
    for (i, b) in text.bytes().enumerate() {
        match b {
            b'"' => in_str = !in_str,
            b',' if !in_str => {
                parts.push(&text[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&text[start..]);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_values_and_comments() {
        let cfg = Config::parse(
            r#"
# workspace config
[workspace]
result_affecting = ["sim", "core"] # trailing comment

[rules.determinism]
enabled = true
crates = ["sim", "core"]

[rules.panic-hygiene]
exclude_crates = ["cli"]

[rules.float-totality]
blessed = ["crates/sim/src/fast.rs"]
"#,
        )
        .unwrap();
        assert_eq!(cfg.result_affecting, ["sim", "core"]);
        assert!(cfg.rule_applies("determinism", "sim"));
        assert!(!cfg.rule_applies("determinism", "bench"));
        assert!(!cfg.rule_applies("panic-hygiene", "cli"));
        assert!(cfg.rule_applies("panic-hygiene", "sim"));
        assert!(cfg.is_blessed("float-totality", "crates/sim/src/fast.rs"));
        assert!(!cfg.is_blessed("float-totality", "crates/sim/src/event.rs"));
    }

    #[test]
    fn unknown_keys_and_sections_are_errors() {
        assert!(Config::parse("[nope]\n").is_err());
        assert!(Config::parse("[workspace]\ntypo = true\n").is_err());
        assert!(Config::parse("[rules.determinism]\ncrate = [\"sim\"]\n").is_err());
        assert!(Config::parse("[rules.x]\nenabled = \"yes\"\n").is_err());
        // a misspelled or retired rule id scopes nothing, so it is an error
        assert!(Config::parse("[rules.determinsm]\ncrates = [\"sim\"]\n").is_err());
    }

    #[test]
    fn integer_budget_keys_parse() {
        let cfg = Config::parse("[rules.divide-budget]\nbudget = 0\ncrates = [\"sim\"]\n").unwrap();
        assert_eq!(cfg.rules["divide-budget"].budget, Some(0));
        let cfg = Config::parse("[rules.divide-budget]\nbudget = 2 # cap\n").unwrap();
        assert_eq!(cfg.rules["divide-budget"].budget, Some(2));
        // integers keep the strict-grammar discipline: wrong type, wrong
        // key, and malformed numbers stay hard errors
        assert!(Config::parse("[rules.divide-budget]\nbudget = \"0\"\n").is_err());
        assert!(Config::parse("[rules.divide-budget]\nbudget = -1\n").is_err());
        assert!(Config::parse("[rules.divide-budget]\nbudgets = 0\n").is_err());
        assert!(Config::parse("[rules.divide-budget]\nenabled = 1\n").is_err());
        assert!(Config::parse("[workspace]\nresult_affecting = 3\n").is_err());
    }

    #[test]
    fn disabled_rule_applies_nowhere() {
        let cfg = Config::parse("[rules.determinism]\nenabled = false\n").unwrap();
        assert!(!cfg.rule_applies("determinism", "sim"));
    }

    #[test]
    fn unconfigured_rule_applies_everywhere() {
        let cfg = Config::parse("").unwrap();
        assert!(cfg.rule_applies("header-conformance", "anything"));
    }

    #[test]
    fn embedded_default_config_parses() {
        let cfg = Config::default_workspace();
        assert!(!cfg.result_affecting.is_empty());
        assert!(cfg.rules.contains_key("determinism"));
        assert!(
            !cfg.layering.is_empty(),
            "committed lint.toml declares the layering DAG"
        );
    }

    #[test]
    fn layering_section_parses() {
        let cfg = Config::parse(
            "[layering]\ndist = []\nsim = [\"dist\", \"workload\"]\n",
        )
        .unwrap();
        assert_eq!(cfg.layering["dist"], Vec::<String>::new());
        assert_eq!(cfg.layering["sim"], ["dist", "workload"]);
    }
}
