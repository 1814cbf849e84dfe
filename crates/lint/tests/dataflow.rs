//! End-to-end fixtures for the dataflow tier: two miniature workspaces
//! under `tests/fixtures/dataflow/`. The `bad` one seeds one violation
//! per dataflow rule — a per-iteration divide under a `divides(0)`
//! annotation, a `Vec` built per job on a record path, a workspace
//! resize reachable from a dispatch root outside the reset boundary,
//! and a `Demand` bitset read inside a const-generic body — plus a
//! second divide-budget one: a divide in a loop-free `divides(0)`
//! function, which runs once per job. The `good` one repairs each
//! violation the idiomatic way (hoisted or caller-held reciprocal, with
//! a `debug_assert!` pin the rule skips, caller-owned buffer,
//! reset-confined growth, tier decided before monomorphization) and
//! must come back clean.

use std::path::PathBuf;
use std::process::Command;

use dses_lint::{Report, Severity};

fn fixture_root(which: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/dataflow")
        .join(which)
}

fn lint(which: &str) -> Report {
    let root = fixture_root(which);
    let cfg = dses_lint::driver::load_config(&root).expect("fixture lint.toml parses");
    dses_lint::driver::lint_workspace(&root, &cfg, false, true).expect("fixture workspace walk")
}

/// One unwaived finding for `rule` whose message contains `needle`.
fn find<'r>(
    report: &'r Report,
    rule: &str,
    needle: &str,
) -> Option<&'r dses_lint::Finding> {
    report
        .findings
        .iter()
        .find(|f| !f.waived && f.rule == rule && f.message.contains(needle))
}

#[test]
fn bad_workspace_divide_in_marched_loop_breaks_the_declared_budget() {
    let report = lint("bad");
    let f = find(&report, "divide-budget", "march")
        .expect("the per-iteration divide under divides(0) is detected");
    assert_eq!(f.severity, Severity::Deny);
    assert!(
        f.message.contains("declares divides(0)"),
        "the finding should quote the annotation: {}",
        f.message
    );
    assert!(
        f.message.contains("s / speed"),
        "the finding should show the offending divide: {}",
        f.message
    );
    // the honest dispatch kernel (one declared, one performed) is clean
    assert!(
        find(&report, "divide-budget", "dispatch").is_none(),
        "a divide within budget must not be flagged"
    );
}

#[test]
fn bad_workspace_divide_in_a_loop_free_function_breaks_its_budget() {
    let report = lint("bad");
    let f = find(&report, "divide-budget", "slowdown")
        .expect("a loop-free function's divide counts against divides(0)");
    assert_eq!(f.severity, Severity::Deny);
    assert!(
        f.message.contains("response / size"),
        "the finding should show the offending divide: {}",
        f.message
    );
}

#[test]
fn bad_workspace_per_job_vec_on_the_record_path_is_flagged() {
    let report = lint("bad");
    let f = find(&report, "loop-alloc", "Vec::new")
        .expect("the per-job Vec on the record path is detected");
    assert_eq!(f.severity, Severity::Deny);
    assert!(
        f.message.contains("record_all"),
        "the finding should name the function: {}",
        f.message
    );
}

#[test]
fn bad_workspace_mid_run_workspace_growth_is_flagged_with_its_path() {
    let report = lint("bad");
    let f = find(&report, "grow-once", "resize")
        .expect("the mid-run workspace resize is detected");
    assert_eq!(f.severity, Severity::Deny);
    assert!(
        f.message.contains("dispatch") && f.message.contains("ensure"),
        "the finding should show the path from the dispatch root: {}",
        f.message
    );
}

#[test]
fn bad_workspace_demand_read_in_monomorphized_body_is_flagged() {
    let report = lint("bad");
    let f = find(&report, "demand-monomorphism", "record_tiered")
        .expect("the runtime Demand read in a const-generic body is detected");
    assert_eq!(f.severity, Severity::Deny);
}

#[test]
fn good_workspace_is_clean_under_the_dataflow_tier() {
    let report = lint("good");
    let noise: Vec<String> = report
        .findings
        .iter()
        .filter(|f| !f.waived)
        .filter(|f| {
            dses_lint::rules::DATAFLOW_RULES.contains(&f.rule) || f.rule == "unused-waiver"
        })
        .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message))
        .collect();
    assert!(
        noise.is_empty(),
        "good fixture should be clean under the dataflow tier:\n{}",
        noise.join("\n")
    );
}

/// The dataflow tier routes through the same report pipeline as every
/// other tier: the binary gates the bad fixture with exit 1, and the
/// text report names each dataflow rule as an error with file/line
/// coordinates.
#[test]
fn binary_gates_the_bad_fixture_with_located_errors() {
    let out = Command::new(env!("CARGO_BIN_EXE_dses-lint"))
        .args(["--workspace", "--dataflow", "--root"])
        .arg(fixture_root("bad"))
        .output()
        .expect("spawn dses-lint");
    assert_eq!(out.status.code(), Some(1), "violations must exit 1");
    let text = String::from_utf8_lossy(&out.stdout);
    for rule in dses_lint::rules::DATAFLOW_RULES {
        assert!(
            text.lines().any(|l| l.starts_with("crates/sim/src/lib.rs:")
                && l.contains(&format!(": error[{rule}] "))),
            "missing a located error for {rule}:\n{text}"
        );
    }
}
