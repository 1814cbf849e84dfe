//! The linter must pass on the workspace that ships it: every committed
//! violation is either fixed or carries a documented waiver. Also
//! exercises the installed binary end-to-end — exit codes and the text
//! report — against both the real tree and a synthetic violating one.

use std::path::Path;
use std::process::Command;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root")
}

#[test]
fn workspace_lints_clean() {
    let root = workspace_root();
    let cfg = dses_lint::driver::load_config(root).expect("lint.toml parses");
    let report =
        dses_lint::driver::lint_workspace(root, &cfg, false, false).expect("workspace walk");
    let errors: Vec<String> = report
        .unwaived()
        .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message))
        .collect();
    assert!(errors.is_empty(), "workspace has unwaived findings:\n{}", errors.join("\n"));
    assert!(report.files_scanned > 100, "suspiciously few files scanned: {}", report.files_scanned);
    // the documented waivers (the event engine's heap pops among them)
    // are honoured
    let waived = report.findings.iter().filter(|f| f.waived).count();
    assert!(waived >= 40, "expected the committed waiver surface, got {waived}");
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.waived && f.file == "crates/sim/src/event.rs" && f.rule == "panic-hygiene"),
        "the event engine's panic-hygiene waivers should be visible in the report"
    );
}

/// The shipped workspace must also be clean under the semantic tier:
/// every transitive-alloc / layering / state-needs finding is either
/// fixed or carries a documented waiver.
#[test]
fn workspace_lints_clean_under_semantic_tier() {
    let root = workspace_root();
    let cfg = dses_lint::driver::load_config(root).expect("lint.toml parses");
    let report =
        dses_lint::driver::lint_workspace(root, &cfg, true, false).expect("workspace walk");
    let errors: Vec<String> = report
        .unwaived()
        .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message))
        .collect();
    assert!(
        errors.is_empty(),
        "workspace has unwaived semantic findings:\n{}",
        errors.join("\n")
    );
}

/// The shipped workspace must be clean under all three tiers at once —
/// the exact configuration `ci.sh` gates on. Every divide-budget,
/// loop-alloc, grow-once, and demand-monomorphism finding on the real
/// tree is fixed or carries a documented waiver, and the run reports
/// zero unused waivers across every tier.
#[test]
fn workspace_lints_clean_under_all_three_tiers() {
    let root = workspace_root();
    let cfg = dses_lint::driver::load_config(root).expect("lint.toml parses");
    let report = dses_lint::driver::lint_workspace(root, &cfg, true, true).expect("workspace walk");
    let errors: Vec<String> = report
        .unwaived()
        .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message))
        .collect();
    assert!(
        errors.is_empty(),
        "workspace has unwaived dataflow findings:\n{}",
        errors.join("\n")
    );
    // the divide-budget annotations on the sim kernels are live: the
    // dataflow tier actually visited them (waived or not, they appear)
    assert!(
        report
            .findings
            .iter()
            .all(|f| f.rule != "divide-budget" || f.waived),
        "divide budgets must hold without unwaived findings"
    );
    // the cross-tier waiver accounting holds: no waiver in the tree
    // suppresses nothing
    let stale: Vec<String> = report
        .findings
        .iter()
        .filter(|f| f.rule == "unused-waiver")
        .map(|f| format!("{}:{}: {}", f.file, f.line, f.message))
        .collect();
    assert!(
        stale.is_empty(),
        "dead waivers in the tree:\n{}",
        stale.join("\n")
    );
}

#[test]
fn binary_exits_zero_on_the_workspace() {
    let out = Command::new(env!("CARGO_BIN_EXE_dses-lint"))
        .args(["--workspace", "--root"])
        .arg(workspace_root())
        .output()
        .expect("spawn dses-lint");
    assert!(
        out.status.success(),
        "dses-lint --workspace failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("0 error(s)"), "{text}");
}

/// Build a minimal violating workspace under `target/tmp` and assert the
/// binary gates it: nonzero exit, each finding reported as an error at
/// its file.
#[test]
fn binary_exits_nonzero_on_violations() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint-badcase");
    let src_dir = dir.join("crates/sim/src");
    std::fs::create_dir_all(&src_dir).expect("mkdir");
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").expect("write");
    std::fs::write(dir.join("crates/sim/Cargo.toml"), "[package]\nname = \"sim\"\n")
        .expect("write");
    std::fs::write(
        src_dir.join("lib.rs"),
        "use std::collections::HashMap;\npub fn f(x: f64) -> bool { x == 0.5 }\n",
    )
    .expect("write");

    let out = Command::new(env!("CARGO_BIN_EXE_dses-lint"))
        .args(["--workspace", "--root"])
        .arg(&dir)
        .output()
        .expect("spawn dses-lint");
    assert_eq!(out.status.code(), Some(1), "violations must exit 1");
    let text = String::from_utf8_lossy(&out.stdout);
    for rule in ["determinism", "float-totality", "header-conformance"] {
        assert!(
            text.lines().any(|l| l.starts_with("crates/sim/src/lib.rs:")
                && l.contains(&format!(": error[{rule}] "))),
            "missing {rule} error at crates/sim/src/lib.rs:\n{text}"
        );
    }
    assert!(!text.contains(" 0 error(s)"), "{text}");
}

#[test]
fn binary_rejects_unknown_flags_with_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_dses-lint"))
        .arg("--frobnicate")
        .output()
        .expect("spawn dses-lint");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn list_rules_names_the_catalogue() {
    let out = Command::new(env!("CARGO_BIN_EXE_dses-lint"))
        .arg("--list-rules")
        .output()
        .expect("spawn dses-lint");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for rule in dses_lint::rules::RULE_IDS {
        assert!(text.contains(rule), "missing {rule} in {text}");
    }
}
