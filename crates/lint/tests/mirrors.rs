//! End-to-end fixtures for the mirror tier: two miniature workspaces
//! under `tests/fixtures/mirrors/`. The `bad` one plants one violation
//! per failure class — a reassociated Lindley `+`, a swapped
//! `min`/`max`, a hoisted reciprocal nobody declared, an `f32`
//! round-trip inside an annotated kernel, a stale hoist, and an
//! orphaned one-member group. The `good` one carries the real
//! workspace's pairing shapes (live divide vs hoisted service call,
//! live reciprocal vs declared hoist parameter, an ulp group, a
//! const-guarded specialization) and must come back clean.
//!
//! A mutation-style test then copies the *real* workspace aside,
//! reassociates one `+` in the marched-chain Lindley update, and
//! asserts the tier catches it — the property `ci.sh` gates on.

use std::path::{Path, PathBuf};
use std::process::Command;

use dses_lint::{Report, Severity};

fn fixture_root(which: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/mirrors")
        .join(which)
}

fn lint(which: &str) -> Report {
    let root = fixture_root(which);
    let cfg = dses_lint::driver::load_config(&root).expect("fixture lint.toml parses");
    dses_lint::driver::lint_workspace(&root, &cfg, false, false, true)
        .expect("fixture workspace walk")
}

/// One unwaived finding for `rule` whose message contains `needle`.
fn find<'r>(report: &'r Report, rule: &str, needle: &str) -> Option<&'r dses_lint::Finding> {
    report
        .findings
        .iter()
        .find(|f| !f.waived && f.rule == rule && f.message.contains(needle))
}

#[test]
fn bad_workspace_reassociated_lindley_update_diverges_by_provenance() {
    let report = lint("bad");
    let f = find(&report, "mirror-divergence", "accept_marched")
        .expect("the swapped `+` operands are detected");
    assert_eq!(f.severity, Severity::Deny);
    assert!(
        f.message.contains("group `lindley`") && f.message.contains("reference `accept`"),
        "the finding should name the group and the reference member: {}",
        f.message
    );
    assert!(
        f.message.contains("provenance"),
        "a pure operand swap is a provenance divergence: {}",
        f.message
    );
    assert!(
        f.message.contains("crates/sim/src/lib.rs:"),
        "the reference span rides in the message: {}",
        f.message
    );
}

#[test]
fn bad_workspace_swapped_min_max_diverges_by_op_kind() {
    let report = lint("bad");
    let f = find(&report, "mirror-divergence", "clamp_lo_lanes")
        .expect("the min-for-max swap is detected");
    assert!(
        f.message.contains("`min` here but `max` in the reference"),
        "the finding should name both op kinds: {}",
        f.message
    );
}

#[test]
fn bad_workspace_undeclared_hoist_cannot_unify_with_the_live_reciprocal() {
    let report = lint("bad");
    let f = find(&report, "mirror-divergence", "push_with_inv")
        .expect("the undeclared reciprocal parameter is detected");
    assert!(
        f.message.contains("group `welford`"),
        "the finding should name the group: {}",
        f.message
    );
}

#[test]
fn bad_workspace_f32_roundtrip_is_a_hard_mixed_precision_error() {
    let report = lint("bad");
    let f = find(&report, "mirror-mixed-precision", "lossy")
        .expect("the f32 constant inside an annotated kernel is detected");
    assert_eq!(f.severity, Severity::Deny);
    assert!(
        f.message.contains("pure `f64`"),
        "the finding should state the contract: {}",
        f.message
    );
    // both twins are flagged — identical skeletons do not excuse f32
    assert!(
        find(&report, "mirror-mixed-precision", "lossy_twin").is_some(),
        "the shape-identical twin must be flagged too"
    );
    // and the group itself has no divergence: precision is a separate axis
    assert!(
        find(&report, "mirror-divergence", "lossy").is_none(),
        "identical skeletons must not also report divergence"
    );
}

#[test]
fn bad_workspace_unconsumed_hoist_is_stale() {
    let report = lint("bad");
    let f = find(&report, "mirror-stale-hoist", "inv_total")
        .expect("the hoist that matches no parameter or call is detected");
    assert!(
        f.message.contains("scaled_twin"),
        "the finding should name the annotated function: {}",
        f.message
    );
}

#[test]
fn bad_workspace_single_member_group_is_an_orphan() {
    let report = lint("bad");
    let f = find(&report, "mirror-orphan", "lonely")
        .expect("the one-member unguarded group is detected");
    assert!(
        f.message.contains("group `lonely`"),
        "the finding should name the group: {}",
        f.message
    );
}

#[test]
fn good_workspace_is_clean_under_the_mirror_tier() {
    let report = lint("good");
    let noise: Vec<String> = report
        .findings
        .iter()
        .filter(|f| !f.waived)
        .filter(|f| dses_lint::rules::MIRROR_RULES.contains(&f.rule) || f.rule == "unused-waiver")
        .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message))
        .collect();
    assert!(
        noise.is_empty(),
        "good fixture should be clean under the mirror tier:\n{}",
        noise.join("\n")
    );
}

/// The mirror tier routes through the same report pipeline as every
/// other tier: the binary gates the bad fixture with exit 1, and the
/// text report names each mirror rule as an error with file/line
/// coordinates.
#[test]
fn binary_gates_the_bad_fixture_with_located_errors() {
    let out = Command::new(env!("CARGO_BIN_EXE_dses-lint"))
        .args(["--workspace", "--mirrors", "--root"])
        .arg(fixture_root("bad"))
        .output()
        .expect("spawn dses-lint");
    assert_eq!(out.status.code(), Some(1), "violations must exit 1");
    let text = String::from_utf8_lossy(&out.stdout);
    for rule in dses_lint::rules::MIRROR_RULES {
        assert!(
            text.lines().any(|l| l.starts_with("crates/sim/src/lib.rs:")
                && l.contains(&format!(": error[{rule}] "))),
            "missing a located error for {rule}:\n{text}"
        );
    }
}

/// Recursive copy skipping build products and inert fixture trees.
fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("mkdir");
    for e in std::fs::read_dir(from).expect("read_dir") {
        let e = e.expect("dir entry");
        let name = e.file_name();
        if name == "target" || name == "fixtures" {
            continue;
        }
        let src = e.path();
        let dst = to.join(&name);
        if src.is_dir() {
            copy_tree(&src, &dst);
        } else {
            std::fs::copy(&src, &dst).expect("copy");
        }
    }
}

/// Mutation-style check of the property `ci.sh` gates on: copy the real
/// workspace aside, reassociate exactly one `+` in the static kernel's
/// Lindley update, and the mirror tier must flag the copy against the
/// event-engine reference.
#[test]
fn planted_reassociation_in_the_real_kernel_fails_the_mirror_tier() {
    let real = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root");
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("mirror-mutation");
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale copy");
    }
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").expect("write");
    std::fs::copy(real.join("lint.toml"), dir.join("lint.toml")).expect("copy lint.toml");
    copy_tree(&real.join("crates"), &dir.join("crates"));

    let fast = dir.join("crates/sim/src/fast.rs");
    let src = std::fs::read_to_string(&fast).expect("read fast.rs");
    let before = "let completion = start + speeds.service(target, size);";
    let after = "let completion = speeds.service(target, size) + start;";
    assert_eq!(src.matches(before).count(), 1, "mutation anchor moved — update this test");
    std::fs::write(&fast, src.replacen(before, after, 1)).expect("write mutation");

    let cfg = dses_lint::driver::load_config(&dir).expect("lint.toml parses");
    let report = dses_lint::driver::lint_workspace(&dir, &cfg, false, false, true)
        .expect("workspace walk");
    let hit = report.findings.iter().find(|f| {
        !f.waived && f.rule == "mirror-divergence" && f.message.contains("run_static_kernel")
    });
    assert!(
        hit.is_some(),
        "the reassociated Lindley update must diverge from group `lindley`:\n{}",
        report.render_text(true)
    );
}
