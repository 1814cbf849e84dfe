//! End-to-end fixtures for the semantic tier: two miniature workspaces
//! under `tests/fixtures/semantic/`. The `bad` one seeds one violation
//! per semantic rule — a 3-hop transitive allocation, a nondeterminism
//! source two calls deep in an out-of-scope crate, an upward dependency
//! (manifest *and* `use`-path evidence), an under-declared and an
//! over-declared `StateNeeds` impl, and a waiver stranded in dead code —
//! plus two allocations reached only through turbofish calls. The `good`
//! one exercises the same surface with every declaration consistent,
//! and must come back clean.

use std::path::PathBuf;

use dses_lint::{Report, Severity};

fn fixture_root(which: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/semantic")
        .join(which)
}

fn lint(which: &str) -> Report {
    let root = fixture_root(which);
    let cfg = dses_lint::driver::load_config(&root).expect("fixture lint.toml parses");
    dses_lint::driver::lint_workspace(&root, &cfg, true, false).expect("fixture workspace walk")
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
fn bad_workspace_transitive_alloc_names_the_full_chain() {
    let report = lint("bad");
    let f = find(&report, "no-alloc-transitive", "Vec::with_capacity")
        .expect("the 3-hop allocation chain is detected");
    assert_eq!(f.severity, Severity::Deny);
    assert!(
        f.message.contains("kernel → hop_one → hop_two → hop_three"),
        "chain should name every hop: {}",
        f.message
    );
    // flagged at the root deny(alloc) fn, where the reviewer can act
    assert_eq!(f.file, "crates/sim/src/lib.rs");
}

#[test]
fn bad_workspace_turbofish_calls_are_call_edges() {
    let report = lint("bad");
    // `boxed::<u8>(n)`: a free call with a turbofish
    let free = find(&report, "no-alloc-transitive", "turbofish_kernel → boxed")
        .expect("the allocation behind a turbofish free call is detected");
    assert!(free.message.contains("`Box::new`"), "{}", free.message);
    // `g.grow::<Vec<Vec<u8>>>(n)`: a method call whose generics close on `>>`
    let method = find(
        &report,
        "no-alloc-transitive",
        "turbofish_kernel → Grower::grow",
    )
    .expect("the allocation behind a turbofish method call is detected");
    assert!(method.message.contains("`vec!`"), "{}", method.message);
    assert_eq!(method.severity, Severity::Deny);
}

#[test]
fn bad_workspace_transitive_determinism_crosses_the_crate_boundary() {
    let report = lint("bad");
    let f = find(&report, "determinism-transitive", "HashMap")
        .expect("the two-calls-deep HashMap in the out-of-scope crate is detected");
    assert_eq!(f.severity, Severity::Deny);
    // seeded in util (out of determinism scope), flagged in sim (in scope)
    assert_eq!(f.file, "crates/sim/src/lib.rs");
    assert!(
        f.message.contains("crates/util/src/lib.rs"),
        "message should point at the seed: {}",
        f.message
    );
}

#[test]
fn bad_workspace_layering_flags_both_evidence_kinds() {
    let report = lint("bad");
    // Cargo.toml evidence: dist declares a path dependency on sim
    let cargo = find(&report, "layering", "may not depend on `sim`")
        .expect("manifest evidence is detected");
    assert_eq!(cargo.file, "crates/dist/Cargo.toml");
    assert_eq!(cargo.severity, Severity::Deny);
    // use-path evidence: dist/src/lib.rs imports dses_sim
    let path = find(&report, "layering", "references `dses_sim`")
        .expect("use-path evidence is detected");
    assert_eq!(path.file, "crates/dist/src/lib.rs");
    assert_eq!(path.severity, Severity::Deny);
}

#[test]
fn bad_workspace_state_needs_under_and_over_declaration() {
    let report = lint("bad");
    let under = find(&report, "state-needs", "Shortest declares StateNeeds::NOTHING")
        .expect("under-declaration is detected");
    assert_eq!(under.severity, Severity::Deny, "under-declaration is a correctness bug");
    assert!(
        under.message.contains(".queue_len") && under.message.contains("shortest_of"),
        "message should show the read and the path to it: {}",
        under.message
    );
    let over = find(&report, "state-needs", "RoundRobin declares StateNeeds::ALL")
        .expect("over-declaration is detected");
    assert_eq!(over.severity, Severity::Warn, "over-declaration only wastes work");
    assert!(over.message.contains("never consults"), "{}", over.message);
}

#[test]
fn bad_workspace_stranded_waiver_is_reported() {
    let report = lint("bad");
    let f = find(&report, "unused-waiver", "unreachable from every")
        .expect("the waiver in dead code is detected");
    assert_eq!(f.severity, Severity::Warn);
    assert!(f.message.contains("orphan"), "{}", f.message);
}

#[test]
fn good_workspace_is_clean_under_the_semantic_tier() {
    let report = lint("good");
    let noise: Vec<String> = report
        .findings
        .iter()
        .filter(|f| !f.waived)
        .filter(|f| {
            dses_lint::rules::SEMANTIC_RULES.contains(&f.rule) || f.rule == "unused-waiver"
        })
        .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message))
        .collect();
    assert!(
        noise.is_empty(),
        "good fixture should be semantically clean:\n{}",
        noise.join("\n")
    );
    // the reachable panic-hygiene waiver is honoured, not flagged
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.waived && f.rule == "panic-hygiene" && f.file == "crates/sim/src/lib.rs"),
        "the reachable waiver should be visible and honoured"
    );
}
