//! Workspace walking: find every `.rs` file, classify it, lint it.
//!
//! Classification is by path convention (the same ones Cargo uses):
//!
//! * `crates/<c>/src/**`            → library code (`FileKind::Lib`) —
//!   unless the crate has no `src/lib.rs`, in which case the whole
//!   crate is a binary (`cli`);
//! * `crates/<c>/src/bin/**`, `src/main.rs` → binary code;
//! * `crates/<c>/{tests,benches,examples}/**`, workspace-root
//!   `tests/**` and `examples/**` → test code;
//! * any path containing a `fixtures` component is skipped entirely
//!   (inert lint-test data, deliberately full of violations).

use crate::config::Config;
use crate::graph::Graph;
use crate::items::DirectiveKind;
use crate::report::{Finding, Report, Severity};
use crate::rules::{check_file, tier_of, FileInput, FileKind, RootKind};
use std::path::{Path, PathBuf};

/// Locate the workspace root: walk up from `start` to the first
/// directory containing both `Cargo.toml` and `crates/`.
#[must_use]
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d.to_path_buf());
        }
        dir = d.parent();
    }
    None
}

/// Load `lint.toml` from the workspace root, falling back to the
/// embedded default when absent.
pub fn load_config(root: &Path) -> Result<Config, String> {
    let path = root.join("lint.toml");
    match std::fs::read_to_string(&path) {
        Ok(text) => Config::parse(&text).map_err(|e| format!("{}: {e}", path.display())),
        Err(_) => Ok(Config::default_workspace()),
    }
}

/// One classified, loaded workspace source file — the unit both the
/// per-file engine and the semantic tier consume.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// Crate directory name (`sim`, `core`, … or `integration`).
    pub crate_id: String,
    /// Target kind.
    pub kind: FileKind,
    /// Set when the file is a crate root.
    pub root: Option<RootKind>,
    /// File contents.
    pub src: String,
}

/// Walk the workspace under `root` and load every lintable source file,
/// classified and sorted by path.
pub fn collect_workspace(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("{}: {e}", crates_dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir() && p.join("Cargo.toml").is_file())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        collect_rs(&dir, &mut files)?;
    }
    for extra in ["tests", "examples"] {
        let d = root.join(extra);
        if d.is_dir() {
            collect_rs(&d, &mut files)?;
        }
    }
    files.sort();
    let mut out = Vec::new();
    for file in &files {
        let rel = workspace_rel(root, file);
        if rel.split('/').any(|c| c == "fixtures" || c == "target") {
            continue;
        }
        let Some((crate_id, kind, root_kind)) = classify(root, &rel) else {
            continue;
        };
        let src =
            std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
        out.push(SourceFile {
            rel,
            crate_id,
            kind,
            root: root_kind,
            src,
        });
    }
    Ok(out)
}

/// Lint the whole workspace under `root`. With `semantic`, also build
/// the workspace item graph and run the interprocedural analyses; with
/// `dataflow`, additionally run the per-function CFG tier (divide
/// budgets, loop-alloc, grow-once, demand-monomorphism). All tiers
/// route through the same [`Report`], so every output format renders
/// them uniformly.
///
/// The tiers run concurrently on std threads: the item graph is built
/// once and shared (directive used-flags are atomic), the per-file
/// engine is chunked across workers, and each active workspace tier
/// gets its own thread. Findings are merged in a fixed order (per-file
/// by path, then semantic, dataflow) before the final sort,
/// so the report is deterministic regardless of scheduling.
pub fn lint_workspace(
    root: &Path,
    cfg: &Config,
    semantic: bool,
    dataflow: bool,
) -> Result<Report, String> {
    let files = collect_workspace(root)?;
    let graph = (semantic || dataflow)
        .then(|| Graph::build_scoped(&files, crate::semantic::layering_closure(cfg)));
    let workers = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .clamp(1, 8);
    let chunk = files.len().div_ceil(workers).max(1);
    let mut report = Report::default();
    let (file_chunks, sem_out, flow_out) = std::thread::scope(|s| {
        let file_handles: Vec<_> = files
            .chunks(chunk)
            .map(|batch| {
                s.spawn(move || {
                    batch
                        .iter()
                        .map(|f| {
                            let input = FileInput {
                                path: &f.rel,
                                crate_id: &f.crate_id,
                                kind: f.kind,
                                root: f.root,
                                src: &f.src,
                            };
                            check_file(&input, cfg)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let g = graph.as_ref();
        let sem = g
            .filter(|_| semantic)
            .map(|g| s.spawn(move || crate::semantic::check_graph(root, g, cfg)));
        let flow = g
            .filter(|_| dataflow)
            .map(|g| s.spawn(move || crate::dataflow::check_graph(g, cfg)));
        let file_chunks: Vec<Vec<Vec<Finding>>> = file_handles
            .into_iter()
            // dses-lint: allow(panic-hygiene) -- a worker only panics if a rule itself panicked; propagate it
            .map(|h| h.join().expect("lint worker panicked"))
            .collect();
        let take = |h: Option<std::thread::ScopedJoinHandle<'_, Vec<Finding>>>| {
            // dses-lint: allow(panic-hygiene) -- same propagation for the tier threads
            h.map_or_else(Vec::new, |h| h.join().expect("lint tier panicked"))
        };
        (file_chunks, take(sem), take(flow))
    });
    for per_file in file_chunks.into_iter().flatten() {
        report.findings.extend(per_file);
        report.files_scanned += 1;
    }
    report.findings.extend(sem_out);
    report.findings.extend(flow_out);
    if let Some(g) = &graph {
        cross_tier_unused_waivers(g, semantic, dataflow, &mut report.findings);
    }
    report.sort();
    Ok(report)
}

/// Judge waivers that name only workspace-tier rules: the per-file
/// engine cannot see whether the semantic/dataflow analyses
/// consumed them, but after those tiers have run over the shared graph
/// the used-flags are authoritative. A waiver naming a rule whose tier
/// did not run this invocation is left alone — it may well be consumed
/// by a fuller run.
fn cross_tier_unused_waivers(
    g: &Graph<'_>,
    semantic: bool,
    dataflow: bool,
    out: &mut Vec<Finding>,
) {
    let ran = |tier: &str| match tier {
        "semantic" => semantic,
        "dataflow" => dataflow,
        _ => false,
    };
    for pf in &g.files {
        for d in &pf.items.directives {
            let DirectiveKind::Allow { rules, .. } = &d.kind else {
                continue;
            };
            let judgeable = !rules.is_empty()
                && rules.iter().all(|r| {
                    let t = tier_of(r);
                    t != "file" && ran(t)
                });
            if judgeable && !d.is_used() {
                out.push(Finding {
                    file: pf.file.rel.clone(),
                    line: d.line,
                    rule: "unused-waiver",
                    message: format!(
                        "waiver suppresses nothing: `{}` produced no finding here this run \
                         — delete it or fix the location",
                        rules.join(", ")
                    ),
                    waived: false,
                    severity: Severity::Warn,
                });
            }
        }
    }
}

/// Lint an explicit list of files (absolute or root-relative paths).
pub fn lint_files(root: &Path, files: &[PathBuf], cfg: &Config) -> Result<Report, String> {
    let mut report = Report::default();
    for file in files {
        let abs = if file.is_absolute() {
            file.clone()
        } else {
            root.join(file)
        };
        let rel = workspace_rel(root, &abs);
        if rel.split('/').any(|c| c == "fixtures" || c == "target") {
            continue;
        }
        let Some((crate_id, kind, root_kind)) = classify(root, &rel) else {
            continue;
        };
        let src = std::fs::read_to_string(&abs).map_err(|e| format!("{}: {e}", abs.display()))?;
        let input = FileInput {
            path: &rel,
            crate_id: &crate_id,
            kind,
            root: root_kind,
            src: &src,
        };
        report.findings.extend(check_file(&input, cfg));
        report.files_scanned += 1;
    }
    report.sort();
    Ok(report)
}

/// `/`-separated path of `abs` relative to `root` (falls back to the
/// full path if `abs` is outside the workspace).
fn workspace_rel(root: &Path, abs: &Path) -> String {
    let p = abs.strip_prefix(root).unwrap_or(abs);
    p.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Derive `(crate_id, kind, root)` from a workspace-relative path.
/// Returns `None` for paths that are not lintable Rust sources.
fn classify(root: &Path, rel: &str) -> Option<(String, FileKind, Option<RootKind>)> {
    if !rel.ends_with(".rs") {
        return None;
    }
    let parts: Vec<&str> = rel.split('/').collect();
    // workspace-root tests/ and examples/ belong to the integration crate
    if parts.first() == Some(&"tests") || parts.first() == Some(&"examples") {
        return Some(("integration".to_string(), FileKind::Test, None));
    }
    if parts.first() != Some(&"crates") || parts.len() < 3 {
        return None;
    }
    let crate_id = parts[1].to_string();
    let section = parts[2];
    let kind = match section {
        "src" => {
            let bin_only = !root
                .join("crates")
                .join(&crate_id)
                .join("src/lib.rs")
                .is_file();
            if bin_only || parts.get(3) == Some(&"bin") || parts.last() == Some(&"main.rs") {
                FileKind::Bin
            } else {
                FileKind::Lib
            }
        }
        "tests" | "benches" | "examples" => FileKind::Test,
        _ => return None,
    };
    let root_kind = match (parts.get(2), parts.get(3), parts.len()) {
        (Some(&"src"), Some(&"lib.rs"), 4) => Some(RootKind::LibRoot),
        (Some(&"src"), Some(&"main.rs"), 4) if kind == FileKind::Bin => {
            // main.rs is only a *crate* root when there is no lib.rs
            if root
                .join("crates")
                .join(&crate_id)
                .join("src/lib.rs")
                .is_file()
            {
                None
            } else {
                Some(RootKind::BinRoot)
            }
        }
        _ => None,
    };
    Some((crate_id, kind, root_kind))
}

/// Recursively collect `.rs` files under `dir`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_kinds() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .map(Path::to_path_buf)
            .expect("crates/lint has a workspace two levels up");
        let lib = classify(&root, "crates/sim/src/fast.rs");
        assert_eq!(lib, Some(("sim".into(), FileKind::Lib, None)));
        let libroot = classify(&root, "crates/sim/src/lib.rs");
        assert_eq!(
            libroot,
            Some(("sim".into(), FileKind::Lib, Some(RootKind::LibRoot)))
        );
        let cli = classify(&root, "crates/cli/src/args.rs");
        assert_eq!(cli, Some(("cli".into(), FileKind::Bin, None)));
        let cli_main = classify(&root, "crates/cli/src/main.rs");
        assert_eq!(
            cli_main,
            Some(("cli".into(), FileKind::Bin, Some(RootKind::BinRoot)))
        );
        let bench_bin = classify(&root, "crates/bench/src/bin/fig2.rs");
        assert_eq!(bench_bin, Some(("bench".into(), FileKind::Bin, None)));
        let test = classify(&root, "crates/lint/tests/rules.rs");
        assert_eq!(test, Some(("lint".into(), FileKind::Test, None)));
        let ws_test = classify(&root, "tests/kernels.rs");
        assert_eq!(ws_test, Some(("integration".into(), FileKind::Test, None)));
        assert_eq!(classify(&root, "README.md"), None);
    }

    #[test]
    fn finds_workspace_root_from_here() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        assert!(root.join("lint.toml").is_file() || root.join("Cargo.toml").is_file());
    }
}
