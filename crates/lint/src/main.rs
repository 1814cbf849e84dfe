//! `dses-lint` — the workspace linter binary.
//!
//! ```text
//! dses-lint --workspace            # lint every crate, exit 1 on findings
//! dses-lint --workspace --semantic # also run the workspace-wide analyses
//! dses-lint --workspace --semantic --dataflow # full three-tier run
//! dses-lint crates/sim/src/fast.rs # lint specific files
//! dses-lint --list-rules           # print the rule catalogue
//! ```

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workspace: bool,
    semantic: bool,
    dataflow: bool,
    verbose: bool,
    list_rules: bool,
    root: Option<PathBuf>,
    files: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workspace: false,
        semantic: false,
        dataflow: false,
        verbose: false,
        list_rules: false,
        root: None,
        files: Vec::new(),
    };
    let mut iter = std::env::args().skip(1);
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--workspace" => args.workspace = true,
            "--semantic" => args.semantic = true,
            "--dataflow" => args.dataflow = true,
            "--verbose" | "-v" => args.verbose = true,
            "--list-rules" => args.list_rules = true,
            "--root" => {
                let v = iter.next().ok_or("--root needs a directory")?;
                args.root = Some(PathBuf::from(v));
            }
            "--help" | "-h" => {
                println!("{HELP}");
                std::process::exit(0);
            }
            f if !f.starts_with('-') => args.files.push(PathBuf::from(f)),
            other => return Err(format!("unknown flag `{other}` (see --help)")),
        }
    }
    if !args.workspace && args.files.is_empty() && !args.list_rules {
        return Err("nothing to lint: pass --workspace or file paths (see --help)".into());
    }
    if args.semantic && !args.workspace {
        return Err("--semantic needs --workspace (the analyses span the whole tree)".into());
    }
    if args.dataflow && !args.workspace {
        return Err("--dataflow needs --workspace (budgets compose across the call graph)".into());
    }
    Ok(args)
}

const HELP: &str = "\
dses-lint — enforce determinism, no-alloc, and panic-hygiene invariants

USAGE:
    dses-lint --workspace [--semantic] [--dataflow] [--verbose] [--root <dir>]
    dses-lint <file>...
    dses-lint --list-rules

FLAGS:
    --workspace    lint every crate in the workspace
    --semantic     also build the item graph and run the workspace-wide
                   analyses (no-alloc-transitive, determinism-transitive,
                   layering, state-needs, waiver reachability)
    --dataflow     also recover per-function CFGs and run the hot-loop
                   dataflow analyses (divide-budget, loop-alloc,
                   grow-once, demand-monomorphism)
    --verbose      also print honoured waivers
    --root <dir>   workspace root (default: walk up from the cwd)
    --list-rules   print the rule catalogue and exit

EXIT STATUS:
    0  no unwaived findings
    1  at least one unwaived finding
    2  usage or I/O error";

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    if args.list_rules {
        println!("rules enforced by dses-lint (waive inline with `// dses-lint: allow(<rule>) -- <reason>`):");
        for r in dses_lint::rules::RULE_IDS {
            let tier = if dses_lint::rules::SEMANTIC_RULES.contains(r) {
                " (semantic tier: --workspace --semantic)"
            } else if dses_lint::rules::DATAFLOW_RULES.contains(r) {
                " (dataflow tier: --workspace --dataflow)"
            } else {
                ""
            };
            println!("  {r}{tier}");
        }
        println!("  unused-waiver (warning only)");
        println!("opt functions into allocation checking with `// dses-lint: deny(alloc)`");
        println!("declare a kernel's divide budget with `// dses-lint: divides(N)`");
        return Ok(true);
    }
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let root = match args.root {
        Some(r) => r,
        None => dses_lint::driver::find_workspace_root(&cwd)
            .ok_or("cannot find the workspace root (Cargo.toml + crates/); pass --root")?,
    };
    let cfg = dses_lint::driver::load_config(&root)?;
    let report = if args.workspace {
        dses_lint::driver::lint_workspace(&root, &cfg, args.semantic, args.dataflow)?
    } else {
        let files: Vec<PathBuf> = args
            .files
            .iter()
            .map(|f| if f.is_absolute() { f.clone() } else { cwd.join(f) })
            .collect();
        dses_lint::driver::lint_files(&root, &files, &cfg)?
    };
    print!("{}", report.render_text(args.verbose));
    Ok(report.clean())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("dses-lint: error: {e}");
            ExitCode::from(2)
        }
    }
}
