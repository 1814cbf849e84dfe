#!/usr/bin/env bash
# Tier-1 verification: release build, full test suite, lint-clean clippy.
# Run from the repository root. Any failure fails the script.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
cargo test -q

# The repo benchmark (`perfbench/`, its own cargo workspace) builds
# against the public APIs of `crates/`, and its tests compare the
# untraced `Experiment::replicate` with its traced lane loop bit for bit
# — so a `crates/` change that breaks the benchmark fails here rather
# than at benchmark time.
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

cargo clippy --all-targets -- -D warnings

# Source-level invariant gate: the per-file rules (determinism,
# no-alloc, panic-hygiene, float-totality, header-conformance), the
# semantic tier (transitive no-alloc/determinism over the call graph,
# crate-layering enforcement, StateNeeds-vs-usage verification), and
# the dataflow tier (divide budgets, loop-alloc freedom, grow-once
# workspaces, demand monomorphism), and the mirror tier (normalized
# float-op skeleton equivalence across every `mirrors(group)` kernel
# pair — a reordered float expression fails here, not at a bench-time
# bit gate; see DESIGN.md §10). Exits nonzero on any unwaived finding;
# waivers are inline and carry reasons. The tool must stay cheap enough
# to run on every build — the driver runs the tiers on threads, so the
# full four-tier pass gets a 20 s budget, tighter than the old
# sequential three-tier 30 s.
lint_start=$SECONDS
cargo run --release -q -p dses-lint -- --workspace --semantic --dataflow --mirrors
lint_elapsed=$((SECONDS - lint_start))
echo "ci: four-tier lint took ${lint_elapsed}s"
if [ "$lint_elapsed" -gt 20 ]; then
    echo "ci: lint exceeded the 20s budget" >&2
    exit 1
fi

# Perf smoke: tiny-config perf_report exercising the parallel sweep, the
# specialized kernels, and the memoized cutoff solvers. Exits nonzero if
# any optimised path is not bit-identical to its reference. Writes no
# benchmark files.
cargo run --release -q -p dses-bench --bin perf_report -- --smoke

echo "ci: all checks passed"
