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

# Digest gates: one iteration of each benchmark workload, checked against
# `perfbench/references.txt`. `paper_h2` (~2 s) and `wide_full` (~3 s)
# simulate — the C90 sweep grid and replications at 2 hosts, the full
# collector at 8 and 64 hosts — so a change that moves one trace or kernel
# bit fails here. `analytic` (~6 s on 2 vCPUs, most of it the Erlang-4
# solve; its p99 inversion fans out on the worker pool) checks the
# quadrature-fallback Erlang-4 fair solve, the SITA cutoff solves, the
# p99 transform inversion and the analytic policy roster. They gate
# correctness only, never timing.
for workload in paper_h2 wide_full analytic; do
    result=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seconds 1 --trace 0 | tail -n 1)
    if ! grep -q '"correct": true' <<<"$result" || ! grep -q '"failed": 0,' <<<"$result"; then
        echo "ci: perfbench $workload digests failed: $result" >&2
        exit 1
    fi
done

cargo clippy --all-targets -- -D warnings

# Rustdoc gate: an unresolved, ambiguous or private intra-doc link fails
# here instead of rotting in the generated docs.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

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

echo "ci: all checks passed"
