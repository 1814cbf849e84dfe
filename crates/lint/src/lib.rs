//! # dses-lint — source-level invariant enforcement for the dses workspace
//!
//! The workspace's correctness story rests on invariants no compiler
//! checks: simulation results must be **bit-deterministic** (no
//! iteration-order-dependent containers, no clocks, no environment
//! reads in result-affecting crates), steady-state loops must be
//! **allocation-free** (the PR 3 sweep engine), library code must have
//! **panic hygiene** (every `unwrap` carries a stated invariant), and
//! float comparisons must go through **total-order helpers**. The
//! runtime gates in `cargo test` (`tests/kernels.rs`,
//! `tests/metrics_alloc.rs`, …) verify these after the fact; this
//! crate enforces them *at the source level*, before a violation can
//! corrupt a number.
//!
//! It is a deliberately small static-analysis pass: a raw-token lexer
//! ([`lexer`]), a rule engine ([`rules`]), a hand-rolled `lint.toml`
//! config ([`config`]), the text report ([`report`]), and a
//! workspace walker ([`driver`]). No dependencies, no `syn`, no full
//! parse — every per-file rule needs only tokens, comments, and bracket
//! matching, which keeps the tool trivially auditable and fast enough
//! to run in CI on every build.
//!
//! On top of the per-file tier sits a **semantic tier** (`--semantic`):
//! a lightweight item parser ([`items`]) feeds a workspace-wide item
//! graph ([`graph`]) — per-crate symbol tables, name resolution good
//! enough for workspace-local paths, and a conservative call graph —
//! on which [`semantic`] runs four interprocedural analyses:
//! transitive no-alloc, transitive determinism, crate-layering
//! enforcement, and `StateNeeds`-vs-usage verification.
//!
//! The third tier (`--dataflow`) recovers a per-function control-flow
//! graph from the token stream ([`cfg`](mod@cfg)) and runs hot-loop dataflow
//! analyses ([`dataflow`]): divide budgets (`// dses-lint: divides(N)`),
//! loop-allocation freedom, grow-once workspace buffers, and
//! demand-monomorphism of const-generic record paths.
//!
//! Bit identity between paired kernels is not a lint concern: the
//! runtime gates (`tests/kernels.rs`, `tests/metrics_demand.rs`,
//! `tests/cross_validation.rs`) compare their results bit for bit.
//!
//! ## Waivers
//!
//! Violations are suppressed inline, never globally:
//!
//! ```text
//! // dses-lint: allow(determinism) -- memo keyed by bit patterns, never iterated
//! use std::collections::HashMap;
//! ```
//!
//! A missing reason is itself a finding. Functions opt *into* the
//! allocation rule with `// dses-lint: deny(alloc)`. See [`rules`] for
//! the catalogue.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cfg;
pub mod config;
pub mod dataflow;
pub mod driver;
pub mod graph;
pub mod items;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod semantic;

pub use config::Config;
pub use report::{Finding, Report, Severity};
pub use rules::{check_file, FileInput, FileKind, RootKind};
