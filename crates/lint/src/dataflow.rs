//! The dataflow tier (`--dataflow`): hot-loop performance contracts
//! checked statically over per-function CFGs and the workspace call
//! graph (DESIGN.md §10.6).
//!
//! PRs 6–8 bought the engine's throughput with hand-audited invariants:
//! zero float divides per steady-state job, zero allocations per grid
//! point, grow-once workspace buffers, and demand decisions compiled
//! into const generics. Runtime tests (`tests/metrics_alloc.rs`,
//! `tests/metrics_demand.rs`) check them on the inputs they run; this
//! tier proves them at lint time:
//!
//! | rule | contract |
//! |------|----------|
//! | `divide-budget` | `// dses-lint: divides(N)` caps the loop-weighted float `/`/`%` sites reachable from a kernel |
//! | `loop-alloc` | no allocating or growing construct inside a loop of a result-affecting crate |
//! | `grow-once` | workspace buffers grow only on reset/new paths, never on the record/dispatch path |
//! | `demand-monomorphism` | const-generic record paths never read the `Demand` bitset at runtime |
//!
//! **Budget semantics.** A divide site counts against a `divides(N)`
//! root when it can execute once per loop iteration (per job): it sits
//! on a CFG cycle or inside a closure, or it is reached through a call
//! edge that does. A reciprocal hoisted above the loop costs nothing;
//! the same divide inside it counts. A root with no CFG cycle of its own
//! (a per-record helper) runs whole once per call, that is once per
//! job, so every live site in it and in the unannotated callees it
//! reaches counts. Sites inside `debug_assert*!(…)` never count: release
//! builds do not run them. Budgets compose: a call to another
//! annotated function contributes that function's declared budget
//! instead of being traversed (its own annotation is verified
//! separately), a call waived for `divide-budget` is not followed (its
//! reason covers the callee), and call edges into once-per-run functions
//! (`new`, `reset*`, `with_*`, `warmup*`, `finish*`) are not followed —
//! the warmup/reset/finalize paths run once per run, not per job. The
//! token stream has no types, so `/`
//! and `%` are assumed floating unless an operand is an integer
//! literal; integer index arithmetic inside an annotated kernel is
//! waived with a reason, which keeps it visible.
//!
//! All four rules honour `allow(<rule>)` waivers at the flagged line
//! (and, for path findings, at the root's own edge into the chain),
//! with the usual mandatory reasons.

use crate::cfg::Cfg;
use crate::config::Config;
use crate::driver::SourceFile;
use crate::graph::{FnId, Graph};
use crate::items::Code;
use crate::lexer::TokenKind;
use crate::report::{Finding, Severity};
use crate::rules::FileKind;
use crate::semantic::{layering_closure, root_edge_line, waived};
use std::collections::BTreeMap;

/// Functions treated as the once-per-run boundary: setup/warmup on the
/// way in (`new`, `default`, `reset*`, `with_*`, `warmup*`) and
/// finalization on the way out (`finish*`). Growth is legal in them,
/// and divide-budget traversal stops at their door — they run once per
/// run, not once per job, so their arithmetic never multiplies by the
/// trace length.
fn is_setup(name: &str) -> bool {
    name == "new"
        || name == "default"
        || name.starts_with("reset")
        || name.starts_with("with_")
        || name.starts_with("warmup")
        || name.starts_with("finish")
}

/// Workspace-owned buffer holders whose fields must only grow on
/// reset/new paths (the `grow-once` rule).
const WORKSPACE_TYPES: &[&str] = &["SimWorkspace", "EventWorkspace", "Collector"];

/// Buffer-growing method names (on `self.<field>`) the `grow-once`
/// rule polices, and that `loop-alloc` counts as allocation sites.
const GROW_VERBS: &[&str] = &[
    "resize",
    "resize_with",
    "reserve",
    "reserve_exact",
    "push",
    "push_back",
    "push_front",
    "extend",
    "extend_from_slice",
    "append",
    "insert",
];

/// Run every dataflow analysis over the collected workspace.
#[must_use]
pub fn check_workspace(files: &[SourceFile], cfg: &Config) -> Vec<Finding> {
    let g = Graph::build_scoped(files, layering_closure(cfg));
    check_graph(&g, cfg)
}

/// Run every dataflow analysis over a prebuilt item graph — the driver
/// builds one graph and shares it across the workspace tiers' threads.
#[must_use]
pub fn check_graph(g: &Graph<'_>, cfg: &Config) -> Vec<Finding> {
    let flows = Flows::build(g);
    let mut out = Vec::new();
    divide_budget(g, &flows, cfg, &mut out);
    loop_alloc(g, &flows, cfg, &mut out);
    grow_once(g, &flows, cfg, &mut out);
    demand_monomorphism(g, cfg, &mut out);
    out
}

/// One float-divide site inside a function body.
#[derive(Debug)]
struct DivSite {
    line: u32,
    /// Reachable from the function entry.
    live: bool,
    /// On a CFG cycle or inside a closure: executes per iteration.
    hot: bool,
    /// `a / b` — the operator with its immediate operands.
    what: String,
}

/// A `self.<field>.<verb>(…)` growth site inside a workspace impl.
#[derive(Debug)]
struct GrowSite {
    line: u32,
    live: bool,
    hot: bool,
    /// `self.records.push` — for the message.
    what: String,
}

/// Per-function CFG facts, reduced to what the rules consume: per-line
/// liveness/hotness, the divide sites, and the growth sites.
#[derive(Debug, Default)]
struct Flow {
    /// line → (any position live, any position hot).
    lines: BTreeMap<u32, (bool, bool)>,
    /// (line, identifier) → (live, hot) — finer than `lines`, so an
    /// allocation fact maps to *its own* token's hotness, not to a
    /// closure that happens to share the line (`.map(|x| …).collect()`
    /// must not paint `collect` hot).
    idents: BTreeMap<(u32, String), (bool, bool)>,
    divides: Vec<DivSite>,
    grows: Vec<GrowSite>,
    /// A live CFG cycle: the body loops (closures it passes on do not
    /// count).
    cyclic: bool,
}

impl Flow {
    /// (live, hot) for a source line; unknown lines are conservatively
    /// live and cold.
    fn line(&self, line: u32) -> (bool, bool) {
        self.lines.get(&line).copied().unwrap_or((true, false))
    }

    /// (live, hot) of the named identifier on `line`, falling back to
    /// line granularity when the token is not found.
    fn ident(&self, line: u32, name: &str) -> (bool, bool) {
        self.idents
            .get(&(line, name.to_string()))
            .copied()
            .unwrap_or_else(|| self.line(line))
    }
}

/// Flow facts for every non-test function body in the workspace.
struct Flows(Vec<Option<Flow>>);

impl Flows {
    fn build(g: &Graph<'_>) -> Self {
        let codes: Vec<Code<'_>> = g
            .files
            .iter()
            .map(|pf| Code::new(&pf.file.src))
            .collect();
        let flows = g
            .ids()
            .map(|id| {
                let item = g.item(id);
                if item.in_test {
                    return None;
                }
                let (open, close) = item.body?;
                let code = &codes[g.fns_file(id)];
                if close >= code.len() || code.text(open) != "{" {
                    return None; // stale span: refuse to guess
                }
                Some(flow_of(code, open, close))
            })
            .collect();
        Flows(flows)
    }

    fn of(&self, id: FnId) -> Option<&Flow> {
        self.0[id].as_ref()
    }
}

/// Build the CFG for one body and reduce it to [`Flow`] facts.
fn flow_of(code: &Code<'_>, open: usize, close: usize) -> Flow {
    let cfg = Cfg::build(code, open, close);
    let reach = cfg.reachable();
    let iters = cfg.iterating();
    let mut flow = Flow {
        cyclic: (0..reach.len()).any(|n| reach[n] && iters[n]),
        ..Flow::default()
    };
    // token ranges of `debug_assert*!(…)` arguments: not in release builds
    let mut debug_only = Vec::new();
    let at = |p: usize| -> (bool, bool) {
        match cfg.node_at(p) {
            Some(n) => (reach[n], iters[n] || cfg.closure_depth(p) > 0),
            None => (true, false),
        }
    };
    for p in open + 1..close {
        if code.text(p).starts_with("debug_assert") && code.get(p + 1) == Some("!") {
            if let Some(end) = code.match_bracket(p + 2, "(", ")") {
                debug_only.push(p + 2..end);
            }
        }
        let (live, hot) = at(p);
        let e = flow.lines.entry(code.line(p)).or_insert((false, false));
        e.0 |= live;
        e.1 |= hot;
        if code.kind(p) == TokenKind::Ident {
            let e = flow
                .idents
                .entry((code.line(p), code.text(p).to_string()))
                .or_insert((false, false));
            e.0 |= live;
            e.1 |= hot;
        }
        // ----- divide sites -----
        if code.kind(p) == TokenKind::Punct && matches!(code.text(p), "/" | "%" | "/=" | "%=") {
            // no type info in a token stream: treat as floating unless
            // an immediate operand is an integer literal
            let int_ctx = (p > open + 1 && code.kind(p - 1) == TokenKind::Int)
                || (p + 1 < close && code.kind(p + 1) == TokenKind::Int);
            if !int_ctx && !debug_only.iter().any(|r| r.contains(&p)) {
                let prev = if p > open + 1 { code.text(p - 1) } else { "" };
                let next = if p + 1 < close { code.text(p + 1) } else { "" };
                flow.divides.push(DivSite {
                    line: code.line(p),
                    live,
                    hot,
                    what: format!("`{prev} {} {next}`", code.text(p)),
                });
            }
        }
        // ----- growth sites: self.field[…].verb( -----
        if code.text(p) == "self" && code.get(p + 1) == Some(".") {
            let mut q = p + 1;
            let mut chain = String::from("self");
            while code.get(q) == Some(".") && q + 1 < close {
                let name = code.text(q + 1);
                if code.kind(q + 1) != TokenKind::Ident {
                    break;
                }
                if GROW_VERBS.contains(&name) && code.get(q + 2) == Some("(") && chain != "self" {
                    let (vlive, vhot) = at(q + 1);
                    flow.grows.push(GrowSite {
                        line: code.line(q + 1),
                        live: vlive,
                        hot: vhot,
                        what: format!("{chain}.{name}"),
                    });
                    break;
                }
                chain.push('.');
                chain.push_str(name);
                q += 2;
                while code.get(q) == Some("[") {
                    match code.match_bracket(q, "[", "]") {
                        Some(c) => q = c + 1,
                        None => break,
                    }
                }
            }
        }
    }
    flow
}

/// Does `rule` apply to the crate the function lives in, and is the
/// function ordinary library code?
fn in_scope(g: &Graph<'_>, cfg: &Config, rule: &str, id: FnId) -> bool {
    let pf = &g.files[g.fns_file(id)];
    pf.file.kind == FileKind::Lib
        && !g.item(id).in_test
        && cfg.rule_applies(rule, &pf.file.crate_id)
}

// ---------------------------------------------------------------------
// divide-budget
// ---------------------------------------------------------------------

/// One counted contribution toward a root's divide budget.
struct Contribution {
    cost: u32,
    /// Rendered site: what + file:line (+ path for indirect sites).
    desc: String,
}

fn divide_budget(g: &Graph<'_>, flows: &Flows, cfg: &Config, out: &mut Vec<Finding>) {
    const RULE: &str = "divide-budget";
    let cap = cfg.rules.get(RULE).and_then(|rc| rc.budget);
    let roots: Vec<FnId> = g
        .ids()
        .filter(|&id| g.item(id).divides.is_some() && in_scope(g, cfg, RULE, id))
        .collect();
    for &root in &roots {
        let (budget, dline) = g.item(root).divides.unwrap_or((0, g.item(root).line));
        let root_file = g.fns_file(root);
        // keep declared budgets honest against the workspace cap
        if let Some(cap) = cap {
            if budget > cap {
                out.push(Finding {
                    file: g.files[root_file].file.rel.clone(),
                    line: dline,
                    rule: RULE,
                    message: format!(
                        "fn `{}` declares divides({budget}) but [rules.divide-budget] caps \
                         per-function budgets at {cap}",
                        g.label(root)
                    ),
                    waived: waived(g, root_file, RULE, dline),
                    severity: Severity::Deny,
                });
            }
        }
        // worklist over (fn, reached-through-a-loop) states; a root with
        // no CFG cycle runs whole once per call (per job), so it starts
        // hot
        let loop_free = flows.of(root).is_some_and(|f| !f.cyclic);
        let mut contributions: Vec<Contribution> = Vec::new();
        let mut seen: BTreeMap<FnId, u8> = BTreeMap::new(); // bit 1: cold, bit 2: hot
        let mut parents: BTreeMap<FnId, Option<(FnId, u32)>> = BTreeMap::new();
        parents.insert(root, None);
        let mut work: Vec<(FnId, bool)> = vec![(root, loop_free)];
        seen.insert(root, if loop_free { 2 } else { 1 });
        while let Some((f, hot)) = work.pop() {
            let Some(flow) = flows.of(f) else { continue };
            let f_file = g.fns_file(f);
            for site in &flow.divides {
                if !site.live || !(hot || site.hot) {
                    continue;
                }
                if waived(g, f_file, RULE, site.line) {
                    continue; // the waiver's reason carries the proof
                }
                let via = if f == root {
                    String::new()
                } else {
                    format!(", via {}", g.path_to(&parents, f).join(" → "))
                };
                contributions.push(Contribution {
                    cost: 1,
                    desc: format!(
                        "{} ({}:{}{via})",
                        site.what, g.files[f_file].file.rel, site.line
                    ),
                });
            }
            for &(callee, cline) in &g.edges[f] {
                let (clive, csite_hot) = flow.line(cline);
                if !clive {
                    continue;
                }
                let chot = hot || csite_hot;
                let citem = g.item(callee);
                if is_setup(&citem.name) {
                    continue; // warmup/reset path: once per run, not per job
                }
                if waived(g, f_file, RULE, cline) {
                    continue; // a waived call: its reason covers the callee
                }
                if callee != root {
                    if let Some((cbudget, _)) = citem.divides {
                        // annotated callee: trust its declared budget
                        // (verified from its own root) instead of
                        // traversing into it
                        if cbudget > 0 {
                            contributions.push(Contribution {
                                cost: cbudget,
                                desc: format!(
                                    "call to `{}` (declared divides({cbudget})) ({}:{})",
                                    g.label(callee),
                                    g.files[f_file].file.rel,
                                    cline
                                ),
                            });
                        }
                        continue;
                    }
                }
                let bit = if chot { 2 } else { 1 };
                let mask = seen.entry(callee).or_insert(0);
                if *mask & bit == 0 {
                    *mask |= bit;
                    parents.entry(callee).or_insert(Some((f, cline)));
                    work.push((callee, chot));
                }
            }
        }
        let total: u32 = contributions.iter().map(|c| c.cost).sum();
        if total > budget {
            let mut shown: Vec<&str> = contributions.iter().map(|c| c.desc.as_str()).collect();
            let extra = shown.len().saturating_sub(4);
            shown.truncate(4);
            let more = if extra > 0 {
                format!("; and {extra} more")
            } else {
                String::new()
            };
            out.push(Finding {
                file: g.files[root_file].file.rel.clone(),
                line: dline,
                rule: RULE,
                message: format!(
                    "fn `{}` declares divides({budget}) but {total} loop-weighted divide \
                     site(s) are reachable: {}{more}",
                    g.label(root),
                    shown.join("; ")
                ),
                waived: waived(g, root_file, RULE, dline),
                severity: Severity::Deny,
            });
        }
    }
}

// ---------------------------------------------------------------------
// loop-alloc
// ---------------------------------------------------------------------

/// Allocating constructs (the per-file `no-alloc` facts) and buffer
/// growth whose CFG node sits inside a loop — in *any* function of the
/// configured crates, not just `deny(alloc)` roots. Setup functions
/// (`new`, `reset*`, `with_*`) are exempt: growth in a reset loop is
/// exactly where the finding message tells you to put it. Files doing
/// once-per-run work (report rendering, trace parsing) are blessed in
/// `lint.toml` rather than waived line by line.
fn loop_alloc(g: &Graph<'_>, flows: &Flows, cfg: &Config, out: &mut Vec<Finding>) {
    const RULE: &str = "loop-alloc";
    for id in g.ids() {
        if !in_scope(g, cfg, RULE, id) {
            continue;
        }
        if is_setup(&g.item(id).name) {
            continue;
        }
        if cfg.is_blessed(RULE, &g.files[g.fns_file(id)].file.rel) {
            continue;
        }
        let Some(flow) = flows.of(id) else { continue };
        let file_idx = g.fns_file(id);
        let item = g.item(id);
        let sites = item
            .allocs
            .iter()
            .map(|f| {
                // the fact only carries a line; anchor hotness to the
                // fact's own identifier (`Vec::with_capacity` →
                // `with_capacity`, `.collect` → `collect`, `vec!` →
                // `vec`), not to whatever else shares the line
                let needle = f
                    .what
                    .rsplit("::")
                    .next()
                    .unwrap_or(&f.what)
                    .trim_start_matches('.')
                    .trim_end_matches('!');
                let (live, hot) = flow.ident(f.line, needle);
                (f.line, f.what.clone(), live, hot)
            })
            .chain(
                flow.grows
                    .iter()
                    .map(|s| (s.line, s.what.clone(), s.live, s.hot)),
            );
        let mut last: Option<u32> = None;
        for (line, what, live, hot) in sites {
            if !live || !hot {
                continue;
            }
            if last == Some(line) {
                continue; // one finding per line is enough to act on
            }
            last = Some(line);
            out.push(Finding {
                file: g.files[file_idx].file.rel.clone(),
                line,
                rule: RULE,
                message: format!(
                    "`{what}` inside a loop in fn `{}` — per-iteration allocation/growth \
                     belongs in reset/setup",
                    g.label(id)
                ),
                waived: waived(g, file_idx, RULE, line),
                severity: Severity::Deny,
            });
        }
    }
}

// ---------------------------------------------------------------------
// grow-once
// ---------------------------------------------------------------------

/// Workspace buffers may grow in reset/new/constructor paths only. The
/// record/dispatch path is the set of `divides(N)` / `deny(alloc)`
/// roots; traversal stops at setup-named functions, so growth behind a
/// `reset` call is sanctioned while growth reachable without passing a
/// reset boundary is flagged.
fn grow_once(g: &Graph<'_>, flows: &Flows, cfg: &Config, out: &mut Vec<Finding>) {
    const RULE: &str = "grow-once";
    let roots: Vec<FnId> = g
        .ids()
        .filter(|&id| {
            let it = g.item(id);
            (it.divides.is_some() || it.deny_alloc)
                && !is_setup(&it.name)
                && in_scope(g, cfg, RULE, id)
        })
        .collect();
    if roots.is_empty() {
        return;
    }
    let parents = g.bfs(&roots, |id| !is_setup(&g.item(id).name));
    for &n in parents.keys() {
        let item = g.item(n);
        if is_setup(&item.name) {
            continue;
        }
        let Some(ty) = item.impl_ty.as_deref() else { continue };
        if !WORKSPACE_TYPES.contains(&ty) {
            continue;
        }
        let Some(flow) = flows.of(n) else { continue };
        let n_file = g.fns_file(n);
        for site in &flow.grows {
            if !site.live {
                continue;
            }
            let path = g.path_to(&parents, n).join(" → ");
            let is_waived = waived(g, n_file, RULE, site.line)
                || roots.iter().any(|&r| {
                    root_edge_line(&parents, n, r)
                        .is_some_and(|l| waived(g, g.fns_file(r), RULE, l))
                });
            out.push(Finding {
                file: g.files[n_file].file.rel.clone(),
                line: site.line,
                rule: RULE,
                message: format!(
                    "`{ty}` buffer grows on the record/dispatch path: `{}` in `{}` \
                     (reached via {path}) — growth belongs behind reset/new",
                    site.what,
                    g.label(n)
                ),
                waived: is_waived,
                severity: Severity::Deny,
            });
        }
    }
}

// ---------------------------------------------------------------------
// demand-monomorphism
// ---------------------------------------------------------------------

/// Inside a function monomorphized over const-generic parameters, the
/// demand decision has already been compiled out — any runtime read of
/// the `Demand` bitset re-introduces the branch the const split exists
/// to remove (the metrics-layer sibling of PR 5's StateNeeds check).
fn demand_monomorphism(g: &Graph<'_>, cfg: &Config, out: &mut Vec<Finding>) {
    const RULE: &str = "demand-monomorphism";
    for id in g.ids() {
        let item = g.item(id);
        if item.const_params.is_empty() || !in_scope(g, cfg, RULE, id) {
            continue;
        }
        let Some((open, close)) = item.body else { continue };
        let file_idx = g.fns_file(id);
        let code = Code::new(&g.files[file_idx].file.src);
        if close >= code.len() || code.text(open) != "{" {
            continue;
        }
        let mut last = 0u32;
        for p in open + 1..close {
            if code.kind(p) != TokenKind::Ident {
                continue;
            }
            let t = code.text(p);
            if t != "demand" && t != "Demand" {
                continue;
            }
            let line = code.line(p);
            if line == last {
                continue;
            }
            last = line;
            out.push(Finding {
                file: g.files[file_idx].file.rel.clone(),
                line,
                rule: RULE,
                message: format!(
                    "fn `{}` is monomorphized over const params [{}] but reads `{t}` at \
                     runtime — the demand split must be compiled out",
                    g.label(id),
                    item.const_params.join(", ")
                ),
                waived: waived(g, file_idx, RULE, line),
                severity: Severity::Deny,
            });
        }
    }
}
