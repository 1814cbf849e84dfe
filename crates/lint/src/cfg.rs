//! Per-function control-flow graphs recovered from the token stream.
//!
//! The dataflow tier (§10.6, [`crate::dataflow`]) needs to know, for
//! every interesting token position inside a function body, two things
//! the flat token walk of [`crate::items`] cannot answer:
//!
//! 1. **reachability** — is the position live, or dead code behind an
//!    unconditional `return` / `break` / diverging match arm?
//! 2. **iteration** — does the position execute once per call, or once
//!    per loop iteration (i.e. per job, in the kernels this tier
//!    polices)? A reciprocal hoisted *above* the job loop is free; the
//!    same divide *inside* it is paid millions of times.
//!
//! [`Cfg::build`] recovers a statement-level CFG from the tokens of one
//! `fn` body: maximal straight-line token runs become nodes, and
//! `if`/`else` chains, `match` arms, the three loop forms (with
//! labelled `break`/`continue`), `return`, `?`, and `let … else` supply
//! the edges. Loop bodies get true back edges, so "iterates" falls out
//! of cycle membership rather than a syntactic guess. The recovery is
//! deliberately conservative: constructs it cannot model precisely
//! (expression-position blocks, closure bodies) collapse into the
//! enclosing node rather than being dropped.
//!
//! Closures are *not* given edges — a `return` inside one exits the
//! closure, not the function — but their bodies are tracked in a
//! separate nesting map: a closure passed as a call argument is assumed
//! to run per element of whatever drives it (`.map`, `.for_each`,
//! `with_thread_workspace`, …), so [`Cfg::closure_depth`] > 0 marks the
//! position as potentially iterating. That over-approximates run-once
//! closures; waivers carry the proof when it matters.
//!
//! Facts are computed by a small forward worklist engine
//! ([`Cfg::solve`]) over arbitrary join-semilattices; reachability and
//! cycle membership ([`Cfg::reachable`], [`Cfg::iterating`]) are the
//! two instances the rules consume.

use crate::items::Code;
use crate::lexer::TokenKind;

/// One CFG node: a maximal straight-line run of tokens.
#[derive(Debug)]
pub struct Node {
    /// First code position claimed by the node (its "location"), if any
    /// token was claimed; synthetic join/exit nodes own no tokens.
    pub first: Option<usize>,
    /// Successor node ids.
    pub succs: Vec<usize>,
}

/// A statement-level control-flow graph for one function body.
#[derive(Debug)]
pub struct Cfg {
    /// All nodes; `entry` executes first, `exit` models every way out.
    pub nodes: Vec<Node>,
    /// Entry node id (always 0).
    pub entry: usize,
    /// Exit node id (always 1); `return`, `?`, and falling off the end
    /// all lead here.
    pub exit: usize,
    /// Code position of the body's `{`.
    open: usize,
    /// node id per body code position (offset by `open`).
    node_of: Vec<usize>,
    /// closure-nesting depth per body code position (offset by `open`).
    closure: Vec<u32>,
}

impl Cfg {
    /// Build the CFG for a body spanning code positions `open ..= close`
    /// (the `{` and `}` as found by [`Code::match_bracket`]).
    #[must_use]
    pub fn build(code: &Code<'_>, open: usize, close: usize) -> Self {
        let mut b = Builder {
            code,
            nodes: vec![
                Node { first: None, succs: Vec::new() }, // entry
                Node { first: None, succs: Vec::new() }, // exit
            ],
            open,
            node_of: vec![usize::MAX; close + 1 - open],
            closure: vec![0; close + 1 - open],
            loops: Vec::new(),
        };
        let body = b.new_node();
        b.edge(0, body);
        if let Some(last) = b.stmts(open + 1, close, body, 0) {
            b.edge(last, 1);
        }
        // claim structural tokens (braces, commas between arms, …) into
        // the nearest preceding node so `node_at` is total over the body
        let mut prev = body;
        for slot in &mut b.node_of {
            if *slot == usize::MAX {
                *slot = prev;
            } else {
                prev = *slot;
            }
        }
        Cfg {
            nodes: b.nodes,
            entry: 0,
            exit: 1,
            open,
            node_of: b.node_of,
            closure: b.closure,
        }
    }

    /// The node owning code position `pos` (None outside the body).
    #[must_use]
    pub fn node_at(&self, pos: usize) -> Option<usize> {
        self.node_of.get(pos.checked_sub(self.open)?).copied()
    }

    /// Closure-nesting depth of code position `pos` (0 = not inside any
    /// closure body).
    #[must_use]
    pub fn closure_depth(&self, pos: usize) -> u32 {
        pos.checked_sub(self.open)
            .and_then(|off| self.closure.get(off))
            .copied()
            .unwrap_or(0)
    }

    /// Forward worklist solver: propagate facts from `entry` to a
    /// fixpoint. `join` must be monotone w.r.t. `PartialEq` (the solver
    /// re-queues successors whenever a node's incoming fact changes).
    pub fn solve<T, J>(&self, bottom: T, entry: T, join: J) -> Vec<T>
    where
        T: Clone + PartialEq,
        J: Fn(&T, &T) -> T,
    {
        let mut facts: Vec<T> = vec![bottom; self.nodes.len()];
        facts[self.entry] = entry;
        let mut work: Vec<usize> = vec![self.entry];
        while let Some(n) = work.pop() {
            for &s in &self.nodes[n].succs {
                let merged = join(&facts[s], &facts[n]);
                if merged != facts[s] {
                    facts[s] = merged;
                    work.push(s);
                }
            }
        }
        facts
    }

    /// Per-node reachability from the entry.
    #[must_use]
    pub fn reachable(&self) -> Vec<bool> {
        self.solve(false, true, |a, b| *a || *b)
    }

    /// Per-node cycle membership: true when the node lies on a loop
    /// (it can reach itself through at least one edge), i.e. it may
    /// execute once per iteration rather than once per call.
    #[must_use]
    pub fn iterating(&self) -> Vec<bool> {
        let n = self.nodes.len();
        let mut out = vec![false; n];
        for (start, on_cycle) in out.iter_mut().enumerate() {
            // worklist reachability from start's successors back to it
            let mut seen = vec![false; n];
            let mut work: Vec<usize> = self.nodes[start].succs.clone();
            while let Some(x) = work.pop() {
                if x == start {
                    *on_cycle = true;
                    break;
                }
                if !seen[x] {
                    seen[x] = true;
                    work.extend(self.nodes[x].succs.iter().copied());
                }
            }
        }
        out
    }
}

struct Builder<'a, 's> {
    code: &'a Code<'s>,
    nodes: Vec<Node>,
    open: usize,
    node_of: Vec<usize>,
    closure: Vec<u32>,
    /// Innermost-last stack of enclosing loops:
    /// (label, continue target, break target).
    loops: Vec<(Option<String>, usize, usize)>,
}

impl Builder<'_, '_> {
    fn new_node(&mut self) -> usize {
        self.nodes.push(Node {
            first: None,
            succs: Vec::new(),
        });
        self.nodes.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        if !self.nodes[from].succs.contains(&to) {
            self.nodes[from].succs.push(to);
        }
    }

    fn claim(&mut self, pos: usize, node: usize) {
        if let Some(slot) = self.node_of.get_mut(pos - self.open) {
            *slot = node;
        }
        if self.nodes[node].first.is_none() {
            self.nodes[node].first = Some(pos);
        }
        // `?` propagates an early return
        if self.code.text(pos) == "?" && self.code.kind(pos) == TokenKind::Punct {
            self.edge(node, 1);
        }
    }

    fn text(&self, p: usize) -> &str {
        self.code.text(p)
    }

    /// Mark a closure starting at `p` (on `|` or `||`); claims its
    /// tokens into `node` with closure depth `depth + 1` and returns the
    /// position after its body.
    fn closure(&mut self, p: usize, node: usize, depth: u32) -> usize {
        let mut q = p;
        if self.text(p) == "|" {
            // the parameter list, up to the matching `|`
            q = self.code.closing_bar(p).min(self.open + self.node_of.len());
            for r in p..q {
                self.claim(r, node);
                self.bump(r, depth);
            }
        }
        if q >= self.open + self.node_of.len() {
            return q;
        }
        self.claim(q, node);
        self.bump(q, depth);
        q += 1; // past the closing `|` (or the whole `||`)
        // body: a block, or an expression up to `,` / `)` / `;` at depth 0
        if self.code.get(q) == Some("{") {
            let close = self.code.match_bracket(q, "{", "}").unwrap_or(q);
            self.opaque(q, close + 1, node, depth + 1);
            return close + 1;
        }
        let mut par = 0usize;
        while q < self.node_of.len() + self.open {
            let t = self.text(q);
            match t {
                "(" | "[" => par += 1,
                ")" | "]" if par == 0 => break,
                ")" | "]" => par -= 1,
                "," | ";" if par == 0 => break,
                "{" => {
                    let close = self.code.match_bracket(q, "{", "}").unwrap_or(q);
                    self.opaque(q, close + 1, node, depth + 1);
                    q = close + 1;
                    continue;
                }
                _ => {}
            }
            if self.code.starts_closure(q) {
                q = self.closure(q, node, depth + 1);
                continue;
            }
            self.claim(q, node);
            self.bump(q, depth + 1);
            q += 1;
        }
        q
    }

    fn bump(&mut self, pos: usize, depth: u32) {
        if let Some(slot) = self.closure.get_mut(pos - self.open) {
            *slot = depth;
        }
    }

    /// Claim `[start, end)` into `node` at closure depth `depth`,
    /// descending into nested closures (which bump the depth) but
    /// building no edges — used for closure bodies and other opaque
    /// expression spans.
    fn opaque(&mut self, start: usize, end: usize, node: usize, depth: u32) {
        let mut p = start;
        while p < end {
            if self.code.starts_closure(p) {
                p = self.closure(p, node, depth);
                continue;
            }
            self.claim(p, node);
            self.bump(p, depth);
            p += 1;
        }
    }

    /// Claim expression tokens into `node` until a `{` at bracket depth
    /// 0 (the start of a construct's block); returns its position.
    fn until_block(&mut self, start: usize, node: usize, depth: u32) -> usize {
        let mut p = start;
        let limit = self.open + self.node_of.len();
        while p < limit {
            match self.text(p) {
                "{" => return p,
                "(" | "[" => {
                    let (o, c) = if self.text(p) == "(" { ("(", ")") } else { ("[", "]") };
                    let close = self.code.match_bracket(p, o, c).unwrap_or(p);
                    self.opaque(p, close + 1, node, depth);
                    p = close + 1;
                    continue;
                }
                _ => {}
            }
            if self.code.starts_closure(p) {
                p = self.closure(p, node, depth);
                continue;
            }
            self.claim(p, node);
            self.bump(p, depth);
            p += 1;
        }
        limit - 1
    }

    /// The loop label (`'outer: loop`) ending just before `p`, if any.
    fn label_before(&self, p: usize) -> Option<String> {
        if p >= 2 && self.text(p - 1) == ":" && self.code.kind(p - 2) == TokenKind::Lifetime {
            Some(self.text(p - 2).to_string())
        } else {
            None
        }
    }

    /// Parse statements in `[start, end)`, entering at node `cur`.
    /// Returns the live node at the end, or `None` when every path
    /// diverged (returned / broke / looped forever).
    fn stmts(&mut self, start: usize, end: usize, mut cur: usize, depth: u32) -> Option<usize> {
        let mut p = start;
        let mut live = true;
        while p < end {
            let t = self.text(p);
            match t {
                "if" => {
                    let (next, ends) = self.branch_if(p, cur, depth);
                    p = next;
                    let join = self.new_node();
                    for e in ends {
                        self.edge(e, join);
                    }
                    live = has_preds(&self.nodes, join);
                    cur = join;
                }
                "match" => {
                    self.claim(p, cur);
                    let brace = self.until_block(p + 1, cur, depth);
                    let close = self.code.match_bracket(brace, "{", "}").unwrap_or(brace);
                    self.claim(brace, cur);
                    let mut ends: Vec<usize> = Vec::new();
                    let mut q = brace + 1;
                    while q < close {
                        // pattern (and guard) tokens belong to the
                        // scrutinee node: they are tests, not bodies
                        while q < close && self.text(q) != "=>" {
                            match self.text(q) {
                                "(" | "[" | "{" => {
                                    let (o, c) = match self.text(q) {
                                        "(" => ("(", ")"),
                                        "[" => ("[", "]"),
                                        _ => ("{", "}"),
                                    };
                                    let cl = self.code.match_bracket(q, o, c).unwrap_or(q);
                                    self.opaque(q, cl + 1, cur, depth);
                                    q = cl + 1;
                                }
                                _ => {
                                    if self.code.starts_closure(q) {
                                        q = self.closure(q, cur, depth);
                                    } else {
                                        self.claim(q, cur);
                                        self.bump(q, depth);
                                        q += 1;
                                    }
                                }
                            }
                        }
                        if q >= close {
                            break;
                        }
                        self.claim(q, cur); // the `=>`
                        q += 1;
                        let arm = self.new_node();
                        self.edge(cur, arm);
                        if self.text(q) == "{" {
                            let acl = self.code.match_bracket(q, "{", "}").unwrap_or(q);
                            self.claim(q, arm);
                            if let Some(e) = self.stmts(q + 1, acl, arm, depth) {
                                ends.push(e);
                            }
                            self.claim(acl, arm);
                            q = acl + 1;
                        } else {
                            // expression arm: claim to the `,` at depth 0
                            let astart = q;
                            let mut par = 0usize;
                            while q < close {
                                match self.text(q) {
                                    "(" | "[" | "{" if self.code.kind(q) == TokenKind::Punct => {
                                        par += 1;
                                    }
                                    ")" | "]" | "}" => par = par.saturating_sub(1),
                                    "," if par == 0 => break,
                                    _ => {}
                                }
                                q += 1;
                            }
                            if let Some(e) = self.arm_expr(astart, q, arm, depth) {
                                ends.push(e);
                            }
                        }
                        if q < close && self.text(q) == "," {
                            self.claim(q, cur);
                            q += 1;
                        }
                    }
                    p = close + 1;
                    let join = self.new_node();
                    if ends.is_empty() && self.nodes[cur].succs.is_empty() {
                        // zero arms: `match x {}` — treat as fallthrough
                        self.edge(cur, join);
                    }
                    for e in ends {
                        self.edge(e, join);
                    }
                    cur = join;
                    live = has_preds(&self.nodes, join);
                }
                "while" => {
                    self.claim(p, cur);
                    let label = self.label_before(p);
                    let header = self.new_node();
                    self.edge(cur, header);
                    let brace = self.until_block(p + 1, header, depth);
                    let close = self.code.match_bracket(brace, "{", "}").unwrap_or(brace);
                    self.claim(brace, header);
                    let after = self.new_node();
                    self.edge(header, after);
                    let body = self.new_node();
                    self.edge(header, body);
                    self.loops.push((label, header, after));
                    if let Some(e) = self.stmts(brace + 1, close, body, depth) {
                        self.edge(e, header); // back edge
                    }
                    self.loops.pop();
                    p = close + 1;
                    cur = after;
                }
                "loop" if self.code.kind(p) == TokenKind::Ident => {
                    self.claim(p, cur);
                    let label = self.label_before(p);
                    let header = self.new_node();
                    self.edge(cur, header);
                    let brace = self.until_block(p + 1, header, depth);
                    let close = self.code.match_bracket(brace, "{", "}").unwrap_or(brace);
                    self.claim(brace, header);
                    let after = self.new_node(); // reached by `break` only
                    self.loops.push((label, header, after));
                    if let Some(e) = self.stmts(brace + 1, close, header, depth) {
                        self.edge(e, header); // back edge
                    }
                    self.loops.pop();
                    p = close + 1;
                    cur = after;
                    live = has_preds(&self.nodes, after);
                }
                "for" => {
                    // `for pat in iterable { body }` — the iterable is
                    // evaluated once, so it stays in `cur`
                    self.claim(p, cur);
                    let label = self.label_before(p);
                    let brace = self.until_block(p + 1, cur, depth);
                    let close = self.code.match_bracket(brace, "{", "}").unwrap_or(brace);
                    let header = self.new_node();
                    self.edge(cur, header);
                    self.claim(brace, header);
                    let after = self.new_node();
                    self.edge(header, after); // zero iterations
                    let body = self.new_node();
                    self.edge(header, body);
                    self.loops.push((label, header, after));
                    if let Some(e) = self.stmts(brace + 1, close, body, depth) {
                        self.edge(e, header); // back edge
                    }
                    self.loops.pop();
                    p = close + 1;
                    cur = after;
                }
                "return" => {
                    p = self.claim_to_semi(p, cur, depth);
                    self.edge(cur, 1);
                    cur = self.new_node(); // dead unless something joins
                    live = false;
                }
                "break" | "continue" => {
                    let label = if p + 1 < end && self.code.kind(p + 1) == TokenKind::Lifetime {
                        Some(self.text(p + 1).to_string())
                    } else {
                        None
                    };
                    let target = self
                        .loops
                        .iter()
                        .rev()
                        .find(|(l, _, _)| label.is_none() || *l == label)
                        .map(|&(_, header, after)| if t == "continue" { header } else { after });
                    p = self.claim_to_semi(p, cur, depth);
                    match target {
                        Some(tgt) => self.edge(cur, tgt),
                        None => self.edge(cur, 1), // stray break: bail out
                    }
                    cur = self.new_node();
                    live = false;
                }
                "else" => {
                    // `let … else { diverging }` — the block must
                    // diverge, so flow continues in `cur` afterwards
                    self.claim(p, cur);
                    if self.text(p + 1) == "{" {
                        let close = self.code.match_bracket(p + 1, "{", "}").unwrap_or(p + 1);
                        let div = self.new_node();
                        self.edge(cur, div);
                        if let Some(e) = self.stmts(p + 2, close, div, depth) {
                            self.edge(e, 1);
                        }
                        self.claim(p + 1, div);
                        self.claim(close, div);
                        p = close + 1;
                    } else {
                        p += 1;
                    }
                }
                "{" => {
                    // plain nested block: statements continue through it
                    let close = self.code.match_bracket(p, "{", "}").unwrap_or(p);
                    self.claim(p, cur);
                    match self.stmts(p + 1, close, cur, depth) {
                        Some(e) => cur = e,
                        None => {
                            cur = self.new_node();
                            live = false;
                        }
                    }
                    self.claim(close, cur);
                    p = close + 1;
                }
                "(" | "[" => {
                    let (o, c) = if t == "(" { ("(", ")") } else { ("[", "]") };
                    let close = self.code.match_bracket(p, o, c).unwrap_or(p);
                    self.opaque(p, close + 1, cur, depth);
                    p = close + 1;
                }
                _ => {
                    if self.code.starts_closure(p) {
                        p = self.closure(p, cur, depth);
                        continue;
                    }
                    self.claim(p, cur);
                    self.bump(p, depth);
                    p += 1;
                }
            }
        }
        live.then_some(cur)
    }

    /// An `if` / `else if` chain starting at `p` (on `if`). Claims the
    /// condition into `cur`, parses the branches, and returns (position
    /// after the chain, live branch-end nodes).
    fn branch_if(&mut self, p: usize, cur: usize, depth: u32) -> (usize, Vec<usize>) {
        self.claim(p, cur);
        let brace = self.until_block(p + 1, cur, depth);
        let close = self.code.match_bracket(brace, "{", "}").unwrap_or(brace);
        let then = self.new_node();
        self.edge(cur, then);
        self.claim(brace, then);
        let mut ends: Vec<usize> = Vec::new();
        if let Some(e) = self.stmts(brace + 1, close, then, depth) {
            ends.push(e);
        }
        self.claim(close, then);
        let mut next = close + 1;
        if self.code.get(next) == Some("else") {
            self.claim(next, cur);
            if self.code.get(next + 1) == Some("if") {
                let (after, mut more) = self.branch_if(next + 1, cur, depth);
                ends.append(&mut more);
                next = after;
            } else if self.code.get(next + 1) == Some("{") {
                let eclose = self
                    .code
                    .match_bracket(next + 1, "{", "}")
                    .unwrap_or(next + 1);
                let els = self.new_node();
                self.edge(cur, els);
                self.claim(next + 1, els);
                if let Some(e) = self.stmts(next + 2, eclose, els, depth) {
                    ends.push(e);
                }
                self.claim(eclose, els);
                next = eclose + 1;
            }
        } else {
            // no else: the condition may be false
            ends.push(cur);
        }
        (next, ends)
    }

    /// A non-block match arm body `[start, end)`: detects a leading
    /// diverging keyword, otherwise claims the expression. Returns the
    /// live end node (None when the arm diverges).
    fn arm_expr(&mut self, start: usize, end: usize, arm: usize, depth: u32) -> Option<usize> {
        if start >= end {
            return Some(arm);
        }
        let diverges = match self.text(start) {
            "return" => {
                self.edge(arm, 1);
                true
            }
            "continue" | "break" => {
                let kw = self.text(start).to_string();
                let label = if start + 1 < end && self.code.kind(start + 1) == TokenKind::Lifetime
                {
                    Some(self.text(start + 1).to_string())
                } else {
                    None
                };
                let target = self
                    .loops
                    .iter()
                    .rev()
                    .find(|(l, _, _)| label.is_none() || *l == label)
                    .map(|&(_, header, after)| if kw == "continue" { header } else { after });
                self.edge(arm, target.unwrap_or(1));
                true
            }
            "unreachable" | "panic" | "todo" | "unimplemented"
                if self.text(start + 1) == "!" =>
            {
                self.edge(arm, 1);
                true
            }
            _ => false,
        };
        self.opaque(start, end, arm, depth);
        (!diverges).then_some(arm)
    }

    /// Claim from `p` (a `return`/`break`/`continue`) through the
    /// statement's `;` at bracket depth 0 (or to the end of the
    /// enclosing block). Returns the position after the `;`.
    fn claim_to_semi(&mut self, p: usize, node: usize, depth: u32) -> usize {
        let mut q = p;
        let limit = self.open + self.node_of.len();
        let mut par = 0usize;
        while q < limit {
            match self.text(q) {
                "(" | "[" | "{" => par += 1,
                ")" | "]" | "}" => {
                    if par == 0 {
                        return q; // end of enclosing block
                    }
                    par -= 1;
                }
                ";" if par == 0 => {
                    self.claim(q, node);
                    return q + 1;
                }
                _ => {}
            }
            if self.code.starts_closure(q) {
                q = self.closure(q, node, depth);
                continue;
            }
            self.claim(q, node);
            self.bump(q, depth);
            q += 1;
        }
        q
    }
}

fn has_preds(nodes: &[Node], id: usize) -> bool {
    nodes.iter().any(|n| n.succs.contains(&id))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build the CFG of the first fn body in `src`.
    fn cfg(src: &str) -> (Code<'_>, Cfg) {
        let code = Code::new(src);
        let fn_pos = (0..code.len()).find(|&p| code.text(p) == "fn").unwrap();
        let open = (fn_pos..code.len()).find(|&p| code.text(p) == "{").unwrap();
        let close = code.match_bracket(open, "{", "}").unwrap();
        let c = Cfg::build(&code, open, close);
        (code, c)
    }

    /// Node of the first token equal to `tok` at or after start.
    fn node_of(code: &Code<'_>, c: &Cfg, tok: &str) -> usize {
        let p = (0..code.len()).find(|&p| code.text(p) == tok).unwrap();
        c.node_at(p).unwrap()
    }

    fn pos_of(code: &Code<'_>, tok: &str) -> usize {
        (0..code.len()).find(|&p| code.text(p) == tok).unwrap()
    }

    #[test]
    fn straight_line_is_one_reachable_node() {
        let (code, c) = cfg("fn f() { let a = 1; let b = a; }");
        let n = node_of(&code, &c, "a");
        assert!(c.reachable()[n]);
        assert!(!c.iterating()[n]);
        assert_eq!(n, node_of(&code, &c, "b"));
    }

    #[test]
    fn loop_bodies_iterate_but_hoisted_code_does_not() {
        let (code, c) = cfg("fn f(xs: &[f64]) { let inv = 1.0; for x in xs { consume(inv); } done(); }");
        let hoisted = node_of(&code, &c, "inv");
        let body = node_of(&code, &c, "consume");
        let after = node_of(&code, &c, "done");
        let it = c.iterating();
        assert!(!it[hoisted], "code before the loop runs once");
        assert!(it[body], "the loop body lies on the back-edge cycle");
        assert!(!it[after], "code after the loop runs once");
        assert!(c.reachable()[after]);
    }

    #[test]
    fn while_condition_iterates() {
        let (code, c) = cfg("fn f() { while cond() { step(); } }");
        assert!(c.iterating()[node_of(&code, &c, "cond")]);
        assert!(c.iterating()[node_of(&code, &c, "step")]);
    }

    #[test]
    fn code_after_return_is_unreachable() {
        let (code, c) = cfg("fn f() { return; dead(); }");
        assert!(!c.reachable()[node_of(&code, &c, "dead")]);
    }

    #[test]
    fn code_after_loop_without_break_is_unreachable() {
        let (code, c) = cfg("fn f() { loop { spin(); } dead(); }");
        assert!(c.iterating()[node_of(&code, &c, "spin")]);
        assert!(!c.reachable()[node_of(&code, &c, "dead")]);
    }

    #[test]
    fn break_reaches_the_after_node() {
        let (code, c) = cfg("fn f() { loop { if done() { break; } } after(); }");
        assert!(c.reachable()[node_of(&code, &c, "after")]);
        assert!(!c.iterating()[node_of(&code, &c, "after")]);
    }

    #[test]
    fn labelled_break_exits_the_outer_loop() {
        let (code, c) =
            cfg("fn f() { 'outer: loop { loop { break 'outer; } } after(); }");
        assert!(c.reachable()[node_of(&code, &c, "after")]);
    }

    #[test]
    fn if_else_branches_join() {
        let (code, c) = cfg("fn f(c: bool) { if c { a(); } else { b(); } after(); }");
        let r = c.reachable();
        assert!(r[node_of(&code, &c, "a")]);
        assert!(r[node_of(&code, &c, "b")]);
        assert!(r[node_of(&code, &c, "after")]);
        assert_ne!(node_of(&code, &c, "a"), node_of(&code, &c, "b"));
    }

    #[test]
    fn match_arms_are_separate_nodes_and_divergence_kills_the_join() {
        let (code, c) = cfg(
            "fn f(x: u8) { match x { 0 => zero(), 1 => { one(); } _ => return, } after(); }",
        );
        let r = c.reachable();
        assert!(r[node_of(&code, &c, "zero")]);
        assert!(r[node_of(&code, &c, "one")]);
        assert!(r[node_of(&code, &c, "after")]);
        assert_ne!(node_of(&code, &c, "zero"), node_of(&code, &c, "one"));
        // all-diverging arms make the join dead
        let (code2, c2) = cfg("fn f(x: u8) { match x { _ => return, } dead(); }");
        assert!(!c2.reachable()[node_of(&code2, &c2, "dead")]);
    }

    #[test]
    fn closure_bodies_carry_depth_but_no_fn_edges() {
        let (code, c) = cfg("fn f(xs: &[f64]) { let s = xs.iter().map(|x| x * scale).sum(); }");
        let p = pos_of(&code, "scale");
        assert!(c.closure_depth(p) > 0, "closure body is assumed per-element");
        let q = pos_of(&code, "iter");
        assert_eq!(c.closure_depth(q), 0);
        // a `return` inside a closure must not make trailing code dead
        let (code3, c3) = cfg("fn f() { g(|| { return; }); after(); }");
        assert!(c3.reachable()[node_of(&code3, &c3, "after")]);
    }

    #[test]
    fn pattern_alternation_bars_are_not_closures() {
        let (code, c) = cfg("fn f(x: u8) { match x { 0 | 1 => a(), _ => b(), } done(); }");
        assert!(c.reachable()[node_of(&code, &c, "done")]);
        assert_eq!(c.closure_depth(pos_of(&code, "a")), 0);
    }

    #[test]
    fn question_mark_adds_an_exit_edge_but_flow_continues() {
        let (code, c) = cfg("fn f() -> Result<(), E> { step()?; after(); Ok(()) }");
        assert!(c.reachable()[node_of(&code, &c, "after")]);
        let n = node_of(&code, &c, "step");
        assert!(c.nodes[n].succs.contains(&c.exit));
    }

    #[test]
    fn let_else_diverging_block_keeps_main_flow_alive() {
        let (code, c) =
            cfg("fn f(o: Option<u8>) { let Some(x) = o else { return; }; use_it(x); }");
        assert!(c.reachable()[node_of(&code, &c, "use_it")]);
    }

    #[test]
    fn nested_loops_compose() {
        let (code, c) = cfg("fn f() { for i in 0..4 { for j in 0..4 { inner(); } mid(); } out(); }");
        let it = c.iterating();
        assert!(it[node_of(&code, &c, "inner")]);
        assert!(it[node_of(&code, &c, "mid")]);
        assert!(!it[node_of(&code, &c, "out")]);
    }

    #[test]
    fn solve_reaches_a_fixpoint_on_cyclic_graphs() {
        let (_, c) = cfg("fn f() { while go() { step(); } }");
        // counting lattice capped at 2: must terminate despite the cycle
        let facts = c.solve(0u8, 1u8, |a, b| (*a).max(*b).min(2));
        assert_eq!(facts[c.entry], 1);
    }
}
