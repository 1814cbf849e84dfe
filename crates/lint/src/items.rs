//! Lightweight item parsing on top of the raw lexer.
//!
//! The semantic tier needs more than a token stream but far less than a
//! parse tree: which functions exist (with their impl context), what
//! each body *calls*, which facts it exhibits (allocation constructs,
//! nondeterminism sources, `HostView` accessor reads), and what the file
//! imports. This module provides:
//!
//! * [`Code`] — the shared token-cursor utilities (comment-free indexing,
//!   bracket matching, `#[cfg(test)]` span detection) that both the
//!   per-file rule engine and the item parser use;
//! * [`scan_directives`] — the `// dses-lint:` directive parser, shared
//!   for the same reason;
//! * [`parse_file`] — a single-pass item walker producing [`FileItems`].
//!
//! The walker tracks a scope stack (`mod`/`impl`/`trait`/`fn`) by brace
//! matching. It deliberately does **not** build expression trees: calls
//! are recognised syntactically (`name(`, `.name(`, `path::name(`, each
//! also with a turbofish, `name::<…>(`), which is exactly the precision
//! the conservative call graph wants.

use crate::lexer::{lex, Token, TokenKind};
use std::sync::atomic::{AtomicBool, Ordering};

// ---------------------------------------------------------------------
// Code: shared token utilities
// ---------------------------------------------------------------------

/// A lexed file with comment-free indexing. `code[p]` maps a *code
/// position* (comments skipped) to a token index; all span bookkeeping
/// below is in code positions.
pub struct Code<'s> {
    /// The source the tokens borrow from.
    pub src: &'s str,
    /// All tokens, comments included (directives live there).
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of non-comment tokens.
    pub code: Vec<usize>,
}

impl<'s> Code<'s> {
    /// Lex `src` and build the comment-free index.
    #[must_use]
    pub fn new(src: &'s str) -> Self {
        let tokens = lex(src);
        let code = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .map(|(i, _)| i)
            .collect();
        Code { src, tokens, code }
    }

    /// Number of code (non-comment) tokens.
    #[must_use]
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the file has no code tokens at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Text of the code token at position `p`.
    #[must_use]
    pub fn text(&self, p: usize) -> &str {
        self.tokens[self.code[p]].text(self.src)
    }

    /// Kind of the code token at position `p`.
    #[must_use]
    pub fn kind(&self, p: usize) -> TokenKind {
        self.tokens[self.code[p]].kind
    }

    /// 1-based line of the code token at position `p`.
    #[must_use]
    pub fn line(&self, p: usize) -> u32 {
        self.tokens[self.code[p]].line
    }

    /// Text at `p`, or `None` past the end — for lookahead.
    #[must_use]
    pub fn get(&self, p: usize) -> Option<&str> {
        (p < self.code.len()).then(|| self.text(p))
    }

    /// Does a `|` / `||` at `p` start a closure (expression position)
    /// rather than a binary/closing construct?
    #[must_use]
    pub fn starts_closure(&self, p: usize) -> bool {
        if self.kind(p) != TokenKind::Punct || !matches!(self.text(p), "|" | "||") {
            return false;
        }
        match p.checked_sub(1).map(|q| (self.kind(q), self.text(q))) {
            // after a value ⇒ binary OR; after `|` we are inside a
            // pattern alternation, not a new closure
            Some((TokenKind::Ident, t)) => matches!(t, "return" | "move" | "else" | "in"),
            Some((TokenKind::Int | TokenKind::Float | TokenKind::Str | TokenKind::Char, _)) => {
                false
            }
            Some((TokenKind::Punct, t)) => !matches!(t, ")" | "]" | "}" | "?" | "|"),
            None => true,
            _ => false,
        }
    }

    /// Code position of the `|` closing the closure parameter list
    /// opened by the `|` at `open` (the first `|` outside brackets and
    /// generics), or the end of the code if there is none.
    #[must_use]
    pub fn closing_bar(&self, open: usize) -> usize {
        let mut depth = 0usize;
        for p in open + 1..self.len() {
            match self.text(p) {
                "|" if depth == 0 => return p,
                "(" | "[" | "<" => depth += 1,
                ")" | "]" | ">" => depth = depth.saturating_sub(1),
                ">>" => depth = depth.saturating_sub(2),
                _ => {}
            }
        }
        self.len()
    }

    /// Code position just past the generic argument list whose `<` is
    /// at `open` — a `>>` token closes two levels (`f::<Vec<u8>>`) — or
    /// `None` if no `;` or end of code comes first.
    #[must_use]
    pub fn generic_args_end(&self, open: usize) -> Option<usize> {
        let mut depth = 0i32;
        for p in open..self.len() {
            match self.text(p) {
                "<" => depth += 1,
                "<<" => depth += 2,
                ">" => depth -= 1,
                ">>" => depth -= 2,
                ";" => return None,
                _ => {}
            }
            if depth <= 0 {
                return Some(p + 1);
            }
        }
        None
    }

    /// Code position of the bracket matching the one at `open`.
    #[must_use]
    pub fn match_bracket(&self, open: usize, ob: &str, cb: &str) -> Option<usize> {
        let mut depth = 0i32;
        for p in open..self.code.len() {
            let t = self.text(p);
            if t == ob {
                depth += 1;
            } else if t == cb {
                depth -= 1;
                if depth == 0 {
                    return Some(p);
                }
            }
        }
        None
    }

    /// Given the code position just after an attribute, find the end of
    /// the annotated item: the matching `}` of its first brace block, or
    /// the first `;` before any brace opens.
    #[must_use]
    pub fn item_end(&self, mut p: usize) -> Option<usize> {
        // skip further attributes
        while p + 1 < self.len() && self.text(p) == "#" && self.text(p + 1) == "[" {
            p = self.match_bracket(p + 1, "[", "]")? + 1;
        }
        while p < self.len() {
            match self.text(p) {
                ";" => return Some(p),
                "{" => return self.match_bracket(p, "{", "}"),
                _ => p += 1,
            }
        }
        None
    }

    /// Code-position spans (inclusive) of `#[cfg(test)]` / `#[test]`
    /// items: attribute through the end of the item's brace block (or
    /// its `;` for bodiless items).
    #[must_use]
    pub fn test_spans(&self) -> Vec<(usize, usize)> {
        let mut spans = Vec::new();
        let mut p = 0usize;
        while p < self.len() {
            if self.text(p) == "#" && p + 1 < self.len() && self.text(p + 1) == "[" {
                let Some(end) = self.match_bracket(p + 1, "[", "]") else {
                    break;
                };
                if self.attr_is_test(p + 2, end) {
                    let span_end = self.item_end(end + 1).unwrap_or(self.len() - 1);
                    spans.push((p, span_end));
                    p = span_end + 1;
                    continue;
                }
                p = end + 1;
                continue;
            }
            p += 1;
        }
        spans
    }

    /// Does the attribute body (code positions `[from, to)`) mark test
    /// code? `test`, `cfg(test)`, `cfg(all(test, …))` — but not
    /// `cfg(not(test))`.
    #[must_use]
    pub fn attr_is_test(&self, from: usize, to: usize) -> bool {
        if to == from + 1 && self.text(from) == "test" {
            return true;
        }
        if self.text(from) != "cfg" {
            return false;
        }
        for p in from..to {
            if self.text(p) == "test" && self.kind(p) == TokenKind::Ident {
                // reject when nested under not(…): scan back for `not`
                // immediately before the enclosing `(`
                let mut depth = 0i32;
                let mut q = p;
                let mut negated = false;
                while q > from {
                    q -= 1;
                    match self.text(q) {
                        ")" => depth += 1,
                        "(" => {
                            if depth == 0 && q > from && self.text(q - 1) == "not" {
                                negated = true;
                            }
                            depth -= 1;
                        }
                        _ => {}
                    }
                }
                if !negated {
                    return true;
                }
            }
        }
        false
    }
}

/// Is code position `p` inside any of the (inclusive) spans?
#[must_use]
pub fn in_spans(spans: &[(usize, usize)], p: usize) -> bool {
    spans.iter().any(|&(a, b)| p >= a && p <= b)
}

// ---------------------------------------------------------------------
// Directives
// ---------------------------------------------------------------------

/// A parsed `dses-lint:` comment directive.
#[derive(Debug)]
pub struct Directive {
    /// Line of the comment itself.
    pub line: u32,
    /// The source line this waiver covers (same line for trailing
    /// comments, the next code line for standalone ones).
    pub covers: u32,
    /// What the directive does.
    pub kind: DirectiveKind,
    /// Set when some finding consumed the waiver. Atomic because the
    /// workspace tiers run on separate threads over one shared item
    /// graph; relaxed ordering suffices for a monotonic used-flag.
    pub used: AtomicBool,
}

impl Directive {
    /// Mark the waiver consumed.
    pub fn mark_used(&self) {
        self.used.store(true, Ordering::Relaxed);
    }

    /// Has any finding consumed this waiver?
    #[must_use]
    pub fn is_used(&self) -> bool {
        self.used.load(Ordering::Relaxed)
    }
}

/// The directive payload.
#[derive(Debug)]
pub enum DirectiveKind {
    /// `allow(<rules>) -- reason` / `allow-file(<rules>) -- reason`.
    Allow {
        /// Rule ids the waiver names.
        rules: Vec<String>,
        /// True for `allow-file`: covers the whole file.
        file_scope: bool,
    },
    /// `deny(alloc)` — opts the next fn into the no-alloc rule.
    DenyAlloc,
    /// `divides(N)` — declares the next fn's divide budget: at most `N`
    /// loop-weighted float `/` / `%` sites reachable through calls
    /// (checked by the dataflow tier's `divide-budget` rule).
    Divides(u32),
}

impl Directive {
    /// Does this directive waive `rule` at `line`?
    #[must_use]
    pub fn waives(&self, rule: &str, line: u32) -> bool {
        match &self.kind {
            DirectiveKind::Allow { rules, file_scope } => {
                rules.iter().any(|r| r == rule)
                    && (*file_scope || self.covers == line || self.line == line)
            }
            DirectiveKind::DenyAlloc | DirectiveKind::Divides(_) => false,
        }
    }
}

/// A malformed directive, to be reported as `waiver-syntax` by the rule
/// engine (the item parser ignores malformed directives silently — the
/// per-file pass already diagnoses them).
#[derive(Debug)]
pub struct DirectiveIssue {
    /// Line of the offending comment.
    pub line: u32,
    /// Explanation for the finding message.
    pub message: String,
}

/// Scan every comment for `dses-lint:` directives. Returns the parsed
/// directives plus syntax issues for the rule engine to report.
#[must_use]
pub fn scan_directives(code: &Code<'_>) -> (Vec<Directive>, Vec<DirectiveIssue>) {
    let mut out = Vec::new();
    let mut issues = Vec::new();
    for (i, tok) in code.tokens.iter().enumerate() {
        if !matches!(tok.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        // Directives live in *plain* comments only, as the first thing
        // in the comment: doc comments are rendered text and routinely
        // quote directive syntax without meaning it.
        let text = tok.text(code.src);
        let content = match tok.kind {
            TokenKind::LineComment => {
                if text.starts_with("///") || text.starts_with("//!") {
                    continue;
                }
                text.trim_start_matches('/')
            }
            _ => {
                if text.starts_with("/**") || text.starts_with("/*!") {
                    continue;
                }
                text.trim_start_matches("/*").trim_end_matches("*/")
            }
        };
        let Some(directive_text) = content.trim().strip_prefix("dses-lint:") else {
            continue;
        };
        match parse_directive_text(directive_text.trim(), tok.line, &mut issues) {
            Some(kind) => {
                // trailing if any code token precedes it on its line
                let trailing = code.tokens[..i].iter().any(|t| {
                    t.line == tok.line
                        && !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment)
                });
                let covers = if trailing {
                    tok.line
                } else {
                    code.tokens[i + 1..]
                        .iter()
                        .find(|t| {
                            !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment)
                        })
                        .map_or(tok.line, |t| t.line)
                };
                out.push(Directive {
                    line: tok.line,
                    covers,
                    kind,
                    used: AtomicBool::new(false),
                });
            }
            None => { /* issue already recorded */ }
        }
    }
    (out, issues)
}

/// Parse the text after `dses-lint:`; on malformed input record an
/// issue and return `None`.
fn parse_directive_text(
    text: &str,
    line: u32,
    issues: &mut Vec<DirectiveIssue>,
) -> Option<DirectiveKind> {
    let mut issue = |message: String| {
        issues.push(DirectiveIssue { line, message });
    };
    let (head, file_scope) = if let Some(rest) = text.strip_prefix("allow-file(") {
        (rest, true)
    } else if let Some(rest) = text.strip_prefix("allow(") {
        (rest, false)
    } else if let Some(rest) = text.strip_prefix("divides(") {
        let rest = rest.trim();
        let Some(close) = rest.find(')') else {
            issue("unterminated budget in `divides(N)`".to_string());
            return None;
        };
        return match rest[..close].trim().parse::<u32>() {
            Ok(n) => Some(DirectiveKind::Divides(n)),
            Err(_) => {
                issue(format!(
                    "divide budget must be a small non-negative integer, got `{}`",
                    rest[..close].trim()
                ));
                None
            }
        };
    } else if let Some(rest) = text.strip_prefix("deny(") {
        let rest = rest.trim();
        if rest
            .strip_prefix("alloc")
            .map(str::trim_start)
            .and_then(|r| r.strip_prefix(')'))
            .is_some()
        {
            return Some(DirectiveKind::DenyAlloc);
        }
        issue("only `deny(alloc)` is supported".to_string());
        return None;
    } else {
        issue(format!("cannot parse directive `{text}`"));
        return None;
    };
    let Some(close) = head.find(')') else {
        issue("unterminated rule list in waiver".to_string());
        return None;
    };
    let rules: Vec<String> = head[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    let after = head[close + 1..].trim();
    let reason = after.strip_prefix("--").map(str::trim);
    if rules.is_empty() || reason.is_none_or(str::is_empty) {
        issue("waiver needs a rule list and a reason: `allow(<rule>) -- <reason>`".to_string());
        return None;
    }
    Some(DirectiveKind::Allow { rules, file_scope })
}

// ---------------------------------------------------------------------
// Items
// ---------------------------------------------------------------------

/// A syntactic call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// What was called, as much as syntax reveals.
    pub target: CallTarget,
    /// 1-based line of the call.
    pub line: u32,
}

/// The three call shapes the parser distinguishes.
#[derive(Debug, Clone)]
pub enum CallTarget {
    /// `name(…)` — free function (or tuple-struct constructor).
    Plain(String),
    /// `.name(…)` — method call, with whatever receiver shape was
    /// syntactically evident (see [`Recv`]) for type-based narrowing.
    Method {
        /// Method name.
        name: String,
        /// Receiver shape.
        recv: Recv,
    },
    /// `a::b::name(…)` — path call, segments in order.
    Path(Vec<String>),
}

/// Receiver shape of a method call, as far as one token of lookbehind
/// reveals. The resolver narrows the candidate set through parameter
/// and field types; [`Recv::Unknown`] falls back to the broad
/// method-name index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recv {
    /// `self.name(…)`.
    SelfType,
    /// `self.field.name(…)` — field name captured.
    SelfField(String),
    /// `ident.name(…)` — a local or parameter.
    Ident(String),
    /// `ident.field.name(…)` — base ident and field captured.
    IdentField(String, String),
    /// Anything else (`expr().name(…)`, chained calls, indexing, …).
    Unknown,
}

/// An observed fact inside a function body: an allocating construct, a
/// nondeterminism source, or a `HostView` accessor read.
#[derive(Debug, Clone)]
pub struct Fact {
    /// The offending construct, for messages (`Vec::with_capacity`,
    /// `HashMap`, `.queue_len`).
    pub what: String,
    /// 1-based line.
    pub line: u32,
    /// True when an inline waiver for the corresponding *per-file* rule
    /// (`no-alloc` facts are never pre-waived; `determinism` facts are
    /// waived by `allow(determinism)`) covers the line.
    pub waived: bool,
}

/// One function (or method) item with the facts the semantic analyses
/// consume.
#[derive(Debug)]
pub struct FnItem {
    /// Function name (raw-ident prefix stripped: `r#fn` → `fn`).
    pub name: String,
    /// Per-file id of the enclosing `impl` block, if any — groups the
    /// methods of one impl.
    pub impl_id: Option<usize>,
    /// Self type of the enclosing impl (`RandomPolicy`), if parseable.
    pub impl_ty: Option<String>,
    /// Trait being implemented (last path segment, e.g. `Dispatcher`),
    /// or the trait name when this is a default method in a `trait`
    /// block.
    pub impl_trait: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based line of the closing brace (== `line` for bodiless decls).
    pub end_line: u32,
    /// Inside a `#[cfg(test)]` / `#[test]` region.
    pub in_test: bool,
    /// Annotated `// dses-lint: deny(alloc)`.
    pub deny_alloc: bool,
    /// Annotated `// dses-lint: divides(N)`: the declared divide budget
    /// and the line of the directive comment.
    pub divides: Option<(u32, u32)>,
    /// True when the item has a body (trait required methods don't).
    pub has_body: bool,
    /// Code positions (into [`Code`] built from the same source) of the
    /// body's `{` and `}` — lets the dataflow tier rebuild a CFG for
    /// this function without re-finding the item.
    pub body: Option<(usize, usize)>,
    /// Names of `const` generic parameters (`record_core::<const
    /// EXTREMA: bool, …>` → `["EXTREMA", …]`) — the monomorphization
    /// axes the `demand-monomorphism` rule keys on.
    pub const_params: Vec<String>,
    /// Call sites in the body (nested closures included, nested `fn`
    /// bodies excluded — those get their own item).
    pub calls: Vec<CallSite>,
    /// Allocating constructs observed in the body.
    pub allocs: Vec<Fact>,
    /// Nondeterminism sources observed in the body.
    pub nondet: Vec<Fact>,
    /// `.work_left` field read, if any (line of first).
    pub reads_work_left: Option<u32>,
    /// `.queue_len` field read, if any (line of first).
    pub reads_queue_len: Option<u32>,
    /// `StateNeeds::X` constants named in the body — how `state_needs()`
    /// declarations are recovered.
    pub state_consts: Vec<String>,
    /// Parameter names with the leading identifier of their type;
    /// generic parameters are substituted with their first bound
    /// (`policy: &mut P` under `P: Dispatcher` → `("policy",
    /// "Dispatcher")`).
    pub params: Vec<(String, String)>,
    /// Identifiers re-bound inside the body (`let`/`for`/closure
    /// parameters) — parameter-based receiver narrowing is disabled
    /// for these names.
    pub shadowed: Vec<String>,
}

/// One leaf of a `use` declaration.
#[derive(Debug)]
pub struct UseItem {
    /// Full path segments (`dses_sim`, `state`, `Dispatcher`).
    pub path: Vec<String>,
    /// The name it binds locally (last segment, or the `as` alias;
    /// `*` for glob imports).
    pub alias: String,
    /// 1-based line.
    pub line: u32,
    /// Inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// Evidence that a file references a workspace crate by path
/// (`dses_x::…` anywhere in code, `use dses_x::…` included).
#[derive(Debug)]
pub struct CrateRef {
    /// Crate id (`sim`, `core`, …) — the `dses_` prefix stripped.
    pub krate: String,
    /// 1-based line.
    pub line: u32,
    /// Inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// A named struct field with the leading identifier of its type.
#[derive(Debug)]
pub struct FieldDef {
    /// The struct the field belongs to.
    pub ty: String,
    /// Field name.
    pub field: String,
    /// First substantive identifier of the field's type
    /// (`SizeInterval` for `inner: SizeInterval`; `Dispatcher` for
    /// `Box<dyn Dispatcher>` — smart-pointer wrappers are descended,
    /// container generics are not).
    pub fty: String,
}

/// Everything the item parser extracts from one file.
#[derive(Debug, Default)]
pub struct FileItems {
    /// All function items, in source order.
    pub fns: Vec<FnItem>,
    /// All `use` leaves.
    pub uses: Vec<UseItem>,
    /// Struct/enum names defined in the file.
    pub types: Vec<String>,
    /// Named struct fields with their leading type identifiers.
    pub fields: Vec<FieldDef>,
    /// Trait names defined in the file.
    pub traits: Vec<String>,
    /// All well-formed directives (for semantic waiver application).
    pub directives: Vec<Directive>,
    /// Workspace-crate path references (layering evidence).
    pub crate_refs: Vec<CrateRef>,
    /// Every identifier that appears *without* a following `(` — the
    /// address-taken candidates. A function whose name shows up here is
    /// treated as reachable by the waiver-reachability analysis even if
    /// no direct call site resolves to it (`iter.map(compute)` passes
    /// `compute` by value; the call graph cannot see through that).
    pub mentions: std::collections::BTreeSet<String>,
}

/// Keywords that look like `name(` but are not calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "match", "while", "for", "loop", "return", "break", "continue", "in", "as", "move",
    "ref", "else", "let", "mut", "fn", "where", "dyn", "impl", "pub", "use", "mod", "const",
    "static", "unsafe", "await",
];

/// Parse one file into its items. Never fails — unparseable constructs
/// degrade to "no item recorded", which the conservative analyses
/// treat as "no information".
#[must_use]
pub fn parse_file(src: &str) -> FileItems {
    Walker::new(src).run()
}

enum ScopeKind {
    Mod,
    /// Index into `Walker::impl_info`.
    Impl(usize),
    Trait(String),
    Fn(usize),
}

struct Scope {
    /// Code position of the matching `}`.
    close: usize,
    kind: ScopeKind,
}

struct Walker<'s> {
    code: Code<'s>,
    test_spans: Vec<(usize, usize)>,
    out: FileItems,
    scopes: Vec<Scope>,
    /// (ty, trait) of each impl id, for fn attribution.
    impl_info: Vec<(Option<String>, Option<String>)>,
    /// Code positions of the `|`s around the latest closure parameter
    /// list: the identifiers strictly between them are bindings.
    closure_params: Option<(usize, usize)>,
}

impl<'s> Walker<'s> {
    fn new(src: &'s str) -> Self {
        let code = Code::new(src);
        let (directives, _issues) = scan_directives(&code);
        let test_spans = code.test_spans();
        Walker {
            code,
            test_spans,
            out: FileItems {
                directives,
                ..FileItems::default()
            },
            scopes: Vec::new(),
            impl_info: Vec::new(),
            closure_params: None,
        }
    }

    fn in_test(&self, p: usize) -> bool {
        in_spans(&self.test_spans, p)
    }

    /// Skip a generic argument list: `open` is on `<`; returns the
    /// position of the matching `>` (handling `<<`/`>>` munch), or a
    /// safe stop on `{` / `;`.
    fn skip_angles(&self, open: usize) -> usize {
        let mut depth = 0i32;
        let mut p = open;
        while p < self.code.len() {
            match self.code.text(p) {
                "<" => depth += 1,
                "<<" => depth += 2,
                ">" => {
                    depth -= 1;
                    if depth <= 0 {
                        return p;
                    }
                }
                ">>" => {
                    depth -= 2;
                    if depth <= 0 {
                        return p;
                    }
                }
                "{" | ";" => return p.saturating_sub(1),
                _ => {}
            }
            p += 1;
        }
        self.code.len().saturating_sub(1)
    }

    /// Collect the head type/trait path starting at `*q`: skips `&`,
    /// `mut`, `dyn`, lifetimes and generic args; returns the last plain
    /// ident seen. Stops (without consuming) at `for`/`where`/`{`/`(`/`;`.
    fn collect_type_path(&self, q: &mut usize) -> Option<String> {
        let mut last: Option<String> = None;
        while *q < self.code.len() {
            let t = self.code.text(*q);
            match t {
                "for" | "where" | "{" | "(" | ";" => break,
                "&" | "mut" | "dyn" | "::" | "?" | "!" => *q += 1,
                "<" => *q = self.skip_angles(*q) + 1,
                _ if self.code.kind(*q) == TokenKind::Lifetime => *q += 1,
                _ if self.code.kind(*q) == TokenKind::Ident => {
                    last = Some(t.to_string());
                    *q += 1;
                }
                _ => break,
            }
        }
        last
    }

    /// First substantive identifier of a type starting at code position
    /// `q`: skips `&`/`mut`/`dyn`/`impl`/`?`, lifetimes and path
    /// prefixes (`a::b::T` → `T`), and descends into the smart-pointer
    /// wrappers `Box`/`Rc`/`Arc` (`Box<dyn Dispatcher>` →
    /// `Dispatcher`). Container generics are *not* descended:
    /// `Vec<Job>` → `Vec` — a method on the container is a std call,
    /// not a call on the element type.
    fn leading_type_ident(&self, mut q: usize) -> Option<String> {
        loop {
            match self.code.get(q) {
                Some("&" | "mut" | "dyn" | "impl" | "?") => q += 1,
                Some(_) if self.code.kind(q) == TokenKind::Lifetime => q += 1,
                Some(_)
                    if self.code.kind(q) == TokenKind::Ident
                        && self.code.get(q + 1) == Some("::") =>
                {
                    q += 2;
                }
                Some("Box" | "Rc" | "Arc") if self.code.get(q + 1) == Some("<") => q += 2,
                Some(t) if self.code.kind(q) == TokenKind::Ident => {
                    return Some(t.trim_start_matches("r#").to_string());
                }
                _ => return None,
            }
        }
    }

    /// Scan a generic parameter list (code positions `(from, to)`,
    /// exclusive of the angle brackets) for `Ident : Bound` pairs at
    /// relative depth 0, recording each parameter's *first* bound.
    fn scan_generic_bounds(&self, from: usize, to: usize, out: &mut Vec<(String, String)>) {
        let mut depth = 0i32;
        let mut q = from;
        while q < to {
            match self.code.text(q) {
                "<" | "(" | "[" => depth += 1,
                "<<" => depth += 2,
                ">" | ")" | "]" => depth -= 1,
                ">>" => depth -= 2,
                t if depth == 0
                    && self.code.kind(q) == TokenKind::Ident
                    && self.code.get(q + 1) == Some(":") =>
                {
                    if let Some(b) = self.leading_type_ident(q + 2) {
                        out.push((t.to_string(), b));
                    }
                }
                _ => {}
            }
            q += 1;
        }
    }

    /// Scan a fn parameter list (`open` on `(`, `close` on the matching
    /// `)`) for `name : Type` pairs at parameter depth, recording the
    /// leading type identifier of each. Patterns nested in tuples or
    /// generics sit at depth > 0 and are skipped.
    fn scan_params(&self, open: usize, close: usize, out: &mut Vec<(String, String)>) {
        let mut depth = 0i32;
        let mut q = open + 1;
        while q < close {
            match self.code.text(q) {
                "<" | "(" | "[" | "{" => depth += 1,
                "<<" => depth += 2,
                ">" | ")" | "]" | "}" => depth -= 1,
                ">>" => depth -= 2,
                t if depth == 0
                    && self.code.kind(q) == TokenKind::Ident
                    && !matches!(t, "self" | "mut")
                    && self.code.get(q + 1) == Some(":") =>
                {
                    if let Some(ty) = self.leading_type_ident(q + 2) {
                        out.push((t.trim_start_matches("r#").to_string(), ty));
                    }
                }
                _ => {}
            }
            q += 1;
        }
    }

    fn run(mut self) -> FileItems {
        let mut p = 0usize;
        while p < self.code.len() {
            while self.scopes.last().is_some_and(|s| p > s.close) {
                self.scopes.pop();
            }
            let t = self.code.text(p);
            match t {
                "mod" if self.is_ident(p + 1) => {
                    // `mod name {` descends; `mod name;` skips
                    match self.code.get(p + 2) {
                        Some("{") => {
                            let close =
                                self.code.match_bracket(p + 2, "{", "}").unwrap_or(self.code.len() - 1);
                            self.scopes.push(Scope {
                                close,
                                kind: ScopeKind::Mod,
                            });
                            p += 3;
                        }
                        _ => p += 2,
                    }
                }
                "impl" => p = self.parse_impl(p),
                "trait" if self.is_ident(p + 1) => {
                    let name = self.code.text(p + 1).to_string();
                    self.out.traits.push(name.clone());
                    let mut q = p + 2;
                    while q < self.code.len() && !matches!(self.code.text(q), "{" | ";") {
                        q = if self.code.text(q) == "<" {
                            self.skip_angles(q) + 1
                        } else {
                            q + 1
                        };
                    }
                    if self.code.get(q) == Some("{") {
                        let close = self.code.match_bracket(q, "{", "}").unwrap_or(self.code.len() - 1);
                        self.scopes.push(Scope {
                            close,
                            kind: ScopeKind::Trait(name),
                        });
                    }
                    p = q + 1;
                }
                "fn" if self.is_ident(p + 1) => p = self.parse_fn(p),
                "struct" | "enum" | "union" if self.is_ident(p + 1) => {
                    let name = self.code.text(p + 1).to_string();
                    if t == "struct" {
                        self.scan_struct_fields(p, &name);
                    }
                    self.out.types.push(name);
                    p += 2;
                }
                "use" => p = self.parse_use(p),
                _ => {
                    self.collect_facts(p);
                    p += 1;
                }
            }
        }
        self.apply_deny_alloc();
        self.out
    }

    fn is_ident(&self, p: usize) -> bool {
        p < self.code.len() && self.code.kind(p) == TokenKind::Ident
    }

    /// Parse an `impl` header at `p`; push the scope; return the
    /// position to continue from (just inside the `{`).
    fn parse_impl(&mut self, p: usize) -> usize {
        let mut q = p + 1;
        if self.code.get(q) == Some("<") {
            q = self.skip_angles(q) + 1;
        }
        let first = self.collect_type_path(&mut q);
        let (ty, trait_) = if self.code.get(q) == Some("for") {
            q += 1;
            let ty = self.collect_type_path(&mut q);
            (ty, first)
        } else {
            (first, None)
        };
        // advance to the body brace (skipping any where-clause); a `;`
        // means this was no impl block after all (`type X = impl T;`)
        while q < self.code.len() && !matches!(self.code.text(q), "{" | ";") {
            q = if self.code.text(q) == "<" {
                self.skip_angles(q) + 1
            } else {
                q + 1
            };
        }
        if self.code.get(q) != Some("{") {
            return q + 1;
        }
        let Some(close) = self.code.match_bracket(q, "{", "}") else {
            return q + 1;
        };
        self.impl_info.push((ty, trait_));
        self.scopes.push(Scope {
            close,
            kind: ScopeKind::Impl(self.impl_info.len() - 1),
        });
        q + 1
    }

    /// Parse a `fn` at `p`: record the item, push its scope (so nested
    /// items attribute correctly), return the position to continue from.
    fn parse_fn(&mut self, p: usize) -> usize {
        let name = self.code.text(p + 1).trim_start_matches("r#").to_string();
        let mut q = p + 2;
        let mut bounds: Vec<(String, String)> = Vec::new();
        let mut const_params: Vec<String> = Vec::new();
        if self.code.get(q) == Some("<") {
            let close = self.skip_angles(q);
            self.scan_generic_bounds(q + 1, close, &mut bounds);
            for c in q + 1..close {
                if self.code.text(c) == "const" && self.is_ident(c + 1) {
                    const_params.push(self.code.text(c + 1).to_string());
                }
            }
            q = close + 1;
        }
        let mut params: Vec<(String, String)> = Vec::new();
        if self.code.get(q) == Some("(") {
            match self.code.match_bracket(q, "(", ")") {
                Some(close) => {
                    self.scan_params(q, close, &mut params);
                    q = close + 1;
                }
                None => return p + 2,
            }
        }
        // scan the return type / where clause for the body or a `;`;
        // `[f64; 2]` in a return type hides a `;` inside brackets.
        // `where P: Dispatcher` bounds are collected on the way.
        let mut body: Option<(usize, usize)> = None;
        let mut in_where = false;
        while q < self.code.len() {
            match self.code.text(q) {
                "{" => {
                    let close = self.code.match_bracket(q, "{", "}").unwrap_or(self.code.len() - 1);
                    body = Some((q, close));
                    break;
                }
                ";" => break,
                "where" => {
                    in_where = true;
                    q += 1;
                }
                t if in_where
                    && self.code.kind(q) == TokenKind::Ident
                    && self.code.get(q + 1) == Some(":") =>
                {
                    if let Some(b) = self.leading_type_ident(q + 2) {
                        bounds.push((t.to_string(), b));
                    }
                    q += 2;
                }
                "<" => q = self.skip_angles(q) + 1,
                "[" => q = self.code.match_bracket(q, "[", "]").unwrap_or(q) + 1,
                "(" => q = self.code.match_bracket(q, "(", ")").unwrap_or(q) + 1,
                _ => q += 1,
            }
        }
        // substitute generic parameter types with their first bound
        for (_, ty) in &mut params {
            if let Some((_, b)) = bounds.iter().find(|(n, _)| n == ty) {
                *ty = b.clone();
            }
        }
        let (impl_ty, impl_trait) = self.current_impl();
        let impl_id = self.scopes.iter().rev().find_map(|s| match s.kind {
            ScopeKind::Impl(id) => Some(id),
            _ => None,
        });
        let item = FnItem {
            name,
            impl_id,
            impl_ty,
            impl_trait,
            line: self.code.line(p),
            end_line: body.map_or(self.code.line(p), |(_, c)| self.code.line(c)),
            in_test: self.in_test(p),
            deny_alloc: false,
            divides: None,
            has_body: body.is_some(),
            body,
            const_params,
            calls: Vec::new(),
            allocs: Vec::new(),
            nondet: Vec::new(),
            reads_work_left: None,
            reads_queue_len: None,
            state_consts: Vec::new(),
            params,
            shadowed: Vec::new(),
        };
        let idx = self.out.fns.len();
        self.out.fns.push(item);
        match body {
            Some((open, close)) => {
                self.scopes.push(Scope {
                    close,
                    kind: ScopeKind::Fn(idx),
                });
                open + 1
            }
            None => q + 1,
        }
    }

    /// (ty, trait) of the innermost impl/trait scope.
    fn current_impl(&self) -> (Option<String>, Option<String>) {
        for s in self.scopes.iter().rev() {
            match &s.kind {
                ScopeKind::Impl(id) => {
                    let (ty, tr) = &self.impl_info[*id];
                    return (ty.clone(), tr.clone());
                }
                ScopeKind::Trait(name) => return (None, Some(name.clone())),
                ScopeKind::Fn(_) | ScopeKind::Mod => {}
            }
        }
        (None, None)
    }

    /// Parse a `use` declaration starting at `p` (on `use`); records
    /// every leaf; returns the position after the terminating `;`.
    fn parse_use(&mut self, p: usize) -> usize {
        let line = self.code.line(p);
        let in_test = self.in_test(p);
        let mut q = p + 1;
        let mut prefix: Vec<String> = Vec::new();
        self.parse_use_tree(&mut q, &mut prefix, line, in_test);
        while !matches!(self.code.get(q), Some(";") | None) {
            q += 1;
        }
        q + 1
    }

    /// Recursive use-tree parser for one branch: a `::`-separated path
    /// ending in a leaf ident, a `{group}`, a `*` glob, or `as alias`.
    /// Leaves `q` on the branch terminator (`;` / `,` / `}`).
    fn parse_use_tree(&mut self, q: &mut usize, prefix: &mut Vec<String>, line: u32, in_test: bool) {
        let depth_start = prefix.len();
        loop {
            match self.code.get(*q) {
                Some("::") => *q += 1,
                Some("{") => {
                    // group: parse each comma-separated branch
                    *q += 1;
                    loop {
                        match self.code.get(*q) {
                            Some("}") | None => {
                                *q += 1;
                                break;
                            }
                            Some(",") => *q += 1,
                            Some(_) => self.parse_use_tree(q, prefix, line, in_test),
                        }
                    }
                    break;
                }
                Some("*") => {
                    self.emit_use(prefix.clone(), "*".to_string(), line, in_test);
                    *q += 1;
                    break;
                }
                Some("as") => {
                    let alias = self
                        .code
                        .get(*q + 1)
                        .unwrap_or("_")
                        .trim_start_matches("r#")
                        .to_string();
                    self.emit_use(prefix.clone(), alias, line, in_test);
                    *q += 2;
                    break;
                }
                Some(_) if self.code.kind(*q) == TokenKind::Ident => {
                    prefix.push(self.code.text(*q).trim_start_matches("r#").to_string());
                    *q += 1;
                    // a leaf unless the path or an alias continues
                    if !matches!(self.code.get(*q), Some("::" | "as")) {
                        let leaf = prefix.last().cloned().unwrap_or_default();
                        self.emit_use(prefix.clone(), leaf, line, in_test);
                        break;
                    }
                }
                _ => break, // `;` `,` `}` or unexpected token: branch over
            }
        }
        prefix.truncate(depth_start);
        // land on the branch terminator for the caller
        while !matches!(self.code.get(*q), Some(";" | "," | "}") | None) {
            *q += 1;
        }
    }

    fn emit_use(&mut self, path: Vec<String>, alias: String, line: u32, in_test: bool) {
        if path.is_empty() {
            return;
        }
        // `use dses_x::…` is layering evidence — the main token walk
        // never sees inside use statements, so record the ref here
        if let Some(krate) = path[0].strip_prefix("dses_").filter(|k| !k.is_empty()) {
            if path.len() > 1 {
                self.out.crate_refs.push(CrateRef {
                    krate: krate.to_string(),
                    line,
                    in_test,
                });
            }
        }
        self.out.uses.push(UseItem {
            path,
            alias,
            line,
            in_test,
        });
    }

    /// Record calls/facts at code position `p` into the innermost
    /// enclosing fn; record crate references regardless of scope.
    fn collect_facts(&mut self, p: usize) {
        let closing = self.closure_params.is_some_and(|(_, close)| close == p);
        if !closing && self.code.text(p) == "|" && self.code.starts_closure(p) {
            self.closure_params = Some((p, self.code.closing_bar(p)));
        }
        if self.code.kind(p) != TokenKind::Ident {
            return;
        }
        let t = self.code.text(p);
        let line = self.code.line(p);
        let in_test = self.in_test(p);
        let prev = (p > 0).then(|| self.code.text(p - 1));
        let next = self.code.get(p + 1);

        if let Some(rest) = t.strip_prefix("dses_") {
            if next == Some("::") && !rest.is_empty() {
                self.out.crate_refs.push(CrateRef {
                    krate: rest.to_string(),
                    line,
                    in_test,
                });
            }
        }

        // `name(`, or `name::<…>(`: a turbofish call calls `name` too
        let opens_call = next == Some("(")
            || (next == Some("::")
                && self.code.get(p + 2) == Some("<")
                && self
                    .code
                    .generic_args_end(p + 2)
                    .and_then(|q| self.code.get(q))
                    == Some("("));

        // --- bare-identifier mentions (function references by value) ---
        if !opens_call && prev != Some("fn") {
            self.out
                .mentions
                .insert(t.trim_start_matches("r#").to_string());
        }

        let Some(fn_idx) = self.scopes.iter().rev().find_map(|s| match s.kind {
            ScopeKind::Fn(i) => Some(i),
            _ => None,
        }) else {
            return;
        };

        // --- shadowing (re-bindings that disable param narrowing) ---
        // A closure binds what its parameter list names; its body, which
        // starts right after the closing `|`, binds nothing.
        let closure_param = self
            .closure_params
            .is_some_and(|(open, close)| open < p && p < close);
        if matches!(prev, Some("let" | "for"))
            || closure_param
            || (prev == Some("mut") && p >= 2 && self.code.text(p - 2) == "let")
        {
            self.out.fns[fn_idx]
                .shadowed
                .push(t.trim_start_matches("r#").to_string());
        }

        // --- calls ---
        if opens_call && !NON_CALL_KEYWORDS.contains(&t) {
            let target = if prev == Some(".") {
                let recv = if p >= 2 && self.code.text(p - 2) == "self" {
                    Recv::SelfType
                } else if p >= 4
                    && self.code.kind(p - 2) == TokenKind::Ident
                    && self.code.text(p - 3) == "."
                    && self.code.text(p - 4) == "self"
                {
                    Recv::SelfField(self.code.text(p - 2).to_string())
                } else if p >= 2
                    && self.code.kind(p - 2) == TokenKind::Ident
                    && (p < 3 || !matches!(self.code.text(p - 3), "." | "::"))
                {
                    Recv::Ident(self.code.text(p - 2).trim_start_matches("r#").to_string())
                } else if p >= 4
                    && self.code.kind(p - 2) == TokenKind::Ident
                    && self.code.text(p - 3) == "."
                    && self.code.kind(p - 4) == TokenKind::Ident
                    && (p < 5 || !matches!(self.code.text(p - 5), "." | "::"))
                {
                    Recv::IdentField(
                        self.code.text(p - 4).trim_start_matches("r#").to_string(),
                        self.code.text(p - 2).to_string(),
                    )
                } else {
                    Recv::Unknown
                };
                Some(CallTarget::Method {
                    name: t.trim_start_matches("r#").to_string(),
                    recv,
                })
            } else if prev == Some("::") {
                let mut segs = vec![t.trim_start_matches("r#").to_string()];
                let mut q = p;
                while q >= 2
                    && self.code.text(q - 1) == "::"
                    && self.code.kind(q - 2) == TokenKind::Ident
                {
                    segs.push(self.code.text(q - 2).trim_start_matches("r#").to_string());
                    q -= 2;
                }
                segs.reverse();
                Some(if segs.len() == 1 {
                    CallTarget::Plain(segs.pop().unwrap_or_default())
                } else {
                    CallTarget::Path(segs)
                })
            } else {
                Some(CallTarget::Plain(t.trim_start_matches("r#").to_string()))
            };
            if let Some(target) = target {
                self.out.fns[fn_idx].calls.push(CallSite { target, line });
            }
        }

        // --- allocation facts (mirrors the per-file no-alloc matchers) ---
        let alloc = match t {
            "new" | "from" | "with_capacity"
                if p >= 2
                    && self.code.text(p - 1) == "::"
                    && matches!(
                        self.code.text(p - 2),
                        "Vec" | "Box" | "String" | "VecDeque" | "BinaryHeap"
                    ) =>
            {
                Some(format!("{}::{t}", self.code.text(p - 2)))
            }
            "to_vec" | "collect" | "to_string" | "to_owned" | "with_capacity"
                if prev == Some(".") =>
            {
                Some(format!(".{t}"))
            }
            "vec" | "format" if next == Some("!") => Some(format!("{t}!")),
            _ => None,
        };
        if let Some(what) = alloc {
            let waived = self.waived_at("no-alloc", line);
            self.out.fns[fn_idx].allocs.push(Fact { what, line, waived });
        }

        // --- nondeterminism facts (mirrors the determinism matchers) ---
        let nondet = match t {
            "HashMap" | "HashSet" | "Instant" | "SystemTime" => Some(t.to_string()),
            "env"
                if p >= 2
                    && self.code.text(p - 1) == "::"
                    && self.code.text(p - 2) == "std" =>
            {
                Some("std::env".to_string())
            }
            _ => None,
        };
        if let Some(what) = nondet {
            let waived = self.waived_at("determinism", line);
            self.out.fns[fn_idx].nondet.push(Fact { what, line, waived });
        }

        // --- HostView accessor reads (field access, not calls) ---
        if prev == Some(".") && next != Some("(") {
            let f = &mut self.out.fns[fn_idx];
            match t {
                "work_left" if f.reads_work_left.is_none() => f.reads_work_left = Some(line),
                "queue_len" if f.reads_queue_len.is_none() => f.reads_queue_len = Some(line),
                _ => {}
            }
        }

        // --- StateNeeds constants ---
        if matches!(t, "NOTHING" | "WORK_LEFT" | "QUEUE_LEN" | "ALL")
            && p >= 2
            && self.code.text(p - 1) == "::"
            && self.code.text(p - 2) == "StateNeeds"
        {
            self.out.fns[fn_idx].state_consts.push(t.to_string());
        }
    }

    /// Scan the `{ … }` body of `struct ty` for named fields. `p` is on
    /// the `struct` keyword. Tuple and unit structs contribute nothing.
    fn scan_struct_fields(&mut self, p: usize, ty: &str) {
        // find the body brace before any `;` or `(`
        let mut q = p + 2;
        if self.code.get(q) == Some("<") {
            q = self.skip_angles(q) + 1;
        }
        loop {
            match self.code.get(q) {
                Some("{") => break,
                Some(";" | "(") | None => return,
                Some("<") => q = self.skip_angles(q) + 1,
                Some(_) => q += 1,
            }
        }
        let Some(close) = self.code.match_bracket(q, "{", "}") else {
            return;
        };
        // depth-0 idents followed by `:` are field names; depth counts
        // every nesting bracket so fn-pointer params and generic
        // arguments never masquerade as fields
        let mut depth = 0i32;
        let mut r = q + 1;
        while r < close {
            match self.code.text(r) {
                "(" | "[" | "{" | "<" => depth += 1,
                "<<" => depth += 2,
                ")" | "]" | "}" | ">" => depth -= 1,
                ">>" => depth -= 2,
                t if depth == 0
                    && self.code.kind(r) == TokenKind::Ident
                    && self.code.get(r + 1) == Some(":") =>
                {
                    if let Some(fty) = self.leading_type_ident(r + 2) {
                        self.out.fields.push(FieldDef {
                            ty: ty.to_string(),
                            field: t.to_string(),
                            fty,
                        });
                    }
                    r += 1;
                    continue;
                }
                _ => {}
            }
            r += 1;
        }
    }

    /// Is `rule` waived at `line` by any directive in this file?
    fn waived_at(&self, rule: &str, line: u32) -> bool {
        self.out.directives.iter().any(|d| d.waives(rule, line))
    }

    /// Resolve fn-scoped directives (`deny(alloc)` and `divides(N)`)
    /// onto the first fn at or after the line each covers — same
    /// convention as the per-file engine.
    fn apply_deny_alloc(&mut self) {
        for d in &self.out.directives {
            if matches!(d.kind, DirectiveKind::Allow { .. }) {
                continue;
            }
            let Some(f) = self
                .out
                .fns
                .iter_mut()
                .filter(|f| f.line >= d.covers)
                .min_by_key(|f| f.line)
            else {
                continue;
            };
            match &d.kind {
                DirectiveKind::DenyAlloc => f.deny_alloc = true,
                DirectiveKind::Divides(n) => f.divides = Some((*n, d.line)),
                DirectiveKind::Allow { .. } => unreachable!(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_items_with_impl_context() {
        let src = "
struct Foo;
trait Bar { fn required(&self); fn defaulted(&self) { helper(); } }
impl Bar for Foo {
    fn required(&self) { self.go(); }
}
impl Foo {
    fn inherent(&self) -> usize { crate::util::count() }
}
fn free() { Foo.required(); }
";
        let items = parse_file(src);
        let names: Vec<_> = items.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["required", "defaulted", "required", "inherent", "free"]);
        let req_impl = &items.fns[2];
        assert_eq!(req_impl.impl_ty.as_deref(), Some("Foo"));
        assert_eq!(req_impl.impl_trait.as_deref(), Some("Bar"));
        assert!(matches!(
            req_impl.calls[0].target,
            CallTarget::Method { ref name, recv: Recv::SelfType } if name == "go"
        ));
        let inherent = &items.fns[3];
        assert_eq!(inherent.impl_ty.as_deref(), Some("Foo"));
        assert_eq!(inherent.impl_trait, None);
        assert!(matches!(
            inherent.calls[0].target,
            CallTarget::Path(ref p) if p == &["crate", "util", "count"]
        ));
        assert!(!items.fns[0].has_body);
        assert!(items.fns[1].has_body);
    }

    #[test]
    fn turbofish_calls_are_calls() {
        let src = "
fn drive(ws: &mut W) {
    run::<true, false, _, _>(ws);
    ws.record_core::<Vec<Vec<u8>>>(1);
    crate::fast::go::<u8>();
    let v = Vec::<f64>::with_capacity(4);
    let n = parse::<u8> + 1;
}
";
        let items = parse_file(src);
        let targets: Vec<String> = items.fns[0]
            .calls
            .iter()
            .map(|c| match &c.target {
                CallTarget::Plain(name) => name.clone(),
                CallTarget::Method { name, recv } => format!("{recv:?}.{name}"),
                CallTarget::Path(segs) => segs.join("::"),
            })
            .collect();
        // `Vec::<f64>` is a type path, not a call of `Vec`; a turbofish
        // that no `(` follows is no call either
        assert_eq!(
            targets,
            [
                "run",
                "Ident(\"ws\").record_core",
                "crate::fast::go",
                "with_capacity",
            ]
        );
        assert!(!items.mentions.contains("run"));
        assert!(items.mentions.contains("parse"));
    }

    #[test]
    fn generics_do_not_confuse_impl_headers() {
        let src = "
impl<'a, T: Clone> Wrapper<'a, T> {
    fn get(&self) -> &T { &self.0 }
}
impl<S: Iterator<Item = u64>> Feed for Stream<S> {
    fn next(&mut self) { self.pull(); }
}
";
        let items = parse_file(src);
        assert_eq!(items.fns[0].impl_ty.as_deref(), Some("Wrapper"));
        assert_eq!(items.fns[0].impl_trait, None);
        assert_eq!(items.fns[1].impl_ty.as_deref(), Some("Stream"));
        assert_eq!(items.fns[1].impl_trait.as_deref(), Some("Feed"));
    }

    #[test]
    fn use_trees_flatten_to_leaves() {
        let src = "
use dses_sim::{Dispatcher, state::{StateNeeds, SystemState}};
use dses_dist::Distribution as Dist;
use std::collections::BTreeMap;
pub use crate::policies::RandomPolicy;
";
        let items = parse_file(src);
        let paths: Vec<String> = items.uses.iter().map(|u| u.path.join("::")).collect();
        assert!(paths.contains(&"dses_sim::Dispatcher".to_string()));
        assert!(paths.contains(&"dses_sim::state::StateNeeds".to_string()));
        assert!(paths.contains(&"dses_sim::state::SystemState".to_string()));
        assert!(paths.contains(&"std::collections::BTreeMap".to_string()));
        assert!(paths.contains(&"crate::policies::RandomPolicy".to_string()));
        let dist = items.uses.iter().find(|u| u.alias == "Dist").unwrap();
        assert_eq!(dist.path.join("::"), "dses_dist::Distribution");
        // crate refs recorded for layering evidence
        assert!(items.crate_refs.iter().any(|r| r.krate == "sim"));
        assert!(items.crate_refs.iter().any(|r| r.krate == "dist"));
    }

    #[test]
    fn facts_attribute_to_innermost_fn() {
        let src = "
fn outer() {
    let m = std::collections::HashMap::new();
    fn inner() { let v = Vec::new(); }
    let c = || buf.to_vec();
}
";
        let items = parse_file(src);
        let outer = items.fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = items.fns.iter().find(|f| f.name == "inner").unwrap();
        assert_eq!(outer.nondet.len(), 1);
        assert!(outer.allocs.iter().any(|a| a.what == ".to_vec"));
        assert!(!outer.allocs.iter().any(|a| a.what == "Vec::new"));
        assert!(inner.allocs.iter().any(|a| a.what == "Vec::new"));
    }

    #[test]
    fn accessor_reads_and_state_consts() {
        let src = "
fn pick(state: &SystemState) -> usize {
    let q = state.hosts[0].queue_len;
    q
}
fn declare() -> StateNeeds { StateNeeds::WORK_LEFT | StateNeeds::QUEUE_LEN }
fn write_only() { let v = HostView { queue_len: 0, work_left: 0.0 }; consume(v); }
";
        let items = parse_file(src);
        let pick = &items.fns[0];
        assert!(pick.reads_queue_len.is_some());
        assert!(pick.reads_work_left.is_none());
        let declare = &items.fns[1];
        assert_eq!(declare.state_consts, ["WORK_LEFT", "QUEUE_LEN"]);
        // struct-literal field *writes* are not reads
        let wo = &items.fns[2];
        assert!(wo.reads_queue_len.is_none());
        assert!(wo.reads_work_left.is_none());
    }

    #[test]
    fn deny_alloc_and_waivers_thread_through() {
        let src = "
// dses-lint: deny(alloc)
fn hot() { helper(); }
fn helper() {
    let v = Vec::new();
    let m = HashMap::new(); // dses-lint: allow(determinism) -- keyed only
}
";
        let items = parse_file(src);
        assert!(items.fns[0].deny_alloc);
        assert!(!items.fns[1].deny_alloc);
        assert!(!items.fns[1].allocs[0].waived);
        assert!(items.fns[1].nondet[0].waived);
    }

    #[test]
    fn params_record_types_with_generic_bounds_substituted() {
        let src = "
fn run<P: Dispatcher + ?Sized, S>(trace: &Trace, policy: &mut P, speeds: &S, n: usize)
where
    S: SpeedModel,
{
    policy.reset();
    trace.arrivals();
    speeds.rate(0);
}
";
        let items = parse_file(src);
        let f = &items.fns[0];
        assert_eq!(
            f.params,
            [
                ("trace".to_string(), "Trace".to_string()),
                ("policy".to_string(), "Dispatcher".to_string()),
                ("speeds".to_string(), "SpeedModel".to_string()),
                ("n".to_string(), "usize".to_string()),
            ]
        );
        assert!(matches!(
            f.calls[0].target,
            CallTarget::Method { ref name, recv: Recv::Ident(ref r) }
                if name == "reset" && r == "policy"
        ));
    }

    #[test]
    fn receiver_shapes_and_shadowing() {
        let src = "
struct W { inner: Box<dyn Dispatcher> }
fn f(ws: &mut Workspace, x: Trace) {
    self.hosts.truncate(2);
    ws.collector.reset();
    for x in 0..3 {
        x.go();
    }
    make().go();
}
fn g(trace: &Trace, y: u32, z: u32) {
    v.map(|Reverse((_, id))| trace.job(id as usize));
    v.map(|y| y.go());
    v.map(move |a: Vec<Vec<u8>>, mut z| z.go(a));
    v.map(|| trace.len());
}
";
        let items = parse_file(src);
        assert!(items.fields.iter().any(|d| d.field == "inner" && d.fty == "Dispatcher"));
        let f = &items.fns[0];
        assert!(f.shadowed.contains(&"x".to_string()));
        // a closure's body may start with a parameter of the fn: only
        // the names between the closure's `|`s are bindings
        let g = &items.fns[1];
        let shadowed = |name: &str| g.shadowed.iter().any(|s| s == name);
        assert!(!shadowed("trace"), "{:?}", g.shadowed);
        assert!(shadowed("id") && shadowed("y") && shadowed("z") && shadowed("a"));
        let recvs: Vec<&Recv> = f
            .calls
            .iter()
            .filter_map(|c| match &c.target {
                CallTarget::Method { recv, .. } => Some(recv),
                _ => None,
            })
            .collect();
        assert_eq!(*recvs[0], Recv::SelfField("hosts".to_string()));
        assert_eq!(
            *recvs[1],
            Recv::IdentField("ws".to_string(), "collector".to_string())
        );
        assert_eq!(*recvs[2], Recv::Ident("x".to_string()));
        assert_eq!(*recvs[3], Recv::Unknown);
    }

    #[test]
    fn test_regions_mark_items() {
        let src = "
fn lib_fn() {}
#[cfg(test)]
mod tests {
    fn helper() {}
    #[test]
    fn case() { helper(); }
}
";
        let items = parse_file(src);
        assert!(!items.fns[0].in_test);
        assert!(items.fns[1].in_test);
        assert!(items.fns[2].in_test);
    }
}
