//! The workspace-wide item graph: symbol tables, name resolution, and
//! a conservative call graph.
//!
//! Resolution is deliberately modest — good enough for workspace-local
//! paths, silent about everything else:
//!
//! * `name(…)` resolves to a free fn in the same file, then the same
//!   crate, then through the file's `use` aliases;
//! * `a::b::name(…)` resolves through `crate`/`self` prefixes, `dses_x`
//!   crate paths, workspace type names (`Type::method`), `Self`, and
//!   `use` aliases; `std::…` and other external paths resolve to
//!   nothing;
//! * `.name(…)` narrows through whatever receiver type the syntax
//!   reveals: `self.…` through the caller's impl type, `param.…`
//!   through the parameter's declared type (generic bounds
//!   substituted: `policy: &mut P` with `P: Dispatcher` dispatches to
//!   `Dispatcher` impls only), and one field hop through struct
//!   definitions (`ws.collector.reset()`). A receiver of known std
//!   type (`Vec`, `Option`, …) resolves to nothing; an unknown
//!   receiver falls back to **every** workspace method of that name —
//!   over-approximation, not silence, is the failure mode.
//!
//! Over-approximation is the right failure mode for the analyses built
//! on top: a spurious edge can at worst produce a finding a human
//! reviews; a missing edge would silently hide one. Test-only items are
//! excluded as call *targets* for non-test callers so `#[cfg(test)]`
//! helpers never taint library paths.

use crate::driver::SourceFile;
use crate::items::{parse_file, CallTarget, FileItems, FnItem, Recv};
use crate::rules::FileKind;
use std::collections::{BTreeMap, BTreeSet};

/// A parsed file paired with its driver classification.
pub struct ParsedFile<'a> {
    /// The classified source file.
    pub file: &'a SourceFile,
    /// Its parsed items.
    pub items: FileItems,
}

/// Identifier of a function node: index into [`Graph::fns`].
pub type FnId = usize;

/// Location of a function item: (file index, index into that file's
/// `items.fns`).
#[derive(Debug, Clone, Copy)]
pub struct FnKey {
    /// Index into [`Graph::files`].
    pub file: usize,
    /// Index into that file's `items.fns`.
    pub item: usize,
}

/// The workspace item graph.
pub struct Graph<'a> {
    /// All parsed files, in driver order.
    pub files: Vec<ParsedFile<'a>>,
    /// All function nodes.
    pub fns: Vec<FnKey>,
    /// Resolved call edges per function: `(callee, call line)`.
    pub edges: Vec<Vec<(FnId, u32)>>,
    /// Workspace-defined struct/enum names.
    pub types: BTreeSet<String>,
    /// Workspace-defined trait names.
    pub traits: BTreeSet<String>,
    // --- symbol tables (library, non-test items only) ---
    free_by_crate: BTreeMap<(String, String), Vec<FnId>>,
    methods_by_type: BTreeMap<(String, String), Vec<FnId>>,
    methods_by_name: BTreeMap<String, Vec<FnId>>,
    by_file_name: BTreeMap<(usize, String), Vec<FnId>>,
    /// `(owner type, field name) → field type`, from struct definitions.
    field_types: BTreeMap<(String, String), String>,
    /// Type → traits it implements (library impls), for resolving
    /// trait-default methods called on a concrete receiver.
    traits_of_type: BTreeMap<String, BTreeSet<String>>,
    /// Per-crate reflexive-transitive dependency closure (from the
    /// declared layering DAG). Empty → no scoping of method resolution.
    dep_closure: BTreeMap<String, BTreeSet<String>>,
    /// Trait name → crate that defines it, for trait-object dispatch.
    trait_crate: BTreeMap<String, String>,
}

/// Path roots that are definitely not workspace modules — the free-fn
/// fallback must not fire for them.
const EXTERNAL_ROOTS: &[&str] = &["std", "core", "alloc"];

/// Receiver types whose methods are never workspace items: a call on
/// one is a std call and resolves to nothing. Checked only after the
/// workspace symbol tables, so a workspace type of the same name wins.
const STD_TYPES: &[&str] = &[
    "Vec", "VecDeque", "BinaryHeap", "String", "str", "HashMap", "HashSet", "BTreeMap",
    "BTreeSet", "Option", "Result", "Cell", "RefCell", "PathBuf", "Path", "Duration",
    "Ordering", "Range", "f32", "f64", "bool", "char", "u8", "u16", "u32", "u64", "u128",
    "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

impl<'a> Graph<'a> {
    /// Parse every file and build symbol tables and call edges, with
    /// receiver-unknown method calls resolving to every same-named
    /// workspace method.
    #[must_use]
    pub fn build(sources: &'a [SourceFile]) -> Self {
        Self::build_scoped(sources, BTreeMap::new())
    }

    /// Like [`Graph::build`], but receiver-unknown method calls from
    /// non-test code only resolve into the caller's dependency closure
    /// (`closure[crate]` = the crates it may link against, itself
    /// included) — plus impls of any trait *defined* inside the closure,
    /// which trait objects can carry in from anywhere (`dyn Dispatcher`
    /// hands `core` impls to `sim` kernels). A method named `run` in an
    /// unlinkable crate is not a plausible callee; dropping it keeps
    /// name collisions from fabricating cross-stack chains.
    #[must_use]
    pub fn build_scoped(
        sources: &'a [SourceFile],
        dep_closure: BTreeMap<String, BTreeSet<String>>,
    ) -> Self {
        let files: Vec<ParsedFile<'a>> = sources
            .iter()
            .map(|file| ParsedFile {
                file,
                items: parse_file(&file.src),
            })
            .collect();

        let mut fns = Vec::new();
        let mut types = BTreeSet::new();
        let mut traits = BTreeSet::new();
        let mut free_by_crate: BTreeMap<(String, String), Vec<FnId>> = BTreeMap::new();
        let mut methods_by_type: BTreeMap<(String, String), Vec<FnId>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        let mut by_file_name: BTreeMap<(usize, String), Vec<FnId>> = BTreeMap::new();
        let mut field_types: BTreeMap<(String, String), String> = BTreeMap::new();
        let mut traits_of_type: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();

        let mut trait_crate: BTreeMap<String, String> = BTreeMap::new();

        for (fi, pf) in files.iter().enumerate() {
            types.extend(pf.items.types.iter().cloned());
            traits.extend(pf.items.traits.iter().cloned());
            for t in &pf.items.traits {
                trait_crate
                    .entry(t.clone())
                    .or_insert_with(|| pf.file.crate_id.clone());
            }
            for fd in &pf.items.fields {
                field_types.insert((fd.ty.clone(), fd.field.clone()), fd.fty.clone());
            }
            for (ii, f) in pf.items.fns.iter().enumerate() {
                let id: FnId = fns.len();
                fns.push(FnKey { file: fi, item: ii });
                by_file_name
                    .entry((fi, f.name.clone()))
                    .or_default()
                    .push(id);
                // library symbol tables: cross-file resolution never
                // lands on test-only or bin items, nor on bodiless
                // trait-method declarations (nothing to traverse into)
                if pf.file.kind != FileKind::Lib || f.in_test || !f.has_body {
                    continue;
                }
                if let Some(ty) = &f.impl_ty {
                    methods_by_type
                        .entry((ty.clone(), f.name.clone()))
                        .or_default()
                        .push(id);
                    if let Some(tr) = &f.impl_trait {
                        traits_of_type.entry(ty.clone()).or_default().insert(tr.clone());
                    }
                }
                if f.impl_ty.is_some() || f.impl_trait.is_some() {
                    methods_by_name.entry(f.name.clone()).or_default().push(id);
                } else {
                    free_by_crate
                        .entry((pf.file.crate_id.clone(), f.name.clone()))
                        .or_default()
                        .push(id);
                }
            }
        }

        let mut graph = Graph {
            files,
            fns,
            edges: Vec::new(),
            types,
            traits,
            free_by_crate,
            methods_by_type,
            methods_by_name,
            by_file_name,
            field_types,
            traits_of_type,
            dep_closure,
            trait_crate,
        };

        // resolve call edges
        let mut edges = Vec::with_capacity(graph.fns.len());
        for id in 0..graph.fns.len() {
            let caller = graph.item(id);
            let caller_test = caller.in_test || graph.file_of(id).file.kind == FileKind::Test;
            let mut out: Vec<(FnId, u32)> = Vec::new();
            for call in &caller.calls {
                for target in graph.resolve(id, &call.target) {
                    if target == id {
                        continue; // self-recursion adds nothing
                    }
                    // test-only items never serve non-test callers
                    if !caller_test && graph.item(target).in_test {
                        continue;
                    }
                    if !out.iter().any(|&(t, _)| t == target) {
                        out.push((target, call.line));
                    }
                }
            }
            edges.push(out);
        }
        graph.edges = edges;
        graph
    }

    /// The function item behind an id.
    #[must_use]
    pub fn item(&self, id: FnId) -> &FnItem {
        let key = self.fns[id];
        &self.files[key.file].items.fns[key.item]
    }

    /// The parsed file a function lives in.
    #[must_use]
    pub fn file_of(&self, id: FnId) -> &ParsedFile<'a> {
        &self.files[self.fns[id].file]
    }

    /// Index into [`Graph::files`] of the file a function lives in.
    #[must_use]
    pub fn fns_file(&self, id: FnId) -> usize {
        self.fns[id].file
    }

    /// Human label: `Type::name` for methods, plain `name` otherwise.
    #[must_use]
    pub fn label(&self, id: FnId) -> String {
        let f = self.item(id);
        match &f.impl_ty {
            Some(ty) => format!("{ty}::{}", f.name),
            None => f.name.clone(),
        }
    }

    /// Resolve one syntactic call from `caller` to candidate targets.
    #[must_use]
    pub fn resolve(&self, caller: FnId, target: &CallTarget) -> Vec<FnId> {
        match target {
            CallTarget::Method { name, recv } => {
                if let Some(ids) = self
                    .recv_type(caller, recv)
                    .and_then(|ty| self.by_recv_type(&ty, name))
                {
                    return self.scope_methods(caller, ids);
                }
                let ids = self.methods_by_name.get(name).cloned().unwrap_or_default();
                self.scope_methods(caller, ids)
            }
            CallTarget::Plain(name) => self.resolve_plain(caller, name),
            CallTarget::Path(segs) => self.resolve_path(caller, segs, 0),
        }
    }

    /// Best-effort receiver type of a method call: the caller's impl
    /// type (or trait, for default methods) for `self.…`, declared
    /// parameter types for `param.…` (disabled when the body re-binds
    /// the name), and one field hop through struct definitions.
    fn recv_type(&self, caller: FnId, recv: &Recv) -> Option<String> {
        let item = self.item(caller);
        let param_ty = |n: &String| {
            if item.shadowed.contains(n) {
                return None;
            }
            item.params.iter().find(|(p, _)| p == n).map(|(_, t)| t.clone())
        };
        match recv {
            Recv::Unknown => None,
            Recv::SelfType => item.impl_ty.clone().or_else(|| item.impl_trait.clone()),
            Recv::SelfField(f) => item
                .impl_ty
                .as_ref()
                .and_then(|ty| self.field_types.get(&(ty.clone(), f.clone())))
                .cloned(),
            Recv::Ident(n) => param_ty(n),
            Recv::IdentField(n, f) => param_ty(n)
                .and_then(|ty| self.field_types.get(&(ty, f.clone())))
                .cloned(),
        }
    }

    /// Candidate methods for a receiver of known type `ty`. `Some(ids)`
    /// is authoritative (possibly empty — a std receiver is an external
    /// call); `None` means "no information", and the caller falls back
    /// to the broad method-name index.
    fn by_recv_type(&self, ty: &str, name: &str) -> Option<Vec<FnId>> {
        if self.types.contains(ty) {
            if let Some(ids) = self.methods_by_type.get(&(ty.to_string(), name.to_string())) {
                return Some(ids.clone());
            }
            // trait-default methods of traits this type implements
            if let Some(trs) = self.traits_of_type.get(ty) {
                let defaults: Vec<FnId> = self
                    .methods_by_name
                    .get(name)
                    .map(|ids| {
                        ids.iter()
                            .copied()
                            .filter(|&id| {
                                let f = self.item(id);
                                f.impl_ty.is_none()
                                    && f.impl_trait.as_deref().is_some_and(|t| trs.contains(t))
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                if !defaults.is_empty() {
                    return Some(defaults);
                }
            }
            // workspace type without such a method: blanket/extension
            // trait impls could still supply one — stay broad
            return None;
        }
        // trait receiver (generic bound, `dyn Trait` field): every impl
        // of that trait, trait defaults included
        let trait_methods: Vec<FnId> = self
            .methods_by_name
            .get(name)
            .map(|ids| {
                ids.iter()
                    .copied()
                    .filter(|&id| self.item(id).impl_trait.as_deref() == Some(ty))
                    .collect()
            })
            .unwrap_or_default();
        if !trait_methods.is_empty() {
            return Some(trait_methods);
        }
        if self.traits.contains(ty) {
            return None; // known trait, method from another bound — broad
        }
        if STD_TYPES.contains(&ty) {
            return Some(Vec::new());
        }
        None
    }

    /// Drop method candidates a non-test caller could never link
    /// against: the target's crate must be in the caller's dependency
    /// closure, unless the target implements a trait defined there
    /// (trait objects cross crate boundaries downward).
    fn scope_methods(&self, caller: FnId, ids: Vec<FnId>) -> Vec<FnId> {
        if self.dep_closure.is_empty() {
            return ids;
        }
        let pf = &self.files[self.fns[caller].file];
        if pf.file.kind == FileKind::Test || self.item(caller).in_test {
            return ids; // tests may reach anywhere (dev-dependencies)
        }
        let Some(closure) = self.dep_closure.get(&pf.file.crate_id) else {
            return ids; // undeclared crate: stay fully conservative
        };
        ids.into_iter()
            .filter(|&id| {
                let target_crate = &self.files[self.fns[id].file].file.crate_id;
                closure.contains(target_crate)
                    || self.item(id).impl_trait.as_deref().is_some_and(|t| {
                        self.trait_crate.get(t).is_some_and(|c| closure.contains(c))
                    })
            })
            .collect()
    }

    fn resolve_plain(&self, caller: FnId, name: &str) -> Vec<FnId> {
        let file_idx = self.fns[caller].file;
        // same file (free fns only — `Some(x)` style constructors and
        // methods never resolve here)
        if let Some(ids) = self.by_file_name.get(&(file_idx, name.to_string())) {
            let free: Vec<FnId> = ids
                .iter()
                .copied()
                .filter(|&id| self.item(id).impl_ty.is_none() && self.item(id).impl_trait.is_none())
                .collect();
            if !free.is_empty() {
                return free;
            }
        }
        // same crate
        let crate_id = self.file_of(caller).file.crate_id.clone();
        if let Some(ids) = self.free_by_crate.get(&(crate_id, name.to_string())) {
            if !ids.is_empty() {
                return ids.clone();
            }
        }
        // use alias
        if let Some(path) = self.use_target(file_idx, name) {
            return self.resolve_path(caller, &path, 1);
        }
        Vec::new()
    }

    /// The full path a `use` in `file_idx` binds to local name `alias`.
    fn use_target(&self, file_idx: usize, alias: &str) -> Option<Vec<String>> {
        self.files[file_idx]
            .items
            .uses
            .iter()
            .find(|u| u.alias == alias)
            .map(|u| u.path.clone())
    }

    fn resolve_path(&self, caller: FnId, segs: &[String], depth: u8) -> Vec<FnId> {
        if depth > 2 || segs.is_empty() {
            return Vec::new();
        }
        // strip module-relative prefixes; `super` degrades to crate scope
        let mut segs: Vec<String> = segs.to_vec();
        while segs
            .first()
            .is_some_and(|s| matches!(s.as_str(), "crate" | "self" | "super"))
        {
            segs.remove(0);
        }
        let Some(name) = segs.last().cloned() else {
            return Vec::new();
        };
        // `Self::method` — the caller's own impl type
        if segs.first().map(String::as_str) == Some("Self") {
            if let Some(ty) = &self.item(caller).impl_ty {
                return self
                    .methods_by_type
                    .get(&(ty.clone(), name))
                    .cloned()
                    .unwrap_or_default();
            }
            return Vec::new();
        }
        // `…::Type::method` for a workspace type
        if segs.len() >= 2 {
            let ty = &segs[segs.len() - 2];
            if self.types.contains(ty) || self.traits.contains(ty) {
                if let Some(ids) = self.methods_by_type.get(&(ty.clone(), name.clone())) {
                    return ids.clone();
                }
                // `Trait::method` with no inherent impl: all methods of
                // that name on workspace trait impls
                if self.traits.contains(ty) {
                    return self
                        .methods_by_name
                        .get(&name)
                        .map(|ids| {
                            ids.iter()
                                .copied()
                                .filter(|&id| {
                                    self.item(id).impl_trait.as_deref() == Some(ty.as_str())
                                })
                                .collect()
                        })
                        .unwrap_or_default();
                }
                return Vec::new();
            }
        }
        // `dses_x::…` — an explicit workspace crate path
        if let Some(krate) = segs
            .first()
            .and_then(|s| s.strip_prefix("dses_"))
            .filter(|k| !k.is_empty())
        {
            return self
                .free_by_crate
                .get(&(krate.to_string(), name))
                .cloned()
                .unwrap_or_default();
        }
        // `Alias::…` through the file's imports
        if let Some(first) = segs.first() {
            if let Some(mut base) = self.use_target(self.fns[caller].file, first) {
                base.extend(segs[1..].iter().cloned());
                return self.resolve_path(caller, &base, depth + 1);
            }
        }
        // `module::fn` within the caller's crate — unless the root is a
        // known external namespace
        if segs
            .first()
            .is_some_and(|s| EXTERNAL_ROOTS.contains(&s.as_str()))
        {
            return Vec::new();
        }
        let crate_id = self.file_of(caller).file.crate_id.clone();
        self.free_by_crate
            .get(&(crate_id, name))
            .cloned()
            .unwrap_or_default()
    }

    /// Forward BFS over call edges from `roots`. `enter` decides whether
    /// traversal may continue *through* a node (it is still visited).
    /// Returns each visited node with the edge that first reached it:
    /// `(caller, call line)` — `None` for roots.
    #[must_use]
    pub fn bfs<F: Fn(FnId) -> bool>(
        &self,
        roots: &[FnId],
        enter: F,
    ) -> BTreeMap<FnId, Option<(FnId, u32)>> {
        let mut visited: BTreeMap<FnId, Option<(FnId, u32)>> = BTreeMap::new();
        let mut queue: std::collections::VecDeque<FnId> = std::collections::VecDeque::new();
        for &r in roots {
            if visited.insert(r, None).is_none() {
                queue.push_back(r);
            }
        }
        while let Some(id) = queue.pop_front() {
            if !enter(id) && !roots.contains(&id) {
                continue;
            }
            for &(callee, line) in &self.edges[id] {
                if let std::collections::btree_map::Entry::Vacant(e) = visited.entry(callee) {
                    e.insert(Some((id, line)));
                    queue.push_back(callee);
                }
            }
        }
        visited
    }

    /// Reconstruct the call path `root → … → id` from a BFS parent map,
    /// as human labels.
    #[must_use]
    pub fn path_to(
        &self,
        parents: &BTreeMap<FnId, Option<(FnId, u32)>>,
        id: FnId,
    ) -> Vec<String> {
        let mut chain = vec![self.label(id)];
        let mut cur = id;
        let mut guard = 0usize;
        while let Some(Some((parent, _))) = parents.get(&cur) {
            chain.push(self.label(*parent));
            cur = *parent;
            guard += 1;
            if guard > self.fns.len() {
                break;
            }
        }
        chain.reverse();
        chain
    }

    /// All function ids.
    pub fn ids(&self) -> impl Iterator<Item = FnId> + '_ {
        0..self.fns.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::FileKind;

    fn sf(rel: &str, crate_id: &str, kind: FileKind, src: &str) -> SourceFile {
        SourceFile {
            rel: rel.to_string(),
            crate_id: crate_id.to_string(),
            kind,
            root: None,
            src: src.to_string(),
        }
    }

    fn find(g: &Graph<'_>, name: &str) -> FnId {
        g.ids()
            .find(|&id| g.item(id).name == name)
            .unwrap_or_else(|| panic!("fn {name} not found"))
    }

    #[test]
    fn cross_crate_path_and_alias_resolution() {
        let files = vec![
            sf(
                "crates/a/src/lib.rs",
                "a",
                FileKind::Lib,
                "pub fn helper() { dses_b::leaf(); }",
            ),
            sf(
                "crates/b/src/lib.rs",
                "b",
                FileKind::Lib,
                "pub fn leaf() {}",
            ),
            sf(
                "crates/c/src/lib.rs",
                "c",
                FileKind::Lib,
                "use dses_a::helper;\npub fn top() { helper(); }",
            ),
        ];
        let g = Graph::build(&files);
        let top = find(&g, "top");
        let helper = find(&g, "helper");
        let leaf = find(&g, "leaf");
        assert_eq!(g.edges[top], vec![(helper, 2)]);
        assert_eq!(g.edges[helper], vec![(leaf, 1)]);
        let reached = g.bfs(&[top], |_| true);
        assert!(reached.contains_key(&leaf));
        assert_eq!(g.path_to(&reached, leaf), ["top", "helper", "leaf"]);
    }

    #[test]
    fn method_calls_over_approximate_but_skip_test_items() {
        let files = vec![
            sf(
                "crates/a/src/lib.rs",
                "a",
                FileKind::Lib,
                "pub struct S;\nimpl S { pub fn go(&self) {} }\nfn drive(s: &S) { s.go(); }",
            ),
            sf(
                "crates/b/src/lib.rs",
                "b",
                FileKind::Lib,
                "#[cfg(test)]\nmod tests {\n  struct T;\n  impl T { fn go(&self) {} }\n}",
            ),
        ];
        let g = Graph::build(&files);
        let drive = find(&g, "drive");
        // resolves to the lib method only; the test-module `go` is not a
        // candidate for a non-test caller
        assert_eq!(g.edges[drive].len(), 1);
        assert_eq!(g.label(g.edges[drive][0].0), "S::go");
    }

    #[test]
    fn self_and_type_paths() {
        let files = vec![sf(
            "crates/a/src/lib.rs",
            "a",
            FileKind::Lib,
            "pub struct S;\nimpl S {\n  fn a(&self) { Self::b(); }\n  fn b() {}\n}\nfn f() { S::b(); }",
        )];
        let g = Graph::build(&files);
        let a = find(&g, "a");
        let b = find(&g, "b");
        let f = find(&g, "f");
        assert_eq!(g.edges[a], vec![(b, 3)]);
        assert_eq!(g.edges[f], vec![(b, 6)]);
    }

    #[test]
    fn field_typed_receivers_narrow_method_resolution() {
        let files = vec![sf(
            "crates/a/src/lib.rs",
            "a",
            FileKind::Lib,
            "pub trait D { fn go(&self); }\n\
             pub struct Inner;\n\
             impl D for Inner { fn go(&self) {} }\n\
             pub struct Other;\n\
             impl D for Other { fn go(&self) {} }\n\
             pub struct Wrap { inner: Inner }\n\
             impl D for Wrap { fn go(&self) { self.inner.go(); } }",
        )];
        let g = Graph::build(&files);
        let wrap_go = g
            .ids()
            .find(|&id| g.label(id) == "Wrap::go")
            .expect("Wrap::go");
        // the delegating call resolves through the field's declared type,
        // not to every `go` in the workspace
        assert_eq!(g.edges[wrap_go].len(), 1);
        assert_eq!(g.label(g.edges[wrap_go][0].0), "Inner::go");
    }

    #[test]
    fn generic_bound_receivers_dispatch_to_trait_impls_only() {
        let files = vec![sf(
            "crates/a/src/lib.rs",
            "a",
            FileKind::Lib,
            "pub trait D { fn reset(&mut self); }\n\
             pub struct P1;\n\
             impl D for P1 { fn reset(&mut self) {} }\n\
             pub struct Gauge;\n\
             impl Gauge { pub fn reset(&mut self) {} }\n\
             pub fn run<P: D + ?Sized>(policy: &mut P) { policy.reset(); }",
        )];
        let g = Graph::build(&files);
        let run = find(&g, "run");
        // dispatches to the `D` impl, not the unrelated inherent `reset`
        assert_eq!(g.edges[run].len(), 1);
        assert_eq!(g.label(g.edges[run][0].0), "P1::reset");
    }

    #[test]
    fn std_typed_receivers_resolve_to_nothing() {
        let files = vec![sf(
            "crates/a/src/lib.rs",
            "a",
            FileKind::Lib,
            "pub struct T;\n\
             impl T { pub fn truncate(&self) {} }\n\
             pub struct W { hosts: Vec<u32> }\n\
             impl W { pub fn reset(&mut self) { self.hosts.truncate(0); } }",
        )];
        let g = Graph::build(&files);
        let reset = find(&g, "reset");
        assert!(
            g.edges[reset].is_empty(),
            "Vec::truncate must not resolve to the workspace `T::truncate`"
        );
    }

    #[test]
    fn shadowed_params_fall_back_to_broad_resolution() {
        let files = vec![sf(
            "crates/a/src/lib.rs",
            "a",
            FileKind::Lib,
            "pub struct T;\n\
             impl T { pub fn go(&self) {} }\n\
             pub struct U;\n\
             impl U { pub fn go(&self) {} }\n\
             pub fn f(x: &T) { let x = make(); x.go(); }\n\
             fn make() -> u32 { 0 }",
        )];
        let g = Graph::build(&files);
        let f = find(&g, "f");
        // `x` was re-bound: the param type must not narrow the call
        let labels: Vec<String> = g.edges[f].iter().map(|&(t, _)| g.label(t)).collect();
        assert!(labels.contains(&"T::go".to_string()), "{labels:?}");
        assert!(labels.contains(&"U::go".to_string()), "{labels:?}");
    }

    #[test]
    fn a_closure_body_naming_a_param_keeps_the_param_narrowing() {
        let files = vec![sf(
            "crates/a/src/lib.rs",
            "a",
            FileKind::Lib,
            "pub struct T;\n\
             impl T { pub fn go(&self, i: usize) {} }\n\
             pub struct U;\n\
             impl U { pub fn go(&self, i: usize) {} }\n\
             pub fn f(x: &T, v: &[usize]) { v.iter().for_each(|&i| x.go(i)); }",
        )];
        let g = Graph::build(&files);
        let f = find(&g, "f");
        // `x` opens the closure's body; only `i` is bound there
        let labels: Vec<String> = g.edges[f].iter().map(|&(t, _)| g.label(t)).collect();
        assert_eq!(labels, vec!["T::go".to_string()]);
    }

    #[test]
    fn std_paths_resolve_to_nothing() {
        let files = vec![sf(
            "crates/a/src/lib.rs",
            "a",
            FileKind::Lib,
            "pub fn take() {}\npub fn f(v: &mut Vec<u32>) { std::mem::take(v); }",
        )];
        let g = Graph::build(&files);
        let f = find(&g, "f");
        assert!(g.edges[f].is_empty(), "std::mem::take must not resolve to crate-local take");
    }
}
