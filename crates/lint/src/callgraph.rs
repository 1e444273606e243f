//! Workspace call graph over the parsed `fn` items.
//!
//! Resolution is conservative and name-based — no type information
//! exists at this layer, so the resolver follows *every* plausible
//! target instead of guessing one:
//!
//! * plain calls (`f(..)`) resolve to free functions named `f`,
//!   preferring same-file definitions (Rust's own scoping makes a
//!   same-file free fn the overwhelmingly likely target);
//! * qualified calls (`Type::f(..)`) resolve to functions named `f`
//!   whose namespace aliases — enclosing impl type, trait, inline
//!   modules, file stem, parent directory — contain `Type`;
//! * method calls (`.f(..)`) resolve to every impl/trait function named
//!   `f` in the workspace — the receiver's type is unknown, so all
//!   candidates are followed.
//!
//! Resolution stops at nested-workspace boundaries: a directory whose
//! `Cargo.toml` has its own `[workspace]` table is a separate Cargo
//! workspace that nothing outside it can depend on, so calls from
//! outside that directory never get an edge into it. Calls from inside
//! it still reach the outer workspace (it may path-depend on the outer
//! crates).
//!
//! A call site with more than one candidate is *ambiguous*: the edges
//! are all kept (reachability stays sound) and the site is counted in
//! [`CallGraph::ambiguous_sites`], which `ci.sh` prints so resolver
//! regressions show up in CI logs. A call site with no candidate is
//! external (std / vendored shims) and contributes no edge.
//!
//! Everything is keyed and ordered by `BTreeMap`/sorted vectors — the
//! linter has to pass its own `nondet-iteration` rule, and the analyses
//! built on top must emit byte-identical diagnostics run over run.

use crate::parser::{CallSite, FnItem};
use std::collections::BTreeMap;

/// One resolved call edge, carrying the call-site span (for chain
/// frames and frame waivers) and its control-flow flags (for the RNG
/// stream-discipline analysis).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    /// Index of the callee in [`CallGraph::fns`].
    pub to: usize,
    pub line: u32,
    pub col: u32,
    pub conditional: bool,
    pub looped: bool,
}

/// The workspace call graph. `fns` is sorted by (file, line, col), so
/// every index-derived ordering downstream is deterministic.
#[derive(Debug)]
pub struct CallGraph {
    pub fns: Vec<FnItem>,
    /// Outgoing edges per function, in call-site order.
    pub edges: Vec<Vec<Edge>>,
    /// Total resolved edges (counting one per (site, candidate) pair).
    pub n_edges: usize,
    /// Call sites that resolved to more than one candidate.
    pub ambiguous_sites: usize,
}

/// Namespace aliases a qualified call can use to reach a function:
/// impl type, trait, inline modules, file stem, parent directory.
fn aliases(f: &FnItem) -> Vec<&str> {
    let mut out: Vec<&str> = Vec::new();
    if let Some(t) = &f.impl_type {
        out.push(t);
    }
    if let Some(t) = &f.trait_name {
        out.push(t);
    }
    for m in &f.modules {
        out.push(m);
    }
    let mut parts = f.file.rsplit('/');
    if let Some(name) = parts.next() {
        if let Some(stem) = name.strip_suffix(".rs") {
            out.push(stem);
        }
    }
    if let Some(dir) = parts.next() {
        out.push(dir);
    }
    out
}

/// The innermost nested-workspace directory (`/`-terminated path
/// prefix) containing `file`, if any.
fn home<'b>(file: &str, boundaries: &'b [String]) -> Option<&'b str> {
    boundaries
        .iter()
        .filter(|b| file.starts_with(b.as_str()))
        .max_by_key(|b| b.len())
        .map(String::as_str)
}

impl CallGraph {
    /// Builds the graph from every parsed function in the workspace.
    /// `boundaries` lists the nested-workspace directories as
    /// `/`-terminated path prefixes (empty when there are none).
    pub fn build(mut fns: Vec<FnItem>, boundaries: &[String]) -> CallGraph {
        fns.sort_by(|a, b| (a.file.as_str(), a.line, a.col).cmp(&(b.file.as_str(), b.line, b.col)));
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_default().push(i);
        }
        let homes: Vec<Option<&str>> = fns.iter().map(|f| home(&f.file, boundaries)).collect();

        let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); fns.len()];
        let mut n_edges = 0usize;
        let mut ambiguous_sites = 0usize;
        for i in 0..fns.len() {
            for c in &fns[i].calls {
                let caller = fns[i].file.as_str();
                let visible: Vec<usize> = by_name
                    .get(c.name.as_str())
                    .into_iter()
                    .flatten()
                    .copied()
                    .filter(|&t| homes[t].is_none_or(|h| caller.starts_with(h)))
                    .collect();
                let cands = resolve(&fns, &visible, caller, c);
                if cands.len() > 1 {
                    ambiguous_sites += 1;
                }
                for t in cands {
                    edges[i].push(Edge {
                        to: t,
                        line: c.line,
                        col: c.col,
                        conditional: c.conditional,
                        looped: c.looped,
                    });
                    n_edges += 1;
                }
            }
        }
        CallGraph {
            fns,
            edges,
            n_edges,
            ambiguous_sites,
        }
    }

    /// Index of every fn whose file matches one of the path prefixes.
    pub fn fns_in_paths(&self, prefixes: &[String]) -> Vec<usize> {
        (0..self.fns.len())
            .filter(|&i| crate::path_matches(&self.fns[i].file, prefixes))
            .collect()
    }
}

/// Picks the targets of call site `c` among `all`, the visible
/// functions bearing its name.
fn resolve(fns: &[FnItem], all: &[usize], caller_file: &str, c: &CallSite) -> Vec<usize> {
    if c.method {
        return all
            .iter()
            .copied()
            .filter(|&i| fns[i].impl_type.is_some() || fns[i].trait_name.is_some())
            .collect();
    }
    if let Some(q) = &c.qualifier {
        return all
            .iter()
            .copied()
            .filter(|&i| aliases(&fns[i]).contains(&q.as_str()))
            .collect();
    }
    // Plain call: free functions only; same-file definitions win.
    let free: Vec<usize> = all
        .iter()
        .copied()
        .filter(|&i| fns[i].impl_type.is_none() && fns[i].trait_name.is_none())
        .collect();
    let local: Vec<usize> = free
        .iter()
        .copied()
        .filter(|&i| fns[i].file == caller_file)
        .collect();
    if local.is_empty() {
        free
    } else {
        local
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_fns;

    fn graph(sources: &[(&str, &str)]) -> CallGraph {
        let mut fns = Vec::new();
        for (path, src) in sources {
            let toks = lex(src);
            let code: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
            fns.extend(parse_fns(path, &toks, &code));
        }
        CallGraph::build(fns, &[])
    }

    fn idx(g: &CallGraph, name: &str) -> usize {
        g.fns.iter().position(|f| f.name == name).unwrap()
    }

    #[test]
    fn plain_calls_prefer_same_file() {
        let g = graph(&[
            ("a.rs", "fn root() { helper(); }\nfn helper() {}\n"),
            ("b.rs", "fn helper() {}\n"),
        ]);
        let root = idx(&g, "root");
        let targets: Vec<&str> = g.edges[root]
            .iter()
            .map(|e| g.fns[e.to].file.as_str())
            .collect();
        assert_eq!(targets, ["a.rs"]);
        assert_eq!(g.ambiguous_sites, 0);
    }

    #[test]
    fn cross_file_plain_call_resolves_and_counts_ambiguity() {
        let g = graph(&[
            ("a.rs", "fn root() { helper(); }\n"),
            ("b.rs", "fn helper() {}\n"),
            ("c.rs", "fn helper() {}\n"),
        ]);
        let root = idx(&g, "root");
        assert_eq!(g.edges[root].len(), 2);
        assert_eq!(g.ambiguous_sites, 1);
    }

    #[test]
    fn qualified_calls_match_impl_type_and_file_stem() {
        let g = graph(&[
            ("a.rs", "fn root() { Pool::spawn(); codec::encode(); }\n"),
            ("pool.rs", "impl Pool { fn spawn() {} }\n"),
            ("codec.rs", "pub fn encode() {}\n"),
        ]);
        let root = idx(&g, "root");
        let names: Vec<&str> = g.edges[root]
            .iter()
            .map(|e| g.fns[e.to].name.as_str())
            .collect();
        assert_eq!(names, ["spawn", "encode"]);
    }

    #[test]
    fn method_calls_follow_every_impl_candidate() {
        let g = graph(&[
            ("a.rs", "fn root(d: &dyn Device) { d.alloc(4); }\n"),
            (
                "m.rs",
                "impl Device for Mem { fn alloc(&self, b: u64) {} }\nimpl Device for Faulty { fn alloc(&self, b: u64) {} }\nfn alloc() {}\n",
            ),
        ]);
        let root = idx(&g, "root");
        // Both impls, but not the free fn of the same name.
        assert_eq!(g.edges[root].len(), 2);
        assert_eq!(g.ambiguous_sites, 1);
        for e in &g.edges[root] {
            assert!(g.fns[e.to].impl_type.is_some());
        }
    }

    #[test]
    fn method_calls_stop_at_nested_workspace_boundaries() {
        // `nested/` is a separate Cargo workspace: the root's `.set()`
        // must not resolve into it, only to the same-workspace impl,
        // while calls from inside `nested/` still reach the outer crates.
        let mut fns = Vec::new();
        for (path, src) in [
            ("core/a.rs", "fn root(r: &R) { r.set(); }\n"),
            ("core/b.rs", "impl R { fn set(&self) { panic!() } }\n"),
            (
                "nested/src/report.rs",
                "impl Report { fn set(&self) { panic!() } }\nfn bench(r: &R) { r.set(); }\n",
            ),
        ] {
            let toks = lex(src);
            let code: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
            fns.extend(parse_fns(path, &toks, &code));
        }
        let g = CallGraph::build(fns, &["nested/".to_string()]);
        let files = |caller: &str| -> Vec<&str> {
            g.edges[idx(&g, caller)]
                .iter()
                .map(|e| g.fns[e.to].file.as_str())
                .collect()
        };
        assert_eq!(files("root"), ["core/b.rs"]);
        assert_eq!(files("bench"), ["core/b.rs", "nested/src/report.rs"]);
        assert_eq!(g.ambiguous_sites, 1);
    }

    #[test]
    fn external_calls_make_no_edges() {
        let g = graph(&[(
            "a.rs",
            "fn root() { Vec::with_capacity(4); std::mem::drop(1); missing(); }\n",
        )]);
        let root = idx(&g, "root");
        assert!(g.edges[root].is_empty());
        assert_eq!(g.ambiguous_sites, 0);
    }

    #[test]
    fn graph_order_is_deterministic() {
        let srcs = [
            ("b.rs", "fn beta() { alpha(); }\n"),
            ("a.rs", "fn alpha() {}\n"),
        ];
        let g1 = graph(&srcs);
        let g2 = graph(&[srcs[1], srcs[0]]);
        let names1: Vec<&str> = g1.fns.iter().map(|f| f.name.as_str()).collect();
        let names2: Vec<&str> = g2.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names1, names2);
        assert_eq!(names1, ["alpha", "beta"]);
    }
}
