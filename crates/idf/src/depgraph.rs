//! The persisted method → callee-spec dependency graph behind
//! incremental verification at monorepo scale.
//!
//! A method's verdict depends on its own text and its *direct* callees'
//! contracts, so the verdict-store fingerprint alone invalidates a
//! spec edit's direct callers — but only them: a transitive caller's
//! fingerprint is unchanged (its own direct callees' specs did not
//! move). Build-system-grade invalidation wants the conservative
//! closure instead: **a spec change dirties its callers transitively;
//! a body-only change dirties only the method itself.** This module
//! supplies that closure.
//!
//! Per method the graph persists (a) the [interface
//! fingerprint](crate::fingerprint::interface_fingerprint) of its
//! *normalized* signature + contract and (b) its direct-callee edge
//! list. On the next run the engine diffs the stored interface
//! fingerprints against the current program's: every method whose
//! interface moved (or vanished) is a *spec-dirty root*, and the dirty
//! set is the reverse-reachable cone of those roots unioned with the
//! plain fingerprint misses. Methods forced by the cone despite a
//! matching store entry are counted as `dirty_transitive` — the
//! verifier is deterministic, so re-running them reproduces the stored
//! verdict bit for bit and correctness never depends on the graph
//! being present, fresh, or even plausible: a missing or damaged graph
//! only costs extra re-verification.
//!
//! The graph file (`depgraph.jsonl`, one node per line) lives next to
//! the verdict store's shards in the cache directory.

use crate::ast::Program;
use crate::fingerprint::{direct_callees, interface_fingerprint, Fingerprint};
use daenerys_obs::parse_json;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// One method's node: its normalized-interface fingerprint and its
/// direct-callee edges (sorted, deduplicated).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DepNode {
    /// Fingerprint of the method's normalized interface (signature +
    /// contract, body dropped) — the value whose movement makes the
    /// method a spec-dirty root.
    pub interface: Fingerprint,
    /// Names the method's body calls directly (the edge list). Empty
    /// for leaves and bodyless methods.
    pub callees: Vec<String>,
}

/// The method → callee-spec dependency graph, keyed by method name.
#[derive(Clone, PartialEq, Eq, Default, Debug)]
pub struct DepGraph {
    nodes: BTreeMap<String, DepNode>,
}

impl DepGraph {
    /// The graph file name within the cache directory.
    pub const FILE_NAME: &'static str = "depgraph.jsonl";

    /// An empty graph (no prior run: every fingerprint miss stands on
    /// its own and nothing is transitively forced).
    pub fn new() -> DepGraph {
        DepGraph::default()
    }

    /// Builds the graph of `program`: every declared method is a node
    /// (bodyless methods too — callers depend on their specs), with
    /// edges from [`direct_callees`].
    pub fn of_program(program: &Program) -> DepGraph {
        let mut nodes = BTreeMap::new();
        for m in &program.methods {
            nodes.insert(
                m.name.clone(),
                DepNode {
                    interface: interface_fingerprint(m),
                    callees: direct_callees(m),
                },
            );
        }
        DepGraph { nodes }
    }

    /// The node for `name`, if present.
    pub fn node(&self, name: &str) -> Option<&DepNode> {
        self.nodes.get(name)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Upserts every node of `cur` into `self`, returning `true` when
    /// anything changed. Nodes absent from `cur` are kept: the daemon's
    /// shared store sees many programs, and forgetting one tenant's
    /// edges whenever another tenant verifies would turn every
    /// alternation into a spurious full dirty cone.
    pub fn absorb(&mut self, cur: &DepGraph) -> bool {
        let mut changed = false;
        for (name, node) in &cur.nodes {
            if self.nodes.get(name) != Some(node) {
                self.nodes.insert(name.clone(), node.clone());
                changed = true;
            }
        }
        changed
    }

    /// The *spec-dirty roots* of a run: methods whose interface
    /// fingerprint moved since `prev` — edited specs, plus methods
    /// `prev` never recorded (their callers may hold entries minted
    /// against a `missing:` marker), plus methods `prev` recorded that
    /// `cur` no longer declares (deleted specs dirty their remaining
    /// callers).
    pub fn spec_dirty_roots(prev: &DepGraph, cur: &DepGraph) -> BTreeSet<String> {
        let mut roots = BTreeSet::new();
        for (name, node) in &cur.nodes {
            match prev.nodes.get(name) {
                Some(p) if p.interface == node.interface => {}
                _ => {
                    roots.insert(name.clone());
                }
            }
        }
        for name in prev.nodes.keys() {
            if !cur.nodes.contains_key(name) {
                roots.insert(name.clone());
            }
        }
        roots
    }

    /// The reverse-reachable cone of `roots` in this graph: the roots
    /// themselves plus every method from which a root can be reached
    /// along call edges — exactly the set a build system would dirty
    /// for those spec edits. Root names need not be nodes (a deleted
    /// method still dirties the callers that mention it).
    pub fn reverse_reachable(&self, roots: &BTreeSet<String>) -> BTreeSet<String> {
        // callee → callers, derived on demand (the graph persists
        // forward edges only; the reverse index is cheap and always
        // consistent).
        let mut callers: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (name, node) in &self.nodes {
            for callee in &node.callees {
                callers.entry(callee).or_default().push(name);
            }
        }
        let mut dirty: BTreeSet<String> = roots.clone();
        let mut queue: VecDeque<&str> = roots.iter().map(String::as_str).collect();
        while let Some(name) = queue.pop_front() {
            if let Some(cs) = callers.get(name) {
                for &caller in cs {
                    if dirty.insert(caller.to_string()) {
                        queue.push_back(caller);
                    }
                }
            }
        }
        dirty
    }

    /// A deterministic topological order over `pending` (indices into
    /// `names`): callees before callers, ties broken by program order,
    /// cycles (recursion) falling back to program order for the
    /// strongly-connected remainder. Methods are verified in isolation
    /// against callee *specs*, so this order is a scheduling policy —
    /// warm leaves first — never a correctness requirement.
    pub fn topo_order(&self, names: &[String], pending: &[usize]) -> Vec<usize> {
        let in_pending: BTreeSet<usize> = pending.iter().copied().collect();
        let index_of: BTreeMap<&str, usize> = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), i))
            .collect();
        // Edges restricted to the pending subgraph: i depends on j
        // (j first) when i calls j.
        let mut deps: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut rdeps: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut degree: BTreeMap<usize, usize> = pending.iter().map(|&i| (i, 0)).collect();
        for &i in pending {
            if let Some(node) = self.nodes.get(&names[i]) {
                for callee in &node.callees {
                    if let Some(&j) = index_of.get(callee.as_str()) {
                        if j != i && in_pending.contains(&j) {
                            deps.entry(i).or_default().push(j);
                            rdeps.entry(j).or_default().push(i);
                            *degree.get_mut(&i).expect("pending index") += 1;
                        }
                    }
                }
            }
        }
        let mut ready: BTreeSet<usize> = degree
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&i, _)| i)
            .collect();
        let mut order = Vec::with_capacity(pending.len());
        let mut emitted: BTreeSet<usize> = BTreeSet::new();
        while let Some(&i) = ready.iter().next() {
            ready.remove(&i);
            order.push(i);
            emitted.insert(i);
            if let Some(callers) = rdeps.get(&i) {
                for &c in callers {
                    let d = degree.get_mut(&c).expect("pending index");
                    *d -= 1;
                    if *d == 0 {
                        ready.insert(c);
                    }
                }
            }
        }
        // Recursion: whatever Kahn could not discharge keeps program
        // order.
        for &i in pending {
            if !emitted.contains(&i) {
                order.push(i);
            }
        }
        order
    }

    /// Loads the graph from `dir` (the cache directory). Missing files
    /// and corrupt lines load as absent nodes — a damaged graph widens
    /// the dirty cone on the next run, never narrows it, because an
    /// absent node is a spec-dirty root by definition.
    pub fn load(dir: &Path) -> DepGraph {
        let mut nodes = BTreeMap::new();
        if let Ok(text) = fs::read_to_string(dir.join(Self::FILE_NAME)) {
            for line in text.lines() {
                if line.trim().is_empty() {
                    continue;
                }
                if let Some((name, node)) = decode_node(line) {
                    nodes.insert(name, node);
                }
            }
        }
        DepGraph { nodes }
    }

    /// Writes the graph to `dir` atomically (temp file + rename), one
    /// node per line in name order.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating the directory or writing the
    /// file.
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)?;
        let mut out = String::new();
        for (name, node) in &self.nodes {
            encode_node(&mut out, name, node);
            out.push('\n');
        }
        let path = dir.join(Self::FILE_NAME);
        let tmp = path.with_extension("jsonl.tmp");
        fs::write(&tmp, out)?;
        fs::rename(&tmp, &path)
    }
}

fn encode_node(out: &mut String, name: &str, node: &DepNode) {
    let _ = write!(
        out,
        "{{\"method\":\"{}\",\"iface\":\"{}\",\"callees\":[",
        crate::store::esc(name),
        node.interface
    );
    for (i, callee) in node.callees.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\"", crate::store::esc(callee));
    }
    out.push_str("]}");
}

fn decode_node(line: &str) -> Option<(String, DepNode)> {
    // Fast path first: a 10k-node graph is 10k lines, and the general
    // JSON parser dominates warm store-open time if it runs per line.
    decode_node_fast(line).or_else(|| decode_node_general(line))
}

/// Zero-tree decoder for the exact shape [`encode_node`] emits. Any
/// deviation (reordered fields, extra whitespace, trailing garbage)
/// returns `None` and defers to the general parser.
fn decode_node_fast(line: &str) -> Option<(String, DepNode)> {
    let rest = line.strip_prefix("{\"method\":\"")?;
    let (name, rest) = scan_json_str(rest)?;
    let rest = rest.strip_prefix(",\"iface\":\"")?;
    let (iface, rest) = scan_json_str(rest)?;
    let interface = Fingerprint::parse(&iface)?;
    let mut rest = rest.strip_prefix(",\"callees\":[")?;
    let mut callees = Vec::new();
    if !rest.starts_with(']') {
        loop {
            rest = rest.strip_prefix('"')?;
            let (callee, after) = scan_json_str(rest)?;
            callees.push(callee);
            match after.strip_prefix(',') {
                Some(next) => rest = next,
                None => {
                    rest = after;
                    break;
                }
            }
        }
    }
    let tail = rest.strip_prefix("]}")?;
    tail.is_empty()
        .then_some((name, DepNode { interface, callees }))
}

/// Scans an escaped JSON string body up to its closing quote; returns
/// the unescaped contents and the remainder *after* the quote. Byte
/// indexing is safe: the scanner only splits at ASCII `"`/`\` bytes,
/// which never occur inside a multi-byte UTF-8 sequence.
fn scan_json_str(s: &str) -> Option<(String, &str)> {
    let bytes = s.as_bytes();
    let mut out = String::new();
    let mut start = 0;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                out.push_str(&s[start..i]);
                return Some((out, &s[i + 1..]));
            }
            b'\\' => {
                out.push_str(&s[start..i]);
                let esc = *bytes.get(i + 1)?;
                i += 2;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = s.get(i..i + 4)?;
                        out.push(char::from_u32(u32::from_str_radix(hex, 16).ok()?)?);
                        i += 4;
                    }
                    _ => return None,
                }
                start = i;
            }
            _ => i += 1,
        }
    }
    None
}

fn decode_node_general(line: &str) -> Option<(String, DepNode)> {
    let json = parse_json(line).ok()?;
    let obj = json.as_obj()?;
    let name = obj.get("method")?.as_str()?.to_string();
    let interface = Fingerprint::parse(obj.get("iface")?.as_str()?)?;
    let callees = obj
        .get("callees")?
        .as_arr()?
        .iter()
        .map(|v| v.as_str().map(str::to_string))
        .collect::<Option<Vec<String>>>()?;
    Some((name, DepNode { interface, callees }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use std::path::PathBuf;

    const SRC: &str = "field val: Int
         method leaf(n: Int) returns (r: Int)
           requires n >= 0
           ensures r >= n
         { r := n }
         method mid(n: Int) returns (r: Int)
           requires n >= 0
           ensures r >= n
         { var t: Int := 0; call t := leaf(n); r := t }
         method top(n: Int) returns (r: Int)
           requires n >= 0
           ensures r >= n
         { var t: Int := 0; call t := mid(n); r := t }
         method lone(n: Int) returns (r: Int)
           requires n >= 0
           ensures r >= n
         { r := n }";

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("daenerys-depgraph-{}-{}", tag, std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn roots_of(prev_src: &str, cur_src: &str) -> BTreeSet<String> {
        let prev = DepGraph::of_program(&parse_program(prev_src).unwrap());
        let cur = DepGraph::of_program(&parse_program(cur_src).unwrap());
        DepGraph::spec_dirty_roots(&prev, &cur)
    }

    fn set(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn graph_extraction_records_interfaces_and_edges() {
        let g = DepGraph::of_program(&parse_program(SRC).unwrap());
        assert_eq!(g.len(), 4);
        assert_eq!(g.node("mid").unwrap().callees, vec!["leaf".to_string()]);
        assert!(g.node("leaf").unwrap().callees.is_empty());
        assert_ne!(
            g.node("leaf").unwrap().interface,
            g.node("mid").unwrap().interface,
            "different names give different interfaces"
        );
        assert_eq!(
            g.node("leaf").unwrap().interface.to_string().len(),
            32,
            "interfaces render as full fingerprints"
        );
    }

    #[test]
    fn body_edits_produce_no_roots() {
        let edited = SRC.replace("{ r := n }", "{ r := n + 0 }");
        assert!(roots_of(SRC, &edited).is_empty());
    }

    #[test]
    fn spec_edits_root_exactly_the_edited_method() {
        let edited = SRC.replace(
            "method mid(n: Int) returns (r: Int)\n           requires n >= 0\n           ensures r >= n",
            "method mid(n: Int) returns (r: Int)\n           requires n >= 0\n           ensures r >= n && r >= 0",
        );
        assert_eq!(roots_of(SRC, &edited), set(&["mid"]));
    }

    #[test]
    fn deleted_and_new_methods_are_roots() {
        let mut lines: Vec<&str> = SRC.lines().collect();
        lines.truncate(lines.len() - 4); // drop `lone`
        let smaller = lines.join("\n");
        assert_eq!(roots_of(SRC, &smaller), set(&["lone"]));
        assert_eq!(roots_of(&smaller, SRC), set(&["lone"]));
    }

    #[test]
    fn reverse_reachable_is_the_transitive_caller_cone() {
        let g = DepGraph::of_program(&parse_program(SRC).unwrap());
        assert_eq!(
            g.reverse_reachable(&set(&["leaf"])),
            set(&["leaf", "mid", "top"]),
            "a leaf spec edit dirties the whole caller chain"
        );
        assert_eq!(g.reverse_reachable(&set(&["top"])), set(&["top"]));
        assert_eq!(g.reverse_reachable(&set(&["lone"])), set(&["lone"]));
        assert_eq!(
            g.reverse_reachable(&set(&["gone"])),
            set(&["gone"]),
            "non-node roots pass through (deleted methods)"
        );
    }

    #[test]
    fn topo_order_puts_callees_first_and_is_total() {
        let g = DepGraph::of_program(&parse_program(SRC).unwrap());
        let names: Vec<String> = ["leaf", "mid", "top", "lone"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        // Pending in caller-first order: topo must flip it.
        let order = g.topo_order(&names, &[2, 1, 0, 3]);
        let pos = |i: usize| order.iter().position(|&x| x == i).unwrap();
        assert_eq!(order.len(), 4);
        assert!(pos(0) < pos(1) && pos(1) < pos(2), "callees come first");
    }

    #[test]
    fn topo_order_tolerates_recursion() {
        let src = "method a(n: Int) returns (r: Int)
               requires n >= 0 ensures r >= 0
             { var t: Int := 0; call t := b(n); r := t }
             method b(n: Int) returns (r: Int)
               requires n >= 0 ensures r >= 0
             { var t: Int := 0; call t := a(n); r := t }";
        let g = DepGraph::of_program(&parse_program(src).unwrap());
        let names = vec!["a".to_string(), "b".to_string()];
        assert_eq!(
            g.topo_order(&names, &[0, 1]),
            vec![0, 1],
            "a cycle falls back to program order"
        );
    }

    #[test]
    fn save_load_roundtrips_and_damage_is_tolerated() {
        let dir = temp_dir("roundtrip");
        let g = DepGraph::of_program(&parse_program(SRC).unwrap());
        g.save(&dir).unwrap();
        assert_eq!(DepGraph::load(&dir), g);
        // Corrupt one line: that node vanishes (becoming a dirty root
        // next run); the rest load.
        let path = dir.join(DepGraph::FILE_NAME);
        let text = fs::read_to_string(&path).unwrap();
        let mangled: Vec<String> = text
            .lines()
            .map(|l| {
                if l.starts_with("{\"method\":\"mid\"") {
                    "not json".to_string()
                } else {
                    l.to_string()
                }
            })
            .collect();
        fs::write(&path, mangled.join("\n")).unwrap();
        let reloaded = DepGraph::load(&dir);
        assert_eq!(reloaded.len(), 3);
        assert!(reloaded.node("mid").is_none());
        assert!(reloaded.node("top").is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn absorb_upserts_without_forgetting() {
        let g1 = DepGraph::of_program(&parse_program(SRC).unwrap());
        let other = "method unrelated(n: Int) returns (r: Int)
             requires n >= 0 ensures r >= 0 { r := n }";
        let g2 = DepGraph::of_program(&parse_program(other).unwrap());
        let mut merged = g1.clone();
        assert!(merged.absorb(&g2), "new nodes change the graph");
        assert_eq!(merged.len(), 5);
        assert!(merged.node("top").is_some(), "old tenants are kept");
        assert!(!merged.absorb(&g2), "absorbing again is a no-op");
    }
}
