//! Pass 2 — transitive reactor-blocking.
//!
//! The `reactor-block` line rule only catches *direct* blocking calls in
//! `net::server` / `net::reactor`. This pass walks the call graph from the
//! reactor entry points (every `impl Reactor` method plus `reactor_loop`)
//! and flags any path that reaches a blocking primitive — a sleep, a
//! condvar wait (lock-wait), a thread join, a channel `recv`, or raw
//! socket I/O in the net crate — unless the *entry edge* (the call site
//! inside the reactor fn that starts the path) carries a
//! `// lint:allow(reactor-block): <reason>` escape, or the sink itself
//! does.
//!
//! Call resolution is by name (qualified calls prefer same-owner fns);
//! ubiquitous method names and names with too many candidates are skipped
//! — documented as heuristic in DESIGN.md §14. The walk is
//! workspace-wide, so a call that blocks three crates away is still
//! attributed to the reactor fn that leads to it. What a fn hands to
//! another thread — the closure argument of `spawn(…)` / `spawn_task(…)` —
//! is not a call that fn makes: the task may block, its submitter does not.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::diag::Diag;
use crate::lexer::TokKind;
use crate::model::{CallEdge, Workspace};

const RULE: &str = "reactor-transitive";

/// Method/function names too generic to resolve by name: resolving these
/// would connect the graph through unrelated types.
const STOPLIST: [&str; 52] = [
    "new",
    "clone",
    "len",
    "is_empty",
    "push",
    "pop",
    "get",
    "get_mut",
    "insert",
    "remove",
    "contains",
    "contains_key",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "fmt",
    "eq",
    "cmp",
    "hash",
    "drop",
    "default",
    "from",
    "into",
    "as_ref",
    "as_mut",
    "to_string",
    "to_vec",
    "name",
    "id",
    "take",
    "set",
    "is_some",
    "is_none",
    "unwrap_or",
    "map",
    // Atomic/collection accessors and infra verbs that collide with std
    // method names: resolving them by bare name wires unrelated subsystems
    // together. Mutex `lock`/`read`/`write` are deliberately stopped too —
    // mutex waits are the lock-rank pass's province; this pass hunts
    // *unbounded* waits (condvars, joins, sleeps, socket I/O).
    "load",
    "store",
    "lock",
    "read",
    "write",
    "try_lock",
    "check",
    "shutdown",
    "drain",
    "process",
    "update",
    "finish",
    "run",
    "parse",
    "clear",
    "modify",
];

/// Calls that hand their closure argument to another thread (a spawned
/// thread, a worker pool).
const HANDOFFS: [&str; 2] = ["spawn", "spawn_task"];

/// The calls fn `fn_idx` makes on its own thread: every call in its body
/// except those inside the argument list of a [`HANDOFFS`] call.
fn own_calls(ws: &Workspace, fn_idx: usize) -> Vec<&CallEdge> {
    let calls = &ws.calls[fn_idx];
    let toks = &ws.files[ws.fns[fn_idx].file].toks;
    // (callee token, matching close paren) of each handoff call.
    let handed_off: Vec<(usize, usize)> = calls
        .iter()
        .filter(|c| HANDOFFS.contains(&c.callee.as_str()))
        .map(|c| {
            let mut depth = 0usize;
            let close = (c.tok + 1..toks.len()).find(|&j| {
                if toks[j].kind == TokKind::Punct && toks[j].text == "(" {
                    depth += 1;
                } else if toks[j].kind == TokKind::Punct && toks[j].text == ")" {
                    depth -= 1;
                    return depth == 0;
                }
                false
            });
            (c.tok, close.unwrap_or(toks.len()))
        })
        .collect();
    calls
        .iter()
        .filter(|c| {
            !handed_off
                .iter()
                .any(|&(open, close)| open < c.tok && c.tok < close)
        })
        .collect()
}

/// Maximum fns sharing a bare name before resolution gives up on it.
const MAX_CANDIDATES: usize = 5;

/// Names whose empty-arg method calls wait on a condvar or thread.
const WAIT_SINKS: [&str; 5] = [
    "wait",
    "wait_timeout",
    "wait_while",
    "wait_timeout_while",
    "recv",
];

/// Crates outside the production call graph: `loom` is the model-checking
/// harness (its scheduler parks threads on condvars *by design*), and the
/// `compat-*` crates are vendored stand-ins for external libraries — a real
/// external dependency would be invisible to the graph, so its stand-in
/// must be too, or every `.lock()` would "reach" the shim's internals.
fn out_of_graph(path: &str) -> bool {
    path.starts_with("crates/loom/")
        || path.starts_with("crates/compat-")
        // Build tooling never runs in the serving process.
        || path.starts_with("crates/analyze/")
        || path.starts_with("crates/xtask/")
}

pub fn run(ws: &Workspace) -> Vec<Diag> {
    // Name → candidate fn indices (non-test fns with bodies only).
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, f) in ws.fns.iter().enumerate() {
        if f.is_test || f.body.is_none() || ws.files[f.file].in_tests_dir {
            continue;
        }
        if out_of_graph(&ws.files[f.file].path) {
            continue;
        }
        by_name.entry(&f.name).or_default().push(i);
    }

    // Direct sinks per fn: (line, description), escapes already applied.
    let mut sinks: HashMap<usize, (usize, String)> = HashMap::new();
    for (i, f) in ws.fns.iter().enumerate() {
        if f.is_test || ws.files[f.file].in_tests_dir || out_of_graph(&ws.files[f.file].path) {
            continue;
        }
        if let Some(s) = direct_sink(ws, i) {
            sinks.insert(i, s);
        }
    }

    // Adjacency: fn → (call line, callee fn) — resolved edges only.
    let mut edges: HashMap<usize, Vec<(usize, usize)>> = HashMap::new();
    for (i, f) in ws.fns.iter().enumerate() {
        if f.is_test || ws.files[f.file].in_tests_dir || out_of_graph(&ws.files[f.file].path) {
            continue;
        }
        let mut out = Vec::new();
        for c in own_calls(ws, i) {
            if STOPLIST.contains(&c.callee.as_str()) {
                continue;
            }
            let Some(cands) = by_name.get(c.callee.as_str()) else {
                continue;
            };
            // Qualified calls resolve within the named owner; method calls
            // prefer candidates whose impl owner matches the receiver name
            // by convention (`system.connect(…)` → `System::connect`, not
            // the client crate's unrelated `connect`).
            let filtered: Vec<usize> = match (&c.qualifier, &c.receiver) {
                (Some(q), _) => {
                    let subset: Vec<usize> = cands
                        .iter()
                        .copied()
                        .filter(|&t| ws.fns[t].owner.as_deref() == Some(q.as_str()))
                        .collect();
                    if subset.is_empty() {
                        cands.clone()
                    } else {
                        subset
                    }
                }
                (None, Some(recv)) if c.is_method && recv != "self" => {
                    // `system.connect(…)` prefers owners whose lowercased
                    // type name contains the receiver (`SystemController`).
                    let recv_l = recv.to_ascii_lowercase();
                    let subset: Vec<usize> = cands
                        .iter()
                        .copied()
                        .filter(|&t| {
                            ws.fns[t]
                                .owner
                                .as_deref()
                                .is_some_and(|o| o.to_ascii_lowercase().contains(&recv_l))
                        })
                        .collect();
                    if subset.is_empty() {
                        cands.clone()
                    } else {
                        subset
                    }
                }
                _ => cands.clone(),
            };
            if filtered.len() > MAX_CANDIDATES {
                continue;
            }
            for t in filtered {
                if t != i {
                    out.push((c.line, t));
                }
            }
        }
        edges.insert(i, out);
    }

    // Entry points: impl Reactor methods + reactor_loop, in the reactor
    // source files.
    let entries: Vec<usize> = ws
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            let path = ws.files[f.file].path.as_str();
            (path == "crates/net/src/server.rs" || path == "crates/net/src/reactor.rs")
                && !f.is_test
                && f.body.is_some()
                && (f.owner.as_deref() == Some("Reactor") || f.name == "reactor_loop")
        })
        .map(|(i, _)| i)
        .collect();

    let entry_set: HashSet<usize> = entries.iter().copied().collect();
    let mut out = Vec::new();
    for &entry in &entries {
        // BFS from each *entry edge* separately so the escape can cut the
        // path at the reactor boundary, where the justification belongs.
        let ef = &ws.fns[entry];
        // The entry fn's own direct sinks are the line rule's business
        // (it already checks these files); this pass is about transitive
        // paths. Other entry fns are walls: a path through `run_inline`
        // is reported once, at `run_inline`'s own edge, not at every
        // caller up the reactor.
        for &(call_line, first) in edges.get(&entry).into_iter().flatten() {
            if entry_set.contains(&first) {
                continue;
            }
            if ws.allowed(ef.file, call_line, "lint:allow(reactor-block)") {
                continue;
            }
            if let Some(path) = shortest_path_to_sink(first, &edges, &sinks, &entry_set) {
                let (sink_fn, (sink_line, ref what)) =
                    (path[path.len() - 1], sinks[&path[path.len() - 1]].clone());
                let chain: Vec<String> = std::iter::once(ef.name.clone())
                    .chain(path.iter().map(|&p| ws.fns[p].name.clone()))
                    .collect();
                out.push(Diag {
                    file: ws.files[ef.file].path.clone(),
                    line: call_line,
                    rule: RULE,
                    message: format!(
                        "reactor fn `{}` reaches a blocking call ({what} in `{}`, {}:{sink_line}) \
                         via {} — bound the path or justify the entry edge with \
                         // lint:allow(reactor-block): <reason>",
                        ef.name,
                        ws.fns[sink_fn].name,
                        ws.files[ws.fns[sink_fn].file].path,
                        chain.join(" → "),
                    ),
                });
            }
        }
    }
    // One diagnostic per (entry fn, sink fn) pair is enough.
    out.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.message.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.message.as_str(),
        ))
    });
    out.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.message == b.message);
    crate::diag::sort(&mut out);
    out
}

/// The first direct blocking primitive in this fn's body, unless escaped
/// with `lint:allow(reactor-block): <reason>` at the sink line.
fn direct_sink(ws: &Workspace, fn_idx: usize) -> Option<(usize, String)> {
    let f = &ws.fns[fn_idx];
    let file = &ws.files[f.file];
    let in_net = file.path.starts_with("crates/net/src/");
    for c in own_calls(ws, fn_idx) {
        let desc: Option<String> =
            if c.callee == "sleep" && c.qualifier.as_deref() == Some("thread") {
                Some("thread::sleep".to_string())
            } else if c.is_method && WAIT_SINKS.contains(&c.callee.as_str()) {
                Some(format!("condvar/channel `.{}(…)`", c.callee))
            } else if c.is_method && c.callee == "join" && empty_args(ws, f.file, c.tok) {
                Some("thread `.join()`".to_string())
            } else if in_net
                && c.is_method
                && matches!(c.callee.as_str(), "read" | "write" | "write_all" | "flush")
                && !empty_args(ws, f.file, c.tok)
            {
                Some(format!("raw socket `.{}(…)`", c.callee))
            } else {
                None
            };
        if let Some(what) = desc {
            if !ws.allowed(f.file, c.line, "lint:allow(reactor-block)") {
                return Some((c.line, what));
            }
        }
    }
    None
}

/// Does the call at token index `tok` (the callee ident) have an empty
/// argument list?
fn empty_args(ws: &Workspace, file: usize, tok: usize) -> bool {
    let toks = &ws.files[file].toks;
    let mut j = tok + 1;
    while j < toks.len() && toks[j].is_comment() {
        j += 1;
    }
    if j >= toks.len() || toks[j].text != "(" {
        return false;
    }
    j += 1;
    while j < toks.len() && toks[j].is_comment() {
        j += 1;
    }
    j < toks.len() && toks[j].text == ")"
}

/// BFS from `start` to the nearest fn with a direct sink; returns the fn
/// path including `start` and the sink fn.
fn shortest_path_to_sink(
    start: usize,
    edges: &HashMap<usize, Vec<(usize, usize)>>,
    sinks: &HashMap<usize, (usize, String)>,
    walls: &HashSet<usize>,
) -> Option<Vec<usize>> {
    let mut prev: HashMap<usize, usize> = HashMap::new();
    let mut seen: HashSet<usize> = HashSet::new();
    let mut q = VecDeque::new();
    seen.insert(start);
    q.push_back(start);
    while let Some(cur) = q.pop_front() {
        if sinks.contains_key(&cur) {
            // Reconstruct.
            let mut path = vec![cur];
            let mut at = cur;
            while at != start {
                at = prev[&at];
                path.push(at);
            }
            path.reverse();
            return Some(path);
        }
        for &(_, t) in edges.get(&cur).into_iter().flatten() {
            if !walls.contains(&t) && seen.insert(t) {
                prev.insert(t, cur);
                q.push_back(t);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(server: &str, other: &str) -> Vec<Diag> {
        let ws = Workspace::from_files(&[
            ("crates/net/src/server.rs", server),
            ("crates/cluster/src/exec.rs", other),
        ]);
        run(&ws)
    }

    #[test]
    fn transitive_block_through_another_crate_fires() {
        let server = "impl Reactor { fn run_inline(&self) { handoff(); } }\n";
        let other = "pub fn handoff() { deep_wait(); }\n\
                     fn deep_wait() { cond.wait_timeout(g, d); }\n";
        let d = fixture(server, other);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "reactor-transitive");
        assert!(
            d[0].message.contains("run_inline → handoff → deep_wait"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn entry_edge_escape_cuts_the_path() {
        let server = "impl Reactor { fn run_inline(&self) {\n\
                      // lint:allow(reactor-block): bounded S-lock wait, documented tradeoff\n\
                      handoff(); } }\n";
        let other = "pub fn handoff() { cond.wait(g); }\n";
        let d = fixture(server, other);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn sink_escape_cuts_the_path_too() {
        let server = "impl Reactor { fn run_inline(&self) { handoff(); } }\n";
        let other = "pub fn handoff() {\n\
                     // lint:allow(reactor-block): verified bounded by the pool deadline\n\
                     cond.wait(g); }\n";
        let d = fixture(server, other);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn task_handed_to_a_pool_is_not_a_call_the_reactor_makes() {
        // Quiet: the closure runs on a pool thread, and the pool's own
        // worker threads park on a condvar by design.
        let server = "impl Reactor { fn dispatch(&self) {\n\
                      self.pool.spawn_task(move || serve_conn(&shared, &conn)); } }\n\
                      fn serve_conn() { handoff(); }\n";
        let other = "pub fn handoff() { cond.wait(g); }\n\
                     impl WorkerPool { pub fn spawn_task(&self, f: F) { self.grow(); } }\n\
                     fn grow() { builder.spawn(move || worker_main(shared)); }\n\
                     fn worker_main() { cv.wait(st); }\n";
        let d = fixture(server, other);
        assert!(d.is_empty(), "{d:?}");

        // Fires: a call beside the handoff (not inside its argument list)
        // is still the reactor's own.
        let server = "impl Reactor { fn dispatch(&self) {\n\
                      self.pool.spawn_task(move || serve_conn(&shared, &conn));\n\
                      serve_conn(); } }\n\
                      fn serve_conn() { handoff(); }\n";
        let d = fixture(server, other);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 3);
        assert!(
            d[0].message.contains("dispatch → serve_conn → handoff"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn non_reactor_fns_are_not_entries() {
        let server = "fn serve_conn() { handoff(); }\n";
        let other = "pub fn handoff() { cond.wait(g); }\n";
        let d = fixture(server, other);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn stoplist_names_do_not_connect_the_graph() {
        let server = "impl Reactor { fn dispatch(&self) { q.push(job); } }\n";
        let other = "pub struct Q; impl Q { pub fn push(&self) { cond.wait(g); } }\n";
        let d = fixture(server, other);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn thread_sleep_is_a_sink() {
        let server = "impl Reactor { fn tick(&self) { slowpath(); } }\n";
        let other = "pub fn slowpath() { thread::sleep(d); }\n";
        let d = fixture(server, other);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("thread::sleep"));
    }
}
