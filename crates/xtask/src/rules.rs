//! The eight hygiene rules (DESIGN.md §10.5). Matching happens on a
//! per-line reconstruction of the code tokens, with string literals
//! replaced by `""` and comments split out, so:
//!
//! * a `//` inside a string literal does not truncate the line (code after
//!   such a string is still checked);
//! * rule tokens inside string literals (`"thread::sleep("` in a help
//!   text) do not false-positive, and escape markers inside strings do not
//!   false-suppress.
//!
//! `#[cfg(test)]` exemption is attribute-scoped (the item the attribute is
//! attached to).

use crate::diag::Diag;
use crate::model::File;

/// Files in `crates/cluster/src` where the unwrap rule applies: the
/// transaction hot path plus recovery, where a stray panic wedges a live
/// cluster rather than a test.
const HOT_PATH_FILES: &[&str] = &[
    "connection.rs",
    "controller.rs",
    "machine.rs",
    "pool.rs",
    "recovery.rs",
    "worker.rs",
];

/// Run every rule over every non-test line of every `src` file.
pub fn run(files: &[File]) -> Vec<Diag> {
    let mut out = Vec::new();
    for f in files {
        out.extend(lint_file(f));
    }
    crate::diag::sort(&mut out);
    out
}

/// Pure per-file rule check over reconstructed line views (exposed for the
/// fixture tests).
pub fn lint_file(f: &File) -> Vec<Diag> {
    let (rel_path, code, comments) = (f.path.as_str(), &f.code_lines, &f.comment_lines);
    let check_raw_lock = ["cluster", "storage", "net", "core", "georep", "sim"]
        .iter()
        .any(|c| rel_path.starts_with(&format!("crates/{c}/src/")))
        && !rel_path.ends_with("/sync.rs");
    let check_net_timeout = rel_path.starts_with("crates/net/src/");
    let check_reactor_block =
        rel_path == "crates/net/src/reactor.rs" || rel_path == "crates/net/src/server.rs";
    let check_unwrap = rel_path.starts_with("crates/cluster/src/")
        && HOT_PATH_FILES
            .iter()
            .any(|f| rel_path == format!("crates/cluster/src/{f}"));
    let check_ctrl_apply =
        rel_path.starts_with("crates/cluster/src/") && rel_path != "crates/cluster/src/meta.rs";
    let check_wal_access = rel_path.starts_with("crates/")
        && rel_path.contains("/src/")
        && !rel_path.starts_with("crates/storage/src/");
    let check_tenant_series = !rel_path.ends_with("/metrics.rs");

    let mut out = Vec::new();
    let diag = |line: usize, rule: &'static str, message: String| Diag {
        file: rel_path.to_string(),
        line,
        rule,
        message,
    };

    for idx in 0..code.len() {
        let lineno = idx + 1;
        if f.test_lines.get(idx).copied().unwrap_or(false) {
            continue;
        }
        let line = code[idx].as_str();
        if line.is_empty() {
            continue;
        }

        // `lint:allow(<marker>)` on this or the preceding line (markers
        // live in comments — a marker inside a string no longer counts).
        let escape_nearby = |marker: &str| -> bool {
            let needle = format!("lint:allow({marker})");
            comments[idx].contains(&needle) || (idx > 0 && comments[idx - 1].contains(&needle))
        };
        // `lint:allow(<kind>): <reason>` with a non-empty reason, here or
        // in the four preceding lines.
        let reason_escape_nearby = |kind: &str| -> bool {
            let marker = format!("lint:allow({kind}):");
            (idx.saturating_sub(4)..=idx).any(|i| {
                comments[i]
                    .find(&marker)
                    .map(|p| {
                        let rest = comments[i][p + marker.len()..].trim();
                        !rest.is_empty()
                    })
                    .unwrap_or(false)
            })
        };

        if check_raw_lock && mentions_raw_lock(line) && !escape_nearby("raw-lock") {
            out.push(diag(
                lineno,
                "raw-lock",
                "raw Mutex/RwLock/Condvar outside sync.rs — use the ordered \
                 wrappers from crate::sync (or // lint:allow(raw-lock))"
                    .to_string(),
            ));
        }

        if check_unwrap {
            for (needle, kind) in [(".unwrap()", "unwrap"), (".expect(", "expect")] {
                if line.contains(needle) && !reason_escape_nearby(kind) {
                    out.push(diag(
                        lineno,
                        "unwrap",
                        format!(
                            "`{needle}` in a cluster hot path — return an error, or add \
                             // lint:allow({kind}): <reason>"
                        ),
                    ));
                }
            }
        }

        if check_net_timeout
            && opens_socket(line)
            && !reason_escape_nearby("net-timeout")
            && !timeouts_armed_below(code, idx)
        {
            out.push(diag(
                lineno,
                "net-timeout",
                "socket opened without set_read_timeout + set_write_timeout \
                 (or set_nonblocking(true) for the readiness path) within \
                 12 lines — an unbounded read/write wedges the peer's \
                 thread (or add // lint:allow(net-timeout): <reason>)"
                    .to_string(),
            ));
        }

        if check_reactor_block && blocks_reactor(line) && !reason_escape_nearby("reactor-block") {
            out.push(diag(
                lineno,
                "reactor-block",
                "potentially blocking call in a reactor code path — a blocked \
                 reactor thread stalls every connection on it; route I/O \
                 through readiness, or justify with \
                 // lint:allow(reactor-block): <reason>"
                    .to_string(),
            ));
        }

        if check_ctrl_apply
            && touches_consensus_internals(line)
            && !reason_escape_nearby("ctrl-apply")
        {
            out.push(diag(
                lineno,
                "ctrl-apply",
                "consensus internals outside meta.rs — controller metadata \
                 transitions must go through ControllerGroup::submit so they \
                 commit and apply on every replica (or justify with \
                 // lint:allow(ctrl-apply): <reason>)"
                    .to_string(),
            ));
        }

        if check_wal_access && grabs_raw_wal(line) && !reason_escape_nearby("wal-access") {
            out.push(diag(
                lineno,
                "wal-access",
                "raw WAL handle outside crates/storage — tail a database's log \
                 through the stable Engine surface (wal_head_lsn(db) / \
                 wal_tail_from_capped(db, from, max) / in_doubt / resolve_in_doubt) \
                 so the logs' internals can evolve (or justify with \
                 // lint:allow(wal-access): <reason>)"
                    .to_string(),
            ));
        }

        if check_tenant_series
            && series_call_lines(code, idx)
                .is_some_and(|end| f.text_lines[idx..=end].iter().any(|l| l.contains("\"db\"")))
            && !reason_escape_nearby("tenant-series")
        {
            out.push(diag(
                lineno,
                "tenant-series",
                "a `db`-labelled series resolved outside a metrics.rs — resolve \
                 a tenant's series once, in its crate's metrics.rs, into the \
                 object that serves the tenant (or justify with \
                 // lint:allow(tenant-series): <reason>)"
                    .to_string(),
            ));
        }

        if let Some(ord) = weak_ordering_in(line) {
            let annotated =
                (idx.saturating_sub(4)..=idx).any(|i| comments[i].contains("ordering:"));
            if !annotated {
                out.push(diag(
                    lineno,
                    "ordering",
                    format!(
                        "Ordering::{ord} without a nearby `// ordering:` comment \
                         stating the justifying invariant"
                    ),
                ));
            }
        }
    }
    out
}

/// Does this code line mention a raw lock type? The ordered wrappers are
/// re-exported under the same short names, so detection keys on the *paths*
/// that name the raw types.
fn mentions_raw_lock(code: &str) -> bool {
    if code.contains("parking_lot") {
        return true;
    }
    if let Some(pos) = code.find("std::sync::") {
        let rest = &code[pos..];
        return ["Mutex", "RwLock", "Condvar"]
            .iter()
            .any(|t| rest.contains(t));
    }
    false
}

/// Does this code line obtain a fresh socket whose blocking operations need
/// a bound?
fn opens_socket(code: &str) -> bool {
    code.contains(".accept()") || code.contains("TcpStream::connect")
}

/// The socket's blocking must be bounded within the 12 lines after it is
/// obtained (counting the opening line itself).
fn timeouts_armed_below(code: &[String], idx: usize) -> bool {
    let window = &code[idx..(idx + 12).min(code.len())];
    let both_timeouts = window.iter().any(|l| l.contains("set_read_timeout"))
        && window.iter().any(|l| l.contains("set_write_timeout"));
    both_timeouts || window.iter().any(|l| l.contains("set_nonblocking(true)"))
}

/// Does this code line make a call that can block a reactor thread?
fn blocks_reactor(code: &str) -> bool {
    [
        "thread::sleep(",
        ".read(",
        ".write(",
        ".write_all(",
        ".flush(",
    ]
    .iter()
    .any(|t| code.contains(t))
}

/// Does this code line name a consensus internal that only `meta.rs` may
/// touch?
fn touches_consensus_internals(code: &str) -> bool {
    ["RaftNode", "MetaState", "MetaCommand", "tenantdb_consensus"]
        .iter()
        .any(|t| code.contains(t))
}

/// Does this code line grab the raw log handles (`Engine::wal()`, every
/// database's log)? Outside `crates/storage` that bypasses the stable
/// per-database LSN-cursor surface.
fn grabs_raw_wal(code: &str) -> bool {
    code.contains(".wal()")
}

/// If this code line opens a registry `.counter(` / `.gauge(` /
/// `.histogram(` call, the index of the line its argument list closes on
/// (string literals are blanked, so only code parentheses count).
fn series_call_lines(code: &[String], idx: usize) -> Option<usize> {
    let open = [".counter(", ".gauge(", ".histogram("]
        .iter()
        .filter_map(|t| code[idx].find(t).map(|p| p + t.len()))
        .min()?;
    let mut depth = 1;
    let mut rest = &code[idx][open..];
    for (end, _) in code.iter().enumerate().skip(idx) {
        for c in rest.chars() {
            depth += match c {
                '(' => 1,
                ')' => -1,
                _ => 0,
            };
            if depth == 0 {
                return Some(end);
            }
        }
        rest = code.get(end + 1).map_or("", String::as_str);
    }
    Some(code.len() - 1)
}

/// The weak ordering named on this line, if any. SeqCst is exempt.
fn weak_ordering_in(code: &str) -> Option<&'static str> {
    for ord in ["Relaxed", "Acquire", "Release", "AcqRel"] {
        if code.contains(&format!("Ordering::{ord}")) {
            return Some(ord);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(path: &str, src: &str) -> Vec<&'static str> {
        lint_file(&crate::model::parse_file(path, src))
            .into_iter()
            .map(|v| v.rule)
            .collect()
    }

    #[test]
    fn raw_lock_flagged_in_cluster_storage_and_net() {
        let src = "use std::sync::{Arc, Mutex};\n";
        assert_eq!(rules("crates/cluster/src/pool.rs", src), vec!["raw-lock"]);
        assert_eq!(rules("crates/storage/src/lock.rs", src), vec!["raw-lock"]);
        assert_eq!(rules("crates/net/src/server.rs", src), vec!["raw-lock"]);
        let pl = "let m = parking_lot::Mutex::new(0);\n";
        assert_eq!(rules("crates/cluster/src/pool.rs", pl), vec!["raw-lock"]);
        let rw = "use parking_lot::RwLock;\n";
        assert_eq!(rules("crates/core/src/system.rs", rw), vec!["raw-lock"]);
        assert_eq!(rules("crates/georep/src/stream.rs", pl), vec!["raw-lock"]);
        assert_eq!(rules("crates/sim/src/scenarios.rs", pl), vec!["raw-lock"]);
        assert!(rules("crates/cluster/src/sync.rs", src).is_empty());
        assert!(rules("crates/obs/src/lib.rs", src).is_empty());
    }

    #[test]
    fn raw_lock_escape_hatch() {
        let src = "// lint:allow(raw-lock)\nuse std::sync::Mutex;\n";
        assert!(rules("crates/cluster/src/pool.rs", src).is_empty());
        let same_line = "use std::sync::Mutex; // lint:allow(raw-lock)\n";
        assert!(rules("crates/cluster/src/pool.rs", same_line).is_empty());
    }

    #[test]
    fn unwrap_flagged_only_in_hot_path_files() {
        let src = "fn f() { let x = y.unwrap(); }\n";
        assert_eq!(rules("crates/cluster/src/worker.rs", src), vec!["unwrap"]);
        assert!(rules("crates/cluster/src/metrics.rs", src).is_empty());
        assert!(rules("crates/storage/src/engine.rs", src).is_empty());
    }

    #[test]
    fn expect_escape_requires_a_reason() {
        let bare = "// lint:allow(expect):\nt.expect(\"boom\");\n";
        assert_eq!(rules("crates/cluster/src/pool.rs", bare), vec!["unwrap"]);
        let reasoned = "// lint:allow(expect): thread exhaustion is fatal\nt.expect(\"boom\");\n";
        assert!(rules("crates/cluster/src/pool.rs", reasoned).is_empty());
    }

    #[test]
    fn cfg_test_region_is_exempt_from_all_rules() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::sync::Mutex;\n    \
                   fn f() { x.unwrap(); y.load(Ordering::Relaxed); }\n}\n";
        assert!(rules("crates/cluster/src/pool.rs", src).is_empty());
    }

    #[test]
    fn code_after_a_test_item_is_still_checked() {
        // The old lint exempted everything from the first `#[cfg(test)]`
        // to EOF; attribute scoping also checks what follows the item.
        let src = "#[cfg(test)]\nmod tests { fn t() {} }\nfn live() { x.unwrap(); }\n";
        assert_eq!(rules("crates/cluster/src/pool.rs", src), vec!["unwrap"]);
    }

    #[test]
    fn weak_ordering_requires_annotation_within_four_lines() {
        let bad = "flag.store(true, Ordering::Release);\n";
        assert_eq!(rules("crates/obs/src/lib.rs", bad), vec!["ordering"]);
        let good = "// ordering: Release — pairs with the Acquire load in f().\n\
                    flag.store(true, Ordering::Release);\n";
        assert!(rules("crates/obs/src/lib.rs", good).is_empty());
        let too_far = "// ordering: Relaxed — advisory counter.\n//\n//\n//\n//\n\
                       c.fetch_add(1, Ordering::Relaxed);\n";
        assert_eq!(rules("crates/obs/src/lib.rs", too_far), vec!["ordering"]);
        let seqcst = "c.fetch_add(1, Ordering::SeqCst);\n";
        assert!(rules("crates/obs/src/lib.rs", seqcst).is_empty());
    }

    #[test]
    fn net_timeout_requires_both_timeouts_or_nonblocking() {
        let bare = "let (stream, peer) = listener.accept()?;\n";
        assert_eq!(rules("crates/net/src/server.rs", bare), vec!["net-timeout"]);
        let both = "let stream = TcpStream::connect(addr)?;\n\
                    stream.set_read_timeout(Some(t))?;\n\
                    stream.set_write_timeout(Some(t))?;\n";
        assert!(rules("crates/net/src/client.rs", both).is_empty());
        let nonblocking = "let (stream, peer) = listener.accept()?;\n\
                           stream.set_nonblocking(true)?;\n";
        assert!(rules("crates/net/src/server.rs", nonblocking).is_empty());
        let blocking = "let (stream, peer) = listener.accept()?;\n\
                        stream.set_nonblocking(false)?;\n";
        assert_eq!(
            rules("crates/net/src/server.rs", blocking),
            vec!["net-timeout"]
        );
        // Out of scope elsewhere.
        let src = "let s = TcpStream::connect(a)?;\n";
        assert!(rules("crates/cluster/src/pool.rs", src).is_empty());
    }

    #[test]
    fn reactor_block_flags_blocking_calls_with_reasoned_escape() {
        let sleep = "thread::sleep(Duration::from_millis(2));\n";
        assert_eq!(
            rules("crates/net/src/reactor.rs", sleep),
            vec!["reactor-block"]
        );
        assert!(rules("crates/net/src/client.rs", sleep).is_empty());
        let reasoned = "// lint:allow(reactor-block): fallback tick poller, not epoll\n\
                        thread::sleep(d);\n";
        assert!(rules("crates/net/src/reactor.rs", reasoned).is_empty());
    }

    #[test]
    fn ctrl_apply_flags_consensus_internals_outside_meta() {
        for src in [
            "use tenantdb_consensus::RaftNode;\n",
            "let n: RaftNode<MetaCommand> = make();\n",
            "fn peek(st: &MetaState) {}\n",
        ] {
            assert_eq!(
                rules("crates/cluster/src/controller.rs", src),
                vec!["ctrl-apply"],
                "{src:?}"
            );
        }
        let src = "use tenantdb_consensus::{RaftNode, StateMachine};\n";
        assert!(rules("crates/cluster/src/meta.rs", src).is_empty());
        assert!(rules("crates/consensus/src/lib.rs", src).is_empty());
    }

    #[test]
    fn wal_access_flagged_outside_storage() {
        let src = "let tail = m.engine.wal().snapshot();\n";
        assert_eq!(
            rules("crates/cluster/src/recovery.rs", src),
            vec!["wal-access"]
        );
        assert_eq!(rules("crates/georep/src/ship.rs", src), vec!["wal-access"]);
        let one_db = "let log = m.engine.wal().get(&self.db);\n";
        assert_eq!(
            rules("crates/georep/src/ship.rs", one_db),
            vec!["wal-access"]
        );
        // The WAL's own crate may touch its raw handle freely.
        assert!(rules("crates/storage/src/engine.rs", src).is_empty());
        // The stable Engine surface is the sanctioned path.
        let stable = "let tail = m.engine.wal_tail_from_capped(&self.db, cursor, 64);\n";
        assert!(rules("crates/georep/src/ship.rs", stable).is_empty());
        let reasoned = "// lint:allow(wal-access): asserts raw record layout\n\
                        let w = m.engine.wal();\n";
        assert!(rules("crates/cluster/src/recovery.rs", reasoned).is_empty());
    }

    #[test]
    fn tenant_series_flagged_outside_metrics_rs() {
        let flagged = "fn f(r: &MetricsRegistry, db: &str) {\n\
                       r.counter(COPIED, &[(\"db\", db)]).inc();\n}\n";
        let split = "let g = self\n    .registry\n    .gauge(\n        LAG,\n        \
                     &[(\"db\", db)],\n    );\n";
        for src in [flagged, split] {
            assert_eq!(
                rules("crates/cluster/src/controller.rs", src),
                vec!["tenant-series"],
                "{src:?}"
            );
        }
        // Sanctioned: a crate's metrics.rs, and series without a `db` label.
        assert!(rules("crates/georep/src/metrics.rs", flagged).is_empty());
        let unlabelled = "m.counter(\"tenantdb_net_frames_total\", &[(\"kind\", k)]);\n\
                          let n = reg.counter_value(X, &[(\"db\", db)]);\n";
        assert!(rules("crates/net/src/server.rs", unlabelled).is_empty());
        // A test may make any series it likes.
        let test = format!("#[cfg(test)]\nmod tests {{\n{flagged}}}\n");
        assert!(rules("crates/cluster/src/controller.rs", &test).is_empty());
    }

    #[test]
    fn comment_mentions_do_not_trip_rules() {
        let src = "// std::sync::Mutex would deadlock here; Ordering::Relaxed too.\n\
                   // and .unwrap() is also only mentioned\n";
        assert!(rules("crates/cluster/src/pool.rs", src).is_empty());
    }

    /// Regression: the old per-line lint split the line at the first `//`
    /// even when it was inside a string literal, so code *after* such a
    /// string was never checked. The token-hosted rules see it.
    #[test]
    fn code_after_a_string_containing_slashes_is_checked() {
        let src = "fn f() { let msg = \"see https://example.com\"; y.unwrap(); }\n";
        assert_eq!(rules("crates/cluster/src/worker.rs", src), vec!["unwrap"]);
        let lock = "fn f() { let m = \"a // b\"; let g = std::sync::Mutex::new(0); }\n";
        assert_eq!(rules("crates/cluster/src/pool.rs", lock), vec!["raw-lock"]);
    }

    /// Regression (reverse direction): rule tokens inside string literals
    /// must not false-positive, and escape markers inside strings must not
    /// false-suppress.
    #[test]
    fn rule_tokens_inside_strings_are_invisible() {
        let helptext = "let help = \"calls thread::sleep( internally\";\n";
        assert!(rules("crates/net/src/reactor.rs", helptext).is_empty());
        let fake_escape = "let s = \"lint:allow(unwrap): not a comment\";\nx.unwrap();\n";
        assert_eq!(
            rules("crates/cluster/src/worker.rs", fake_escape),
            vec!["unwrap"]
        );
        let ordering_str = "let s = \"Ordering::Relaxed\";\n";
        assert!(rules("crates/obs/src/lib.rs", ordering_str).is_empty());
    }
}
