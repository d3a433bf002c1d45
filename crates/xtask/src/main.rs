//! Repo-local task runner (`cargo xtask` pattern — a plain binary crate, no
//! extra tooling). Two subcommands:
//!
//! * `lint` — the six concurrency-hygiene line rules documented in
//!   DESIGN.md §10 (raw-lock, unwrap, ordering, net-timeout,
//!   reactor-block, ctrl-apply). Since the `tenantdb-analyze` rewrite
//!   these run on a real token stream ([`tenantdb_analyze::rules`]), so
//!   rule tokens inside string literals neither trigger nor suppress
//!   them, and `#[cfg(test)]` exemption is attribute-scoped instead of
//!   first-marker-to-EOF.
//! * `analyze` — the four semantic cross-file passes from DESIGN.md §14:
//!   static lock-rank ordering, crash-point coverage, wire
//!   exhaustiveness, and metric-name drift.
//!
//! `lint` and `analyze` print compiler-style `file:line: [rule] message`
//! diagnostics and exit 1 on any finding; both gate CI.

use std::path::{Path, PathBuf};

use tenantdb_analyze::{analyze, lint, Diag, Workspace};

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("lint") => {
            let ws = Workspace::load(&workspace_root());
            report("lint", &lint(&ws));
        }
        Some("analyze") => {
            let ws = Workspace::load(&workspace_root());
            report("analyze", &analyze(&ws));
        }
        other => {
            eprintln!(
                "usage: cargo run -p xtask -- <lint|analyze>   (got {:?})",
                other.unwrap_or("<none>")
            );
            std::process::exit(2);
        }
    }
}

fn report(what: &str, diags: &[Diag]) {
    if diags.is_empty() {
        println!("xtask {what}: clean");
    } else {
        for d in diags {
            eprintln!("{d}");
        }
        eprintln!("\nxtask {what}: {} violation(s)", diags.len());
        std::process::exit(1);
    }
}

/// The workspace root, resolved from this crate's manifest directory so the
/// tool works from any working directory.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask lives two levels below the workspace root")
        .to_path_buf()
}
