//! Repo-local task runner (`cargo xtask` pattern — a plain binary crate, no
//! extra tooling). Two subcommands:
//!
//! * `lint` — the concurrency-hygiene line rules of [`rules`] (DESIGN.md
//!   §10.5). They run on a real token stream ([`lexer`] → [`model`] →
//!   [`rules`]), so rule tokens inside string literals neither trigger nor
//!   suppress them, and `#[cfg(test)]` exemption is attribute-scoped.
//! * `lines` — non-test lines per crate and in total, with and without
//!   this crate ([`lines`]): the size a change quotes.
//!
//! `lint` prints compiler-style `file:line: [rule] message` diagnostics
//! and exits 1 on any finding; it gates CI. `lines` only reports.

mod diag;
mod lexer;
mod lines;
mod model;
mod rules;

use std::path::{Path, PathBuf};

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("lint") => {
            let diags = rules::run(&model::load(&workspace_root()));
            if diags.is_empty() {
                println!("xtask lint: clean");
            } else {
                for d in &diags {
                    eprintln!("{d}");
                }
                eprintln!("\nxtask lint: {} violation(s)", diags.len());
                std::process::exit(1);
            }
        }
        Some("lines") => {
            let sources = model::sources(&workspace_root());
            print!("{}", lines::report(&lines::per_crate(&sources)));
        }
        other => {
            eprintln!(
                "usage: cargo run -p xtask -- lint|lines   (got {:?})",
                other.unwrap_or("<none>")
            );
            std::process::exit(2);
        }
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

#[cfg(test)]
mod live_tree {
    //! Self-test: the lint must hold on the tree it ships in.

    use super::*;

    #[test]
    fn live_tree_is_lint_clean() {
        let files = model::load(&workspace_root());
        assert!(files.len() > 20, "workspace walk found too few files");
        let diags = rules::run(&files);
        assert!(
            diags.is_empty(),
            "lint violations on the live tree:\n{}",
            diags
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
