//! tenantdb-analyze — token-level static analyzer for the tenantdb
//! workspace (DESIGN.md §14).
//!
//! Two layers, both std-only and total (never panic on malformed input):
//!
//! * **rules** — the six line-oriented lint rules, re-hosted from the old
//!   regex linter onto the token stream. Tokens inside string literals are
//!   invisible to the matchers, killing the documented
//!   `raw.split("//")` class of false negatives, and `#[cfg(test)]`
//!   masking is attribute-scoped rather than first-marker-to-EOF.
//! * **passes** — four semantic, cross-file passes over the parsed
//!   workspace model: static lock-rank ordering, crash-point coverage,
//!   wire exhaustiveness, and metric-name drift. ("May this thread
//!   block?" is not among them: that is a runtime property, asserted by
//!   `tenantdb-lockdep`'s reactor mark inside the blocking primitives.)
//!
//! `cargo run -p xtask -- lint` runs the rules; `cargo run -p xtask --
//! analyze` runs the passes. Both gate CI.

pub mod diag;
pub mod lexer;
pub mod model;

pub mod coverage;
pub mod lock_rank;
pub mod metric_drift;
pub mod rules;
pub mod wirecheck;

pub use diag::Diag;
pub use model::Workspace;

/// The six re-hosted line rules (the `lint` gate).
pub fn lint(ws: &Workspace) -> Vec<Diag> {
    rules::run(ws)
}

/// The four semantic passes (the `analyze` gate).
pub fn analyze(ws: &Workspace) -> Vec<Diag> {
    let mut out = Vec::new();
    out.extend(lock_rank::run(ws));
    out.extend(coverage::run(ws));
    out.extend(wirecheck::run(ws, &wirecheck::LIVE_TRIPLES));
    out.extend(metric_drift::run(ws));
    diag::sort(&mut out);
    out
}

#[cfg(test)]
mod live_tree {
    //! Self-test: the analyzer must hold on the tree it ships in.

    use super::*;

    fn workspace_root() -> std::path::PathBuf {
        // crates/analyze → workspace root is two levels up.
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root")
            .to_path_buf()
    }

    #[test]
    fn live_tree_is_lint_clean() {
        let ws = Workspace::load(&workspace_root());
        assert!(ws.files.len() > 20, "workspace walk found too few files");
        let diags = lint(&ws);
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

    #[test]
    fn live_tree_is_analyze_clean() {
        let ws = Workspace::load(&workspace_root());
        let diags = analyze(&ws);
        assert!(
            diags.is_empty(),
            "analyze violations on the live tree:\n{}",
            diags
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn live_tree_exercises_every_pass_surface() {
        // The pass configuration must keep matching the tree: the lock
        // classes, the CrashPoint enum, the wire triples, and the metric
        // literals all have to be found, otherwise a rename would silently
        // turn a pass into a no-op.
        let ws = Workspace::load(&workspace_root());
        assert!(
            !lock_rank::collect_classes(&ws).is_empty(),
            "no LockClass declarations found — lock-rank pass is a no-op"
        );
        assert!(
            !ws.enums_named("CrashPoint").is_empty(),
            "CrashPoint enum not found — crash-coverage pass is a no-op"
        );
        for t in &wirecheck::LIVE_TRIPLES {
            assert!(
                !ws.enums_named(t.enum_name).is_empty(),
                "wire triple enum `{}` not found",
                t.enum_name
            );
        }
    }
}
