//! Pass 3 — crash-point coverage.
//!
//! Every `CrashPoint` variant must be *armed* somewhere: referenced by a
//! sim scenario or a scripted/e2e test outside its defining enum. A
//! variant that only appears at hook call sites (`.check(CrashPoint::X`,
//! `fault_sever(CrashPoint::X`, …) is instrumented but never exercised —
//! the hook fires only if a test arms the point, so an unarmed variant is
//! dead fault-injection surface and its recovery path is untested.
//!
//! Escape: `// analyze:allow(crash-coverage): <reason>` on or just above
//! the variant declaration.

use std::collections::HashSet;

use crate::diag::Diag;
use crate::model::Workspace;

const RULE: &str = "crash-coverage";

/// Idents that mean "this reference is the instrumentation hook itself,
/// not a test arming the point".
const HOOK_CALLERS: [&str; 4] = ["check", "fault_hook", "fault_sever", "copy_fault_hook"];

pub fn run(ws: &Workspace) -> Vec<Diag> {
    let mut out = Vec::new();
    for e in ws.enums_named("CrashPoint") {
        let def_file = e.file;
        let mut armed: HashSet<&str> = HashSet::new();
        for (fi, file) in ws.files.iter().enumerate() {
            let toks = &file.toks;
            let code: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
            for w in 0..code.len().saturating_sub(2) {
                let (a, b, c) = (code[w], code[w + 1], code[w + 2]);
                if toks[a].text != "CrashPoint" || toks[b].text != "::" {
                    continue;
                }
                let variant = toks[c].text.as_str();
                if !e.variants.iter().any(|(v, _)| v == variant) {
                    continue;
                }
                // The defining enum (and its impl with ALL/Display) does
                // not count as arming.
                if fi == def_file {
                    continue;
                }
                if is_hook_site(toks, &code, w) {
                    continue;
                }
                armed.insert(match e.variants.iter().find(|(v, _)| v == variant) {
                    Some((v, _)) => v.as_str(),
                    None => continue,
                });
            }
        }
        for (variant, line) in &e.variants {
            if armed.contains(variant.as_str()) {
                continue;
            }
            if ws.allowed(def_file, *line, "analyze:allow(crash-coverage)") {
                continue;
            }
            out.push(Diag {
                file: ws.files[def_file].path.clone(),
                line: *line,
                rule: RULE,
                message: format!(
                    "CrashPoint::{variant} is never armed by any scenario or test — \
                     its recovery path is unexercised; arm it (see sim scenarios / e2e \
                     crash tests) or justify with // analyze:allow(crash-coverage): <reason>"
                ),
            });
        }
    }
    crate::diag::sort(&mut out);
    out
}

/// Is the `CrashPoint` reference starting at code-position `w` an
/// argument of an instrumentation hook call? Scan back a few code tokens
/// for `HOOK ( … CrashPoint` with no intervening `)` or `;`.
fn is_hook_site(toks: &[crate::lexer::Tok], code: &[usize], w: usize) -> bool {
    let lo = w.saturating_sub(8);
    for p in (lo..w).rev() {
        let t = toks[code[p]].text.as_str();
        if t == ";" || t == "{" || t == "}" || t == ")" {
            return false;
        }
        if t == "(" && p > 0 {
            let callee = toks[code[p - 1]].text.as_str();
            return HOOK_CALLERS.contains(&callee);
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    const ENUM: &str = "pub enum CrashPoint { AfterWal, BeforeAck, Orphan }\n";

    #[test]
    fn unarmed_variant_fires() {
        let ws = Workspace::from_files(&[
            ("crates/cluster/src/fault.rs", ENUM),
            (
                "crates/sim/src/scenarios.rs",
                "fn s() { crash(CrashPoint::AfterWal, m, 0); arm(CrashPoint::BeforeAck); }\n",
            ),
        ]);
        let d = run(&ws);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(
            d[0].message.contains("CrashPoint::Orphan"),
            "{}",
            d[0].message
        );
        assert_eq!(d[0].file, "crates/cluster/src/fault.rs");
    }

    #[test]
    fn hook_sites_do_not_count_as_arming() {
        let ws = Workspace::from_files(&[
            ("crates/cluster/src/fault.rs", ENUM),
            (
                "crates/cluster/src/controller.rs",
                "fn t(&self) { f.check(CrashPoint::Orphan, m); fault_sever(CrashPoint::BeforeAck, x); }\n",
            ),
            (
                "crates/sim/src/scenarios.rs",
                "fn s() { crash(CrashPoint::AfterWal, m, 0); }\n",
            ),
        ]);
        let d = run(&ws);
        // Orphan and BeforeAck appear only at hook sites → both unarmed.
        assert_eq!(d.len(), 2, "{d:?}");
    }

    #[test]
    fn references_in_the_defining_file_do_not_count() {
        let ws = Workspace::from_files(&[(
            "crates/cluster/src/fault.rs",
            "pub enum CrashPoint { AfterWal }\n\
             impl CrashPoint { pub const ALL: &[CrashPoint] = &[CrashPoint::AfterWal]; }\n",
        )]);
        let d = run(&ws);
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn allow_with_reason_suppresses() {
        let ws = Workspace::from_files(&[(
            "crates/cluster/src/fault.rs",
            "pub enum CrashPoint {\n\
             // analyze:allow(crash-coverage): reserved for the next recovery milestone\n\
             Orphan,\n}\n",
        )]);
        let d = run(&ws);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn arming_in_tests_dir_counts() {
        let ws = Workspace::from_files(&[
            (
                "crates/cluster/src/fault.rs",
                "pub enum CrashPoint { AfterWal }\n",
            ),
            (
                "crates/net/tests/e2e.rs",
                "fn t() { faults.arm(CrashPoint::AfterWal, 1); }\n",
            ),
        ]);
        let d = run(&ws);
        assert!(d.is_empty(), "{d:?}");
    }
}
