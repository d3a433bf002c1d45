//! Compiler-style diagnostics shared by every rule.

use std::fmt;

/// One finding, formatted like a compiler diagnostic (`file:line: [rule]
/// message`) so editors and CI logs can jump straight to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diag {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based source line the finding anchors to.
    pub line: usize,
    /// Short rule identifier (`raw-lock`, `ordering`, …).
    pub rule: &'static str,
    /// What went wrong and how to fix or justify it.
    pub message: String,
}

impl fmt::Display for Diag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Sort diagnostics for stable output: by file, then line, then rule.
pub fn sort(diags: &mut [Diag]) {
    diags.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule, a.message.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.rule,
            b.message.as_str(),
        ))
    });
}
