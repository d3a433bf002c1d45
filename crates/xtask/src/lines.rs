//! `lines` — the size of the code: non-test lines per crate, each
//! `crates/*/src/**/*.rs` file counted up to its first top-level
//! `#[cfg(test)]` (one at the start of a line; an indented one, inside an
//! item, does not end the count). Blank and comment lines count.

use std::collections::BTreeMap;

/// Lines of `text` before its first top-level `#[cfg(test)]` (all of
/// them if it has none).
pub fn non_test_lines(text: &str) -> usize {
    text.lines()
        .take_while(|line| !line.starts_with("#[cfg(test)]"))
        .count()
}

/// Non-test lines per crate (its directory under `crates/`), from
/// `(workspace-relative path, contents)` pairs.
pub fn per_crate(sources: &[(String, String)]) -> BTreeMap<&str, usize> {
    let mut counts = BTreeMap::new();
    for (path, text) in sources {
        let krate = path.split('/').nth(1).unwrap_or(path);
        *counts.entry(krate).or_default() += non_test_lines(text);
    }
    counts
}

/// One line per crate, then the total with and without `xtask`.
pub fn report(counts: &BTreeMap<&str, usize>) -> String {
    let total: usize = counts.values().sum();
    let tool = counts.get("xtask").copied().unwrap_or(0);
    let mut out = String::new();
    for (krate, n) in counts {
        out += &format!("{krate:<20} {n:>6}\n");
    }
    out += &format!("{:<20} {total:>6}\n", "total");
    out += &format!("{:<20} {:>6}\n", "total without xtask", total - tool);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_top_level_cfg_test_ends_the_count_an_indented_one_does_not() {
        let text =
            "fn a() {}\nmod m {\n    #[cfg(test)]\n    fn t() {}\n}\n#[cfg(test)]\nmod tests {}\n";
        assert_eq!(non_test_lines(text), 5);
        assert_eq!(non_test_lines("fn a() {}\n\n// note\n"), 3);
        assert_eq!(non_test_lines("#[cfg(test)]\nmod tests {}\n"), 0);
    }

    #[test]
    fn counts_sum_per_crate_and_leave_xtask_out_of_one_total() {
        let file = |path: &str, text: &str| (path.to_string(), text.to_string());
        let sources = [
            file("crates/a/src/lib.rs", "1\n2\n#[cfg(test)]\n3\n"),
            file("crates/a/src/x/y.rs", "1\n"),
            file("crates/xtask/src/main.rs", "1\n2\n"),
        ];
        let counts = per_crate(&sources);
        assert_eq!(counts, BTreeMap::from([("a", 3), ("xtask", 2)]));
        let report = report(&counts);
        assert!(report.contains("total                     5\n"), "{report}");
        assert!(
            report.ends_with("total without xtask       3\n"),
            "{report}"
        );
    }
}
