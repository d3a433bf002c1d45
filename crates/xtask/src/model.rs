//! The per-file model the line rules run on: each source file lexed to a
//! token stream, `#[cfg(test)]` scoping resolved per token, and the
//! result folded into per-line code / comment / is-test views.

use std::path::Path;

use crate::lexer::{lex, Tok, TokKind};

/// One source file, as the rules see it.
#[derive(Debug)]
pub struct File {
    /// Workspace-relative path with forward slashes
    /// (`crates/cluster/src/pool.rs`).
    pub path: String,
    /// Per-line reconstruction of the *code* on that line: non-comment
    /// token texts concatenated, string literals replaced by `""`.
    /// Index 0 is line 1.
    pub code_lines: Vec<String>,
    /// [`Self::code_lines`] with each string literal's contents kept
    /// (`"db"`), for rules that key on a literal.
    pub text_lines: Vec<String>,
    /// Per-line concatenation of comment-token texts (where the escape
    /// markers live). Index 0 is line 1.
    pub comment_lines: Vec<String>,
    /// Per-line: true when every code token starting on this line is inside
    /// a `#[cfg(test)]`-scoped item or a `#[test]` function (or the line
    /// has no code tokens at all). Real attribute scoping, not
    /// first-marker-to-EOF.
    pub test_lines: Vec<bool>,
}

/// Every `crates/*/src/**/*.rs` file of the live tree, in path order.
pub fn load(root: &Path) -> Vec<File> {
    sources(root)
        .iter()
        .map(|(path, contents)| parse_file(path, contents))
        .collect()
}

/// `(workspace-relative path, contents)` of every `crates/*/src/**/*.rs`
/// file of the live tree, in path order.
pub fn sources(root: &Path) -> Vec<(String, String)> {
    let mut files = Vec::new();
    let Ok(entries) = std::fs::read_dir(root.join("crates")) else {
        return files;
    };
    let mut dirs: Vec<_> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    dirs.sort();
    for dir in dirs {
        collect_rs(&dir.join("src"), root, &mut files);
    }
    files
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<(String, String)>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_rs(&path, root, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            if let Ok(contents) = std::fs::read_to_string(&path) {
                out.push((rel, contents));
            }
        }
    }
}

/// Lex one file and derive the token mask + line views.
pub fn parse_file(path: &str, contents: &str) -> File {
    let toks = lex(contents);
    let test_mask = compute_test_mask(&toks);
    let nlines = contents.lines().count().max(1);
    let mut code_lines = vec![String::new(); nlines];
    let mut text_lines = vec![String::new(); nlines];
    let mut comment_lines = vec![String::new(); nlines];
    let mut line_has_nontest_code = vec![false; nlines];
    for (i, t) in toks.iter().enumerate() {
        let idx = (t.line - 1).min(nlines - 1);
        if t.is_comment() {
            comment_lines[idx].push_str(&t.text);
            comment_lines[idx].push(' ');
        } else {
            if !test_mask[i] {
                line_has_nontest_code[idx] = true;
            }
            let code = match t.kind {
                TokKind::Str => {
                    text_lines[idx].push_str(&format!("\"{}\"", t.text));
                    code_lines[idx].push_str("\"\"");
                    continue;
                }
                TokKind::Char => format!("'{}'", t.text),
                _ => t.text.clone(),
            };
            text_lines[idx].push_str(&code);
            code_lines[idx].push_str(&code);
        }
    }
    let test_lines = (0..nlines).map(|i| !line_has_nontest_code[i]).collect();
    File {
        path: path.to_string(),
        code_lines,
        text_lines,
        comment_lines,
        test_lines,
    }
}

/// Attribute-scoped test regions: a `#[cfg(test)]`/`#[cfg(any(.., test,
/// ..))]`/`#[test]` attribute exempts exactly the item it is attached to
/// (through the matching close brace or terminating semicolon), not
/// everything to EOF.
fn compute_test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let code: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
    let mut k = 0usize;
    while k < code.len() {
        let i = code[k];
        if toks[i].text == "#" && toks[i].kind == TokKind::Punct {
            // Parse the attribute: #[ ... ] (or #![ ... ]).
            let mut a = k + 1;
            if a < code.len() && toks[code[a]].text == "!" {
                a += 1;
            }
            if a < code.len() && toks[code[a]].text == "[" {
                let attr_start = a;
                let mut depth = 0i32;
                let mut is_test_attr = false;
                let mut first_inner: Option<&str> = None;
                let mut saw_test_ident = false;
                let mut inner: Vec<&str> = Vec::new();
                let mut j = a;
                while j < code.len() {
                    let t = &toks[code[j]];
                    match t.text.as_str() {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {
                            if j > attr_start {
                                if first_inner.is_none() && t.kind == TokKind::Ident {
                                    first_inner = Some(&t.text);
                                }
                                // `test` counts unless negated: `not(test)`.
                                if t.kind == TokKind::Ident
                                    && t.text == "test"
                                    && inner.len().checked_sub(2).map(|p| inner[p]) != Some("not")
                                {
                                    saw_test_ident = true;
                                }
                                inner.push(&t.text);
                            }
                        }
                    }
                    j += 1;
                }
                match first_inner {
                    Some("test") => is_test_attr = true,
                    Some("cfg") | Some("cfg_attr") if saw_test_ident => is_test_attr = true,
                    _ => {}
                }
                if is_test_attr && j < code.len() {
                    // Mark from the attribute through the end of the item
                    // it is attached to.
                    let item_end = item_end_after(toks, &code, j + 1);
                    for &ci in &code[k..item_end.min(code.len())] {
                        mask[ci] = true;
                    }
                    // Comments inside the span are masked too (harmless).
                    k = item_end;
                    continue;
                }
                k = j + 1;
                continue;
            }
        }
        k += 1;
    }
    mask
}

/// Given `code` (indices of non-comment tokens) and a start position (in
/// `code`-space) just after an attribute, return the `code`-space index one
/// past the end of the attached item: through the matching `}` of the first
/// top-level brace block, or through the first `;` at top level if no brace
/// comes first. Skips any further stacked attributes.
fn item_end_after(toks: &[Tok], code: &[usize], mut k: usize) -> usize {
    // Skip stacked attributes.
    while k < code.len() && toks[code[k]].text == "#" {
        let mut depth = 0i32;
        let mut j = k + 1;
        if j < code.len() && toks[code[j]].text == "!" {
            j += 1;
        }
        while j < code.len() {
            match toks[code[j]].text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        k = j + 1;
    }
    let (mut paren, mut bracket, mut brace) = (0i32, 0i32, 0i32);
    let mut entered_brace = false;
    while k < code.len() {
        match toks[code[k]].text.as_str() {
            "(" => paren += 1,
            ")" => paren -= 1,
            "[" => bracket += 1,
            "]" => bracket -= 1,
            "{" => {
                brace += 1;
                entered_brace = true;
            }
            "}" => {
                brace -= 1;
                if entered_brace && brace == 0 {
                    return k + 1;
                }
            }
            ";" if paren == 0 && bracket == 0 && brace == 0 => return k + 1,
            _ => {}
        }
        k += 1;
    }
    code.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_lines(src: &str) -> Vec<bool> {
        parse_file("crates/x/src/lib.rs", src).test_lines
    }

    #[test]
    fn cfg_test_masks_only_the_attached_item() {
        let src =
            "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn t() {} }\nfn also_live() {}\n";
        assert_eq!(test_lines(src), vec![false, true, true, false]);
    }

    #[test]
    fn test_attr_masks_single_fn() {
        let src = "#[test]\nfn a_test() {}\nfn real() {}\n";
        assert_eq!(test_lines(src), vec![true, true, false]);
    }

    #[test]
    fn line_views_replace_strings_and_split_comments() {
        let src = "let m = \"a // b\"; x.unwrap(); // lint:allow(unwrap): fine\n";
        let f = parse_file("crates/x/src/lib.rs", src);
        assert_eq!(f.code_lines[0], "letm=\"\";x.unwrap();");
        assert!(f.comment_lines[0].contains("lint:allow(unwrap): fine"));
    }
}
