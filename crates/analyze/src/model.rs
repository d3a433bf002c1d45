//! The queryable workspace model: files lexed to token streams, plus the
//! item-level structure the passes need — `fn` items with body spans,
//! `enum` variant lists, `#[cfg(test)]` scoping, and per-line code/comment
//! views for the line-window rules.

use std::collections::HashMap;
use std::path::Path;

use crate::lexer::{lex, Tok, TokKind};

/// One parsed source file.
#[derive(Debug)]
pub struct File {
    /// Workspace-relative path with forward slashes
    /// (`crates/cluster/src/pool.rs`).
    pub path: String,
    /// Full token stream, comments included.
    pub toks: Vec<Tok>,
    /// Per-token: is this token inside a `#[cfg(test)]`-scoped item or a
    /// `#[test]` function? (Real attribute scoping, not first-marker-to-EOF.)
    pub test_mask: Vec<bool>,
    /// Whether the file itself lives in a `tests/` directory (integration
    /// tests — exempt from the hygiene rules, but *counted* by the
    /// crash-point coverage pass, which looks for arming sites in tests).
    pub in_tests_dir: bool,
    /// Per-line reconstruction of the *code* on that line: non-comment
    /// token texts concatenated, string literals replaced by `""`.
    /// Index 0 is line 1.
    pub code_lines: Vec<String>,
    /// Per-line concatenation of comment-token texts (where the escape
    /// markers live). Index 0 is line 1.
    pub comment_lines: Vec<String>,
    /// Per-line: true when every code token starting on this line is inside
    /// a test region (or the line has no code tokens at all).
    pub test_lines: Vec<bool>,
}

/// A `fn` item.
#[derive(Debug)]
pub struct FnItem {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Bare function name.
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: usize,
    /// Token-index range of the body, **inside** the outer braces
    /// (start = first token after `{`, end = index of the matching `}`,
    /// exclusive). `None` for bodyless trait-method declarations.
    pub body: Option<(usize, usize)>,
    /// Whole item (including the body braces) is inside a test region.
    pub is_test: bool,
}

/// An `enum` definition.
#[derive(Debug)]
pub struct EnumDef {
    pub file: usize,
    pub name: String,
    pub line: usize,
    /// Variant names with the line each is declared on.
    pub variants: Vec<(String, usize)>,
}

/// The whole workspace, ready for the passes.
pub struct Workspace {
    pub files: Vec<File>,
    /// Documentation files ((path, contents)) — DESIGN.md and friends, for
    /// the metric-drift pass.
    pub docs: Vec<(String, String)>,
    pub fns: Vec<FnItem>,
    pub enums: Vec<EnumDef>,
}

impl Workspace {
    /// Load the live tree: every `crates/*/src/**/*.rs` and
    /// `crates/*/tests/**/*.rs` file plus the top-level `tests/` directory
    /// and `DESIGN.md`.
    pub fn load(root: &Path) -> Workspace {
        let mut inputs: Vec<(String, String)> = Vec::new();
        let crates_dir = root.join("crates");
        if let Ok(entries) = std::fs::read_dir(&crates_dir) {
            let mut dirs: Vec<_> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
            dirs.sort();
            for dir in dirs {
                for sub in ["src", "tests"] {
                    let d = dir.join(sub);
                    if d.is_dir() {
                        collect_rs(&d, root, &mut inputs);
                    }
                }
            }
        }
        let top_tests = root.join("tests");
        if top_tests.is_dir() {
            collect_rs(&top_tests, root, &mut inputs);
        }
        let design = root.join("DESIGN.md");
        if let Ok(text) = std::fs::read_to_string(&design) {
            inputs.push(("DESIGN.md".to_string(), text));
        }
        let borrowed: Vec<(&str, &str)> = inputs
            .iter()
            .map(|(p, c)| (p.as_str(), c.as_str()))
            .collect();
        Workspace::from_files(&borrowed)
    }

    /// Build a workspace from in-memory files — the teeth-test fixture API.
    /// Paths ending in `.md` become doc files; everything else is lexed and
    /// parsed as Rust.
    pub fn from_files(inputs: &[(&str, &str)]) -> Workspace {
        let mut ws = Workspace {
            files: Vec::new(),
            docs: Vec::new(),
            fns: Vec::new(),
            enums: Vec::new(),
        };
        for (path, contents) in inputs {
            if path.ends_with(".md") {
                ws.docs.push((path.to_string(), contents.to_string()));
                continue;
            }
            let file = parse_file(path, contents);
            ws.files.push(file);
        }
        for fi in 0..ws.files.len() {
            let (fns, enums) = parse_items(&ws.files[fi], fi);
            ws.fns.extend(fns);
            ws.enums.extend(enums);
        }
        ws
    }

    /// All enums with this name.
    pub fn enums_named(&self, name: &str) -> Vec<&EnumDef> {
        self.enums.iter().filter(|e| e.name == name).collect()
    }

    /// Indices of all fns with this bare name.
    pub fn fns_named(&self, name: &str) -> Vec<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.name == name)
            .map(|(i, _)| i)
            .collect()
    }

    /// Is an `analyze:allow(<pass>): reason` or `lint:allow(<rule>): reason`
    /// escape (with a non-empty reason) present in the comments on `line`
    /// or the four lines above it?
    pub fn allowed(&self, file: usize, line: usize, marker: &str) -> bool {
        let f = &self.files[file];
        let needle = format!("{marker}:");
        let lo = line.saturating_sub(5).max(1);
        for l in lo..=line {
            if let Some(c) = f.comment_lines.get(l - 1) {
                if let Some(p) = c.find(&needle) {
                    if !c[p + needle.len()..].trim().is_empty() {
                        return true;
                    }
                }
            }
        }
        false
    }
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
fn parse_file(path: &str, contents: &str) -> File {
    let toks = lex(contents);
    let test_mask = compute_test_mask(&toks);
    let nlines = contents.lines().count().max(1);
    let mut code_lines = vec![String::new(); nlines];
    let mut comment_lines = vec![String::new(); nlines];
    let mut line_has_code = vec![false; nlines];
    let mut line_has_nontest_code = vec![false; nlines];
    for (i, t) in toks.iter().enumerate() {
        let idx = (t.line - 1).min(nlines - 1);
        if t.is_comment() {
            comment_lines[idx].push_str(&t.text);
            comment_lines[idx].push(' ');
        } else {
            line_has_code[idx] = true;
            if !test_mask[i] {
                line_has_nontest_code[idx] = true;
            }
            match t.kind {
                TokKind::Str => code_lines[idx].push_str("\"\""),
                TokKind::Char => {
                    code_lines[idx].push('\'');
                    code_lines[idx].push_str(&t.text);
                    code_lines[idx].push('\'');
                }
                _ => code_lines[idx].push_str(&t.text),
            }
        }
    }
    let test_lines = (0..nlines).map(|i| !line_has_nontest_code[i]).collect();
    File {
        path: path.to_string(),
        toks,
        test_mask,
        in_tests_dir: path.contains("/tests/") || path.starts_with("tests/"),
        code_lines,
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

/// Extract fn items and enum defs from one file.
fn parse_items(file: &File, file_idx: usize) -> (Vec<FnItem>, Vec<EnumDef>) {
    let toks = &file.toks;
    let code: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
    let mut fns = Vec::new();
    let mut enums = Vec::new();
    let mut k = 0usize;
    while k < code.len() {
        let i = code[k];
        let t = &toks[i];
        match t.text.as_str() {
            "enum" if t.kind == TokKind::Ident => {
                if let Some((def, end_k)) = parse_enum(toks, &code, k, file_idx, &file.test_mask) {
                    enums.push(def);
                    k = end_k;
                    continue;
                }
            }
            "fn" if t.kind == TokKind::Ident => {
                if let Some((item, end_k)) = parse_fn(toks, &code, k, file_idx, &file.test_mask) {
                    fns.push(item);
                    k = end_k;
                    continue;
                }
            }
            _ => {}
        }
        k += 1;
    }
    (fns, enums)
}

/// At `enum` (code-space index `k`): parse the variant list.
fn parse_enum(
    toks: &[Tok],
    code: &[usize],
    k: usize,
    file_idx: usize,
    test_mask: &[bool],
) -> Option<(EnumDef, usize)> {
    let name_tok = code.get(k + 1)?;
    if toks[*name_tok].kind != TokKind::Ident {
        return None;
    }
    let name = toks[*name_tok].text.clone();
    let line = toks[code[k]].line;
    // Find the body `{` (skip generics).
    let mut j = k + 2;
    while j < code.len() && toks[code[j]].text != "{" {
        if toks[code[j]].text == ";" {
            return None;
        }
        j += 1;
    }
    if j >= code.len() {
        return None;
    }
    let mut variants = Vec::new();
    let (mut paren, mut bracket, mut brace) = (0i32, 0i32, 1i32);
    let mut expecting = true; // at a variant boundary
    j += 1;
    while j < code.len() && brace > 0 {
        let t = &toks[code[j]];
        match t.text.as_str() {
            "{" => brace += 1,
            "}" => brace -= 1,
            "(" => paren += 1,
            ")" => paren -= 1,
            "[" => bracket += 1,
            "]" => bracket -= 1,
            "," if brace == 1 && paren == 0 && bracket == 0 => expecting = true,
            "#" if brace == 1 && paren == 0 && bracket == 0 => {
                // Variant attribute: skip the [ ... ] group.
                let mut depth = 0i32;
                j += 1;
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
            }
            _ => {
                if expecting && brace == 1 && paren == 0 && bracket == 0 && t.kind == TokKind::Ident
                {
                    variants.push((t.text.clone(), t.line));
                    expecting = false;
                }
            }
        }
        j += 1;
    }
    // An enum defined wholly inside a test region is fixture data.
    if test_mask.get(code[k]).copied().unwrap_or(false) {
        return Some((
            EnumDef {
                file: file_idx,
                name: format!("#test#{name}"),
                line,
                variants,
            },
            j,
        ));
    }
    Some((
        EnumDef {
            file: file_idx,
            name,
            line,
            variants,
        },
        j,
    ))
}

/// At `fn` (code-space index `k`): parse name, signature, and body span.
fn parse_fn(
    toks: &[Tok],
    code: &[usize],
    k: usize,
    file_idx: usize,
    test_mask: &[bool],
) -> Option<(FnItem, usize)> {
    let name_tok = *code.get(k + 1)?;
    if toks[name_tok].kind != TokKind::Ident {
        return None;
    }
    let name = toks[name_tok].text.clone();
    let line = toks[code[k]].line;
    // Scan to the body `{` or terminating `;` at zero paren/bracket depth.
    let (mut paren, mut bracket) = (0i32, 0i32);
    let mut j = k + 2;
    while j < code.len() {
        match toks[code[j]].text.as_str() {
            "(" => paren += 1,
            ")" => paren -= 1,
            "[" => bracket += 1,
            "]" => bracket -= 1,
            "{" if paren == 0 && bracket == 0 => break,
            ";" if paren == 0 && bracket == 0 => {
                // Bodyless declaration (trait method).
                let item = FnItem {
                    file: file_idx,
                    name,
                    line,
                    body: None,
                    is_test: test_mask.get(code[k]).copied().unwrap_or(false),
                };
                return Some((item, j + 1));
            }
            _ => {}
        }
        j += 1;
    }
    if j >= code.len() {
        return None;
    }
    // Find the matching close brace.
    let open = j;
    let mut depth = 0i32;
    while j < code.len() {
        match toks[code[j]].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        j += 1;
    }
    let body = (code[open] + 1, *code.get(j).unwrap_or(&toks.len()));
    let item = FnItem {
        file: file_idx,
        name,
        line,
        body: Some(body),
        is_test: test_mask.get(code[k]).copied().unwrap_or(false),
    };
    Some((item, j + 1))
}

/// Find the first top-level `match` inside a fn body and parse its arms.
/// Each arm is (pattern token indices, body token indices) — nested matches
/// stay inside their arm's body and never produce arms of their own.
pub fn match_arms(file: &File, body: (usize, usize)) -> Vec<(Vec<usize>, Vec<usize>)> {
    let toks = &file.toks;
    let code: Vec<usize> = (body.0..body.1.min(toks.len()))
        .filter(|&i| !toks[i].is_comment())
        .collect();
    // Locate `match` … `{`.
    let mut m = None;
    for (k, &i) in code.iter().enumerate() {
        if toks[i].kind == TokKind::Ident && toks[i].text == "match" {
            m = Some(k);
            break;
        }
    }
    let m = match m {
        Some(m) => m,
        None => return Vec::new(),
    };
    let mut j = m + 1;
    let (mut paren, mut bracket) = (0i32, 0i32);
    while j < code.len() {
        match toks[code[j]].text.as_str() {
            "(" => paren += 1,
            ")" => paren -= 1,
            "[" => bracket += 1,
            "]" => bracket -= 1,
            "{" if paren == 0 && bracket == 0 => break,
            _ => {}
        }
        j += 1;
    }
    if j >= code.len() {
        return Vec::new();
    }
    let mut arms = Vec::new();
    let mut pattern: Vec<usize> = Vec::new();
    let mut arm_body: Vec<usize> = Vec::new();
    let mut in_body = false;
    let (mut paren, mut bracket, mut brace) = (0i32, 0i32, 1i32);
    j += 1;
    while j < code.len() && brace > 0 {
        let i = code[j];
        let text = toks[i].text.as_str();
        let at_top = paren == 0 && bracket == 0 && brace == 1;
        match text {
            "{" => brace += 1,
            "}" => brace -= 1,
            "(" => paren += 1,
            ")" => paren -= 1,
            "[" => bracket += 1,
            "]" => bracket -= 1,
            _ => {}
        }
        if text == "=>" && at_top && !in_body {
            in_body = true;
            j += 1;
            continue;
        }
        if in_body {
            // Arm body ends at a `,` back at top level, or when a `{...}`
            // block body closes back to depth 1.
            if text == "," && paren == 0 && bracket == 0 && brace == 1 {
                arms.push((std::mem::take(&mut pattern), std::mem::take(&mut arm_body)));
                in_body = false;
                j += 1;
                continue;
            }
            if text == "}" && brace == 0 {
                // close of the match itself with a trailing blockless arm
                arms.push((std::mem::take(&mut pattern), std::mem::take(&mut arm_body)));
                break;
            }
            arm_body.push(i);
            // Block-bodied arm: when we just closed back to depth 1 and the
            // body started with `{`, the arm is complete (comma optional).
            if text == "}"
                && brace == 1
                && paren == 0
                && bracket == 0
                && arm_body.first().map(|&f| toks[f].text.as_str()) == Some("{")
            {
                arms.push((std::mem::take(&mut pattern), std::mem::take(&mut arm_body)));
                in_body = false;
            }
        } else {
            if text == "}" && brace == 0 {
                break;
            }
            // A comma left over after a block-bodied arm is not pattern.
            if !(text == "," && pattern.is_empty()) {
                pattern.push(i);
            }
        }
        j += 1;
    }
    if in_body && !(pattern.is_empty() && arm_body.is_empty()) {
        arms.push((pattern, arm_body));
    }
    arms
}

/// Collect `const NAME: &str = "value";` bindings across non-test code.
pub fn str_consts(ws: &Workspace) -> HashMap<String, (String, usize, usize)> {
    let mut out = HashMap::new();
    for (fi, f) in ws.files.iter().enumerate() {
        let toks = &f.toks;
        let code: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
        for (k, &i) in code.iter().enumerate() {
            if toks[i].kind != TokKind::Ident || toks[i].text != "const" {
                continue;
            }
            if f.test_mask[i] {
                continue;
            }
            // const NAME : & ['static] str = STR ;
            let seq: Vec<&Tok> = (1..=7)
                .filter_map(|off| code.get(k + off).map(|&x| &toks[x]))
                .collect();
            if seq.len() >= 6
                && seq[0].kind == TokKind::Ident
                && seq[1].text == ":"
                && seq[2].text == "&"
            {
                let mut p = 3;
                if seq[p].kind == TokKind::Lifetime {
                    p += 1;
                }
                if seq.len() > p + 2
                    && seq[p].text == "str"
                    && seq[p + 1].text == "="
                    && seq[p + 2].kind == TokKind::Str
                {
                    out.insert(
                        seq[0].text.clone(),
                        (seq[p + 2].text.clone(), fi, seq[p + 2].line),
                    );
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(src: &str) -> Workspace {
        Workspace::from_files(&[("crates/x/src/lib.rs", src)])
    }

    #[test]
    fn fn_items_inside_and_outside_impl_blocks() {
        let w = ws("fn free() { a(); }\nimpl Reactor { fn dispatch(&self) { b(); } }\nimpl Foo for Bar { fn baz(&self) {} }\n");
        let names: Vec<&str> = w.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["free", "dispatch", "baz"]);
        assert!(w.fns.iter().all(|f| f.body.is_some()));
    }

    #[test]
    fn cfg_test_masks_only_the_attached_item() {
        let src =
            "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn t() {} }\nfn also_live() {}\n";
        let w = ws(src);
        let live: Vec<(&str, bool)> = w.fns.iter().map(|f| (f.name.as_str(), f.is_test)).collect();
        assert_eq!(
            live,
            vec![("live", false), ("t", true), ("also_live", false)]
        );
    }

    #[test]
    fn test_attr_masks_single_fn() {
        let src = "#[test]\nfn a_test() {}\nfn real() {}\n";
        let w = ws(src);
        assert!(w.fns[0].is_test);
        assert!(!w.fns[1].is_test);
    }

    #[test]
    fn enum_variants_extracted() {
        let src = "pub enum E {\n  A,\n  B(u32),\n  C { x: u8 },\n  #[allow(dead_code)]\n  D,\n}\n";
        let w = ws(src);
        assert_eq!(w.enums.len(), 1);
        let vars: Vec<&str> = w.enums[0]
            .variants
            .iter()
            .map(|(v, _)| v.as_str())
            .collect();
        assert_eq!(vars, vec!["A", "B", "C", "D"]);
    }

    #[test]
    fn line_views_replace_strings_and_split_comments() {
        let src = "let m = \"a // b\"; x.unwrap(); // lint:allow(unwrap): fine\n";
        let w = ws(src);
        let f = &w.files[0];
        assert_eq!(f.code_lines[0], "letm=\"\";x.unwrap();");
        assert!(f.comment_lines[0].contains("lint:allow(unwrap): fine"));
    }

    #[test]
    fn match_arms_handle_nesting_and_multi_tag_patterns() {
        let src = "fn d(op: u8) { let f = match op {\n 1 => X::A,\n 2 | 3 => { X::B }\n 8 => X::C { h: match q { 0 => P, 1 => Q, _ => R } },\n other => X::D,\n }; }\n";
        let w = ws(src);
        let f = &w.files[0];
        let arms = match_arms(f, w.fns[0].body.unwrap());
        assert_eq!(arms.len(), 4);
        let pat_texts: Vec<String> = arms
            .iter()
            .map(|(p, _)| {
                p.iter()
                    .map(|&i| f.toks[i].text.clone())
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect();
        assert_eq!(pat_texts[0], "1");
        assert_eq!(pat_texts[1], "2 | 3");
        assert_eq!(pat_texts[2], "8");
        assert_eq!(pat_texts[3], "other");
        // The nested match stays inside arm 3's body.
        let body3: Vec<&str> = arms[2].1.iter().map(|&i| f.toks[i].text.as_str()).collect();
        assert!(body3.contains(&"match"));
    }

    #[test]
    fn str_consts_collected() {
        let w = ws("pub const NAME: &str = \"tenantdb_x_total\";\n");
        let consts = str_consts(&w);
        assert_eq!(consts["NAME"].0, "tenantdb_x_total");
    }
}
