//! A hand-rolled Rust lexer, std-only, precise where a per-line regex is
//! not: string literals (cooked, raw, byte), nested block comments,
//! lifetimes vs `char` literals, and raw identifiers all become distinct
//! tokens, so a `//` or a `Mutex` inside a string can never be mistaken
//! for code, and an escape marker inside a string can never be mistaken
//! for a comment.
//!
//! The lexer is *total*: any byte sequence produces a token stream (unknown
//! bytes become single-character punctuation), because the lint must never
//! panic on the tree it is checking.

/// Token classification. Comments are retained as tokens — the escape
/// grammar (`lint:allow(...)`) lives in comments and the rules must see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including raw `r#ident`, stored without `r#`).
    Ident,
    /// `'a`, `'static`, `'_` — no closing quote.
    Lifetime,
    /// String literal of any flavor; `text` holds the (unescaped) contents.
    Str,
    /// `'x'` or `b'x'` char literal; `text` holds the inner text.
    Char,
    /// Numeric literal, verbatim (`0x1B`, `1_000`, `2.5`).
    Num,
    /// Operator or delimiter, possibly multi-char (`::`, `=>`, `..=`).
    Punct,
    /// `// …` (incl. `///` and `//!`); `text` holds everything after `//`.
    LineComment,
    /// `/* … */` (nesting handled); `text` holds the inner text.
    BlockComment,
}

/// One token with its 1-based start line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: usize,
}

impl Tok {
    /// Is this a comment token (either flavor)?
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokKind::LineComment | TokKind::BlockComment)
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_cont(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Tokenize `src`. Total: never fails, never panics.
pub fn lex(src: &str) -> Vec<Tok> {
    Lexer {
        b: src.as_bytes(),
        src,
        i: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer<'a> {
    b: &'a [u8],
    src: &'a str,
    i: usize,
    line: usize,
    out: Vec<Tok>,
}

impl<'a> Lexer<'a> {
    fn peek(&self, off: usize) -> u8 {
        *self.b.get(self.i + off).unwrap_or(&0)
    }

    fn push(&mut self, kind: TokKind, text: String, line: usize) {
        self.out.push(Tok { kind, text, line });
    }

    fn run(mut self) -> Vec<Tok> {
        while self.i < self.b.len() {
            let c = self.b[self.i];
            match c {
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                b' ' | b'\t' | b'\r' => self.i += 1,
                b'/' if self.peek(1) == b'/' => self.line_comment(),
                b'/' if self.peek(1) == b'*' => self.block_comment(),
                b'"' => self.cooked_string(),
                b'\'' => self.lifetime_or_char(),
                b'r' if self.peek(1) == b'"' || self.peek(1) == b'#' => self.raw_prefix(),
                b'b' if self.peek(1) == b'"' => {
                    self.i += 1;
                    self.cooked_string();
                }
                b'b' if self.peek(1) == b'\'' => {
                    self.i += 1;
                    self.char_literal();
                }
                b'b' if self.peek(1) == b'r' && (self.peek(2) == b'"' || self.peek(2) == b'#') => {
                    self.i += 1;
                    self.raw_prefix();
                }
                c if is_ident_start(c) => self.ident(),
                c if c.is_ascii_digit() => self.number(),
                _ => self.punct(),
            }
        }
        self.out
    }

    fn line_comment(&mut self) {
        let start = self.i + 2;
        let mut end = start;
        while end < self.b.len() && self.b[end] != b'\n' {
            end += 1;
        }
        let text = self.src[start..end].to_string();
        let line = self.line;
        self.push(TokKind::LineComment, text, line);
        self.i = end;
    }

    fn block_comment(&mut self) {
        let line = self.line;
        let start = self.i + 2;
        let mut depth = 1usize;
        let mut j = start;
        while j < self.b.len() && depth > 0 {
            if self.b[j] == b'/' && *self.b.get(j + 1).unwrap_or(&0) == b'*' {
                depth += 1;
                j += 2;
            } else if self.b[j] == b'*' && *self.b.get(j + 1).unwrap_or(&0) == b'/' {
                depth -= 1;
                j += 2;
            } else {
                if self.b[j] == b'\n' {
                    self.line += 1;
                }
                j += 1;
            }
        }
        let end = j.saturating_sub(2).max(start);
        let text = self.src[start..end.min(self.b.len())].to_string();
        self.push(TokKind::BlockComment, text, line);
        self.i = j;
    }

    /// `"..."` (or `b"..."` with the `b` already consumed). Common escapes
    /// are decoded.
    fn cooked_string(&mut self) {
        let line = self.line;
        let mut j = self.i + 1;
        let mut val = String::new();
        while j < self.b.len() {
            match self.b[j] {
                b'"' => {
                    j += 1;
                    break;
                }
                b'\\' => {
                    let esc = *self.b.get(j + 1).unwrap_or(&0);
                    match esc {
                        b'n' => val.push('\n'),
                        b't' => val.push('\t'),
                        b'r' => val.push('\r'),
                        b'0' => val.push('\0'),
                        b'\\' => val.push('\\'),
                        b'"' => val.push('"'),
                        b'\'' => val.push('\''),
                        b'\n' => self.line += 1, // line-continuation escape
                        // \xNN and \u{...}: keep the raw spelling.
                        other => {
                            val.push('\\');
                            val.push(other as char);
                        }
                    }
                    j += 2;
                }
                b'\n' => {
                    self.line += 1;
                    val.push('\n');
                    j += 1;
                }
                c => {
                    val.push(c as char);
                    j += 1;
                }
            }
        }
        self.push(TokKind::Str, val, line);
        self.i = j;
    }

    /// After a `'`: either a lifetime (`'a`, `'_`) or a char literal.
    fn lifetime_or_char(&mut self) {
        let next = self.peek(1);
        if is_ident_start(next) && self.peek(2) != b'\'' {
            // Lifetime: consume ident chars, no closing quote.
            let start = self.i + 1;
            let mut j = start;
            while j < self.b.len() && is_ident_cont(self.b[j]) {
                j += 1;
            }
            let text = self.src[start..j].to_string();
            let line = self.line;
            self.push(TokKind::Lifetime, text, line);
            self.i = j;
        } else {
            self.char_literal();
        }
    }

    fn char_literal(&mut self) {
        let line = self.line;
        let start = self.i + 1;
        let mut j = start;
        if self.peek(1) == b'\\' {
            j += 2; // skip the escape pair
        } else if j < self.b.len() {
            // Skip one (possibly multi-byte) char.
            j += utf8_len(self.b[j]);
        }
        if j < self.b.len() && self.b[j] == b'\'' {
            let text = self.src[start..j].to_string();
            self.push(TokKind::Char, text, line);
            self.i = j + 1;
        } else {
            // Not actually a char literal (stray quote): emit punct.
            self.push(TokKind::Punct, "'".to_string(), line);
            self.i += 1;
        }
    }

    /// At `r` followed by `"` or `#`: raw string (`r"…"`, `r#"…"#`, any
    /// number of hashes) or raw identifier (`r#ident`).
    fn raw_prefix(&mut self) {
        let mut hashes = 0usize;
        while self.peek(1 + hashes) == b'#' {
            hashes += 1;
        }
        if self.peek(1 + hashes) == b'"' {
            self.raw_string(hashes, self.i + 1 + hashes);
        } else if hashes == 1 && is_ident_start(self.peek(2)) {
            // r#ident: store the ident without the r# prefix.
            let start = self.i + 2;
            let mut k = start;
            while k < self.b.len() && is_ident_cont(self.b[k]) {
                k += 1;
            }
            let text = self.src[start..k].to_string();
            let line = self.line;
            self.push(TokKind::Ident, text, line);
            self.i = k;
        } else {
            self.ident();
        }
    }

    /// Raw string: `open` points at the opening `"`. Contents are verbatim;
    /// terminator is `"` followed by `hashes` hash marks.
    fn raw_string(&mut self, hashes: usize, open: usize) {
        let line = self.line;
        let start = open + 1;
        let mut j = start;
        'scan: while j < self.b.len() {
            if self.b[j] == b'\n' {
                self.line += 1;
            } else if self.b[j] == b'"' {
                for h in 0..hashes {
                    if *self.b.get(j + 1 + h).unwrap_or(&0) != b'#' {
                        j += 1;
                        continue 'scan;
                    }
                }
                let text = self.src[start..j].to_string();
                self.push(TokKind::Str, text, line);
                self.i = j + 1 + hashes;
                return;
            }
            j += 1;
        }
        // Unterminated: take everything to EOF.
        let text = self.src[start..].to_string();
        self.push(TokKind::Str, text, line);
        self.i = self.b.len();
    }

    fn ident(&mut self) {
        let start = self.i;
        let mut j = start;
        while j < self.b.len() && is_ident_cont(self.b[j]) {
            j += 1;
        }
        let text = self.src[start..j].to_string();
        let line = self.line;
        self.push(TokKind::Ident, text, line);
        self.i = j;
    }

    fn number(&mut self) {
        let start = self.i;
        let mut j = start;
        // Integer / prefix part with suffixes and underscores.
        while j < self.b.len() && (is_ident_cont(self.b[j])) {
            j += 1;
        }
        // Fraction only when followed by a digit (leaves `1..n` and
        // `1.method()` alone).
        if j < self.b.len()
            && self.b[j] == b'.'
            && j + 1 < self.b.len()
            && self.b[j + 1].is_ascii_digit()
        {
            j += 1;
            while j < self.b.len() && is_ident_cont(self.b[j]) {
                j += 1;
            }
        }
        let text = self.src[start..j].to_string();
        let line = self.line;
        self.push(TokKind::Num, text, line);
        self.i = j;
    }

    fn punct(&mut self) {
        const THREE: [&str; 4] = ["..=", "<<=", ">>=", "..."];
        const TWO: [&str; 20] = [
            "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "*=", "/=", "%=",
            "^=", "&=", "|=", "<<", ">>", "..",
        ];
        let rest = &self.src[self.i..];
        for p in THREE {
            if rest.starts_with(p) {
                let line = self.line;
                self.push(TokKind::Punct, p.to_string(), line);
                self.i += 3;
                return;
            }
        }
        for p in TWO {
            if rest.starts_with(p) {
                let line = self.line;
                self.push(TokKind::Punct, p.to_string(), line);
                self.i += 2;
                return;
            }
        }
        let n = utf8_len(self.b[self.i]);
        let text = self.src[self.i..(self.i + n).min(self.src.len())].to_string();
        let line = self.line;
        self.push(TokKind::Punct, text, line);
        self.i += n;
    }
}

fn utf8_len(b: u8) -> usize {
    match b {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn comments_and_strings_are_distinct_tokens() {
        let toks = kinds("let a = \"x // not a comment\"; // real comment");
        assert_eq!(
            toks,
            vec![
                (TokKind::Ident, "let".into()),
                (TokKind::Ident, "a".into()),
                (TokKind::Punct, "=".into()),
                (TokKind::Str, "x // not a comment".into()),
                (TokKind::Punct, ";".into()),
                (TokKind::LineComment, " real comment".into()),
            ]
        );
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("a /* outer /* inner */ still */ b");
        assert_eq!(
            toks,
            vec![
                (TokKind::Ident, "a".into()),
                (TokKind::BlockComment, " outer /* inner */ still ".into()),
                (TokKind::Ident, "b".into()),
            ]
        );
    }

    #[test]
    fn raw_strings_and_raw_idents() {
        let toks = kinds(r##"let s = r#"quote " inside"#; let r#fn = 1;"##);
        assert!(toks.contains(&(TokKind::Str, "quote \" inside".into())));
        assert!(toks.contains(&(TokKind::Ident, "fn".into())));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        let chars: Vec<_> = toks.iter().filter(|(k, _)| *k == TokKind::Char).collect();
        assert_eq!(chars.len(), 2);
    }

    #[test]
    fn escapes_decode_in_cooked_strings() {
        let toks = kinds(r#"let s = "a\n\"b\"";"#);
        assert!(toks.contains(&(TokKind::Str, "a\n\"b\"".into())));
    }

    #[test]
    fn line_numbers_track_newlines_everywhere() {
        let src = "a\n\"multi\nline\"\n/* c\nc */\nb";
        let toks = lex(src);
        assert_eq!(toks[0].line, 1); // a
        assert_eq!(toks[1].line, 2); // string starts line 2
        assert_eq!(toks[2].line, 4); // comment starts line 4
        assert_eq!(toks[3].line, 6); // b after two multi-line tokens
    }

    #[test]
    fn numbers_hex_and_ranges() {
        let toks = kinds("0x1B 1_000 1..5 2.5");
        assert_eq!(toks[0], (TokKind::Num, "0x1B".into()));
        assert_eq!(toks[1], (TokKind::Num, "1_000".into()));
        assert_eq!(toks[2], (TokKind::Num, "1".into()));
        assert_eq!(toks[3], (TokKind::Punct, "..".into()));
        assert_eq!(toks[4], (TokKind::Num, "5".into()));
        assert_eq!(toks[5], (TokKind::Num, "2.5".into()));
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let toks = kinds(r#"b"bytes" b'x' br"raw""#);
        assert_eq!(toks[0], (TokKind::Str, "bytes".into()));
        assert_eq!(toks[1], (TokKind::Char, "x".into()));
        assert_eq!(toks[2], (TokKind::Str, "raw".into()));
    }

    #[test]
    fn multichar_punct() {
        let toks = kinds("a::b => c ..= d");
        assert!(toks.contains(&(TokKind::Punct, "::".into())));
        assert!(toks.contains(&(TokKind::Punct, "=>".into())));
        assert!(toks.contains(&(TokKind::Punct, "..=".into())));
    }
}
