//! A small Rust lexer: strips comments and string/char literals, keeps
//! line numbers, and surfaces `dlflint:` pragmas found in line comments.
//!
//! This is not a full Rust grammar — it recognizes exactly what the rule
//! engine needs: identifiers, integer vs float literals, lifetimes, and
//! punctuation (with the handful of two-character operators the rules
//! inspect: `==`, `!=`, `::`). Everything inside comments and literals is
//! removed before any rule runs, so an `x == 0.0` mentioned in a doc
//! comment or an error message can never produce a finding.

/// What a [`Token`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `HashMap`, `as`, …).
    Ident,
    /// Integer literal (`42`, `0xFF`, `1_000u64`).
    Int,
    /// Float literal (`1.0`, `2e-9`, `3f64`).
    Float,
    /// A string, char, or byte literal (contents discarded).
    Literal,
    /// A lifetime (`'a`, `'static`).
    Lifetime,
    /// Punctuation; `==`, `!=` and `::` are kept as single tokens.
    Punct,
}

/// One lexed token with its 1-based source line.
#[derive(Clone, Debug)]
pub struct Token {
    /// Token class.
    pub kind: TokKind,
    /// Token text (empty for [`TokKind::Literal`]).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: usize,
}

/// An inline `dlflint:allow(rule, "reason")` pragma lifted from a line
/// comment. A pragma trailing code applies to its own line; a pragma on
/// a line of its own applies to the next line.
#[derive(Clone, Debug)]
pub struct Pragma {
    /// The rule name between the parentheses (may be unknown — the
    /// runner reports that as a `bad-pragma` finding).
    pub rule: String,
    /// The quoted justification, if one was given.
    pub reason: Option<String>,
    /// 1-based line of the comment.
    pub line: usize,
    /// True when the comment shares its line with code (trailing form).
    pub trailing: bool,
    /// Parse error for malformed pragmas (reported as `bad-pragma`).
    pub error: Option<String>,
}

impl Pragma {
    /// The 1-based source line this pragma suppresses findings on.
    pub fn applies_to_line(&self) -> usize {
        if self.trailing {
            self.line
        } else {
            self.line + 1
        }
    }
}

/// A lexed source file: the token stream plus any pragmas found.
#[derive(Debug, Default)]
pub struct LexedFile {
    /// Tokens in source order.
    pub tokens: Vec<Token>,
    /// Pragmas in source order.
    pub pragmas: Vec<Pragma>,
}

/// Lexes `src`, stripping comments and literals. Never fails: unknown
/// bytes become single-character punctuation, and an unterminated
/// comment or literal simply ends the file.
pub fn lex(src: &str) -> LexedFile {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    /// Whether a token has already been emitted on the current line
    /// (distinguishes trailing pragmas from own-line pragmas).
    code_on_line: bool,
    out: LexedFile,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            bytes: src.as_bytes(),
            pos: 0,
            line: 1,
            code_on_line: false,
            out: LexedFile::default(),
        }
    }

    fn peek(&self, ahead: usize) -> u8 {
        *self.bytes.get(self.pos + ahead).unwrap_or(&0)
    }

    fn bump(&mut self) -> u8 {
        let b = self.peek(0);
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.code_on_line = false;
        }
        b
    }

    fn push(&mut self, kind: TokKind, text: String, line: usize) {
        self.code_on_line = true;
        self.out.tokens.push(Token { kind, text, line });
    }

    fn run(mut self) -> LexedFile {
        while self.pos < self.bytes.len() {
            let b = self.peek(0);
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek(1) == b'/' => self.line_comment(),
                b'/' if self.peek(1) == b'*' => self.block_comment(),
                b'r' if self.peek(1) == b'"' || self.peek(1) == b'#' => {
                    if !self.raw_string(0) {
                        self.ident();
                    }
                }
                b'b' if self.peek(1) == b'"' || self.peek(1) == b'\'' => {
                    let line = self.line;
                    self.bump(); // `b`
                    let marker = if self.peek(0) == b'"' {
                        self.quoted_string();
                        "\""
                    } else {
                        self.char_literal();
                        "'"
                    };
                    self.push(TokKind::Literal, marker.to_string(), line);
                }
                b'b' if self.peek(1) == b'r' && (self.peek(2) == b'"' || self.peek(2) == b'#') => {
                    if !self.raw_string(1) {
                        self.ident();
                    }
                }
                b'"' => {
                    let line = self.line;
                    self.quoted_string();
                    self.push(TokKind::Literal, "\"".to_string(), line);
                }
                b'\'' => self.quote(),
                b'0'..=b'9' => self.number(),
                b'_' | b'a'..=b'z' | b'A'..=b'Z' => self.ident(),
                _ => self.punct(),
            }
        }
        self.out
    }

    /// Consumes a `//` comment to end of line; recognizes pragmas.
    fn line_comment(&mut self) {
        let line = self.line;
        let trailing = self.code_on_line;
        let start = self.pos;
        while self.pos < self.bytes.len() && self.peek(0) != b'\n' {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        // Strip `//`, `///`, `//!` markers; a pragma must *lead* the
        // comment so that prose merely mentioning the syntax is inert.
        let body = text.trim_start_matches(['/', '!']).trim_start();
        if let Some(rest) = body.strip_prefix("dlflint:") {
            self.out.pragmas.push(parse_pragma(rest, line, trailing));
        }
    }

    /// Consumes a (possibly nested) `/* … */` comment.
    fn block_comment(&mut self) {
        self.bump();
        self.bump();
        let mut depth = 1usize;
        while self.pos < self.bytes.len() && depth > 0 {
            if self.peek(0) == b'/' && self.peek(1) == b'*' {
                self.bump();
                self.bump();
                depth += 1;
            } else if self.peek(0) == b'*' && self.peek(1) == b'/' {
                self.bump();
                self.bump();
                depth -= 1;
            } else {
                self.bump();
            }
        }
    }

    /// Consumes `r"…"` / `r#"…"#` (after `prefix_len` bytes of `b`).
    /// Returns false if this is not actually a raw string (e.g. the
    /// identifier `r#union`), leaving the position untouched.
    fn raw_string(&mut self, prefix_len: usize) -> bool {
        let mut k = prefix_len + 1; // past `r`
        let mut hashes = 0usize;
        while self.peek(k) == b'#' {
            hashes += 1;
            k += 1;
        }
        if self.peek(k) != b'"' {
            return false;
        }
        let line = self.line;
        for _ in 0..=k {
            self.bump(); // prefix, hashes, opening quote
        }
        loop {
            if self.pos >= self.bytes.len() {
                break;
            }
            if self.peek(0) == b'"' {
                let mut ok = true;
                for h in 0..hashes {
                    if self.peek(1 + h) != b'#' {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    for _ in 0..=hashes {
                        self.bump();
                    }
                    break;
                }
            }
            self.bump();
        }
        self.push(TokKind::Literal, "\"".to_string(), line);
        true
    }

    /// Consumes a `"…"` string with escapes (opening quote included).
    fn quoted_string(&mut self) {
        self.bump(); // opening `"`
        while self.pos < self.bytes.len() {
            match self.bump() {
                b'\\' => {
                    self.bump();
                }
                b'"' => break,
                _ => {}
            }
        }
    }

    /// Consumes a `'…'` char literal (opening quote already current).
    fn char_literal(&mut self) {
        self.bump(); // opening `'`
        if self.peek(0) == b'\\' {
            self.bump();
            self.bump();
        } else {
            self.bump();
        }
        if self.peek(0) == b'\'' {
            self.bump();
        }
    }

    /// `'` starts either a lifetime or a char literal.
    fn quote(&mut self) {
        let line = self.line;
        let c1 = self.peek(1);
        let ident_start = c1 == b'_' || c1.is_ascii_alphabetic();
        // `'a'` is a char; `'a` followed by non-quote is a lifetime.
        if ident_start && self.peek(2) != b'\'' {
            self.bump(); // `'`
            let start = self.pos;
            while matches!(self.peek(0), b'_' | b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9') {
                self.bump();
            }
            let text = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
            self.push(TokKind::Lifetime, text, line);
        } else {
            self.char_literal();
            self.push(TokKind::Literal, "'".to_string(), line);
        }
    }

    /// Consumes a numeric literal, classifying int vs float.
    fn number(&mut self) {
        let line = self.line;
        let start = self.pos;
        let mut is_float = false;
        if self.peek(0) == b'0' && matches!(self.peek(1), b'x' | b'X' | b'o' | b'O' | b'b' | b'B') {
            self.bump();
            self.bump();
            while matches!(self.peek(0), b'0'..=b'9' | b'a'..=b'f' | b'A'..=b'F' | b'_') {
                self.bump();
            }
        } else {
            while matches!(self.peek(0), b'0'..=b'9' | b'_') {
                self.bump();
            }
            // Fraction: a `.` followed by a digit (so `1.max(…)` and the
            // range `1..n` stay integers).
            if self.peek(0) == b'.' && self.peek(1).is_ascii_digit() {
                is_float = true;
                self.bump();
                while matches!(self.peek(0), b'0'..=b'9' | b'_') {
                    self.bump();
                }
            } else if self.peek(0) == b'.'
                && !matches!(self.peek(1), b'.' | b'_' | b'a'..=b'z' | b'A'..=b'Z')
            {
                // Trailing-dot float `1.`
                is_float = true;
                self.bump();
            }
            // Exponent.
            if matches!(self.peek(0), b'e' | b'E') {
                let (s1, s2) = (self.peek(1), self.peek(2));
                if s1.is_ascii_digit() || ((s1 == b'+' || s1 == b'-') && s2.is_ascii_digit()) {
                    is_float = true;
                    self.bump();
                    self.bump();
                    while matches!(self.peek(0), b'0'..=b'9' | b'_') {
                        self.bump();
                    }
                }
            }
        }
        // Type suffix (`u64`, `f32`, …).
        let suffix_start = self.pos;
        while matches!(self.peek(0), b'_' | b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9') {
            self.bump();
        }
        let suffix = &self.bytes[suffix_start..self.pos];
        if suffix == b"f32" || suffix == b"f64" {
            is_float = true;
        }
        let text = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
        let kind = if is_float {
            TokKind::Float
        } else {
            TokKind::Int
        };
        self.push(kind, text, line);
    }

    fn ident(&mut self) {
        let line = self.line;
        let start = self.pos;
        while matches!(self.peek(0), b'_' | b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9') {
            self.bump();
        }
        let text = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
        self.push(TokKind::Ident, text, line);
    }

    fn punct(&mut self) {
        let line = self.line;
        let b = self.bump();
        let two = matches!(
            (b, self.peek(0)),
            (b'=', b'=') | (b'!', b'=') | (b':', b':')
        );
        let text = if two {
            let c = self.bump();
            format!("{}{}", b as char, c as char)
        } else {
            (b as char).to_string()
        };
        self.push(TokKind::Punct, text, line);
    }
}

/// Parses the remainder of a `dlflint:` comment into a [`Pragma`].
/// Expected shape: `allow(rule-name, "reason")`.
fn parse_pragma(rest: &str, line: usize, trailing: bool) -> Pragma {
    let bad = |error: &str| Pragma {
        rule: String::new(),
        reason: None,
        line,
        trailing,
        error: Some(error.to_string()),
    };
    let Some(args) = rest.trim_start().strip_prefix("allow") else {
        return bad("expected `dlflint:allow(rule, \"reason\")`");
    };
    let args = args.trim_start();
    let Some(args) = args.strip_prefix('(') else {
        return bad("expected `(rule, \"reason\")` after `dlflint:allow`");
    };
    let (rule, reason_part) = match args.split_once(',') {
        Some((r, rest)) => (r.trim(), Some(rest)),
        None => (args.split(')').next().unwrap_or(args).trim(), None),
    };
    if rule.is_empty() || !rule.chars().all(|c| c.is_ascii_alphanumeric() || c == '-') {
        return bad("pragma rule name must be a kebab-case identifier");
    }
    let Some(reason_part) = reason_part else {
        return bad("pragma requires a reason: `dlflint:allow(rule, \"why\")`");
    };
    // The reason is parsed as a quoted string *before* looking for the
    // closing paren, so justifications may freely contain `(`/`)` — e.g.
    // "fract() == 0.0 is exact".
    let Some((reason, after)) = reason_part
        .trim_start()
        .strip_prefix('"')
        .and_then(|r| r.split_once('"'))
    else {
        return bad("pragma reason must be a non-empty quoted string");
    };
    if reason.trim().is_empty() {
        return bad("pragma reason must be a non-empty quoted string");
    }
    if !after.trim_start().starts_with(')') {
        return bad("expected `)` after the pragma reason");
    }
    Pragma {
        rule: rule.to_string(),
        reason: Some(reason.to_string()),
        line,
        trailing,
        error: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn comments_and_strings_are_stripped() {
        let src = r##"
            // HashMap in a comment
            /* HashMap in /* a nested */ block */
            let s = "HashMap in a string";
            let r = r#"HashMap raw "quoted" here"#;
            let c = 'H';
            real_ident
        "##;
        let toks = kinds(src);
        assert!(!toks.iter().any(|(_, t)| t == "HashMap"));
        assert!(toks.iter().any(|(_, t)| t == "real_ident"));
        let lits = toks.iter().filter(|(k, _)| *k == TokKind::Literal).count();
        assert_eq!(lits, 3); // two strings + one char
    }

    #[test]
    fn float_vs_int_classification() {
        for (src, want) in [
            ("1.0", TokKind::Float),
            ("2e-9", TokKind::Float),
            ("3f64", TokKind::Float),
            ("0.5", TokKind::Float),
            ("1_000.25", TokKind::Float),
            ("42", TokKind::Int),
            ("0xFF", TokKind::Int),
            ("7u64", TokKind::Int),
        ] {
            let toks = kinds(src);
            assert_eq!(toks[0].0, want, "{src}");
        }
        // `1.max(2)` keeps the int and the method call separate.
        let toks = kinds("1.max(2)");
        assert_eq!(toks[0], (TokKind::Int, "1".to_string()));
        assert_eq!(toks[2], (TokKind::Ident, "max".to_string()));
        // Ranges stay integral.
        let toks = kinds("0..10");
        assert_eq!(toks[0].0, TokKind::Int);
        assert_eq!(toks[3].0, TokKind::Int);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        assert!(toks.iter().any(|(k, _)| *k == TokKind::Literal));
    }

    #[test]
    fn compound_operators_are_single_tokens() {
        let toks = kinds("a == b != c::d");
        let puncts: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Punct)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(puncts, vec!["==", "!=", "::"]);
        // `<=` must not produce a stray `==`.
        let toks = kinds("a <= b");
        assert!(!toks.iter().any(|(_, t)| t == "=="));
    }

    #[test]
    fn line_numbers_are_tracked() {
        let toks = lex("a\nb\n\nc").tokens;
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 4);
    }

    #[test]
    fn pragmas_are_lifted_from_line_comments() {
        let src = "\
let x = 1; // dlflint:allow(float-eq, \"exact by construction\")
// dlflint:allow(hot-path-panic, \"checked above\")
let y = 2;
";
        let lexed = lex(src);
        assert_eq!(lexed.pragmas.len(), 2);
        let p0 = &lexed.pragmas[0];
        assert_eq!(p0.rule, "float-eq");
        assert!(p0.trailing);
        assert_eq!(p0.applies_to_line(), 1);
        assert_eq!(p0.reason.as_deref(), Some("exact by construction"));
        let p1 = &lexed.pragmas[1];
        assert_eq!(p1.rule, "hot-path-panic");
        assert!(!p1.trailing);
        assert_eq!(p1.applies_to_line(), 3);
    }

    #[test]
    fn malformed_pragmas_carry_errors() {
        let missing_reason = lex("// dlflint:allow(float-eq)");
        assert!(missing_reason.pragmas[0].error.is_some());
        let empty_reason = lex("// dlflint:allow(float-eq, \"\")");
        assert!(empty_reason.pragmas[0].error.is_some());
        let bad_verb = lex("// dlflint:deny(float-eq, \"x\")");
        assert!(bad_verb.pragmas[0].error.is_some());
        // Prose that merely *mentions* the syntax is not a pragma.
        let prose = lex("// suppress with dlflint:allow(rule, \"why\")");
        assert!(prose.pragmas.is_empty());
    }

    #[test]
    fn pragma_reason_may_contain_parentheses() {
        // The closing paren is found *after* the quoted reason, so a
        // justification like `fract() == 0.0` parses cleanly.
        let lexed = lex("// dlflint:allow(float-eq, \"fract() == 0.0 is exact (integrality)\")");
        let p = &lexed.pragmas[0];
        assert!(p.error.is_none(), "{:?}", p.error);
        assert_eq!(p.rule, "float-eq");
        assert_eq!(
            p.reason.as_deref(),
            Some("fract() == 0.0 is exact (integrality)")
        );
        // But an unterminated reason is still malformed.
        let open = lex("// dlflint:allow(float-eq, \"no closing quote)");
        assert!(open.pragmas[0].error.is_some());
    }
}
