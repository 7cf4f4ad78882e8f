//! A hand-rolled, comment- and string-aware line lexer for Rust source.
//!
//! The lint engine does not need a full parser — every invariant it
//! checks is visible at the token level — but it *does* need to know,
//! for every character, whether it sits in code, a comment, or a string
//! literal, or the lints would fire on their own documentation. This
//! module splits a source file into [`Line`]s carrying three parallel
//! views of the same text plus the delimiter depth at the line
//! boundaries (used for attribute/statement extent tracking).
//!
//! Handled Rust syntax: line comments, nested block comments, string
//! literals with escapes, byte strings, raw (and raw byte) strings with
//! any number of `#`s, char/byte-char literals (including escaped
//! quotes), and lifetimes (`'a` is *not* an unterminated char literal).

/// One source line, decomposed by the lexer.
#[derive(Debug, Default, Clone)]
pub struct Line {
    /// Code with comments removed and string-literal *contents* blanked
    /// to spaces (the delimiting quotes survive). Word-level lint
    /// matching runs on this view so string payloads can never trigger
    /// or suppress a lint.
    pub code: String,
    /// Code with comments removed but string contents preserved —
    /// needed to read attributes like `#[target_feature(enable = "avx2")]`,
    /// whose significant token lives inside a string literal.
    pub full: String,
    /// Concatenated text of every comment on the line (`//`, `///`,
    /// `/* .. */`, including block-comment interiors on continuation
    /// lines). Waivers and `SAFETY:` annotations are read from here.
    pub comment: String,
    /// Paren/bracket/brace nesting depth at the start of the line.
    pub depth_start: i32,
    /// Nesting depth after the line's last code character.
    pub depth_end: i32,
}

impl Line {
    /// `true` if the line carries no code at all (blank or comment-only).
    pub fn is_code_blank(&self) -> bool {
        self.code.trim().is_empty()
    }

    /// `true` if the line's code is (the start of) an attribute.
    pub fn is_attr_start(&self) -> bool {
        let t = self.full.trim_start();
        t.starts_with("#[") || t.starts_with("#![")
    }
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Code,
    /// Nested block comment at the given depth.
    Block(u32),
    /// Inside a `"…"` or `b"…"` string (escape-aware).
    Str,
    /// Inside a raw string closed by `"` followed by `n` hashes.
    Raw(u32),
}

/// Splits `source` into lexed [`Line`]s.
pub fn lex(source: &str) -> Vec<Line> {
    let chars: Vec<char> = source.chars().collect();
    let mut lines = Vec::new();
    let mut line = Line::default();
    let mut depth: i32 = 0;
    let mut state = State::Code;
    let mut prev_ident = false;
    let mut i = 0;

    macro_rules! flush_line {
        () => {{
            line.depth_end = depth;
            let mut next = Line {
                depth_start: depth,
                ..Line::default()
            };
            std::mem::swap(&mut next, &mut line);
            // `next` now holds the finished line.
            lines.push(next);
        }};
    }

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            prev_ident = false;
            flush_line!();
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    // Line comment: everything to EOL is comment text.
                    while i < chars.len() && chars[i] != '\n' {
                        line.comment.push(chars[i]);
                        i += 1;
                    }
                    continue;
                }
                if c == '/' && next == Some('*') {
                    state = State::Block(1);
                    line.comment.push_str("/*");
                    i += 2;
                    continue;
                }
                if c == '"' {
                    line.code.push('"');
                    line.full.push('"');
                    state = State::Str;
                    prev_ident = false;
                    i += 1;
                    continue;
                }
                if (c == 'r' || c == 'b') && !prev_ident {
                    // Possible raw / byte / raw-byte string prefix.
                    let mut j = i + 1;
                    let mut raw = c == 'r';
                    if c == 'b' && chars.get(j) == Some(&'r') {
                        raw = true;
                        j += 1;
                    }
                    let mut hashes = 0u32;
                    while raw && chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') {
                        // Emit the prefix + opening quote verbatim.
                        for &p in &chars[i..=j] {
                            line.code.push(p);
                            line.full.push(p);
                        }
                        state = if raw { State::Raw(hashes) } else { State::Str };
                        prev_ident = false;
                        i = j + 1;
                        continue;
                    }
                    if c == 'b' && chars.get(i + 1) == Some(&'\'') {
                        // Byte-char literal: emit `b`, let the `'` arm
                        // below consume the literal.
                        line.code.push('b');
                        line.full.push('b');
                        prev_ident = false;
                        i += 1;
                        continue;
                    }
                    // Plain identifier starting with r/b: fall through.
                }
                if c == '\'' && !prev_ident {
                    // Char literal or lifetime. A char literal is
                    // `'<escape>'` or `'<one char>'`; anything else
                    // (`'a`, `'static`, `'_`) is a lifetime.
                    if chars.get(i + 1) == Some(&'\\') {
                        // Escape: skip the backslash and the escaped
                        // char unconditionally, then scan to the close
                        // (covers `'\''`, `'\\'`, `'\u{…}'`).
                        let mut j = i + 3;
                        while j < chars.len() && chars[j] != '\'' {
                            j += 1;
                        }
                        for &p in chars.get(i..=j.min(chars.len() - 1)).unwrap_or(&[]) {
                            line.code.push(p);
                            line.full.push(p);
                        }
                        i = j + 1;
                        continue;
                    }
                    if chars.get(i + 2) == Some(&'\'') && chars.get(i + 1) != Some(&'\'') {
                        for &p in &chars[i..=i + 2] {
                            line.code.push(p);
                            line.full.push(p);
                        }
                        i += 3;
                        continue;
                    }
                    // Lifetime: emit the quote, stay in code.
                    line.code.push('\'');
                    line.full.push('\'');
                    prev_ident = false;
                    i += 1;
                    continue;
                }
                match c {
                    '(' | '[' | '{' => depth += 1,
                    ')' | ']' | '}' => depth -= 1,
                    _ => {}
                }
                prev_ident = c.is_alphanumeric() || c == '_';
                line.code.push(c);
                line.full.push(c);
                i += 1;
            }
            State::Block(d) => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    state = State::Block(d + 1);
                    line.comment.push_str("/*");
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    state = if d == 1 {
                        State::Code
                    } else {
                        State::Block(d - 1)
                    };
                    line.comment.push_str("*/");
                    i += 2;
                } else {
                    line.comment.push(c);
                    i += 1;
                }
            }
            State::Str => {
                line.full.push(c);
                if c == '\\' {
                    if let Some(&e) = chars.get(i + 1) {
                        if e != '\n' {
                            line.full.push(e);
                            line.code.push(' ');
                            i += 1;
                        }
                    }
                    line.code.push(' ');
                } else if c == '"' {
                    line.code.push('"');
                    state = State::Code;
                } else {
                    line.code.push(' ');
                }
                i += 1;
            }
            State::Raw(hashes) => {
                line.full.push(c);
                if c == '"' {
                    let closed = (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'));
                    if closed {
                        line.code.push('"');
                        for k in 1..=hashes as usize {
                            line.code.push('#');
                            line.full.push(chars[i + k]);
                        }
                        state = State::Code;
                        i += hashes as usize + 1;
                        continue;
                    }
                }
                line.code.push(' ');
                i += 1;
            }
        }
    }
    // Final (possibly newline-less) line.
    flush_line!();
    lines
}

/// `true` if `line` contains `word` as a standalone identifier (not as a
/// substring of a longer identifier).
pub fn has_word(line: &str, word: &str) -> bool {
    find_word(line, word).is_some()
}

/// Byte offset of the first standalone occurrence of `word` in `line`.
pub fn find_word(line: &str, word: &str) -> Option<usize> {
    let bytes = line.as_bytes();
    let mut start = 0;
    while let Some(pos) = line[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let end = at + word.len();
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            return Some(at);
        }
        start = at + 1;
    }
    None
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_line_comments_and_keeps_code() {
        let lines = lex("let x = 1; // trailing note\n// full line\nlet y = 2;");
        assert_eq!(lines[0].code.trim(), "let x = 1;");
        assert!(lines[0].comment.contains("trailing note"));
        assert!(lines[1].is_code_blank());
        assert!(lines[1].comment.contains("full line"));
        assert_eq!(lines[2].code.trim(), "let y = 2;");
    }

    #[test]
    fn blanks_string_contents_but_full_keeps_them() {
        let lines = lex(r#"let s = "not unsafe code // nor comment";"#);
        assert!(!has_word(&lines[0].code, "unsafe"));
        assert!(lines[0].comment.is_empty());
        assert!(lines[0].full.contains("not unsafe code"));
    }

    #[test]
    fn raw_strings_span_lines() {
        let src = "let s = r#\"line one\nline // two\n\"# ; done";
        let lines = lex(src);
        assert!(lines[1].comment.is_empty(), "raw string hides comments");
        assert!(lines[1].code.trim().is_empty());
        assert!(lines[2].code.contains(';'));
        assert!(lines[2].code.contains("done"));
    }

    #[test]
    fn nested_block_comments() {
        let lines = lex("a /* one /* two */ still */ b");
        assert_eq!(lines[0].code.replace(' ', ""), "ab");
        assert!(lines[0].comment.contains("two"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lines = lex("fn f<'a>(x: &'a str, c: char) -> bool { c == 'x' }");
        assert!(lines[0].code.contains("&'a str"));
        assert!(lines[0].code.contains("'x'"));
        // Escaped-quote char literal must not open a string.
        let lines = lex(r"let q = '\''; let n = 1;");
        assert!(lines[0].code.contains("let n = 1;"));
    }

    #[test]
    fn depth_tracks_all_delimiter_kinds() {
        let lines = lex("fn f(\n  x: [u8; 2],\n) {\n  body();\n}");
        assert_eq!(lines[0].depth_start, 0);
        assert_eq!(lines[0].depth_end, 1);
        assert_eq!(lines[2].depth_end, 1); // `) {` : close paren, open brace
        assert_eq!(lines[4].depth_end, 0);
    }

    #[test]
    fn word_matching_respects_identifier_boundaries() {
        assert!(has_word("use std::thread;", "thread"));
        assert!(!has_word("forbid(unsafe_code)", "unsafe"));
        assert!(has_word("unsafe { x }", "unsafe"));
        assert!(!has_word("MyHashMapLike", "HashMap"));
        assert_eq!(find_word("a HashMap b", "HashMap"), Some(2));
    }
}
