//! The UQL lexer: source text → spanned tokens.
//!
//! Keywords are not distinguished here — identifiers are classified by the
//! parser (case-insensitively), so UDF and relation names that collide
//! with keywords in *other* positions still lex fine.

use crate::error::{LangError, Result, Span};

/// One lexical token.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Tok {
    /// Identifier or keyword: `[A-Za-z_][A-Za-z0-9_]*`.
    Ident(String),
    /// Numeric literal (integer or float, optional exponent).
    Number(f64),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `.` (qualified attribute references, `a.z`)
    Dot,
    /// `>=`
    Ge,
    /// `<` (join `ON` comparisons)
    Lt,
}

impl Tok {
    /// How the token is shown in error messages.
    pub(crate) fn describe(&self) -> String {
        match self {
            Tok::Ident(s) => format!("`{s}`"),
            Tok::Number(n) => format!("number `{n:?}`"),
            Tok::LParen => "`(`".into(),
            Tok::RParen => "`)`".into(),
            Tok::LBracket => "`[`".into(),
            Tok::RBracket => "`]`".into(),
            Tok::Comma => "`,`".into(),
            Tok::Dot => "`.`".into(),
            Tok::Ge => "`>=`".into(),
            Tok::Lt => "`<`".into(),
        }
    }
}

/// A token plus its source span.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Token {
    /// The token.
    pub tok: Tok,
    /// Its byte range in the source.
    pub span: Span,
}

/// Tokenize `src`. Whitespace separates tokens; `--` starts a comment that
/// runs to end of line (SQL style).
pub(crate) fn lex(src: &str) -> Result<Vec<Token>> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // SQL-style `--` comment to end of line.
        if c == '-' && bytes.get(i + 1) == Some(&b'-') {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        let start = i;
        let tok = match c {
            '(' => {
                i += 1;
                Tok::LParen
            }
            ')' => {
                i += 1;
                Tok::RParen
            }
            '[' => {
                i += 1;
                Tok::LBracket
            }
            ']' => {
                i += 1;
                Tok::RBracket
            }
            ',' => {
                i += 1;
                Tok::Comma
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    i += 2;
                    Tok::Ge
                } else {
                    return Err(LangError::lex(
                        Span::new(i, i + 1),
                        "expected `>=` (thresholds compare with `>=`; ON joins with `<`)",
                    ));
                }
            }
            '<' => {
                i += 1;
                Tok::Lt
            }
            // `.` starts a number only when digits follow (`.5`);
            // otherwise it qualifies an attribute (`a.z`).
            '.' if !bytes.get(i + 1).is_some_and(|b| b.is_ascii_digit()) => {
                i += 1;
                Tok::Dot
            }
            _ if c.is_ascii_alphabetic() || c == '_' => {
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                Tok::Ident(src[start..i].to_string())
            }
            _ if c.is_ascii_digit() || c == '-' || c == '.' => {
                i = scan_number(bytes, i)?;
                let text = &src[start..i];
                let value: f64 = text.parse().map_err(|_| {
                    LangError::lex(
                        Span::new(start, i),
                        format!("malformed numeric literal `{text}`"),
                    )
                })?;
                Tok::Number(value)
            }
            _ => {
                // `c` is one byte; name — and span — the character it starts
                // (every arm above consumes ASCII, so `i` is on a boundary).
                let c = src[i..].chars().next().expect("i < len");
                return Err(LangError::lex(
                    Span::new(i, i + c.len_utf8()),
                    format!("unexpected character `{c}`"),
                ));
            }
        };
        out.push(Token {
            tok,
            span: Span::new(start, i),
        });
    }
    Ok(out)
}

/// Advance past `[-] digits [. digits] [(e|E) [+|-] digits]` starting at
/// `i`; returns the end offset.
fn scan_number(bytes: &[u8], mut i: usize) -> Result<usize> {
    let start = i;
    if bytes.get(i) == Some(&b'-') {
        i += 1;
    }
    let digits = |bytes: &[u8], mut j: usize| {
        while j < bytes.len() && bytes[j].is_ascii_digit() {
            j += 1;
        }
        j
    };
    let after_int = digits(bytes, i);
    let mut any = after_int > i;
    i = after_int;
    if bytes.get(i) == Some(&b'.') {
        let after_frac = digits(bytes, i + 1);
        any |= after_frac > i + 1;
        i = after_frac;
    }
    if !any {
        return Err(LangError::lex(
            Span::new(start, i.max(start + 1)),
            "malformed numeric literal (no digits)",
        ));
    }
    if matches!(bytes.get(i), Some(b'e' | b'E')) {
        let mut j = i + 1;
        if matches!(bytes.get(j), Some(b'+' | b'-')) {
            j += 1;
        }
        let after_exp = digits(bytes, j);
        if after_exp == j {
            return Err(LangError::lex(
                Span::new(start, j),
                "malformed numeric literal (empty exponent)",
            ));
        }
        i = after_exp;
    }
    Ok(i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lexes_a_full_query() {
        let q = "SELECT GalAge(z) FROM sky WHERE PR(GalAge(z) IN [0.3, 0.8]) >= 0.6";
        let t = toks(q);
        assert_eq!(t[0], Tok::Ident("SELECT".into()));
        assert!(t.contains(&Tok::Ge));
        assert!(t.contains(&Tok::Number(0.3)));
        assert!(t.contains(&Tok::LBracket));
    }

    #[test]
    fn numbers_in_all_shapes() {
        assert_eq!(
            toks("1 1.5 -2.25 1e-7 3.5E+2 .5 7."),
            vec![
                Tok::Number(1.0),
                Tok::Number(1.5),
                Tok::Number(-2.25),
                Tok::Number(1e-7),
                Tok::Number(3.5e2),
                Tok::Number(0.5),
                Tok::Number(7.0),
            ]
        );
    }

    #[test]
    fn spans_are_byte_accurate() {
        let ts = lex("ab  12.5").unwrap();
        assert_eq!(ts[0].span, Span::new(0, 2));
        assert_eq!(ts[1].span, Span::new(4, 8));
    }

    #[test]
    fn comments_are_skipped() {
        let t = toks("SELECT -- the projection\nf(x)");
        assert_eq!(t.len(), 5);
        assert_eq!(t[1], Tok::Ident("f".into()));
    }

    #[test]
    fn bad_inputs_carry_spans() {
        for (src, at) in [("a ; b", 2), ("1e", 0), ("a > b", 2), ("§", 0)] {
            let err = lex(src).unwrap_err();
            let span = err.span().expect("lex errors carry spans");
            assert_eq!(span.start, at, "source {src:?}: {err}");
        }
    }

    #[test]
    fn qualified_refs_and_on_comparisons() {
        assert_eq!(
            toks("a.z < b.z"),
            vec![
                Tok::Ident("a".into()),
                Tok::Dot,
                Tok::Ident("z".into()),
                Tok::Lt,
                Tok::Ident("b".into()),
                Tok::Dot,
                Tok::Ident("z".into()),
            ]
        );
        // `.5` is still a number; `x.5` is an ident, a dot-number boundary.
        assert_eq!(toks(".5"), vec![Tok::Number(0.5)]);
        assert_eq!(toks("x .5"), vec![Tok::Ident("x".into()), Tok::Number(0.5)]);
        assert_eq!(toks("7."), vec![Tok::Number(7.0)]);
    }

    #[test]
    fn lone_minus_is_rejected() {
        assert!(lex("-").is_err());
        assert!(lex("-.").is_err());
    }

    #[test]
    fn positional_parameters() {
        // `$n` is not part of the grammar: the `$` is rejected where it
        // stands, whatever follows it.
        for src in ["$", "$1", "$0", "PR $1"] {
            let err = lex(src).unwrap_err();
            let span = err.span().unwrap();
            assert_eq!(&src[span.start..span.end], "$", "source {src:?}: {err}");
            assert!(
                err.to_string().contains("unexpected character `$`"),
                "{err}"
            );
        }
    }
}
