//! Diagnostics with source spans.

use std::fmt;

/// A byte range into the query source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Start byte offset (inclusive).
    pub start: usize,
    /// End byte offset (exclusive).
    pub end: usize,
}

impl Span {
    /// Build from byte offsets.
    pub(crate) fn new(start: usize, end: usize) -> Self {
        Span { start, end }
    }

    /// The smallest span covering both `self` and `other`.
    pub(crate) fn to(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// A value plus the span it was parsed from. Equality ignores the span —
/// two ASTs parsed from differently-formatted but equivalent text compare
/// equal, which is what the pretty-print → reparse round-trip tests rely
/// on.
#[derive(Debug, Clone, Copy)]
pub struct Spanned<T> {
    /// The parsed value.
    pub node: T,
    /// Where it came from.
    pub span: Span,
}

impl<T> Spanned<T> {
    /// Attach a span to a value.
    pub fn new(node: T, span: Span) -> Self {
        Spanned { node, span }
    }
}

impl<T: PartialEq> PartialEq for Spanned<T> {
    fn eq(&self, other: &Self) -> bool {
        self.node == other.node
    }
}

/// Which compilation stage rejected the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Tokenization (bad character, malformed number).
    Lex,
    /// Grammar (unexpected token, missing clause).
    Parse,
    /// Binding/validation (unknown UDF, bad accuracy, arity mismatch).
    Semantic,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stage::Lex => write!(f, "lex error"),
            Stage::Parse => write!(f, "parse error"),
            Stage::Semantic => write!(f, "semantic error"),
        }
    }
}

/// Errors raised by the UQL front-end.
#[derive(Debug)]
pub enum LangError {
    /// The query text was rejected; carries the source span at fault.
    Diagnostic {
        /// Stage that rejected it.
        stage: Stage,
        /// Span at fault.
        span: Span,
        /// Human-readable explanation.
        message: String,
    },
    /// The bound plan failed at execution time (engine-level failure).
    Exec(String),
}

impl LangError {
    /// A lexer diagnostic.
    pub(crate) fn lex(span: Span, message: impl Into<String>) -> Self {
        LangError::Diagnostic {
            stage: Stage::Lex,
            span,
            message: message.into(),
        }
    }

    /// A parser diagnostic.
    pub(crate) fn parse(span: Span, message: impl Into<String>) -> Self {
        LangError::Diagnostic {
            stage: Stage::Parse,
            span,
            message: message.into(),
        }
    }

    /// A binder diagnostic.
    pub(crate) fn semantic(span: Span, message: impl Into<String>) -> Self {
        LangError::Diagnostic {
            stage: Stage::Semantic,
            span,
            message: message.into(),
        }
    }

    /// The span at fault, when the error is a source diagnostic.
    pub fn span(&self) -> Option<Span> {
        match self {
            LangError::Diagnostic { span, .. } => Some(*span),
            LangError::Exec(_) => None,
        }
    }

    /// Render the diagnostic against its source with a caret underline:
    ///
    /// ```text
    /// semantic error: unknown UDF `GalAgee`
    ///   | SELECT GalAgee(z) FROM sky
    ///   |        ^^^^^^^
    /// ```
    pub fn render(&self, src: &str) -> String {
        match self {
            LangError::Exec(msg) => format!("execution error: {msg}"),
            LangError::Diagnostic {
                stage,
                span,
                message,
            } => {
                // Clamped to `src` and to its character boundaries: the
                // caller passes the text, which need not be the one the
                // span was taken from.
                let start = src.floor_char_boundary(span.start);
                let end = src.floor_char_boundary(span.end).max(start);
                // The line containing the span start.
                let line_start = src[..start].rfind('\n').map_or(0, |i| i + 1);
                let line_end = src[start..].find('\n').map_or(src.len(), |i| start + i);
                let line = &src[line_start..line_end];
                let col = src[line_start..start].chars().count();
                let width = src[start..end.min(line_end)].chars().count().max(1);
                format!(
                    "{stage}: {message}\n  | {line}\n  | {}{}",
                    " ".repeat(col),
                    "^".repeat(width),
                )
            }
        }
    }
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LangError::Diagnostic {
                stage,
                span,
                message,
            } => write!(f, "{stage} at {span}: {message}"),
            LangError::Exec(msg) => write!(f, "execution error: {msg}"),
        }
    }
}

impl std::error::Error for LangError {}

impl From<udf_core::CoreError> for LangError {
    fn from(e: udf_core::CoreError) -> Self {
        LangError::Exec(e.to_string())
    }
}

/// Result alias for UQL operations.
pub type Result<T> = std::result::Result<T, LangError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spanned_equality_ignores_span() {
        let a = Spanned::new(1.5, Span::new(0, 3));
        let b = Spanned::new(1.5, Span::new(10, 13));
        assert_eq!(a, b);
        assert_ne!(a, Spanned::new(2.5, Span::new(0, 3)));
    }

    #[test]
    fn render_underlines_the_span() {
        let src = "SELECT GalAgee(z) FROM sky";
        let err = LangError::semantic(Span::new(7, 14), "unknown UDF `GalAgee`");
        let r = err.render(src);
        assert!(r.contains("unknown UDF"));
        assert!(r.contains("  | SELECT GalAgee(z) FROM sky"));
        assert!(r.contains("  |        ^^^^^^^"), "got:\n{r}");
    }

    #[test]
    fn render_survives_out_of_range_spans() {
        let err = LangError::parse(Span::new(100, 200), "unexpected end of input");
        let r = err.render("short");
        assert!(r.contains("unexpected end of input"));
    }

    #[test]
    fn span_join_covers_both() {
        assert_eq!(Span::new(3, 5).to(Span::new(10, 12)), Span::new(3, 12));
        assert_eq!(Span::new(10, 12).to(Span::new(3, 5)), Span::new(3, 12));
    }
}
