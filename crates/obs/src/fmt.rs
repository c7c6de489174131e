//! The shared `key=value` stats-line builder.
//!
//! Every human-facing counter block in the workspace — the REPL report,
//! `BatchCounts` / `JoinStats` `Display`, the examples — renders through
//! [`KvLine`], so counters spell identically everywhere (`cap_hits=3`,
//! `pairs_generated=780`, …) and scripts can grep one format.

use std::fmt::Display;

/// Builds one space-separated `key=value` line.
///
/// ```
/// use udf_obs::fmt::KvLine;
/// let line = KvLine::new()
///     .label("q1", 4)
///     .field("in", 100)
///     .field_pad("kept", 40, 6)
///     .raw("1234 tup/s");
/// assert_eq!(line.finish(), "q1  in=100 kept=40    1234 tup/s");
/// ```
#[derive(Debug, Default)]
pub struct KvLine {
    buf: String,
}

impl KvLine {
    /// Start an empty line.
    pub fn new() -> Self {
        KvLine { buf: String::new() }
    }

    fn sep(&mut self) {
        if !self.buf.is_empty() && !self.buf.ends_with(' ') {
            self.buf.push(' ');
        }
    }

    /// A leading label, left-padded to `width` columns (for aligned
    /// multi-line reports).
    pub fn label(mut self, text: &str, width: usize) -> Self {
        self.sep();
        self.buf.push_str(&format!("{text:<width$}"));
        self
    }

    /// Append `key=value`.
    pub fn field(mut self, key: &str, value: impl Display) -> Self {
        self.sep();
        self.buf.push_str(&format!("{key}={value}"));
        self
    }

    /// Append `key=value` with the value left-aligned to `width` columns.
    pub fn field_pad(mut self, key: &str, value: impl Display, width: usize) -> Self {
        self.sep();
        self.buf.push_str(&format!("{key}={value:<width$}"));
        self
    }

    /// Append pre-formatted text verbatim (units, rates).
    pub fn raw(mut self, text: &str) -> Self {
        self.sep();
        self.buf.push_str(text);
        self
    }

    /// The assembled line (no trailing newline; trailing pad spaces are
    /// trimmed).
    pub fn finish(self) -> String {
        self.buf.trim_end().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_join_with_single_spaces() {
        let line = KvLine::new().field("a", 1).field("b", "x").finish();
        assert_eq!(line, "a=1 b=x");
    }

    #[test]
    fn padding_aligns_columns() {
        let line = KvLine::new()
            .label("q", 3)
            .field_pad("in", 7, 4)
            .field("out", 2)
            .finish();
        assert_eq!(line, "q  in=7   out=2");
    }

    #[test]
    fn empty_line_is_empty() {
        assert_eq!(KvLine::new().finish(), "");
    }
}
