//! The shared `key=value` stats-line builder.
//!
//! Every human-facing counter block in the workspace — the REPL report,
//! `BatchCounts` `Display`, the examples — renders through [`KvLine`], so
//! counters spell identically everywhere (`cap_hits=3`, `in=780`, …) and
//! scripts can grep one format.

use std::fmt::Display;

/// Builds one space-separated `key=value` line.
///
/// ```
/// use udf_obs::fmt::KvLine;
/// let line = KvLine::new()
///     .field("in", 100)
///     .field("kept", 40)
///     .raw("1234 tup/s");
/// assert_eq!(line.finish(), "in=100 kept=40 1234 tup/s");
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
        if !self.buf.is_empty() {
            self.buf.push(' ');
        }
    }

    /// Append `key=value`.
    pub fn field(mut self, key: &str, value: impl Display) -> Self {
        self.sep();
        self.buf.push_str(&format!("{key}={value}"));
        self
    }

    /// Append pre-formatted text verbatim (units, rates).
    pub fn raw(mut self, text: &str) -> Self {
        self.sep();
        self.buf.push_str(text);
        self
    }

    /// The assembled line (no trailing newline).
    pub fn finish(self) -> String {
        self.buf
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
    fn empty_line_is_empty() {
        assert_eq!(KvLine::new().finish(), "");
    }
}
