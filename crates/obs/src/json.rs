//! A hand-rolled JSON writer. The workspace has no crates.io access, so
//! there is no serde; what emits JSON —
//! [`crate::TraceBuffer::to_chrome_json`] — goes through these builders. The reader the tests check them with is
//! compiled for tests only.

use std::fmt::Write as _;

/// Append `s` to `buf` as a JSON string literal (with quotes).
pub fn escape_into(buf: &mut String, s: &str) {
    buf.push('"');
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(buf, "\\u{:04x}", c as u32);
            }
            c => buf.push(c),
        }
    }
    buf.push('"');
}

/// A float as a JSON number token (`null` for NaN/±∞, which JSON cannot
/// represent).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `Display` omits the decimal point for integral floats; keep it
        // so consumers see a float-typed field consistently.
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

/// An object builder. Push fields with the typed methods, then
/// [`finish`](JsonObj::finish):
///
/// ```
/// use udf_obs::json::JsonObj;
/// let mut o = JsonObj::new();
/// o.str("name", "stream/throughput").u64("tuples", 4096);
/// assert_eq!(o.finish(), r#"{"name": "stream/throughput", "tuples": 4096}"#);
/// ```
#[derive(Debug)]
pub struct JsonObj {
    buf: String,
    first: bool,
}

impl JsonObj {
    /// Start an empty object.
    pub fn new() -> Self {
        JsonObj {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.buf.push_str(", ");
        }
        self.first = false;
        escape_into(&mut self.buf, k);
        self.buf.push_str(": ");
    }

    /// Add a string field.
    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        escape_into(&mut self.buf, v);
        self
    }

    /// Add an unsigned integer field.
    pub fn u64(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Add a float field (`null` when non-finite).
    pub fn f64(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        self.buf.push_str(&number(v));
        self
    }

    /// Add a boolean field.
    pub fn bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Add a pre-serialized JSON value (nested object or array).
    pub fn raw(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    /// Close the object and return the serialized text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for JsonObj {
    fn default() -> Self {
        JsonObj::new()
    }
}

/// An array builder, mirroring [`JsonObj`].
#[derive(Debug)]
pub struct JsonArr {
    buf: String,
    first: bool,
}

impl JsonArr {
    /// Start an empty array.
    pub fn new() -> Self {
        JsonArr {
            buf: String::from("["),
            first: true,
        }
    }

    fn sep(&mut self) {
        if !self.first {
            self.buf.push_str(", ");
        }
        self.first = false;
    }

    /// Append a pre-serialized JSON value.
    pub fn raw(&mut self, v: &str) -> &mut Self {
        self.sep();
        self.buf.push_str(v);
        self
    }

    /// Append a string element.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.sep();
        escape_into(&mut self.buf, v);
        self
    }

    /// Append an unsigned integer element.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.sep();
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Append a float element (`null` when non-finite).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.sep();
        self.buf.push_str(&number(v));
        self
    }

    /// Close the array and return the serialized text.
    pub fn finish(mut self) -> String {
        self.buf.push(']');
        self.buf
    }
}

impl Default for JsonArr {
    fn default() -> Self {
        JsonArr::new()
    }
}

#[cfg(test)]
/// The reader half: a validator and a parser, which only tests read — what
/// the writers emit is checked against them, in this crate alone.
pub(crate) mod reader {
    /// Validate that `s` is one well-formed JSON value (recursive descent;
    /// no value materialization). Tests use this to keep the writers honest
    /// without a JSON dependency.
    pub fn validate(s: &str) -> Result<(), String> {
        let bytes = s.as_bytes();
        let mut pos = 0usize;
        skip_ws(bytes, &mut pos);
        value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(())
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Result<(), String> {
        match b.get(*pos) {
            Some(b'{') => object(b, pos),
            Some(b'[') => array(b, pos),
            Some(b'"') => string(b, pos),
            Some(b't') => literal(b, pos, "true"),
            Some(b'f') => literal(b, pos, "false"),
            Some(b'n') => literal(b, pos, "null"),
            Some(c) if c.is_ascii_digit() || *c == b'-' => num(b, pos),
            other => Err(format!("unexpected {other:?} at byte {pos}")),
        }
    }

    fn literal(b: &[u8], pos: &mut usize, word: &str) -> Result<(), String> {
        if b[*pos..].starts_with(word.as_bytes()) {
            *pos += word.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {pos}"))
        }
    }

    fn num(b: &[u8], pos: &mut usize) -> Result<(), String> {
        let start = *pos;
        if b.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        while *pos < b.len()
            && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            *pos += 1;
        }
        if *pos == start {
            Err(format!("empty number at byte {start}"))
        } else {
            Ok(())
        }
    }

    fn string(b: &[u8], pos: &mut usize) -> Result<(), String> {
        *pos += 1; // opening quote
        while let Some(&c) = b.get(*pos) {
            match c {
                b'"' => {
                    *pos += 1;
                    return Ok(());
                }
                b'\\' => *pos += 2,
                _ => *pos += 1,
            }
        }
        Err("unterminated string".to_string())
    }

    fn object(b: &[u8], pos: &mut usize) -> Result<(), String> {
        *pos += 1; // {
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(());
        }
        loop {
            skip_ws(b, pos);
            string(b, pos)?;
            skip_ws(b, pos);
            if b.get(*pos) != Some(&b':') {
                return Err(format!("expected ':' at byte {pos}"));
            }
            *pos += 1;
            skip_ws(b, pos);
            value(b, pos)?;
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(());
                }
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }

    fn array(b: &[u8], pos: &mut usize) -> Result<(), String> {
        *pos += 1; // [
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(());
        }
        loop {
            skip_ws(b, pos);
            value(b, pos)?;
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(());
                }
                other => return Err(format!("expected ',' or ']', got {other:?}")),
            }
        }
    }

    /// A materialized JSON value: what [`parse`] reads back, the reference the
    /// writers' round-trip property tests (`proptests` below) compare
    /// against. Numbers are `f64`.
    #[derive(Debug, Clone, PartialEq)]
    pub enum JsonValue {
        /// `null` (including what non-finite floats serialize to).
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any number token.
        Num(f64),
        /// A string (escapes decoded).
        Str(String),
        /// An array.
        Arr(Vec<JsonValue>),
        /// An object, in source order.
        Obj(Vec<(String, JsonValue)>),
    }

    impl JsonValue {
        /// Member lookup on an object (`None` for other shapes / missing key).
        pub fn get(&self, key: &str) -> Option<&JsonValue> {
            match self {
                JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The elements, when this is an array.
        pub fn as_arr(&self) -> Option<&[JsonValue]> {
            match self {
                JsonValue::Arr(v) => Some(v),
                _ => None,
            }
        }

        /// The number, when this is a number.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                JsonValue::Num(v) => Some(*v),
                _ => None,
            }
        }

        /// The string, when this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                JsonValue::Str(s) => Some(s),
                _ => None,
            }
        }
    }

    /// Parse one complete JSON document into a [`JsonValue`]. Accepts exactly
    /// what [`validate`] accepts; numbers that fail to parse as `f64` are
    /// errors rather than silent zeros.
    pub fn parse(s: &str) -> Result<JsonValue, String> {
        let bytes = s.as_bytes();
        let mut pos = 0usize;
        skip_ws(bytes, &mut pos);
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
        match b.get(*pos) {
            Some(b'{') => parse_object(b, pos),
            Some(b'[') => parse_array(b, pos),
            Some(b'"') => Ok(JsonValue::Str(parse_string(b, pos)?)),
            Some(b't') => literal(b, pos, "true").map(|()| JsonValue::Bool(true)),
            Some(b'f') => literal(b, pos, "false").map(|()| JsonValue::Bool(false)),
            Some(b'n') => literal(b, pos, "null").map(|()| JsonValue::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                let start = *pos;
                num(b, pos)?;
                let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
                text.parse::<f64>()
                    .map(JsonValue::Num)
                    .map_err(|e| format!("bad number {text:?}: {e}"))
            }
            other => Err(format!("unexpected {other:?} at byte {pos}")),
        }
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        let start = *pos;
        string(b, pos)?;
        // Re-walk the validated span decoding escapes.
        let span = std::str::from_utf8(&b[start + 1..*pos - 1]).map_err(|e| e.to_string())?;
        let mut out = String::with_capacity(span.len());
        let mut chars = span.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('/') => out.push('/'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('b') => out.push('\u{8}'),
                Some('f') => out.push('\u{c}'),
                Some('u') => {
                    let hex: String = chars.by_ref().take(4).collect();
                    if hex.len() != 4 {
                        return Err(format!("truncated \\u escape {hex:?}"));
                    }
                    let code =
                        u32::from_str_radix(&hex, 16).map_err(|e| format!("bad \\u{hex}: {e}"))?;
                    // The writer never emits surrogate pairs (it only escapes
                    // ASCII control chars); reject rather than mis-decode.
                    out.push(
                        char::from_u32(code).ok_or_else(|| format!("bad codepoint {code:#x}"))?,
                    );
                }
                other => return Err(format!("bad escape {other:?}")),
            }
        }
        Ok(out)
    }

    fn parse_object(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
        *pos += 1; // {
        let mut members = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            skip_ws(b, pos);
            let key = parse_string(b, pos)?;
            skip_ws(b, pos);
            if b.get(*pos) != Some(&b':') {
                return Err(format!("expected ':' at byte {pos}"));
            }
            *pos += 1;
            skip_ws(b, pos);
            let val = parse_value(b, pos)?;
            members.push((key, val));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(JsonValue::Obj(members));
                }
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }

    fn parse_array(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
        *pos += 1; // [
        let mut items = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            skip_ws(b, pos);
            items.push(parse_value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', got {other:?}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reader::{parse, validate, JsonValue};
    use super::*;

    #[test]
    fn builders_emit_valid_json() {
        let mut inner = JsonObj::new();
        inner.str("k", "v\"with\\quotes\n").f64("x", 1.5);
        let mut arr = JsonArr::new();
        arr.u64(1).f64(2.5).str("three").raw(&inner.finish());
        let mut root = JsonObj::new();
        root.raw("items", &arr.finish())
            .bool("ok", true)
            .f64("nan", f64::NAN)
            .f64("whole", 3.0);
        let s = root.finish();
        validate(&s).unwrap();
        assert!(s.contains("\"nan\": null"));
        assert!(
            s.contains("\"whole\": 3.0"),
            "integral floats keep a dot: {s}"
        );
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate("{").is_err());
        assert!(validate("{\"a\":}").is_err());
        assert!(validate("[1,]").is_err());
        assert!(validate("{} trailing").is_err());
        assert!(validate("").is_err());
        assert!(validate("{\"a\": [1, {\"b\": null}]}").is_ok());
    }

    #[test]
    fn escape_handles_control_chars() {
        let mut buf = String::new();
        escape_into(&mut buf, "a\u{1}b");
        assert_eq!(buf, "\"a\\u0001b\"");
    }

    #[test]
    fn parse_materializes_what_builders_write() {
        let mut obj = JsonObj::new();
        obj.str("name", "q\"1\"\n")
            .u64("n", 42)
            .f64("rate", 2.5)
            .f64("gap", f64::NAN)
            .bool("ok", true)
            .raw("xs", "[1, 2.0, \"s\"]");
        let s = obj.finish();
        let v = parse(&s).unwrap();
        assert_eq!(v.get("name").and_then(JsonValue::as_str), Some("q\"1\"\n"));
        assert_eq!(v.get("n").and_then(JsonValue::as_f64), Some(42.0));
        assert_eq!(v.get("rate").and_then(JsonValue::as_f64), Some(2.5));
        assert_eq!(v.get("gap"), Some(&JsonValue::Null));
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)));
        let xs = v.get("xs").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(xs.len(), 3);
        assert_eq!(xs[2].as_str(), Some("s"));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parse_rejects_what_validate_rejects() {
        for bad in ["{", "{\"a\":}", "[1,]", "{} x", ""] {
            assert!(parse(bad).is_err(), "{bad:?}");
            assert!(validate(bad).is_err(), "{bad:?}");
        }
        // Escape decoding is stricter than the span-skipping validator.
        assert!(parse("\"\\u12\"").is_err());
        assert_eq!(parse("-3.5e2").unwrap(), JsonValue::Num(-350.0));
        assert_eq!(parse(" null ").unwrap(), JsonValue::Null);
    }
}

#[cfg(test)]
/// Property fuzz of the hand-rolled JSON layer: whatever the builders
/// write, the validator must accept and the parser must materialize back
/// to the same values — including hostile strings (quotes, backslashes,
/// control characters) and non-finite floats (which serialize as `null`).
mod proptests {
    use super::reader::{parse, validate, JsonValue};
    use super::{JsonArr, JsonObj};
    use proptest::prelude::*;

    /// One string fragment from the escape classes the writer knows about.
    fn piece(kind: u8, raw: u32) -> String {
        match kind {
            0 => char::from_u32(raw).map(String::from).unwrap_or_default(),
            1 => "\"".to_string(),
            2 => "\\".to_string(),
            3 => "\n".to_string(),
            4 => "\r".to_string(),
            5 => "\t".to_string(),
            6 => "\u{0}".to_string(),
            7 => "\u{1f}".to_string(),
            8 => "\\u0041".to_string(), // literal backslash-u, must re-escape
            _ => "{}[],: \u{e9}\u{4e16}".to_string(),
        }
    }

    /// Strings exercising every escape class (plus arbitrary BMP chars).
    fn hostile_string() -> impl Strategy<Value = String> {
        prop::collection::vec((0u8..10, 0u32..0xD800), 0..12)
            .prop_map(|parts| parts.into_iter().map(|(k, c)| piece(k, c)).collect())
    }

    /// Floats including the non-finite values JSON cannot represent.
    fn any_f64() -> impl Strategy<Value = f64> {
        (0u8..10, -1.0e300f64..1.0e300).prop_map(|(kind, v)| match kind {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => 0.0,
            4 => -0.0,
            5 => f64::MIN_POSITIVE,
            6 => f64::MAX,
            _ => v,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn object_writer_round_trips(
            key in hostile_string(),
            s in hostile_string(),
            n in 0u64..u64::MAX,
            x in any_f64(),
            flag in 0u8..2,
        ) {
            let b = flag == 1;
            let mut obj = JsonObj::new();
            obj.str(&key, &s).u64("n", n).f64("x", x).bool("b", b);
            let text = obj.finish();
            prop_assert!(validate(&text).is_ok(), "writer emitted invalid JSON: {}", text);
            let v = parse(&text).unwrap();
            // A generated key can collide with "n"/"x"/"b"; `get` returns the
            // first member (always the str field), so only assert on the
            // fixed-name fields when the key is distinct.
            if key != "n" && key != "x" && key != "b" {
                prop_assert_eq!(v.get(&key).and_then(JsonValue::as_str), Some(s.as_str()));
                prop_assert_eq!(v.get("n").and_then(JsonValue::as_f64), Some(n as f64));
                prop_assert_eq!(v.get("b"), Some(&JsonValue::Bool(b)));
                match v.get("x").unwrap() {
                    JsonValue::Null => prop_assert!(!x.is_finite(), "finite {} became null", x),
                    JsonValue::Num(y) => {
                        prop_assert!(x.is_finite());
                        // Rust's f64 Display is shortest-round-trip, so the
                        // re-parsed value is bit-exact.
                        prop_assert_eq!(*y, x);
                    }
                    other => prop_assert!(false, "x materialized as {:?}", other),
                }
            }
        }

        #[test]
        fn array_writer_round_trips(
            strs in prop::collection::vec(hostile_string(), 0..6),
            nums in prop::collection::vec(any_f64(), 0..6),
        ) {
            let mut arr = JsonArr::new();
            for s in &strs {
                arr.str(s);
            }
            for &x in &nums {
                arr.f64(x);
            }
            let text = arr.finish();
            prop_assert!(validate(&text).is_ok(), "writer emitted invalid JSON: {}", text);
            let v = parse(&text).unwrap();
            let items = v.as_arr().unwrap();
            prop_assert_eq!(items.len(), strs.len() + nums.len());
            for (i, s) in strs.iter().enumerate() {
                prop_assert_eq!(items[i].as_str(), Some(s.as_str()));
            }
            for (i, &x) in nums.iter().enumerate() {
                match &items[strs.len() + i] {
                    JsonValue::Null => prop_assert!(!x.is_finite()),
                    JsonValue::Num(y) => prop_assert_eq!(*y, x),
                    other => prop_assert!(false, "num materialized as {:?}", other),
                }
            }
        }

        #[test]
        fn nested_structures_stay_valid(
            depth in 1usize..6,
            leaf in hostile_string(),
        ) {
            let mut text = {
                let mut o = JsonObj::new();
                o.str("leaf", &leaf);
                o.finish()
            };
            for level in 0..depth {
                let mut o = JsonObj::new();
                let mut a = JsonArr::new();
                a.raw(&text).u64(level as u64);
                o.raw("children", &a.finish());
                text = o.finish();
            }
            prop_assert!(validate(&text).is_ok(), "{}", text);
            prop_assert!(parse(&text).is_ok(), "{}", text);
        }
    }
}
