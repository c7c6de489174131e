//! The little JSON the benchmark writes (its result line, run stamps and
//! trace files), kept local so no engine crate's helper can change the
//! output format, plus a reader for the tests that compare the benchmark's
//! declared metric names with `BENCHMARK.json`.

/// `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `v` with every digit it has (shortest form that reads back exactly).
/// JSON has no NaN or infinity: those become `null`, and the caller is
/// expected to have failed the run before printing one.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A JSON array of already-rendered values.
pub fn arr(items: impl IntoIterator<Item = String>) -> String {
    let items: Vec<String> = items.into_iter().collect();
    format!("[{}]", items.join(","))
}

/// Builder for one JSON object; keys keep insertion order.
#[derive(Debug, Default)]
pub struct Obj(Vec<String>);

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Obj::default()
    }

    /// Add an already-rendered value.
    pub fn raw(mut self, key: &str, value: &str) -> Self {
        self.0.push(format!("{}:{}", quote(key), value));
        self
    }

    /// Add a string.
    pub fn str(self, key: &str, value: &str) -> Self {
        let v = quote(value);
        self.raw(key, &v)
    }

    /// Add a number.
    pub fn num(self, key: &str, value: f64) -> Self {
        let v = num(value);
        self.raw(key, &v)
    }

    /// Add a whole number.
    pub fn int(self, key: &str, value: u64) -> Self {
        self.raw(key, &value.to_string())
    }

    /// Add a boolean.
    pub fn bool(self, key: &str, value: bool) -> Self {
        self.raw(key, if value { "true" } else { "false" })
    }

    /// Render.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.0.join(","))
    }
}

#[cfg(test)]
pub(crate) mod read {
    //! A strict-enough recursive-descent reader for the tests.

    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Value>),
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn get(&self, key: &str) -> &Value {
            match self {
                Value::Obj(fields) => fields
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v)
                    .unwrap_or_else(|| panic!("no key {key:?}")),
                other => panic!("not an object: {other:?}"),
            }
        }

        pub fn arr(&self) -> &[Value] {
            match self {
                Value::Arr(items) => items,
                other => panic!("not an array: {other:?}"),
            }
        }

        pub fn str(&self) -> &str {
            match self {
                Value::Str(s) => s,
                other => panic!("not a string: {other:?}"),
            }
        }

        pub fn num(&self) -> f64 {
            match self {
                Value::Num(n) => *n,
                other => panic!("not a number: {other:?}"),
            }
        }

        pub fn keys(&self) -> Vec<&str> {
            match self {
                Value::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
                other => panic!("not an object: {other:?}"),
            }
        }
    }

    pub fn parse(src: &str) -> Value {
        let mut p = Parser {
            s: src.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing input after JSON value");
        v
    }

    struct Parser<'a> {
        s: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }

        fn eat(&mut self, lit: &str) {
            assert!(
                self.s[self.i..].starts_with(lit.as_bytes()),
                "expected {lit:?} at byte {}",
                self.i
            );
            self.i += lit.len();
        }

        fn value(&mut self) -> Value {
            self.ws();
            match self.s[self.i] {
                b'n' => {
                    self.eat("null");
                    Value::Null
                }
                b't' => {
                    self.eat("true");
                    Value::Bool(true)
                }
                b'f' => {
                    self.eat("false");
                    Value::Bool(false)
                }
                b'"' => Value::Str(self.string()),
                b'[' => {
                    self.i += 1;
                    let mut items = Vec::new();
                    loop {
                        self.ws();
                        if self.s[self.i] == b']' {
                            self.i += 1;
                            return Value::Arr(items);
                        }
                        if !items.is_empty() {
                            self.eat(",");
                        }
                        items.push(self.value());
                    }
                }
                b'{' => {
                    self.i += 1;
                    let mut fields = Vec::new();
                    loop {
                        self.ws();
                        if self.s[self.i] == b'}' {
                            self.i += 1;
                            return Value::Obj(fields);
                        }
                        if !fields.is_empty() {
                            self.eat(",");
                            self.ws();
                        }
                        let key = self.string();
                        self.ws();
                        self.eat(":");
                        fields.push((key, self.value()));
                    }
                }
                _ => {
                    let start = self.i;
                    while self.i < self.s.len()
                        && matches!(
                            self.s[self.i],
                            b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                        )
                    {
                        self.i += 1;
                    }
                    let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                    Value::Num(
                        text.parse()
                            .unwrap_or_else(|_| panic!("bad number {text:?} at byte {start}")),
                    )
                }
            }
        }

        fn string(&mut self) -> String {
            self.eat("\"");
            let mut out = Vec::new();
            loop {
                match self.s[self.i] {
                    b'"' => {
                        self.i += 1;
                        return String::from_utf8(out).expect("UTF-8 string");
                    }
                    b'\\' => {
                        let esc = self.s[self.i + 1];
                        self.i += 2;
                        match esc {
                            b'n' => out.push(b'\n'),
                            b't' => out.push(b'\t'),
                            b'r' => out.push(b'\r'),
                            b'u' => {
                                let hex = std::str::from_utf8(&self.s[self.i..self.i + 4]).unwrap();
                                let c = char::from_u32(u32::from_str_radix(hex, 16).unwrap())
                                    .expect("BMP escape");
                                out.extend_from_slice(c.to_string().as_bytes());
                                self.i += 4;
                            }
                            other => out.push(other),
                        }
                    }
                    b => {
                        out.push(b);
                        self.i += 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::read::{parse, Value};
    use super::*;

    #[test]
    fn written_objects_read_back() {
        let text = Obj::new()
            .str("name", "a \"quoted\"\nline")
            .num("value", 1.2034)
            .int("n", 15)
            .bool("ok", true)
            .raw("list", &arr([num(1.0), num(f64::NAN)]))
            .finish();
        let v = parse(&text);
        assert_eq!(v.get("name").str(), "a \"quoted\"\nline");
        assert_eq!(v.get("value").num(), 1.2034);
        assert_eq!(v.get("n").num(), 15.0);
        assert_eq!(v.get("ok"), &Value::Bool(true));
        assert_eq!(v.get("list").arr(), &[Value::Num(1.0), Value::Null]);
    }

    #[test]
    fn numbers_keep_all_their_digits() {
        let x = 1412.0000000123_f64;
        assert_eq!(num(x).parse::<f64>().unwrap(), x);
        assert_eq!(num(3.0), "3");
    }
}
