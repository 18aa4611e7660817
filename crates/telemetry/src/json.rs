//! Minimal dependency-free JSON codec for telemetry snapshots.
//!
//! Only the subset snapshots need is supported: objects, arrays,
//! strings, and *integer* numbers. Integers are carried as `i128` so
//! the full `u64` range (including the `u64::MAX` sentinel used for an
//! empty histogram's `min`) round-trips exactly — a float-based codec
//! would silently lose precision above 2^53.

use std::fmt;

/// Error produced while parsing or interpreting snapshot JSON.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    message: String,
}

impl JsonError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "telemetry json error: {}", self.message)
    }
}

impl std::error::Error for JsonError {}

/// A JSON document of that subset. Public so other crates' machine-readable
/// output (the figure harness's `SLIM_JSON` rows) renders through the same
/// writer; parsing and field access stay internal to snapshots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JsonValue {
    Int(i128),
    Str(String),
    Array(Vec<JsonValue>),
    /// Insertion-ordered; snapshot maps are `BTreeMap`s so rendering is
    /// deterministic.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            JsonValue::Int(i) => out.push_str(&i.to_string()),
            JsonValue::Str(s) => render_string(s, out),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(key, out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }

    fn field(&self, key: &str) -> Result<&JsonValue, JsonError> {
        match self {
            JsonValue::Object(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| JsonError::new(format!("missing field {key:?}"))),
            _ => Err(JsonError::new(format!(
                "expected object while looking up {key:?}"
            ))),
        }
    }

    pub(crate) fn as_u64(&self) -> Result<u64, JsonError> {
        match self {
            JsonValue::Int(i) => {
                u64::try_from(*i).map_err(|_| JsonError::new(format!("{i} out of u64 range")))
            }
            _ => Err(JsonError::new("expected integer")),
        }
    }

    pub(crate) fn as_i64(&self) -> Result<i64, JsonError> {
        match self {
            JsonValue::Int(i) => {
                i64::try_from(*i).map_err(|_| JsonError::new(format!("{i} out of i64 range")))
            }
            _ => Err(JsonError::new("expected integer")),
        }
    }

    pub(crate) fn get_u64(&self, key: &str) -> Result<u64, JsonError> {
        self.field(key)?.as_u64()
    }

    pub(crate) fn get_array(&self, key: &str) -> Result<&[JsonValue], JsonError> {
        match self.field(key)? {
            JsonValue::Array(items) => Ok(items),
            _ => Err(JsonError::new(format!("field {key:?} is not an array"))),
        }
    }

    pub(crate) fn get_object(&self, key: &str) -> Result<&[(String, JsonValue)], JsonError> {
        match self.field(key)? {
            JsonValue::Object(fields) => Ok(fields),
            _ => Err(JsonError::new(format!("field {key:?} is not an object"))),
        }
    }
}

fn render_string(s: &str, out: &mut String) {
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
}

pub(crate) fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(JsonError::new("trailing data after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Result<u8, JsonError> {
        let b = self
            .peek()
            .ok_or_else(|| JsonError::new("unexpected end of input"))?;
        self.pos += 1;
        Ok(b)
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        let got = self.bump()?;
        if got != b {
            return Err(JsonError::new(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos - 1,
                got as char
            )));
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'-' | b'0'..=b'9') => self.integer(),
            Some(other) => Err(JsonError::new(format!(
                "unexpected character {:?}",
                other as char
            ))),
            None => Err(JsonError::new("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b'}' => return Ok(JsonValue::Object(fields)),
                other => {
                    return Err(JsonError::new(format!(
                        "expected ',' or '}}' in object, found {:?}",
                        other as char
                    )))
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b']' => return Ok(JsonValue::Array(items)),
                other => {
                    return Err(JsonError::new(format!(
                        "expected ',' or ']' in array, found {:?}",
                        other as char
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain ASCII / UTF-8 bytes.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| JsonError::new("invalid utf-8 in string"))?,
            );
            match self.bump()? {
                b'"' => return Ok(out),
                b'\\' => match self.bump()? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000c}'),
                    b'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.bump()?;
                            code = code * 16
                                + (d as char)
                                    .to_digit(16)
                                    .ok_or_else(|| JsonError::new("invalid \\u escape"))?;
                        }
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| JsonError::new("invalid \\u code point"))?,
                        );
                    }
                    other => {
                        return Err(JsonError::new(format!(
                            "invalid escape \\{:?}",
                            other as char
                        )))
                    }
                },
                _ => unreachable!("loop above stops only at quote or backslash"),
            }
        }
    }

    fn integer(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(JsonError::new(
                "floating point numbers are not used in telemetry snapshots",
            ));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ascii");
        text.parse::<i128>()
            .map(JsonValue::Int)
            .map_err(|_| JsonError::new(format!("invalid integer {text:?}")))
    }
}
