//! Minimal JSON support shared by the observability layer and the
//! benchmark reports.
//!
//! The workspace builds with no external dependencies (the environment
//! has no registry access), so instead of `serde_json` this module
//! provides a small [`Value`] tree with a pretty printer and a strict
//! parser. Object key order is preserved (insertion order), which keeps
//! emitted metrics/report files diffable across runs.
//!
//! A record's JSON form is declared once, in a
//! [`json_struct!`](crate::json_struct) or [`json_enum!`](crate::json_enum)
//! table, which implements [`ToJson`] (write) and, for records that are
//! read back, [`Json`] (read). The leaves those tables bottom out in are
//! the hand-written impls below. `tests/golden/json.txt` pins the text of
//! one value per record and per variant; a table with no line there
//! fails its golden test.

use crate::error::{DfsError, DfsResult};
use crate::units::SimDuration;
use std::fmt;
use std::time::Duration;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(f64),
    /// A non-negative integer, held exactly: an `f64` keeps only 53 bits
    /// and span ids use all 64. Every `u64` is written as one, and every
    /// integer literal that fits one is parsed as one.
    U64(u64),
    String(String),
    Array(Vec<Value>),
    /// Insertion-ordered object.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup; returns `Null` for missing keys / non-objects so
    /// lookups chain without `Option` plumbing.
    pub fn get(&self, key: &str) -> &Value {
        static NULL: Value = Value::Null;
        match self {
            Value::Object(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or(&NULL),
            _ => &NULL,
        }
    }

    pub fn idx(&self, i: usize) -> &Value {
        static NULL: Value = Value::Null;
        match self {
            Value::Array(items) => items.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            Value::U64(n) => Some(*n as f64),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(n) => Some(*n),
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Compact single-line rendering.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented multi-line rendering (two spaces), `serde_json`-style.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => out.push_str(&format_number(*n)),
            Value::U64(n) => out.push_str(&n.to_string()),
            Value::String(s) => write_escaped(out, s),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Value::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn format_number(n: f64) -> String {
    if !n.is_finite() {
        // JSON has no inf/nan; null is the least-surprising encoding.
        return "null".to_string();
    }
    if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
        format!("{}", n as i64)
    } else {
        let s = format!("{n}");
        debug_assert!(s.parse::<f64>().is_ok());
        s
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Number(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v.into())
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::String(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::String(v)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

/// Convenience builder for insertion-ordered objects.
#[derive(Debug, Default, Clone)]
pub struct ObjectBuilder {
    fields: Vec<(String, Value)>,
}

impl ObjectBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn field(mut self, key: &str, value: impl Into<Value>) -> Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    pub fn build(self) -> Value {
        Value::Object(self.fields)
    }
}

/// Parse error with byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
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
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'u') => {
                            if self.pos + 5 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed by this
                            // workspace's own output; map them to the
                            // replacement character instead of erroring.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 code point.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Value::U64(n));
        }
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err("invalid number"))
    }
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// A value with a JSON form. A write-only record (a report nothing
/// reads back) implements only this half of [`Json`].
pub trait ToJson {
    fn to_json(&self) -> Value;
}

/// A value whose JSON form reads back. Reads are strict: every key a
/// table lists must be present (`None` is written and read as `null`),
/// and any mismatch is a [`DfsError::Codec`] that starts with the key
/// path, e.g. `$.plan.events[1].kind.for_ms: expected a u64, found "x"`.
pub trait Json: ToJson + Sized {
    fn from_json(v: &Value) -> DfsResult<Self>;
}

/// The read error for a value of the wrong shape, at the root of `found`.
pub fn expected(what: &str, found: &Value) -> DfsError {
    let found = match found {
        Value::Array(_) => "an array".to_string(),
        Value::Object(_) => "an object".to_string(),
        scalar => scalar.to_string_compact(),
    };
    DfsError::codec(format!("$: expected {what}, found {found}"))
}

/// Prefixes one step of the key path (`.key` or `[i]`) to a read error.
pub fn at(step: &str, e: DfsError) -> DfsError {
    match e {
        DfsError::Codec(m) => DfsError::Codec(match m.strip_prefix('$') {
            Some(rest) => format!("${step}{rest}"),
            None => format!("${step}: {m}"),
        }),
        other => other,
    }
}

/// Member `key` of object `v`, if present.
pub fn member<'a>(v: &'a Value, key: &str) -> DfsResult<Option<&'a Value>> {
    match v {
        Value::Object(fields) => Ok(fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)),
        other => Err(expected("an object", other)),
    }
}

/// Reads member `key` of object `v`, which must be present.
pub fn read<T: Json>(v: &Value, key: &str) -> DfsResult<T> {
    let step = format!(".{key}");
    match member(v, key)? {
        Some(m) => T::from_json(m).map_err(|e| at(&step, e)),
        None => Err(at(&step, DfsError::codec("$: missing"))),
    }
}

/// The scalar leaves: written through `Value::from`, read by `$read`.
macro_rules! json_leaf {
    ($($ty:ty, $what:literal: |$v:ident| $read:expr;)*) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Value {
                Value::from(self.clone())
            }
        }
        impl Json for $ty {
            fn from_json($v: &Value) -> DfsResult<Self> {
                $read.ok_or_else(|| expected($what, $v))
            }
        }
    )*};
}

json_leaf! {
    u32, "a u32": |v| v.as_u64().and_then(|n| n.try_into().ok());
    u64, "a u64": |v| v.as_u64();
    usize, "a usize": |v| v.as_u64().and_then(|n| n.try_into().ok());
    f64, "a number": |v| v.as_f64();
    bool, "a bool": |v| v.as_bool();
    String, "a string": |v| v.as_str().map(str::to_string);
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::from(self)
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::to_json)
    }
}
impl<T: Json> Json for Option<T> {
    fn from_json(v: &Value) -> DfsResult<Self> {
        if v.is_null() {
            Ok(None)
        } else {
            T::from_json(v).map(Some)
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(T::to_json).collect())
    }
}
impl<T: Json> Json for Vec<T> {
    fn from_json(v: &Value) -> DfsResult<Self> {
        let items = v.as_array().ok_or_else(|| expected("an array", v))?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_json(item).map_err(|e| at(&format!("[{i}]"), e)))
            .collect()
    }
}

/// A pair is the two-element array `[a, b]`.
impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Value {
        Value::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}
impl<A: Json, B: Json> Json for (A, B) {
    fn from_json(v: &Value) -> DfsResult<Self> {
        match v.as_array() {
            Some([a, b]) => Ok((
                A::from_json(a).map_err(|e| at("[0]", e))?,
                B::from_json(b).map_err(|e| at("[1]", e))?,
            )),
            _ => Err(expected("a pair", v)),
        }
    }
}

/// Durations are whole milliseconds.
impl ToJson for Duration {
    fn to_json(&self) -> Value {
        Value::from(self.as_millis() as u64)
    }
}
impl Json for Duration {
    fn from_json(v: &Value) -> DfsResult<Self> {
        u64::from_json(v).map(Duration::from_millis)
    }
}

impl ToJson for SimDuration {
    fn to_json(&self) -> Value {
        Value::from(self.0 / 1_000_000)
    }
}
impl Json for SimDuration {
    fn from_json(v: &Value) -> DfsResult<Self> {
        u64::from_json(v)?
            .checked_mul(1_000_000)
            .map(SimDuration)
            .ok_or_else(|| expected("milliseconds that fit in a SimDuration", v))
    }
}

/// Declares a record's JSON form from one table of `"key" => field: Type`
/// lines, written in table order:
///
/// - `impl ToJson for Name { … }` writes it; a field may be a path
///   (`a.b`) and, in this form only, a call (`total()`).
/// - `impl Json for Name { … }` also reads it back, field by field.
/// - `impl Json for Name from base, { … }` reads into `base`, so a field
///   may be a path into a nested struct and every field the table does
///   not list keeps the base's value.
#[macro_export]
macro_rules! json_struct {
    (impl ToJson for $name:ident {
        $($key:literal => $($path:ident).+ $(($($call:tt)*))?: $ty:ty),* $(,)?
    }) => {
        impl $crate::json::ToJson for $name {
            fn to_json(&self) -> $crate::json::Value {
                $crate::json::Value::Object(vec![$((
                    String::from($key),
                    $crate::json::ToJson::to_json(&self.$($path).+ $(($($call)*))?),
                ),)*])
            }
        }
    };
    (impl Json for $name:ident from $base:expr, {
        $($key:literal => $($path:ident).+: $ty:ty),* $(,)?
    }) => {
        $crate::json_struct!(impl ToJson for $name { $($key => $($path).+: $ty),* });
        impl $crate::json::Json for $name {
            fn from_json(v: &$crate::json::Value) -> $crate::error::DfsResult<Self> {
                let mut out = $base;
                $(out.$($path).+ = $crate::json::read::<$ty>(v, $key)?;)*
                Ok(out)
            }
        }
    };
    (impl Json for $name:ident { $($key:literal => $field:ident: $ty:ty),* $(,)? }) => {
        $crate::json_struct!(impl ToJson for $name { $($key => $field: $ty),* });
        impl $crate::json::Json for $name {
            fn from_json(v: &$crate::json::Value) -> $crate::error::DfsResult<Self> {
                Ok($name { $($field: $crate::json::read::<$ty>(v, $key)?),* })
            }
        }
    };
}

/// Declares an enum's JSON form from one table of `"name" => Variant`
/// lines, as [`json_struct!`] does for records (`impl ToJson for` writes,
/// `impl Json for` also reads):
///
/// - `impl … for Name { "a" => A, … }`: a field-less enum, written as
///   the variant's name. `impl … for Name, fn name { … }` also gives the
///   enum a `name()` accessor that returns it.
/// - `impl … for Name, tag "type" { "a" => A { "key" => field: Type, … }, … }`:
///   an object whose `tag` key holds the variant's name, followed by
///   the variant's fields in table order.
#[macro_export]
macro_rules! json_enum {
    (impl $tr:ident for $name:ident, fn $accessor:ident $table:tt) => {
        $crate::json_enum!(impl $tr for $name $table);
        $crate::json_enum!(@accessor $name $accessor $table);
    };
    (@accessor $name:ident $accessor:ident { $($vname:literal => $variant:ident),* $(,)? }) => {
        impl $name {
            /// The variant's name, as its JSON form spells it.
            pub fn $accessor(&self) -> &'static str {
                match self { $($name::$variant => $vname),* }
            }
        }
    };
    (impl ToJson for $name:ident { $($vname:literal => $variant:ident),* $(,)? }) => {
        impl $crate::json::ToJson for $name {
            fn to_json(&self) -> $crate::json::Value {
                $crate::json::Value::from(match self { $($name::$variant => $vname),* })
            }
        }
    };
    (impl Json for $name:ident { $($vname:literal => $variant:ident),* $(,)? }) => {
        $crate::json_enum!(impl ToJson for $name { $($vname => $variant),* });
        impl $crate::json::Json for $name {
            // A name listed twice is a compile error, not a dead arm.
            #[deny(unreachable_patterns)]
            fn from_json(v: &$crate::json::Value) -> $crate::error::DfsResult<Self> {
                match v.as_str() {
                    $(Some($vname) => Ok($name::$variant),)*
                    _ => Err($crate::json::expected(concat!("a ", stringify!($name), " name"), v)),
                }
            }
        }
    };
    (impl ToJson for $name:ident, tag $tag:literal {
        $($vname:literal => $variant:ident
            $({ $($key:literal => $field:ident: $ty:ty),* $(,)? })?),* $(,)?
    }) => {
        impl $crate::json::ToJson for $name {
            fn to_json(&self) -> $crate::json::Value {
                match self {$(
                    $name::$variant $({ $($field),* })? => $crate::json::Value::Object(vec![
                        (String::from($tag), $crate::json::Value::from($vname)),
                        $($((String::from($key), $crate::json::ToJson::to_json($field)),)*)?
                    ]),
                )*}
            }
        }
    };
    (impl Json for $name:ident, tag $tag:literal {
        $($vname:literal => $variant:ident
            $({ $($key:literal => $field:ident: $ty:ty),* $(,)? })?),* $(,)?
    }) => {
        $crate::json_enum!(impl ToJson for $name, tag $tag {
            $($vname => $variant $({ $($key => $field: $ty),* })?),*
        });
        impl $crate::json::Json for $name {
            #[deny(unreachable_patterns)]
            fn from_json(v: &$crate::json::Value) -> $crate::error::DfsResult<Self> {
                let tag: String = $crate::json::read(v, $tag)?;
                Ok(match tag.as_str() {
                    $($vname => $name::$variant
                        $({ $($field: $crate::json::read::<$ty>(v, $key)?),* })?,)*
                    _ => {
                        let e = concat!("a ", stringify!($name), " name");
                        return Err($crate::json::at(
                            concat!(".", $tag),
                            $crate::json::expected(e, v.get($tag)),
                        ));
                    }
                })
            }
        }
    };
}

#[cfg(test)]
pub(crate) mod golden;

#[cfg(test)]
mod tests {
    use super::golden::Golden;
    use super::*;

    #[test]
    fn roundtrip_pretty_and_compact() {
        let v = ObjectBuilder::new()
            .field("id", "fig_test")
            .field("count", 3u64)
            .field("ratio", 0.5)
            .field("ok", true)
            .field("tags", vec!["a", "b"])
            .field("nothing", Value::Null)
            .build();
        for text in [v.to_string_pretty(), v.to_string_compact()] {
            let parsed = parse(&text).unwrap();
            assert_eq!(parsed, v, "failed on {text}");
        }
    }

    #[test]
    fn lookup_chains() {
        let v = parse(r#"{"a": {"b": [1, 2, {"c": "deep"}]}}"#).unwrap();
        assert_eq!(v.get("a").get("b").idx(2).get("c").as_str(), Some("deep"));
        assert!(v.get("missing").is_null());
        assert_eq!(v.get("a").get("b").idx(0).as_u64(), Some(1));
    }

    #[test]
    fn escapes_roundtrip() {
        let v = Value::String("quote \" slash \\ newline \n tab \t unicode ₿".into());
        let parsed = parse(&v.to_string_compact()).unwrap();
        assert_eq!(parsed, v);
    }

    #[test]
    fn integers_render_without_decimal_point() {
        assert_eq!(Value::Number(42.0).to_string_compact(), "42");
        assert_eq!(Value::Number(0.25).to_string_compact(), "0.25");
        assert_eq!(Value::Number(f64::INFINITY).to_string_compact(), "null");
        assert_eq!(Value::from(u64::MAX).to_string_compact(), "18446744073709551615");
        assert_eq!(parse("18446744073709551615").unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("{'single': 1}").is_err());
    }

    /// One `name compact-json` line per record and per enum variant, as
    /// `tests/golden/json.txt` has them.
    fn golden_lines() -> Golden {
        use crate::config::WriteMode;
        use crate::ids::{BlockId, ClientId, DatanodeId, SpanId, TraceId};
        use crate::obs::telemetry::{
            MetricKind, MetricPoint, MetricSeries, SloKind, SloObjective, SloObjectiveVerdict,
            SloVerdict, SloWindow, TelemetrySeries,
        };
        use crate::obs::{EventRecord, ObsEvent, RecoveryCause, SpeedObservation, TraceCtx};
        let mut g = Golden::default();

        let (client, block) = (ClientId(4), BlockId(0x0b10c));
        let dns = vec![DatanodeId(1), DatanodeId(5), DatanodeId(2)];
        let root = TraceCtx::new(TraceId(1), SpanId(1));
        // Datanode events carry a hop span derived from the block's root.
        let hop = TraceCtx::new(TraceId(1), SpanId(1).child(1));
        let speed = SpeedObservation { datanode: DatanodeId(5), bytes_per_sec: 27.5e6 };
        let events = [
            ("BlockAllocated", root, ObsEvent::BlockAllocated { client, block, targets: dns.clone() }),
            ("PipelineOpened", root, ObsEvent::PipelineOpened { block, targets: dns.clone() }),
            ("PipelineClosed", root, ObsEvent::PipelineClosed { block, committed: true }),
            ("PacketBatchAcked", root, ObsEvent::PacketBatchAcked { block, acked_seq: 17, packets: 5 }),
            ("FnfaReceived", root, ObsEvent::FnfaReceived { block, first_node: DatanodeId(1) }),
            ("FnfaSent", hop, ObsEvent::FnfaSent { datanode: DatanodeId(1), block }),
            ("BlockReceived", hop, ObsEvent::BlockReceived { datanode: DatanodeId(5), block, bytes: 262_144 }),
            ("RecoveryStarted", root, ObsEvent::RecoveryStarted { block, attempt: 2, cause: RecoveryCause::ConnectionLost, nested: true }),
            ("RecoveryStep", root, ObsEvent::RecoveryStep { block, step: "probe dn_5".into() }),
            ("RecoveryFinished", root, ObsEvent::RecoveryFinished { block, success: false }),
            ("ExplorationSwap", root, ObsEvent::ExplorationSwap { block, promoted: DatanodeId(2), displaced: DatanodeId(1) }),
            ("PlacementDecision", root, ObsEvent::PlacementDecision { client, block, policy: "smarth", chosen: dns.clone(), speeds_consulted: vec![speed.clone()] }),
            ("SpeedReportIngested", root, ObsEvent::SpeedReportIngested { client, records: 3 }),
            ("ReadStarted", root, ObsEvent::ReadStarted { client, block, sources: dns.clone(), stripes: 2 }),
            ("StripeFetched", root, ObsEvent::StripeFetched { block, source: DatanodeId(2), offset: 131_072, bytes: 65_536 }),
            ("SourceSwitched", root, ObsEvent::SourceSwitched { block, from: DatanodeId(2), to: DatanodeId(5), reason: "stall \"dn_2\"".into() }),
        ];
        for (i, (name, ctx, event)) in events.into_iter().enumerate() {
            let record = EventRecord { seq: i as u64 + 1, at_us: 1_000 + i as u64, virtual_time: false, ctx: Some(ctx), event };
            g.write(&format!("ObsEvent::{name}"), &record);
        }
        let untraced = EventRecord { seq: 9, at_us: 250, virtual_time: true, ctx: None, event: ObsEvent::SpeedReportIngested { client, records: 1 } };
        g.write("EventRecord.untraced_virtual", &untraced);
        g.write("SpeedObservation", &speed);
        for cause in RecoveryCause::ALL {
            g.write(&format!("RecoveryCause::{cause:?}"), &cause);
        }
        for mode in [WriteMode::Hdfs, WriteMode::Smarth] {
            g.read(&format!("WriteMode::{mode:?}"), &mode);
        }

        for kind in [MetricKind::Counter, MetricKind::Gauge, MetricKind::Quantile] {
            g.read(&format!("MetricKind::{kind:?}"), &kind);
        }
        let points = vec![MetricPoint { t_us: 1_000_000, value: 0.0 }, MetricPoint { t_us: 2_000_000, value: 4096.0 }];
        let counter = MetricSeries { name: "bytes_written".into(), kind: MetricKind::Counter, rates: points[1..].to_vec(), points: points.clone() };
        let gauge = MetricSeries { name: "datanode_staging_packets".into(), kind: MetricKind::Gauge, points, rates: vec![] };
        g.read("MetricSeries", &counter);
        g.read("TelemetrySeries", &TelemetrySeries { series: vec![counter, gauge] });
        for kind in [SloKind::ThroughputFloorMbps, SloKind::QuantileCeilingUs, SloKind::BurnBudgetPerSec] {
            g.read(&format!("SloKind::{kind:?}"), &kind);
        }
        let objective = SloObjective { name: "sustained_write_throughput".into(), metric: "bytes_written".into(), kind: SloKind::ThroughputFloorMbps, target: 0.5 };
        let window = SloWindow { index: 1, from_us: 1_000_000, to_us: 2_000_000, observed: 0.25 };
        let verdict = SloObjectiveVerdict { objective, pass: false, observed: 0.25, violations: vec![window] };
        g.read("SloWindow", &window);
        g.read("SloObjectiveVerdict", &verdict);
        g.read("SloVerdict", &SloVerdict { pass: false, objectives: vec![verdict] });
        g
    }

    /// The JSON text of every record is pinned line for line (a change
    /// that moves one shows the line it moved), every table has a line,
    /// and every line that reads back rejects malformed input.
    #[test]
    fn golden_json_is_unchanged() {
        let src = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/src"));
        golden_lines().check(include_str!("../tests/golden/json.txt"), src);
    }
}
