//! A dependency-free JSON value, emitter and parser.
//!
//! Run artifacts (the `repro`/`fullscale_probe` outputs, the golden
//! baseline `results/bench_baseline.json`) must be producible and consumable without any
//! external crate, and their bytes must be **deterministic**: the same
//! report serializes to the same string on every host and thread count, so
//! artifacts can be compared with `==` and gated in CI. To that end:
//!
//! * objects preserve **insertion order** (no hash-map reordering);
//! * integers and floats are distinct variants — counters round-trip
//!   exactly, and floats use Rust's shortest round-trip formatting
//!   (`{:?}`), which is bit-faithful through parse → emit;
//! * non-finite floats are rejected at emit time instead of producing
//!   invalid JSON;
//! * strings escape `"`, `\\` and control characters; non-ASCII text
//!   (e.g. module names) passes through as UTF-8, and the parser also
//!   accepts `\uXXXX` escapes including surrogate pairs.

use std::fmt;

/// Schema version stamped into every artifact this workspace emits.
/// Bump when a field is renamed, removed, or changes meaning; consumers
/// (the golden test, plotting scripts) refuse mismatched versions.
pub const SCHEMA_VERSION: i64 = 1;

/// A JSON document. Object keys keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A number without fractional part or exponent in the source.
    Int(i64),
    /// A number with fractional part or exponent.
    Float(f64),
    Str(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

/// Why a document failed to parse or a value failed to convert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description, with byte offset for parse errors.
    pub msg: String,
}

impl JsonError {
    pub fn new(msg: impl Into<String>) -> Self {
        JsonError { msg: msg.into() }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Serialize a Rust value into a [`Json`] tree.
pub trait ToJson {
    fn to_json(&self) -> Json;
}

/// Reconstruct a Rust value from a [`Json`] tree.
pub trait FromJson: Sized {
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

impl Json {
    /// Member lookup on an object; `None` on missing key or non-object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Member lookup that reports the missing key as an error.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::new(format!("missing field `{key}`")))
    }

    pub fn as_i64(&self) -> Result<i64, JsonError> {
        match self {
            Json::Int(n) => Ok(*n),
            other => Err(JsonError::new(format!("expected integer, got {other:?}"))),
        }
    }

    pub fn as_u64(&self) -> Result<u64, JsonError> {
        // Values above `i64::MAX` are emitted as decimal strings (see
        // [`ObjBuilder::uint`]): a bare JSON literal that large would be
        // parsed as a lossy float by most readers, including this one.
        if let Json::Str(s) = self {
            if !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit()) {
                return s
                    .parse::<u64>()
                    .map_err(|_| JsonError::new(format!("unsigned integer {s:?} overflows u64")));
            }
        }
        let n = self.as_i64()?;
        u64::try_from(n).map_err(|_| JsonError::new(format!("expected unsigned integer, got {n}")))
    }

    pub fn as_usize(&self) -> Result<usize, JsonError> {
        let n = self.as_u64()?;
        usize::try_from(n).map_err(|_| JsonError::new(format!("integer {n} overflows usize")))
    }

    /// Accepts both numeric variants (an integer-valued float field may
    /// have been written without a fractional part by another producer).
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Float(x) => Ok(*x),
            Json::Int(n) => Ok(*n as f64),
            other => Err(JsonError::new(format!("expected number, got {other:?}"))),
        }
    }

    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(JsonError::new(format!("expected bool, got {other:?}"))),
        }
    }

    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(JsonError::new(format!("expected string, got {other:?}"))),
        }
    }

    pub fn as_array(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Array(items) => Ok(items),
            other => Err(JsonError::new(format!("expected array, got {other:?}"))),
        }
    }

    pub fn as_object(&self) -> Result<&[(String, Json)], JsonError> {
        match self {
            Json::Object(members) => Ok(members),
            other => Err(JsonError::new(format!("expected object, got {other:?}"))),
        }
    }

    /// Compact single-line serialization. Deterministic: two equal values
    /// produce identical bytes. Errors on non-finite floats.
    pub fn emit(&self) -> Result<String, JsonError> {
        let mut out = String::new();
        self.write(&mut out, None, 0)?;
        Ok(out)
    }

    /// Pretty serialization with 2-space indentation and a trailing
    /// newline — the format of checked-in artifacts like the perf-gate
    /// baseline, where reviewable diffs matter.
    pub fn emit_pretty(&self) -> Result<String, JsonError> {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0)?;
        out.push('\n');
        Ok(out)
    }

    fn write(
        &self,
        out: &mut String,
        indent: Option<usize>,
        depth: usize,
    ) -> Result<(), JsonError> {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Float(x) => {
                if !x.is_finite() {
                    return Err(JsonError::new(format!("non-finite float {x} in document")));
                }
                // `{:?}` is Rust's shortest representation that parses back
                // to the same bits; it always includes `.0` or an exponent,
                // so the parser re-reads it as a float, never an int.
                out.push_str(&format!("{x:?}"));
            }
            Json::Str(s) => write_string(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1)?;
                }
                if !items.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push(']');
            }
            Json::Object(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1)?;
                }
                if !members.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push('}');
            }
        }
        Ok(())
    }

    /// Parse a JSON document. Rejects trailing garbage.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(w * depth));
    }
}

fn write_string(out: &mut String, s: &str) {
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

/// Nesting cap: artifacts are shallow; this only guards the recursive
/// parser against stack exhaustion on adversarial input.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError::new(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("document nests too deeply"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[', "expected `[`")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{', "expected `{`")?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected `:` after object key")?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected `\"`")?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of unescaped bytes in one go.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            s.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("control character in string")),
            }
        }
    }

    /// Called with `pos` on the first hex digit of `\uXXXX` (the `\u` is
    /// consumed). Handles UTF-16 surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: a low surrogate escape must follow.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if !(0xDC00..0xE000).contains(&lo) {
                    return Err(self.err("invalid low surrogate"));
                }
                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                return char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"));
            }
            return Err(self.err("lone high surrogate"));
        }
        if (0xDC00..0xE000).contains(&hi) {
            return Err(self.err("lone low surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit in \\u escape"))?;
            code = code * 16 + d;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        if is_float {
            let x: f64 = text
                .parse()
                .map_err(|_| self.err("invalid float literal"))?;
            if !x.is_finite() {
                return Err(self.err("float literal overflows f64"));
            }
            Ok(Json::Float(x))
        } else {
            match text.parse::<i64>() {
                Ok(n) => Ok(Json::Int(n)),
                // Integers beyond i64 degrade to the nearest float, like
                // every mainstream JSON reader.
                Err(_) => {
                    let x: f64 = text
                        .parse()
                        .map_err(|_| self.err("invalid number literal"))?;
                    Ok(Json::Float(x))
                }
            }
        }
    }
}

/// Builder for deterministic objects: keys appear in call order.
#[derive(Debug, Clone, Default)]
pub struct ObjBuilder {
    members: Vec<(String, Json)>,
}

impl ObjBuilder {
    pub fn new() -> Self {
        ObjBuilder::default()
    }

    pub fn field(mut self, key: &str, value: Json) -> Self {
        self.members.push((key.to_string(), value));
        self
    }

    pub fn int(self, key: &str, value: impl Into<i64>) -> Self {
        self.field(key, Json::Int(value.into()))
    }

    /// Unsigned counter. Values that fit `i64` emit as plain JSON
    /// integers — the overwhelmingly common case, and the encoding every
    /// existing artifact uses, so canonical bytes are unchanged. Larger
    /// values (uniform-random `u64` seeds shipped to remote workers, for
    /// instance) fall back to a decimal string so the round-trip through
    /// [`Json::as_u64`] is lossless instead of silently saturating — a
    /// saturated seed made process workers simulate a *different stimulus*
    /// than their supervisor.
    pub fn uint(self, key: &str, value: u64) -> Self {
        self.field(key, uint_json(value))
    }

    pub fn float(self, key: &str, value: f64) -> Self {
        self.field(key, Json::Float(value))
    }

    pub fn str(self, key: &str, value: &str) -> Self {
        self.field(key, Json::Str(value.to_string()))
    }

    pub fn bool(self, key: &str, value: bool) -> Self {
        self.field(key, Json::Bool(value))
    }

    pub fn array(self, key: &str, items: Vec<Json>) -> Self {
        self.field(key, Json::Array(items))
    }

    pub fn build(self) -> Json {
        Json::Object(self.members)
    }
}

/// Lossless unsigned encoding: integer when it fits `i64`, decimal string
/// beyond (see [`ObjBuilder::uint`] for why).
pub fn uint_json(value: u64) -> Json {
    match i64::try_from(value) {
        Ok(i) => Json::Int(i),
        Err(_) => Json::Str(value.to_string()),
    }
}

/// Serialize a slice of unsigned counters.
pub fn uint_array(values: &[u64]) -> Json {
    Json::Array(values.iter().map(|&v| uint_json(v)).collect())
}

/// Deserialize a slice of unsigned counters.
pub fn uint_vec(v: &Json) -> Result<Vec<u64>, JsonError> {
    v.as_array()?.iter().map(|x| x.as_u64()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for (text, value) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("42", Json::Int(42)),
            ("-7", Json::Int(-7)),
            ("1.5", Json::Float(1.5)),
            ("-2.25e3", Json::Float(-2250.0)),
            ("\"hi\"", Json::Str("hi".into())),
        ] {
            assert_eq!(Json::parse(text).unwrap(), value, "parse {text}");
            assert_eq!(
                Json::parse(&value.emit().unwrap()).unwrap(),
                value,
                "round-trip {text}"
            );
        }
    }

    #[test]
    fn int_and_float_are_distinct() {
        assert_eq!(Json::parse("3").unwrap(), Json::Int(3));
        assert_eq!(Json::parse("3.0").unwrap(), Json::Float(3.0));
        // Emitting keeps them distinct, so counters stay exact.
        assert_eq!(Json::Int(3).emit().unwrap(), "3");
        assert_eq!(Json::Float(3.0).emit().unwrap(), "3.0");
    }

    #[test]
    fn float_bits_survive_round_trip() {
        for x in [
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            38.9321,
            1e-300,
            123_456_789.123_456_78,
            -0.0,
        ] {
            let text = Json::Float(x).emit().unwrap();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} via {text}");
        }
    }

    #[test]
    fn non_finite_floats_are_rejected_at_emit() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(Json::Float(x).emit().is_err());
        }
    }

    #[test]
    fn string_escaping_round_trips() {
        for s in [
            "plain",
            "with \"quotes\" and \\backslash\\",
            "newline\nand\ttab",
            "módulo_ünïté_ΔΣ_模块",
            "control\u{1}char",
            "",
        ] {
            let v = Json::Str(s.to_string());
            let text = v.emit().unwrap();
            assert_eq!(Json::parse(&text).unwrap(), v, "via {text}");
        }
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(Json::parse(r#""éA""#).unwrap(), Json::Str("éA".into()));
        // Surrogate pair for U+1D11E (musical G clef).
        assert_eq!(
            Json::parse(r#""𝄞""#).unwrap(),
            Json::Str("\u{1D11E}".into())
        );
        assert!(Json::parse(r#""\ud834""#).is_err(), "lone high surrogate");
        assert!(Json::parse(r#""\udd1e""#).is_err(), "lone low surrogate");
    }

    #[test]
    fn object_preserves_insertion_order() {
        let v = ObjBuilder::new()
            .int("z", 1)
            .int("a", 2)
            .str("m", "x")
            .build();
        assert_eq!(v.emit().unwrap(), r#"{"z":1,"a":2,"m":"x"}"#);
        let back = Json::parse(&v.emit().unwrap()).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.emit().unwrap(), v.emit().unwrap());
    }

    #[test]
    fn nested_document_round_trips() {
        let text = r#"{"a":[1,2.5,{"b":null,"c":[true,false,"x"]}],"d":{}}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.emit().unwrap(), text);
    }

    #[test]
    fn pretty_output_reparses_identically() {
        let v = ObjBuilder::new()
            .int("n", 3)
            .array("xs", vec![Json::Int(1), Json::Float(0.5)])
            .field("o", ObjBuilder::new().str("k", "v").build())
            .build();
        let pretty = v.emit_pretty().unwrap();
        assert!(pretty.contains("\n  "));
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn parse_errors_are_reported() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"unterminated",
            "{\"a\" 1}",
            "nul",
            "1 2",
            "{\"a\":1,}",
            "\u{1}",
        ] {
            assert!(Json::parse(bad).is_err(), "must reject {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_rejected_not_a_stack_overflow() {
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn big_integers_degrade_to_float() {
        let v = Json::parse("184467440737095516150").unwrap();
        assert!(matches!(v, Json::Float(_)));
    }

    #[test]
    fn accessors_check_types() {
        let v = Json::parse(r#"{"n":1,"s":"x","b":true,"a":[],"f":2.0}"#).unwrap();
        assert_eq!(v.field("n").unwrap().as_u64().unwrap(), 1);
        assert_eq!(v.field("s").unwrap().as_str().unwrap(), "x");
        assert!(v.field("b").unwrap().as_bool().unwrap());
        assert!(v.field("a").unwrap().as_array().unwrap().is_empty());
        assert_eq!(v.field("f").unwrap().as_f64().unwrap(), 2.0);
        assert!(v.field("missing").is_err());
        assert!(v.field("s").unwrap().as_u64().is_err());
        assert!(Json::Int(-1).as_u64().is_err());
    }

    #[test]
    fn uint_array_round_trips() {
        let xs = vec![0u64, 1, 99999];
        assert_eq!(uint_vec(&uint_array(&xs)).unwrap(), xs);
    }

    /// The full `u64` range must survive the codec — stimulus seeds are
    /// uniform random, so half of them exceed `i64::MAX`, and a saturated
    /// seed desynchronises remote workers from their supervisor.
    #[test]
    fn uint_round_trips_above_i64_max() {
        for v in [
            0u64,
            i64::MAX as u64,
            i64::MAX as u64 + 1,
            11601856998475820192,
            u64::MAX,
        ] {
            let j = ObjBuilder::new().uint("v", v).build();
            assert_eq!(j.field("v").unwrap().as_u64().unwrap(), v, "field {v}");
            if v <= i64::MAX as u64 {
                assert!(
                    matches!(j.field("v").unwrap(), Json::Int(_)),
                    "small values keep the integer encoding (artifact bytes)"
                );
            }
            assert_eq!(uint_vec(&uint_array(&[v])).unwrap(), vec![v], "array {v}");
        }
        // Emit/parse round trip: the string fallback survives real bytes.
        let j = ObjBuilder::new().uint("seed", u64::MAX).build();
        let back = Json::parse(&j.emit().unwrap()).unwrap();
        assert_eq!(back.field("seed").unwrap().as_u64().unwrap(), u64::MAX);
    }
}
