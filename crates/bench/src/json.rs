//! Minimal JSON parser and draft-07-subset schema validator.
//!
//! The harness validates its own machine-readable exports — metrics
//! registries, ledgers — without a serde dependency
//! (the build environment has no registry access). The validator
//! implements exactly the subset the checked-in schemas use: `type`,
//! `required`, `properties`, `additionalProperties: false`, `items`,
//! `minItems` / `maxItems`, `minimum`, and `$ref` into
//! `#/definitions` (the contract previously enforced by
//! `tools/validate_metrics.py`, now retired).

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
///
/// Integers parse into [`Value::Int`] (as `i128`, wide enough for any
/// `u64` the exporters emit, e.g. control-flow digests); numbers with
/// a fraction or exponent parse into [`Value::Float`]. The split
/// mirrors Python's `int` vs `float` so `"type": "integer"` means the
/// same thing it meant under the retired Python validator.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written without fraction or exponent.
    Int(i128),
    /// A number written with a fraction or exponent.
    Float(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order (duplicate keys keep the last).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object member lookup (linear scan; objects here are small).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Follows a `/`-separated path of object keys and array indices.
    pub fn at(&self, path: &str) -> Option<&Value> {
        let mut node = self;
        for part in path.split('/') {
            node = match node {
                Value::Arr(items) => items.get(part.parse::<usize>().ok()?)?,
                _ => node.get(part)?,
            };
        }
        Some(node)
    }

    /// Numeric view (int or float).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Short type name for error messages.
    fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "boolean",
            Value::Int(_) => "integer",
            Value::Float(_) => "number",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        }
    }
}

/// A parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "byte {}: {}", self.offset, self.message)
    }
}

/// Parses one JSON document (rejecting trailing garbage).
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(&c) = self.bytes.get(self.pos) {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    fractional = true;
                    self.pos += 1;
                }
                b'+' | b'-' if fractional => self.pos += 1,
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("number is not UTF-8"))?;
        if fractional {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err("bad number"))
        } else {
            text.parse::<i128>()
                .map(Value::Int)
                .map_err(|_| self.err("bad integer"))
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates only appear in exports we
                            // don't produce; map them to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(&c) if c < 0x20 => return Err(self.err("raw control byte in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (multi-byte sequences pass
                    // through unvalidated-by-us; the input is &str).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("bad UTF-8"))?;
                    let ch = match s.chars().next() {
                        Some(ch) => ch,
                        None => return Err(self.err("unterminated string")),
                    };
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.pos += 1; // '{'
        let mut members = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b'"') {
                return Err(self.err("object key must be a string"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b':') {
                return Err(self.err("missing ':'"));
            }
            self.pos += 1;
            let v = self.value()?;
            members.push((key, v));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }
}

/// Flattens every numeric leaf into `dotted.path -> value` (arrays as
/// `path[i]`), sorted by path — the input to `harness diff`.
pub fn flatten_numbers(v: &Value) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    walk(v, String::new(), &mut out);
    out
}

fn walk(v: &Value, path: String, out: &mut BTreeMap<String, f64>) {
    match v {
        Value::Int(_) | Value::Float(_) => {
            if let Some(n) = v.as_f64() {
                out.insert(path, n);
            }
        }
        Value::Bool(b) => {
            // Booleans diff as 0/1 so `configs_bit_identical: false`
            // shows up as a delta, not a silently skipped leaf.
            out.insert(path, if *b { 1.0 } else { 0.0 });
        }
        Value::Obj(members) => {
            for (k, sub) in members {
                let p = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                walk(sub, p, out);
            }
        }
        Value::Arr(items) => {
            for (i, sub) in items.iter().enumerate() {
                walk(sub, format!("{path}[{i}]"), out);
            }
        }
        Value::Null | Value::Str(_) => {}
    }
}

/// Validates `value` against a draft-07-subset `schema`, returning
/// every violation (empty = conforms).
pub fn validate_schema(value: &Value, schema: &Value) -> Vec<String> {
    let mut errors = Vec::new();
    check(value, schema, schema, "$", &mut errors);
    errors
}

fn resolve<'a>(mut schema: &'a Value, root: &'a Value, errors: &mut Vec<String>) -> &'a Value {
    let mut hops = 0;
    while let Some(Value::Str(r)) = schema.get("$ref") {
        hops += 1;
        if hops > 32 {
            errors.push(format!("$ref chain too deep at {r}"));
            return schema;
        }
        let Some(target) = r.strip_prefix("#/").and_then(|p| root.at(p)) else {
            errors.push(format!("unresolvable $ref {r}"));
            return schema;
        };
        schema = target;
    }
    schema
}

fn type_ok(value: &Value, ty: &str) -> bool {
    match ty {
        "object" => matches!(value, Value::Obj(_)),
        "array" => matches!(value, Value::Arr(_)),
        "integer" => matches!(value, Value::Int(_)),
        "number" => matches!(value, Value::Int(_) | Value::Float(_)),
        "string" => matches!(value, Value::Str(_)),
        "null" => matches!(value, Value::Null),
        "boolean" => matches!(value, Value::Bool(_)),
        _ => false,
    }
}

fn check(value: &Value, schema: &Value, root: &Value, path: &str, errors: &mut Vec<String>) {
    let schema = resolve(schema, root, errors);

    if let Some(ty) = schema.get("type") {
        let types: Vec<&str> = match ty {
            Value::Str(s) => vec![s.as_str()],
            Value::Arr(items) => items.iter().filter_map(|t| t.as_str()).collect(),
            _ => vec![],
        };
        if !types.iter().any(|t| type_ok(value, t)) {
            errors.push(format!(
                "{path}: expected {types:?}, got {}",
                value.type_name()
            ));
            return;
        }
    }

    if let (Some(n), Some(min)) = (
        value.as_f64(),
        schema.get("minimum").and_then(Value::as_f64),
    ) {
        if n < min {
            errors.push(format!("{path}: {n} < minimum {min}"));
        }
    }

    if let Value::Obj(members) = value {
        if let Some(Value::Arr(required)) = schema.get("required") {
            for key in required.iter().filter_map(Value::as_str) {
                if value.get(key).is_none() {
                    errors.push(format!("{path}: missing required key {key:?}"));
                }
            }
        }
        let props = schema.get("properties");
        if schema.get("additionalProperties") == Some(&Value::Bool(false)) {
            for (key, _) in members {
                if props.and_then(|p| p.get(key)).is_none() {
                    errors.push(format!("{path}: unexpected key {key:?}"));
                }
            }
        }
        if let Some(Value::Obj(props)) = props {
            for (key, sub) in props {
                if let Some(v) = value.get(key) {
                    check(v, sub, root, &format!("{path}.{key}"), errors);
                }
            }
        }
    }

    if let Value::Arr(items) = value {
        if let Some(min) = schema.get("minItems").and_then(Value::as_f64) {
            if (items.len() as f64) < min {
                errors.push(format!("{path}: {} items < minItems {min}", items.len()));
            }
        }
        if let Some(max) = schema.get("maxItems").and_then(Value::as_f64) {
            if (items.len() as f64) > max {
                errors.push(format!("{path}: {} items > maxItems {max}", items.len()));
            }
        }
        if let Some(item_schema) = schema.get("items") {
            for (i, item) in items.iter().enumerate() {
                check(item, item_schema, root, &format!("{path}[{i}]"), errors);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        let v = parse(
            r#"{"a": 1, "b": -2.5, "c": [true, null, "x\nA"], "d": {"e": 18446744073709551615}}"#,
        )
        .expect("parses");
        assert_eq!(v.at("a"), Some(&Value::Int(1)));
        assert_eq!(v.at("b"), Some(&Value::Float(-2.5)));
        assert_eq!(v.at("c").and_then(Value::as_arr).map(|a| a.len()), Some(3));
        assert_eq!(
            v.at("c").unwrap().as_arr().unwrap()[2].as_str(),
            Some("x\nA")
        );
        // u64::MAX round-trips through i128, no precision loss.
        assert_eq!(v.at("d/e"), Some(&Value::Int(u64::MAX as i128)));
        assert!(parse("{} trailing").is_err());
        assert!(parse("{\"k\": }").is_err());
    }

    #[test]
    fn flattens_numeric_leaves() {
        let v = parse(r#"{"a": {"b": 1, "ok": true}, "c": [2, {"d": 3.5}], "s": "skip"}"#)
            .expect("parses");
        let flat = flatten_numbers(&v);
        assert_eq!(flat.get("a.b"), Some(&1.0));
        assert_eq!(flat.get("a.ok"), Some(&1.0));
        assert_eq!(flat.get("c[0]"), Some(&2.0));
        assert_eq!(flat.get("c[1].d"), Some(&3.5));
        assert_eq!(flat.len(), 4);
    }

    #[test]
    fn schema_subset_matches_python_semantics() {
        let schema = parse(
            r##"{
              "type": "object",
              "required": ["n", "arr"],
              "additionalProperties": false,
              "properties": {
                "n": {"$ref": "#/definitions/count"},
                "g": {"type": ["integer", "null"]},
                "arr": {"type": "array", "minItems": 1, "maxItems": 2,
                        "items": {"$ref": "#/definitions/count"}}
              },
              "definitions": {"count": {"type": "integer", "minimum": 0}}
            }"##,
        )
        .expect("schema parses");
        let ok = parse(r#"{"n": 3, "g": null, "arr": [0, 1]}"#).expect("parses");
        assert!(validate_schema(&ok, &schema).is_empty());

        let bad = parse(r#"{"n": -1, "extra": 0, "arr": [1.5, 0, 2]}"#).expect("parses");
        let errs = validate_schema(&bad, &schema);
        // -1 below minimum, unexpected key, 3 items > maxItems, 1.5
        // not an integer.
        assert_eq!(errs.len(), 4, "{errs:?}");
        let all = errs.join("; ");
        assert!(all.contains("minimum"), "{all}");
        assert!(all.contains("unexpected key"), "{all}");
        assert!(all.contains("maxItems"), "{all}");
        assert!(all.contains("expected"), "{all}");
    }

    #[test]
    fn missing_required_and_bad_ref_reported() {
        let schema = parse(
            r##"{"type": "object", "required": ["x"], "properties": {"x": {"$ref": "#/definitions/nope"}}}"##,
        )
        .expect("parses");
        let v = parse(r#"{"x": 1}"#).expect("parses");
        let errs = validate_schema(&v, &schema);
        assert!(
            errs.iter().any(|e| e.contains("unresolvable $ref")),
            "{errs:?}"
        );
        let empty = parse("{}").expect("parses");
        let errs = validate_schema(&empty, &schema);
        assert!(
            errs.iter().any(|e| e.contains("missing required key")),
            "{errs:?}"
        );
    }
}
