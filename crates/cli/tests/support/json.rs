//! Minimal JSON reader used to validate `td --report` documents.
//!
//! The workspace deliberately carries no JSON dependency; the engine
//! hand-renders its reports and this test-support module hand-parses them
//! back. It is a plain recursive-descent parser over the full JSON grammar
//! (objects, arrays, strings with escapes, numbers, booleans, null) —
//! small, strict, and sufficient for the schema checks of
//! `report_smoke.rs`, which compiles it in with `#[path]`.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Member of an object, if this is an object and the key exists.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Walk a dotted path of object members.
    pub fn path(&self, path: &str) -> Option<&Value> {
        let mut cur = self;
        for seg in path.split('.') {
            cur = cur.get(seg)?;
        }
        Some(cur)
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parse a complete JSON document (rejects trailing garbage).
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            // Surrogate pairs are not emitted by our writers;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape `\\{}`", other as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte safe).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| "invalid UTF-8")?;
                    let c = s.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }
}

/// Validate a `td --report` document: well-formed JSON carrying the
/// `td-run-report/v2` schema tag, both config echoes, a non-empty goal
/// list, and a metrics snapshot whose `steps` counter shows the search
/// actually ran.
pub fn validate_run_report(text: &str) -> Result<Value, String> {
    let doc = parse(text)?;
    let schema = doc
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("missing `schema`")?;
    if schema != "td-run-report/v2" {
        return Err(format!("unexpected schema `{schema}`"));
    }
    for key in ["command", "file"] {
        doc.get(key)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("missing `{key}`"))?;
    }
    doc.get("wall_ms")
        .and_then(Value::as_f64)
        .ok_or("missing `wall_ms`")?;
    for key in ["config.requested", "config.effective"] {
        match doc.path(key) {
            Some(Value::Obj(_)) => {}
            _ => return Err(format!("missing object `{key}`")),
        }
    }
    doc.path("outcome.ok")
        .and_then(Value::as_bool)
        .ok_or("missing `outcome.ok`")?;
    let goals = doc
        .get("goals")
        .and_then(Value::as_arr)
        .ok_or("missing `goals`")?;
    if goals.is_empty() {
        return Err("empty `goals`".into());
    }
    for g in goals {
        g.get("ok")
            .and_then(Value::as_bool)
            .ok_or("goal without `ok`")?;
    }
    let steps = doc
        .path("metrics.counters.steps")
        .and_then(Value::as_f64)
        .ok_or("missing `metrics.counters.steps`")?;
    if steps <= 0.0 {
        return Err("metrics report zero search steps".into());
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_structures() {
        let v =
            parse(r#"{"a": [1, -2.5, 1e3], "b": "x\ny", "c": {"d": null, "e": true}}"#).unwrap();
        assert_eq!(v.path("c.d"), Some(&Value::Null));
        assert_eq!(v.path("c.e").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\ny"));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[1].as_f64(), Some(-2.5));
        assert_eq!(arr[2].as_f64(), Some(1000.0));
    }

    #[test]
    fn parses_unicode_escapes() {
        let v = parse(r#""éA""#).unwrap();
        assert_eq!(v.as_str(), Some("éA"));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"open").is_err());
    }

    fn sample_report() -> String {
        r#"{
  "schema": "td-run-report/v2",
  "command": "run",
  "file": "corpus/x.td",
  "wall_ms": 1.25,
  "config": {"requested": {"k": 1}, "effective": {"k": 1}},
  "outcome": {"ok": true, "goals": 1, "failed": 0},
  "goals": [{"goal": "g", "ok": true, "error": null, "counters": {"steps": 4}}],
  "final_state": null,
  "cache": null,
  "metrics": {"runs": 1, "counters": {"steps": 4}, "gauges": {},
              "rule_unfolds": {}, "backtrack_depths": [], "cache_subgoals": {}}
}"#
        .to_owned()
    }

    #[test]
    fn accepts_a_well_formed_report() {
        let doc = validate_run_report(&sample_report()).unwrap();
        assert_eq!(doc.path("outcome.ok").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn rejects_schema_and_shape_violations() {
        let bad_schema = sample_report().replace("td-run-report/v2", "nope/v0");
        assert!(validate_run_report(&bad_schema)
            .unwrap_err()
            .contains("schema"));
        let no_goals = sample_report().replace(
            r#"[{"goal": "g", "ok": true, "error": null, "counters": {"steps": 4}}]"#,
            "[]",
        );
        assert!(validate_run_report(&no_goals)
            .unwrap_err()
            .contains("goals"));
        let zero_steps = sample_report().replace(
            "\"counters\": {\"steps\": 4}, \"gauges\"",
            "\"counters\": {\"steps\": 0}, \"gauges\"",
        );
        assert!(validate_run_report(&zero_steps)
            .unwrap_err()
            .contains("steps"));
    }
}
