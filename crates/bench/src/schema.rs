//! A dependency-free JSON parser and the schema of `BENCH_kernels.json`
//! (`bookleaf-kernels-v2`: the optimised-vs-reference speedup records).
//!
//! The artifact's shape is a contract: CI validates both the freshly
//! measured file and the committed baseline against this checker
//! (`kernels --validate <file>`), and any shape change must come with a
//! deliberate schema-version bump here.
//!
//! The workspace has no JSON dependency, so this module carries a small
//! recursive-descent parser — objects, arrays, strings with the common
//! escapes, numbers, booleans and null. `benchmark/` reads its result
//! files with it too.

/// The schema version the `kernels` bin emits and this checker accepts.
pub const KERNELS_SCHEMA: &str = "bookleaf-kernels-v2";

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes after the document at offset {pos}"));
        }
        Ok(value)
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at offset {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("invalid number at offset {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at offset {pos}", pos = *pos))?;
                        out.push(char::from_u32(hex).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(&b) => {
                // Multi-byte UTF-8 sequences pass through unchanged.
                let len = match b {
                    0x00..=0x7F => 1,
                    0xC0..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    _ => 4,
                };
                let s = std::str::from_utf8(&bytes[*pos..*pos + len])
                    .map_err(|_| format!("invalid UTF-8 at offset {pos}", pos = *pos))?;
                out.push_str(s);
                *pos += len;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at offset {pos}", pos = *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at offset {pos}", pos = *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at offset {pos}", pos = *pos));
        }
        *pos += 1;
        members.push((key, parse_value(bytes, pos)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {pos}", pos = *pos)),
        }
    }
}

// --------------------------------------------------------- validation

fn expect<'a>(obj: &'a Json, key: &str, want: &str, at: &str) -> Result<&'a Json, String> {
    let v = obj
        .get(key)
        .ok_or_else(|| format!("{at}: missing required key {key:?}"))?;
    let ok = match want {
        "number" => matches!(v, Json::Num(_)),
        "string" => matches!(v, Json::Str(_)),
        "array" => matches!(v, Json::Arr(_)),
        _ => unreachable!(),
    };
    if !ok {
        return Err(format!(
            "{at}: key {key:?} must be a {want}, found {}",
            v.type_name()
        ));
    }
    Ok(v)
}

/// Validate a `BENCH_kernels.json` document against schema v2: the
/// header keys (`host_cores`; `repeats`, the `--repeats` the run was
/// given — each side of a pair is sampled twice that often) and the
/// optimised-vs-reference speedup records.
pub fn validate_kernels_json(text: &str) -> Result<(), String> {
    let doc = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    if !matches!(doc, Json::Obj(_)) {
        return Err("top level must be an object".into());
    }
    match expect(&doc, "schema", "string", "top level")? {
        Json::Str(s) if s == KERNELS_SCHEMA => {}
        Json::Str(s) => {
            return Err(format!(
                "schema is {s:?} but this checker validates {KERNELS_SCHEMA:?}"
            ))
        }
        _ => unreachable!(),
    }
    for key in ["host_cores", "repeats"] {
        expect(&doc, key, "number", "top level")?;
    }
    let Json::Arr(speedups) = expect(&doc, "speedups", "array", "top level")? else {
        unreachable!()
    };
    if speedups.is_empty() {
        return Err("speedups array is empty".into());
    }
    for (s, speedup) in speedups.iter().enumerate() {
        let at = format!("speedups[{s}]");
        expect(speedup, "name", "string", &at)?;
        for key in ["mesh", "baseline_s", "optimised_s", "speedup"] {
            expect(speedup, key, "number", &at)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_the_artifact_grammar() {
        let doc = Json::parse(r#"{"a": [1, -2.5e3, "x\n", true, null], "b": {}}"#).unwrap();
        assert_eq!(doc.get("a").unwrap(), &{
            Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-2500.0),
                Json::Str("x\n".into()),
                Json::Bool(true),
                Json::Null,
            ])
        });
        assert_eq!(doc.get("b"), Some(&Json::Obj(vec![])));
        assert!(Json::parse("{},").is_err(), "trailing garbage accepted");
        assert!(Json::parse(r#"{"a": }"#).is_err());
    }

    #[test]
    fn committed_kernels_baseline_passes_schema_v2() {
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_kernels.json"
        ))
        .expect("committed BENCH_kernels.json");
        validate_kernels_json(&text).unwrap();
    }

    #[test]
    fn kernels_violations_are_named_with_their_path() {
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_kernels.json"
        ))
        .unwrap();
        let broken = text.replacen("\"optimised_s\"", "\"optimised_was\"", 1);
        let err = validate_kernels_json(&broken).unwrap_err();
        assert!(err.contains("optimised_s"), "{err}");
        assert!(err.contains("speedups[0]"), "{err}");

        let wrong_schema = text.replacen("bookleaf-kernels-v2", "bookleaf-kernels-v1", 1);
        let err = validate_kernels_json(&wrong_schema).unwrap_err();
        assert!(err.contains("v1"), "{err}");

        let no_speedups = text.replacen("\"speedups\"", "\"speedwas\"", 1);
        let err = validate_kernels_json(&no_speedups).unwrap_err();
        assert!(err.contains("speedups"), "{err}");
    }
}
