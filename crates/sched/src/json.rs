//! A minimal JSON reader for the trace files and benchmark reports
//! this workspace exchanges. The build environment is offline (no
//! serde), so this hand-rolled recursive-descent parser covers the
//! JSON subset those files use: objects, arrays, strings without
//! escapes beyond `\" \\ \/ \n \t \r`, f64 numbers, booleans and null.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as f64).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order (duplicate keys keep the last).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on an object; `None` on missing key or non-object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The number as a non-negative integer (truncating), if numeric.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64()
            .filter(|x| *x >= 0.0 && x.is_finite())
            .map(|x| x as u64)
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// Deepest nesting of arrays and objects [`parse`] accepts. Documents
/// come from outside the program; the recursive descent must not
/// overflow the stack on hostile input.
pub const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document.
///
/// # Errors
///
/// Returns a message with a byte offset on malformed input, trailing
/// garbage, or arrays and objects nested deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&ch) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", ch as char, pos))
    }
}

/// Parse one value; `depth` counts the arrays and objects around it.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'{' | b'[')) && depth >= MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
        ));
    }
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(JsonValue::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number slice");
    text.parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|_| format!("invalid number `{text}` at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
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
                let escaped = match bytes.get(*pos) {
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    Some(b'/') => '/',
                    Some(b'n') => '\n',
                    Some(b't') => '\t',
                    Some(b'r') => '\r',
                    other => return Err(format!("unsupported escape {other:?} at byte {pos}")),
                };
                out.push(escaped);
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next quote or backslash
                // in one slice. Both delimiters are ASCII, so the run
                // ends on a character boundary of the (valid UTF-8)
                // input and only the run itself is validated.
                let start = *pos;
                let run = bytes[start..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .map_or(bytes.len(), |n| start + n);
                let text = std::str::from_utf8(&bytes[start..run])
                    .map_err(|_| format!("invalid UTF-8 at byte {start}"))?;
                out.push_str(text);
                *pos = run;
            }
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(members));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(
            r#"{"schema": "x/v1", "ok": true, "none": null,
               "nums": [1, -2.5, 3e2], "nested": {"a": {"b": 7}}}"#,
        )
        .expect("valid");
        assert_eq!(v.get("schema").and_then(JsonValue::as_str), Some("x/v1"));
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("none"), Some(&JsonValue::Null));
        let nums = v.get("nums").and_then(JsonValue::as_array).expect("array");
        assert_eq!(nums[1].as_f64(), Some(-2.5));
        assert_eq!(nums[2].as_f64(), Some(300.0));
        let b = v
            .get("nested")
            .and_then(|n| n.get("a"))
            .and_then(|a| a.get("b"));
        assert_eq!(b.and_then(JsonValue::as_u64), Some(7));
    }

    #[test]
    fn parses_strings_with_escapes() {
        let v = parse(r#"["a\"b", "tab\there", "slash\/ok"]"#).expect("valid");
        let items = v.as_array().expect("array");
        assert_eq!(items[0].as_str(), Some("a\"b"));
        assert_eq!(items[1].as_str(), Some("tab\there"));
        assert_eq!(items[2].as_str(), Some("slash/ok"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("nope").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn empty_containers_parse() {
        assert_eq!(parse("{}").expect("obj"), JsonValue::Obj(vec![]));
        assert_eq!(parse("[]").expect("arr"), JsonValue::Arr(vec![]));
        assert_eq!(parse(" 4 ").expect("num").as_u64(), Some(4));
    }

    /// Min-of-5 wall time of parsing `text`, in nanoseconds.
    fn parse_ns(text: &str) -> u128 {
        (0..5)
            .map(|_| {
                let start = std::time::Instant::now();
                parse(text).expect("valid");
                start.elapsed().as_nanos()
            })
            .min()
            .expect("five samples")
    }

    #[test]
    fn parse_time_scales_linearly_in_string_bytes() {
        // An array of strings mixing ASCII, escapes and multi-byte
        // UTF-8, sized to about `bytes`.
        let doc = |bytes: usize| {
            let item = r#""grüße \"τ\" \\ tab\t end","#;
            let mut text = String::from("[");
            while text.len() + item.len() < bytes {
                text.push_str(item);
            }
            text.push_str("\"\"]");
            text
        };
        let small = doc(100_000);
        let large = doc(1_000_000);
        let (t_small, t_large) = (parse_ns(&small), parse_ns(&large));
        assert!(
            t_large <= 15 * t_small.max(1),
            "1 MB took {t_large} ns, 100 kB took {t_small} ns: more than 15x"
        );
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        let err = parse(&deep(MAX_DEPTH + 1)).expect_err("one level too deep");
        assert!(err.contains("nesting"), "{err}");
        let err = parse(&deep(1_000_000)).expect_err("a million levels");
        assert!(err.contains("nesting"), "{err}");
        let objects = format!("{}1{}", "{\"a\":".repeat(1_000), "}".repeat(1_000));
        assert!(parse(&objects).is_err());
    }

    #[test]
    fn duplicate_keys_keep_the_last() {
        let v = parse(r#"{"a": 1, "a": 2}"#).expect("valid");
        assert_eq!(v.get("a").and_then(JsonValue::as_u64), Some(2));
    }
}
