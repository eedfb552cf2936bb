//! A dependency-free JSON reader for the reports [`JsonValue::to_json`]
//! writes: the sweeps' JSON files, `chaos_sweep` repro files and the
//! benchmark declaration.

use crate::report::JsonValue;

/// Parses compact or pretty JSON into a [`JsonValue`]. Supports exactly
/// the constructs [`JsonValue::to_json`] emits (strict RFC-8259 subset:
/// no comments, no trailing commas) — enough to read back any report
/// this crate has written.
///
/// # Errors
///
/// Returns a byte-offset-tagged message on malformed input.
pub fn parse_json(s: &str) -> Result<JsonValue, String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => parse_keyword(bytes, pos, "null", JsonValue::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(JsonValue::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
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
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        // Exactly four hex digits, no sign.
                        let code = hex
                            .iter()
                            .try_fold(0u32, |acc, &h| {
                                char::from(h).to_digit(16).map(|d| acc * 16 + d)
                            })
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        // Surrogates never appear in our own output; map
                        // them to the replacement character on read.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so byte
                // boundaries are valid).
                let rest = &bytes[*pos..];
                let s = unsafe { std::str::from_utf8_unchecked(rest) };
                let c = s.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

/// Scans one RFC-8259 number: `-? (0 | [1-9][0-9]*) (. [0-9]+)?
/// ([eE] [+-]? [0-9]+)?`. A leading `+`, a bare `.`, a leading zero
/// before more digits and a trailing `.` are all rejected. Integers that
/// fit `i64` come back as [`JsonValue::Int`], everything else as
/// [`JsonValue::Num`].
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    let digits = |pos: &mut usize| {
        let from = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos - from
    };
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    match bytes.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(b'1'..=b'9') => {
            digits(pos);
        }
        _ if *pos == start => return Err(format!("expected a value at byte {start}")),
        _ => return Err(format!("bad number at byte {start}")),
    }
    let mut integral = true;
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if digits(pos) == 0 {
            return Err(format!("bad number at byte {start}: no digits after '.'"));
        }
        integral = false;
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if digits(pos) == 0 {
            return Err(format!("bad number at byte {start}: no exponent digits"));
        }
        integral = false;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii");
    if integral {
        if let Ok(i) = text.parse::<i64>() {
            return Ok(JsonValue::Int(i));
        }
    }
    text.parse::<f64>().map(JsonValue::Num).map_err(|_| format!("bad number {text:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_json_round_trips_report_output() {
        let v = JsonValue::obj(vec![
            ("n", JsonValue::Int(3)),
            ("x", JsonValue::Num(0.25)),
            ("neg", JsonValue::Num(-1.5e-3)),
            ("ok", JsonValue::Bool(true)),
            ("none", JsonValue::Null),
            ("name", JsonValue::Str("a \"b\"\n\ttail\\".into())),
            ("xs", JsonValue::Arr(vec![JsonValue::Int(-7), JsonValue::Num(2.0)])),
            ("o", JsonValue::obj(vec![("k", JsonValue::Str("v".into()))])),
            // Every number form `to_json` writes: `{x:?}` floats (always
            // marked as floats) and the integer extremes.
            (
                "floats",
                JsonValue::Arr(
                    [1.0, 1e-7, -0.0, 1e20, f64::MAX, f64::MIN_POSITIVE, 123456.75]
                        .map(JsonValue::Num)
                        .into(),
                ),
            ),
            ("ints", JsonValue::Arr(vec![JsonValue::Int(i64::MAX), JsonValue::Int(i64::MIN)])),
        ]);
        let parsed = parse_json(&v.to_json()).expect("parse");
        assert_eq!(parsed, v);
        // And the serialisation itself round-trips byte-for-byte (which
        // also keeps the sign of `-0.0`).
        assert_eq!(parsed.to_json(), v.to_json());
        // Non-finite values are written as `null`.
        assert_eq!(parse_json(&JsonValue::Num(f64::NAN).to_json()), Ok(JsonValue::Null));
    }

    #[test]
    fn parse_json_accepts_whitespace_and_rejects_garbage() {
        assert_eq!(
            parse_json(" { \"a\" : [ 1 , 2 ] } \n").expect("parse"),
            JsonValue::obj(vec![("a", JsonValue::Arr(vec![JsonValue::Int(1), JsonValue::Int(2)]))])
        );
        assert_eq!(parse_json("\"\\u0041\"").expect("parse"), JsonValue::Str("A".into()));
        assert!(parse_json("").is_err());
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{\"a\":1}tail").is_err());
        assert!(parse_json("nil").is_err());
        // Forms outside the RFC-8259 grammar that a lenient scanner
        // would read as numbers or escapes.
        for bad in ["+1", ".5", "01", "1.", "\"\\u+041\"", "-", "1e", "1e+", "-01", "[01]", "1.e5"]
        {
            assert!(parse_json(bad).is_err(), "{bad} must be rejected");
        }
    }
}
