//! Byte-deterministic JSON fragment helpers shared by the metrics
//! exporters and the downstream report serializers
//! (`ServeReport::to_json`, `DsePoint::to_json`).
//!
//! The rules mirror `lumos_trace`'s Chrome export: strings escape
//! control characters, finite floats use Rust's deterministic
//! shortest-roundtrip `Display`, and non-finite floats render as
//! `null` (JSON has no NaN/inf). Nothing here reads the wall clock or
//! iterates an unordered map, so callers that feed deterministic data
//! get byte-identical documents across reruns.

/// Escapes `s` for inclusion inside a JSON string literal (without the
/// surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Renders `s` as a quoted JSON string literal.
pub fn string(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// Renders a float as a JSON number: finite values via Rust's
/// shortest-roundtrip `Display`, non-finite values as `null`.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

/// Renders a float slice as a JSON array of [`num`] values.
pub fn num_array(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|x| num(*x)).collect();
    format!("[{}]", items.join(","))
}

/// Renders an unsigned slice as a JSON array.
pub fn u64_array(xs: &[u64]) -> String {
    let items: Vec<String> = xs.iter().map(|x| format!("{x}")).collect();
    format!("[{}]", items.join(","))
}

/// Builds a JSON object from pre-rendered `(key, value-fragment)`
/// pairs, in the given (stable) order.
pub fn object(fields: &[(&str, String)]) -> String {
    let items: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{}\":{}", escape(k), v))
        .collect();
    format!("{{{}}}", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_controls_quotes_and_backslashes() {
        assert_eq!(escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
        assert_eq!(string("λ"), "\"λ\"");
    }

    #[test]
    fn non_finite_floats_render_null() {
        assert_eq!(num(1.5), "1.5");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
        assert_eq!(num_array(&[0.25, f64::NAN]), "[0.25,null]");
    }

    #[test]
    fn object_preserves_field_order() {
        let o = object(&[("b", "1".to_owned()), ("a", string("x"))]);
        assert_eq!(o, "{\"b\":1,\"a\":\"x\"}");
    }
}
