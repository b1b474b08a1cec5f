//! A tiny JSON writer over the telemetry escaper
//! ([`fmsa::telemetry::json_escape`]) — the daemon's response bodies are
//! flat objects and short arrays, so composing strings beats a
//! serializer dependency (the workspace is dependency-free by policy).

use fmsa::telemetry::json_escape;

/// One JSON value, rendered.
#[derive(Debug, Clone)]
pub struct Json(pub String);

impl Json {
    /// A string value.
    pub fn s(v: &str) -> Json {
        Json(format!("\"{}\"", json_escape(v)))
    }

    /// An integer value.
    pub fn i(v: impl Into<i128>) -> Json {
        Json(v.into().to_string())
    }

    /// A float value (finite; non-finite renders as null).
    pub fn f(v: f64) -> Json {
        if v.is_finite() {
            Json(format!("{v:.6}"))
        } else {
            Json("null".to_owned())
        }
    }

    /// A boolean value.
    pub fn b(v: bool) -> Json {
        Json(v.to_string())
    }

    /// An array of values.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        let inner: Vec<String> = items.into_iter().map(|j| j.0).collect();
        Json(format!("[{}]", inner.join(",")))
    }

    /// An object from key/value pairs.
    pub fn obj<'a>(pairs: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        let inner: Vec<String> =
            pairs.into_iter().map(|(k, v)| format!("\"{}\":{}", json_escape(k), v.0)).collect();
        Json(format!("{{{}}}", inner.join(",")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_control_and_quotes() {
        assert_eq!(Json::s("a\"b\\c\nd\u{1}").0, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn composes_objects() {
        let j = Json::obj([("a", Json::i(1)), ("b", Json::arr([Json::s("x"), Json::b(true)]))]);
        assert_eq!(j.0, "{\"a\":1,\"b\":[\"x\",true]}");
    }
}
