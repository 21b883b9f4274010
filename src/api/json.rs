//! The JSON value model, parser and writer shared by the serve protocol
//! codec and the `--format json` renderers. It lives in `lalrcex-core`,
//! the lowest crate that both the lint crate and this facade depend on,
//! and is re-exported here whole.

pub use lalrcex_core::json::*;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_a_request_shaped_object() {
        let text = r#"{"op":"analyze","id":"r1","workers":4,"extended":false,"grammar":"%% e : e '+' e | NUM ;"}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("analyze"));
        assert_eq!(v.get("workers").and_then(Json::as_u64), Some(4));
        assert_eq!(v.get("extended").and_then(Json::as_bool), Some(false));
        assert_eq!(v.to_string(), text, "writer preserves member order");
    }

    #[test]
    fn escapes_roundtrip() {
        let v = parse(r#""a\"b\\c\nd\u0041\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndAé😀"));
        let back = parse(&v.to_string()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1,}",
            "\"\\ud800\"",
            "nan",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn rejects_deep_nesting_without_overflow() {
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn numbers_parse_and_print() {
        assert_eq!(parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(parse("-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(Json::num(42u32).to_string(), "42");
        assert_eq!(Json::Num(1.25).to_string(), "1.25");
    }

    #[test]
    fn builder_preserves_order() {
        let v = obj()
            .push("z", Json::num(1u32))
            .push("a", Json::str("x"))
            .build();
        assert_eq!(v.to_string(), r#"{"z":1,"a":"x"}"#);
    }

    #[test]
    fn unicode_strings_pass_through() {
        let v = parse("\"héllo — 世界\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo — 世界"));
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }
}
