use perfbench::json::{parse, Value};
use perfbench::report::checked_line;

#[test]
fn parser_rejects_duplicate_keys_at_any_depth() {
    assert!(parse(r#"{"a":1,"a":2}"#).is_err());
    assert!(parse(r#"{"x":{"peak_rss_bytes":1,"peak_rss_bytes":2}}"#).is_err());
    assert!(parse(r#"[{"a":1},{"a":2}]"#).is_ok());
}

#[test]
fn parser_rejects_malformed_documents() {
    for bad in [
        "",
        "{",
        "{\"a\":}",
        "[1,]",
        "{\"a\":1} x",
        "01",
        "1.",
        "-",
        "\"\\q\"",
        "nul",
        "[1 2]",
    ] {
        assert!(parse(bad).is_err(), "{bad:?} should not parse");
    }
    let deep = "[".repeat(100) + &"]".repeat(100);
    assert!(parse(&deep).is_err());
}

#[test]
fn numbers_round_trip_bit_for_bit() {
    for v in [0.1, 1.0 / 3.0, 2.5e-300, 123456789.123, -0.0, 1e21, 5e-324] {
        let text = Value::Number(v).render();
        let back = parse(&text).expect("rendered number parses");
        assert_eq!(back.as_f64().map(f64::to_bits), Some(v.to_bits()), "{text}");
    }
}

#[test]
fn strings_escape_and_unescape() {
    let s = "quote \" slash \\ newline \n tab \t bell \u{7} é 😀";
    let text = Value::from(s).render();
    assert_eq!(
        parse(&text).expect("escaped string parses").as_str(),
        Some(s)
    );
    assert_eq!(
        parse(r#""\ud83d\ude00""#).expect("surrogate pair").as_str(),
        Some("😀")
    );
}

#[test]
fn checked_line_keeps_insertion_order_and_nesting() {
    let mut inner = Value::object();
    inner.insert("value", 1.25).insert("unit", "ms");
    let mut v = Value::object();
    v.insert("correct", true)
        .insert("attempted", 3usize)
        .insert("metrics", inner);
    let line = checked_line(&v).expect("well-formed");
    assert_eq!(
        line,
        r#"{"correct":true,"attempted":3,"metrics":{"value":1.25,"unit":"ms"}}"#
    );
    assert_eq!(parse(&line).expect("parses"), v);
}

#[test]
#[should_panic(expected = "duplicate JSON key")]
fn writer_refuses_duplicate_keys() {
    let mut v = Value::object();
    v.insert("peak_rss_bytes", 1usize)
        .insert("peak_rss_bytes", 2usize);
}
