// Fixture: a real finding surrounded by syntax that trips naive
// lexers — raw strings, nested block comments, char literals holding
// delimiters, lifetime ticks. The comparison on the last line must survive.
fn mix<'a>(x: f64, s: &'a str) -> bool {
    let raw = r#"a raw " string with ) and `y == 0.5` inside"#;
    let raw2 = r##"one hash deep: "# still open here"##;
    /* block /* nested */ comment mentioning z != 1.5 */
    let close = ')';
    let quote = '"';
    let bq = b'\'';
    let _ = (raw, raw2, close, quote, bq, s);
    x == 0.5
}
