// Fixture: every would-be finding is inside a literal or comment — a
// lexer that mis-tracks raw-string hashes, nested block comments, or
// char literals will hallucinate findings here.
fn mix<'a>(s: &'a str) -> usize {
    let raw = r#"x == 0.5 and v.unwrap() and a == 0.0 in a raw string"#;
    let raw2 = r##"b != 2.5 beyond "# one hash"##;
    /* outer /* inner: y == 1.0, w != 1.5 */ still comment: q == 0.25 */
    let close = ')';
    let quote = '"';
    let bq = b'"';
    let esc = "escaped \" quote then `z != 0.75`";
    raw.len() + raw2.len() + esc.len() + s.len() + usize::from(close == quote) + usize::from(bq)
}
