//! No text panics a parser. Junk goes into the four text entry points —
//! `NetworkConfig::parse`, `parse_query`, `parse_rule` and `parse_facts` —
//! and each call must come back `Ok` or with its typed error: arbitrary
//! bytes (read as lossy UTF-8), and valid texts truncated or with one byte
//! substituted, which get past the lexer and reach the parsers' deeper
//! states.

use codb::prelude::*;
use codb::relational::{parse_facts, parse_query, parse_rule};
use proptest::prelude::*;

/// Valid inputs to mutate: a configuration using every directive, and one
/// text for each of the three relational parsers.
const VALID: [&str; 4] = [
    r#"
    % a comment, then every directive
    # another
    version 3
    node hr
    node portal
    schema hr: emp(str, int)
    schema portal: person(str, int)
    schema portal: flag(bool)
    data hr: emp("alice", 30). emp("bo\"b", -17).
    data portal: flag(true).
    rule adults @ hr -> portal: person(N, A) <- emp(N, A), A >= 18, N != "root".
    rule anon @ hr -> portal: person(N, D) <- emp(N, _).
    "#,
    r#"ans(N, X) :- person(N, A), flag(X), A < 99, A <= 98, A > -1, X = true."#,
    r#"rule g: person(N, D), dept(D, "x") <- emp(N, A, _), A >= 18."#,
    "emp(\"a\\nb\", 1). flag(false). t(-42). % trailing comment\n",
];

/// A text entry point, by name, its result dropped.
type Entry = (&'static str, fn(&str));

/// Feeds `text` to every entry point; `Err` names the one that panicked.
fn never_panics(text: &str) -> Result<(), String> {
    let entries: [Entry; 4] = [
        ("NetworkConfig::parse", |t| drop(NetworkConfig::parse(t))),
        ("parse_query", |t| drop(parse_query(t))),
        ("parse_rule", |t| drop(parse_rule(t))),
        ("parse_facts", |t| drop(parse_facts(t))),
    ];
    for (name, entry) in entries {
        if std::panic::catch_unwind(|| entry(text)).is_err() {
            return Err(format!("{name} panicked on {text:?}"));
        }
    }
    Ok(())
}

fn lossy(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// Arbitrary bytes; a valid text cut short; a valid text with one byte
/// replaced — by any byte, or by one of its own (a grammar character in a
/// new place).
fn junk() -> impl Strategy<Value = String> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..200).prop_map(|bytes| lossy(&bytes)),
        (0..VALID.len(), any::<usize>()).prop_map(|(which, cut)| {
            let bytes = VALID[which].as_bytes();
            lossy(&bytes[..cut % (bytes.len() + 1)])
        }),
        (0..VALID.len(), any::<usize>(), any::<u8>(), any::<usize>()).prop_map(
            |(which, at, byte, from)| {
                let mut bytes = VALID[which].as_bytes().to_vec();
                let len = bytes.len();
                bytes[at % len] = if byte % 2 == 0 { byte } else { bytes[from % len] };
                lossy(&bytes)
            }
        ),
    ]
}

/// Case count honouring `PROPTEST_CASES`, as `tests/invariants.rs` does.
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: crate::cases(2_000), ..ProptestConfig::default() })]

    #[test]
    fn junk_text_never_panics_a_parser(text in junk()) {
        never_panics(&text).map_err(TestCaseError::fail)?;
    }
}

/// The valid texts parse, so the mutations start from inputs that reach
/// every parser state.
#[test]
fn the_texts_mutated_are_valid() {
    NetworkConfig::parse(VALID[0]).unwrap();
    parse_query(VALID[1]).unwrap();
    parse_rule(VALID[2]).unwrap();
    parse_facts(VALID[3]).unwrap();
}
