//! The `exp` command line rejects what it does not know: an argument it
//! would otherwise drop, a retired id, a flag without its value. Every
//! case must fail before any experiment runs.

use std::process::Command;

/// Runs `exp ARGS`, demands a non-zero exit with nothing on stdout, and
/// returns stderr.
fn rejected(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_exp")).args(args).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(!out.status.success(), "`exp {}` must fail: {stderr}", args.join(" "));
    assert!(out.stdout.is_empty(), "`exp {}` ran something before failing", args.join(" "));
    stderr
}

#[test]
fn unknown_and_retired_ids_list_the_registry() {
    let ids: Vec<&str> = codb_bench::EXPERIMENTS.iter().map(|(id, _)| *id).collect();
    let cases: [&[&str]; 8] = [
        &["all", "bogus"],
        &["e4", "bogus"],
        &["e11"],
        &["e19"],
        &["e20"],
        &["e19-quick"],
        &["e20-quick"],
        &["--quick"],
    ];
    for args in cases {
        let stderr = rejected(args);
        let bad = args.last().unwrap();
        assert!(stderr.contains(&format!("unknown experiment {bad:?}")), "{stderr}");
        assert!(stderr.contains(&ids.join(", ")), "the message lists every id: {stderr}");
    }
}

#[test]
fn timeline_rejects_an_unknown_topology() {
    let stderr = rejected(&["timeline", "bogus"]);
    assert!(stderr.contains("unknown timeline topology \"bogus\" (use chain, ring or grid)"));
}

#[test]
fn json_needs_a_path() {
    assert!(rejected(&["e4", "--json"]).contains("--json needs a PATH"));
}
