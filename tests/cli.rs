//! Integration tests for the `codb-demo` command-line driver.

use std::io::Write as _;
use std::process::Command;

fn write_config() -> tempfileish::TempPath {
    let mut f = tempfileish::NamedTemp::new("codb-demo-test");
    writeln!(
        f.file,
        r#"
        node hr
        node portal
        schema hr: emp(str, int)
        schema portal: person(str, int)
        data hr: emp("alice", 30). emp("bob", 17).
        rule adults @ hr -> portal: person(N, A) <- emp(N, A), A >= 18.
        "#
    )
    .unwrap();
    f.into_path()
}

/// Minimal self-cleaning temp files (std-only; no external crates).
mod tempfileish {
    use std::fs::File;
    use std::path::PathBuf;

    pub struct NamedTemp {
        pub file: File,
        path: PathBuf,
    }

    pub struct TempPath(PathBuf);

    impl NamedTemp {
        pub fn new(prefix: &str) -> Self {
            let path = std::env::temp_dir().join(format!(
                "{prefix}-{}-{}",
                std::process::id(),
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .unwrap()
                    .as_nanos()
            ));
            NamedTemp { file: File::create(&path).unwrap(), path }
        }

        pub fn into_path(self) -> TempPath {
            TempPath(self.path)
        }
    }

    impl TempPath {
        pub fn as_str(&self) -> &str {
            self.0.to_str().unwrap()
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }
}

fn demo() -> Command {
    Command::new(env!("CARGO_BIN_EXE_codb-demo"))
}

#[test]
fn update_then_show_prints_materialised_data() {
    let config = write_config();
    let out =
        demo().args([config.as_str(), "update", "portal", "show", "portal"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 tuples"), "one adult materialised:\n{stdout}");
    assert!(stdout.contains("\"alice\""));
    assert!(!stdout.contains("\"bob\""));
}

#[test]
fn query_answers_over_the_network() {
    let config = write_config();
    let out = demo()
        .args([config.as_str(), "query", "portal", "ans(N) :- person(N, A)."])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 answers"), "{stdout}");
    assert!(stdout.contains("\"alice\""));
}

#[test]
fn scoped_update_command_works() {
    let config = write_config();
    let out = demo()
        .args([config.as_str(), "scoped-update", "portal", "person", "show", "portal"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("scoped update"));
    assert!(stdout.contains("\"alice\""));
}

#[test]
fn stats_emits_json() {
    let config = write_config();
    let out = demo().args([config.as_str(), "update", "portal", "stats"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let json_start = stdout.find('{').expect("json present");
    let v: serde_json::Value = serde_json::from_str(stdout[json_start..].trim()).unwrap();
    assert!(v.get("nodes").is_some());
}

/// The same fetch twice: the second's report says its answer was the one
/// the origin kept.
#[test]
fn stats_show_a_refetch_answered_by_the_kept_answer() {
    let config = write_config();
    let fetch = "ans(N) :- person(N, A).";
    let args = [config.as_str(), "query", "portal", fetch, "query", "portal", fetch, "stats"];
    let out = demo().args(args).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let v: serde_json::Value =
        serde_json::from_str(stdout[stdout.find('{').unwrap()..].trim()).expect("stats JSON");
    // Maps serialise as arrays of [key, value] pairs.
    let pairs = |v: &serde_json::Value, key: &str| v.get(key).unwrap().as_array().unwrap().clone();
    let nodes = pairs(&v, "nodes");
    let queries = nodes.iter().flat_map(|node| pairs(&node.as_array().unwrap()[1], "queries"));
    let kept: Vec<bool> =
        queries.map(|q| q.as_array().unwrap()[1].get("kept").unwrap().as_bool().unwrap()).collect();
    assert_eq!(kept, [false, true]);
}

#[test]
fn bad_inputs_fail_cleanly() {
    // Missing file.
    let out = demo().args(["/nonexistent.codb", "stats"]).output().unwrap();
    assert!(!out.status.success());
    // Unknown command.
    let config = write_config();
    let out = demo().args([config.as_str(), "frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
    // Unknown node.
    let out = demo().args([config.as_str(), "update", "nope"]).output().unwrap();
    assert!(!out.status.success());
    // Bad query.
    let out =
        demo().args([config.as_str(), "query", "portal", "ans(X) :- nope((("]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn a_query_the_node_cannot_evaluate_fails_and_says_why() {
    let config = write_config();
    for cmd in ["query", "local-query"] {
        for (query, why) in [
            ("ans(X) :- nosuch(X).", "unknown relation nosuch"),
            ("ans(N) :- person(N).", "atom over person has arity 1, relation has 2"),
        ] {
            let out = demo().args([config.as_str(), cmd, "portal", query]).output().unwrap();
            assert!(!out.status.success(), "{cmd} {query}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains(why), "{cmd} {query}: {stderr}");
            assert!(!String::from_utf8_lossy(&out.stdout).contains("answers"));
        }
    }
}

/// Self-cleaning scratch dirs come from codb-store; this wraps one with
/// the &str accessor the Command args want.
struct TempDir(codb::store::ScratchDir);

impl TempDir {
    fn new(prefix: &str) -> Self {
        TempDir(codb::store::ScratchDir::new(prefix))
    }

    fn as_str(&self) -> &str {
        self.0.path().to_str().unwrap()
    }
}

#[test]
fn save_then_separate_invocation_recovers_state() {
    let config = write_config();
    let data = TempDir::new("codb-demo-data");
    // First invocation: materialise at portal and checkpoint it.
    let out = demo()
        .args(["--data-dir", data.as_str(), config.as_str(), "update", "portal", "save", "portal"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("saved portal"), "{stdout}");

    // Second invocation (fresh process): no update, yet alice is there —
    // recovered from the store at startup.
    let out = demo()
        .args(["--data-dir", data.as_str(), config.as_str(), "show", "portal"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"alice\""), "recovered data visible:\n{stdout}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("recovered portal"),
        "startup recovery reported"
    );
}

#[test]
fn recover_command_restores_node_in_process() {
    let config = write_config();
    let data = TempDir::new("codb-demo-recover");
    let out = demo()
        .args([
            "--data-dir",
            data.as_str(),
            config.as_str(),
            "update",
            "portal",
            "recover",
            "portal",
            "show",
            "portal",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("recovered portal"), "{stdout}");
    assert!(stdout.contains("\"alice\""), "WAL replay restored the materialised tuple:\n{stdout}");
}

#[test]
fn save_and_recover_require_data_dir() {
    let config = write_config();
    let out = demo().args([config.as_str(), "save", "portal"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--data-dir"));
    let out = demo().args([config.as_str(), "recover", "portal"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--data-dir"));
    // Unknown options are rejected with usage, not ignored.
    let out = demo().args(["--bogus", config.as_str(), "stats"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

/// The snapshot files under a node's store directory, by magic prefix.
fn snap_magics(store_dir: &std::path::Path) -> Vec<[u8; 8]> {
    let mut magics = Vec::new();
    for entry in std::fs::read_dir(store_dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) == Some("snap") {
            let bytes = std::fs::read(&path).unwrap();
            magics.push(bytes[..8].try_into().unwrap());
        }
    }
    magics
}

#[test]
fn codec_flag_picks_the_on_disk_format_and_interops() {
    let config = write_config();
    let data = TempDir::new("codb-demo-codec");
    // Life 1: write a JSON store (the legacy format, via the flag).
    let out = demo()
        .args([
            "--data-dir",
            data.as_str(),
            "--codec",
            "json",
            config.as_str(),
            "update",
            "portal",
            "save",
            "portal",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let store_dir = std::path::Path::new(data.as_str()).join("portal");
    assert_eq!(snap_magics(&store_dir), vec![*b"CODBSNP1"], "json format byte on disk");

    // Life 2: reopen under the binary codec — the JSON store recovers
    // unchanged, and `save` (a checkpoint) converts it in place.
    let out = demo()
        .args([
            "--data-dir",
            data.as_str(),
            "--codec",
            "binary",
            config.as_str(),
            "save",
            "portal",
            "show",
            "portal",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"alice\""), "JSON store recovered under binary target:\n{stdout}");
    assert_eq!(snap_magics(&store_dir), vec![*b"CODBSNP2"], "save rotated the store to binary");

    // Life 3: the binary store recovers under the default codec.
    let out = demo()
        .args(["--data-dir", data.as_str(), config.as_str(), "show", "portal"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"alice\""));

    // A bogus codec fails cleanly with usage.
    let out = demo().args(["--codec", "yaml", config.as_str(), "stats"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown codec"));
}

/// The usage text and the flags the binary actually accepts must stay in
/// sync, in both directions: every flag named in the usage string is
/// accepted (asking for its argument, not rejected as unknown), and
/// every flag the binary accepts is named in the usage string.
#[test]
fn usage_text_stays_in_sync_with_accepted_flags() {
    // Provoke the usage text with an unknown option.
    let out = demo().args(["--definitely-not-a-flag"]).output().unwrap();
    assert!(!out.status.success());
    let usage = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(usage.contains("usage:"), "{usage}");

    // Direction 1: every `--flag` the usage advertises is accepted. A
    // flag passed with no argument must answer "<flag> needs ..." — an
    // unknown flag would answer "unknown option" instead.
    let mut advertised: Vec<String> = usage
        .split(|c: char| c.is_whitespace() || "[]|".contains(c))
        .filter(|w| w.starts_with("--"))
        .map(|w| w.trim_end_matches(|c: char| !c.is_ascii_alphanumeric()).to_string())
        .collect();
    advertised.sort();
    advertised.dedup();
    assert_eq!(
        advertised,
        vec!["--codec", "--data-dir", "--sync", "--trace"],
        "the usage text advertises exactly the known flags:\n{usage}"
    );
    for flag in &advertised {
        let out = demo().args([flag.as_str()]).output().unwrap();
        assert!(!out.status.success());
        let err = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(
            err.contains(&format!("{flag} needs")),
            "{flag} is advertised but not accepted: {err}"
        );
        assert!(!err.contains("unknown option"), "{flag}: {err}");
    }

    // Direction 2: every command the dispatcher knows is listed too,
    // including the offline trace subcommands.
    for cmd in [
        "update",
        "scoped-update",
        "query",
        "local-query",
        "show",
        "save",
        "recover",
        "stats",
        "trace dump",
        "trace inspect",
        "trace diff",
    ] {
        assert!(usage.contains(cmd), "command {cmd} missing from usage:\n{usage}");
    }
}

/// `--trace` records a run, and the offline `trace dump` / `trace
/// inspect` subcommands read it back — the whole flight-recorder loop
/// through one binary.
#[test]
fn trace_flag_records_and_subcommands_read_back() {
    let config = write_config();
    let data = TempDir::new("codb-demo-trace");
    let trace_path = std::path::Path::new(data.as_str()).join("run.trc");
    let trace = trace_path.to_str().unwrap();
    let out = demo()
        .args([
            "--data-dir",
            data.as_str(),
            "--trace",
            trace,
            config.as_str(),
            "update",
            "portal",
            "save",
            "portal",
            "query",
            "portal",
            "ans(N) :- person(N, A).",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("wrote trace"), "flush reported");
    let magic = &std::fs::read(&trace_path).unwrap()[..8];
    assert_eq!(magic, b"CODBTRC1", "trace file magic");

    // dump prints one line per event, including layer-spanning kinds.
    let out = demo().args(["trace", "dump", trace]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let dump = String::from_utf8_lossy(&out.stdout).to_string();
    for needle in ["phase-begin update", "send", "wal", "fsync", "apply"] {
        assert!(dump.contains(needle), "dump misses {needle}:\n{dump}");
    }

    // inspect summarises phases (one per command) and traffic.
    let out = demo().args(["trace", "inspect", trace]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let inspect = String::from_utf8_lossy(&out.stdout).to_string();
    for needle in ["phases (3)", "update", "save", "query", "per-peer traffic", "tail clean"] {
        assert!(inspect.contains(needle), "inspect misses {needle}:\n{inspect}");
    }

    // Offline mode fails cleanly on garbage.
    let out = demo().args(["trace", "inspect", "/nonexistent.trc"]).output().unwrap();
    assert!(!out.status.success());
    let out = demo().args(["trace", "frobnicate", trace]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown trace subcommand"));
    let out = demo().args(["trace"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
    // A non-trace file is rejected as bad magic, not misparsed.
    let out = demo().args(["trace", "dump", config.as_str()]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("magic"));
}

/// `trace diff` says where two captures part and by how much, exits 1 when
/// they do, and finds nothing between a capture and itself.
#[test]
fn trace_diff_reports_the_first_divergence_and_the_count_deltas() {
    let config = write_config();
    let dir = TempDir::new("codb-demo-trace-diff");
    let record = |name: &str, commands: &[&str]| -> String {
        let path = std::path::Path::new(dir.as_str()).join(name).to_str().unwrap().to_owned();
        let out = demo().args(["--trace", &path, config.as_str()]).args(commands).output().unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        path
    };
    let short = record("short.trc", &["update", "portal"]);
    let long =
        record("long.trc", &["update", "portal", "query", "portal", "ans(N) :- person(N, A)."]);

    let out = demo().args(["trace", "diff", &short, &short]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("identical: "));

    let out = demo().args(["trace", "diff", &short, &long]).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "captures that differ exit 1");
    let diff = String::from_utf8_lossy(&out.stdout).to_string();
    // The phase markers stamp host time, so two recordings part at the
    // first one; the counts say what the longer run did more of.
    for needle in ["first divergence at event ", "  A: ", "  B: ", "per event kind:", "NetSend"] {
        assert!(diff.contains(needle), "diff misses {needle:?}:\n{diff}");
    }
    let phases = diff.lines().find(|l| l.trim_start().starts_with("PhaseBegin")).unwrap();
    assert!(phases.ends_with("+1"), "the query is one more phase: {phases}");
    assert!(diff.contains("net events per payload size"), "{diff}");

    let out = demo().args(["trace", "diff", &short]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("exactly 2 FILE"));
}

#[test]
fn sync_flag_selects_the_policy_and_rejects_garbage() {
    let config = write_config();
    let data = TempDir::new("codb-demo-sync");
    // Group commit end to end: materialise, checkpoint, then recover in
    // a second invocation — the shared-scheduler policy must persist and
    // recover exactly like `always`.
    let out = demo()
        .args([
            "--data-dir",
            data.as_str(),
            "--sync",
            "group:16,4",
            config.as_str(),
            "update",
            "portal",
            "save",
            "portal",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = demo()
        .args([
            "--data-dir",
            data.as_str(),
            "--sync",
            "group:16,4",
            config.as_str(),
            "show",
            "portal",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("\"alice\""),
        "group-commit store recovered"
    );

    // everyN needs its N; garbage policies fail cleanly with usage.
    for bad in ["everyN", "fsync", "group:x"] {
        let out = demo().args(["--sync", bad, config.as_str(), "stats"]).output().unwrap();
        assert!(!out.status.success(), "--sync {bad} must be rejected");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage:"), "--sync {bad}: {err}");
    }
}
