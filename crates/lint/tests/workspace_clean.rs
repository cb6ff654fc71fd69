//! The real workspace must lint clean: every invariant the analyzer
//! enforces holds in the tree as committed, so any new finding is a
//! regression introduced by the change under review.

use bx_lint::{lint_workspace, rules, Config};
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root resolves")
}

#[test]
fn workspace_lints_clean() {
    let report = lint_workspace(&repo_root()).expect("workspace scan succeeds");
    assert!(
        report.findings.is_empty(),
        "bx-lint found {} regression(s):\n{}",
        report.findings.len(),
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Sanity: the walk actually visited the tree (≈100 files at seed).
    assert!(
        report.files_scanned > 80,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
}

#[test]
fn workspace_scan_covers_the_registry() {
    // Every file the wire registry points at must exist, so the rule can't
    // silently pass because a path went stale after a refactor.
    let root = repo_root();
    for spec in Config::workspace().wire {
        assert!(
            root.join(&spec.file).is_file(),
            "wire registry entry points at missing file {}",
            spec.file
        );
    }
    for f in [
        Config::workspace().trace_event_file,
        Config::workspace().trace_export_file,
    ] {
        assert!(root.join(&f).is_file(), "trace file {f} missing");
    }
}

#[test]
fn json_summary_reports_zero_failures_on_clean_tree() {
    let report = lint_workspace(&repo_root()).unwrap();
    let line = report.json_line(None);
    assert!(line.contains("\"failures\":0"), "{line}");
    assert!(line.contains("\"bin\":\"bx-lint\""), "{line}");
    for rule in rules::ALL_RULES {
        assert!(line.contains(&format!("\"{rule}\":0")), "{line}");
    }
}

#[test]
fn committed_baseline_matches_the_tree() {
    // CI runs `bx-lint --workspace --baseline lint_baseline.json`; this test
    // keeps that gate honest from `cargo test` too: the committed baseline
    // must absorb every current finding, and nothing may be new.
    let root = repo_root();
    let raw = std::fs::read_to_string(root.join("lint_baseline.json"))
        .expect("lint_baseline.json is committed at the repo root");
    let baseline = bx_lint::sarif::Baseline::parse(&raw).expect("baseline parses");
    let report = lint_workspace(&root).unwrap();
    let gate = report.gate(&baseline);
    assert!(
        gate.new.is_empty(),
        "{} finding(s) not in lint_baseline.json:\n{}",
        gate.new.len(),
        gate.new
            .iter()
            .map(|f| format!("{f} [{}]", f.fingerprint()))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn workspace_sarif_round_trips_through_own_parser() {
    let report = lint_workspace(&repo_root()).unwrap();
    let doc = bx_lint::sarif::to_sarif(&report);
    let parsed = bx_lint::sarif::parse_sarif(&doc).expect("emitted SARIF parses");
    assert_eq!(parsed.len(), report.findings.len());
    for (a, b) in parsed.iter().zip(report.findings.iter()) {
        assert_eq!(a.rule, b.rule);
        assert_eq!(a.file, b.file);
        assert_eq!(a.line, b.line);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }
}

#[test]
fn walk_stops_at_nested_cargo_workspaces() {
    // A directory whose Cargo.toml declares its own `[workspace]` is built
    // separately; its items must not join this workspace's call graph,
    // where they would capture calls such as `f64::round`.
    let root = std::env::temp_dir().join(format!("bx-lint-nested-ws-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let write = |rel: &str, text: &str| {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, text).unwrap();
    };
    write("Cargo.toml", "[workspace]\nmembers = [\"member\"]\n");
    write("src/lib.rs", "");
    write(
        "member/Cargo.toml",
        "[package]\nname = \"member\"\nedition.workspace = true\n",
    );
    write("member/src/lib.rs", "");
    write(
        "nested/Cargo.toml",
        "[package]\nname = \"nested\"\n\n# own workspace\n[workspace]\n",
    );
    write("nested/src/main.rs", "");
    write(
        "nested2/Cargo.toml",
        "[workspace.package]\nversion = \"0.1.0\"\n",
    );
    write("nested2/lib.rs", "");

    let files = bx_lint::collect_sources(&root).expect("walk succeeds");
    let rel: Vec<String> = files
        .iter()
        .map(|p| {
            p.strip_prefix(&root)
                .unwrap()
                .to_string_lossy()
                .replace('\\', "/")
        })
        .collect();
    std::fs::remove_dir_all(&root).unwrap();
    assert_eq!(rel, ["member/src/lib.rs", "src/lib.rs"]);
}

#[test]
fn workspace_scan_excludes_the_benchmark_workspace() {
    let root = repo_root();
    let files = bx_lint::collect_sources(&root).unwrap();
    assert!(
        root.join("perfbench/Cargo.toml").is_file(),
        "the benchmark is a nested workspace this test pins"
    );
    assert!(
        files.iter().all(|p| !p.starts_with(root.join("perfbench"))),
        "perfbench/ is its own Cargo workspace and must not be scanned"
    );
    assert!(files.iter().any(|p| p.starts_with(root.join("crates"))));
}
