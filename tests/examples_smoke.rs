//! Smoke test for the `examples/` directory: every example must keep
//! compiling, and `quickstart` and `stream_ingest` must actually run to
//! completion. This stops examples from silently rotting as the library API
//! evolves.

use std::path::{Path, PathBuf};
use std::process::Command;

fn cargo() -> Command {
    Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Where `cargo build` puts artifacts, honoring `CARGO_TARGET_DIR`.
fn target_dir(root: &Path) -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| root.join("target"))
}

/// Names of all `examples/*.rs` targets, from the directory listing itself so
/// a newly added example is covered without touching this test.
fn example_names(root: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(root.join("examples"))
        .expect("examples/ directory exists")
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            if path.extension()? == "rs" {
                Some(path.file_stem()?.to_string_lossy().into_owned())
            } else {
                None
            }
        })
        .collect();
    names.sort();
    names
}

#[test]
fn all_examples_build() {
    let root = workspace_root();
    let names = example_names(&root);
    assert!(!names.is_empty(), "no examples found under examples/");

    let status = cargo()
        .current_dir(&root)
        .args(["build", "--examples"])
        .status()
        .expect("failed to spawn cargo build --examples");
    assert!(status.success(), "cargo build --examples failed");

    for name in &names {
        let bin = target_dir(&root).join("debug/examples").join(name);
        assert!(
            bin.exists(),
            "example `{name}` was not produced by `cargo build --examples` \
             (looked at {})",
            bin.display()
        );
    }
}

/// Runs `examples/<name>.rs` at `WCC_EXAMPLE_SCALE=20` and asserts it exits
/// cleanly after printing its final union-find ground-truth check.
fn assert_example_reaches_ground_truth(name: &str) {
    let root = workspace_root();
    let output = cargo()
        .current_dir(&root)
        .args(["run", "--example", name])
        // Divide the instance sizes so the unoptimized binary finishes in
        // seconds; the example itself defaults to full scale.
        .env("WCC_EXAMPLE_SCALE", "20")
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn cargo run --example {name}: {e}"));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "{name} exited with {:?}\nstdout:\n{stdout}\nstderr:\n{stderr}",
        output.status.code()
    );
    assert!(
        stdout.contains("matches the sequential union-find ground truth"),
        "{name} did not reach its final ground-truth check:\n{stdout}"
    );
}

#[test]
fn quickstart_example_runs_to_completion() {
    assert_example_reaches_ground_truth("quickstart");
}

/// `stream_ingest` round-trips its schedule through the chunk writer and the
/// parallel op reader (asserting the round trip is lossless) before replaying
/// it through the incremental engine.
#[test]
fn stream_ingest_example_runs_to_completion() {
    assert_example_reaches_ground_truth("stream_ingest");
}
