//! How the `se` binary reports a failure: one `error: <message>` line on
//! stderr (the error's `Display`, not a `Debug` dump) and exit status 1.

use se_ir::{Dataset, LayerDesc, LayerKind, NetworkDesc};
use se_models::traces::{self, TraceOptions};
use std::path::Path;
use std::process::Command;

/// Runs `se` with `args` and returns its stderr, asserting that it failed
/// with status 1 and printed the error as a message.
fn failing_run(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_se")).args(args).output().unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(1), "se {args:?}: {stderr}");
    assert!(stderr.contains("error: "), "se {args:?}: {stderr}");
    assert!(!stderr.contains("Error: \""), "se {args:?} printed a Debug string: {stderr}");
    assert!(!stderr.contains("Artifact {"), "se {args:?} printed a Debug error: {stderr}");
    stderr
}

#[test]
fn a_usage_error_is_a_message_and_status_one() {
    let stderr = failing_run(&["trace"]);
    assert!(stderr.contains("error: usage: se trace <build|info>"), "{stderr}");
}

#[test]
fn a_flag_the_subcommand_does_not_read_is_an_error_naming_it() {
    let stderr = failing_run(&["fig10", "--fast", "--with-fc"]);
    assert!(stderr.contains("--with-fc applies to se trace build only"), "{stderr}");
}

#[test]
fn a_truncated_artifact_is_a_message_naming_the_file() {
    let net = NetworkDesc::new(
        "tiny",
        Dataset::Cifar10,
        vec![LayerDesc::new(
            "c1",
            LayerKind::Conv2d { in_channels: 3, out_channels: 8, kernel: 3, stride: 1, padding: 1 },
            (8, 8),
        )],
    )
    .unwrap();
    let dir = std::env::temp_dir().join(format!("se-cli-errors-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (path, _) = traces::build_trace_file(&net, &TraceOptions::fast(), &dir).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    let stderr = failing_run(&["trace", "info", "--traces-dir", path_str(&dir)]);
    assert!(stderr.contains(path_str(&path)), "{stderr}");
    assert!(stderr.contains("truncated input"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

fn path_str(path: &Path) -> &str {
    path.to_str().unwrap()
}
