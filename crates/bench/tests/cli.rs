//! Operator mistakes on the `repro` command line exit with a typed usage
//! error (exit code 2 and a one-line message), never a panic.

use std::process::Command;

#[test]
fn zero_iterations_is_a_usage_error_not_a_panic() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig17", "--iters", "0"])
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("positive"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
