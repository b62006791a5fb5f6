//! The `experiments` binary refuses a scale its panels cannot split with
//! a usage error (exit 1) instead of a panic.

use std::process::Command;

#[test]
fn degenerate_scales_are_usage_errors() {
    let cases: [&[&str]; 5] = [
        &["--tiny", "--txns", "0", "fig3a"],
        &["--tiny", "--txns", "1", "fig3a"],
        &["--tiny", "--txns", "0", "fig3e"],
        &["--tiny", "--txns", "4", "ablate-cf"],
        &["--tiny", "--items", "0", "fig3a"],
    ];
    for argv in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(argv)
            .arg("--no-out")
            .output()
            .expect("run experiments");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{argv:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{argv:?}: {stderr}");
        // The error names the refused value.
        assert!(
            stderr.contains(&format!("{} {}", argv[1], argv[2])),
            "{argv:?}: {stderr}"
        );
        assert!(stderr.contains("usage:"), "{argv:?}: {stderr}");
    }
}
