//! Tests of the `fmsa_opt` binary's command line, run against the built
//! executable on a tiny textual module.

use std::path::PathBuf;
use std::process::{Command, Output};

const TINY: &str = "\
; module tiny

define i32 @f(i32 %a0) {
entry.0:
  %v0 = add i32 %a0, i32 1
  ret i32 %v0
}
";

/// Writes [`TINY`] to a file of its own and returns the path.
fn tiny_input(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("fmsa-opt-cli-{}-{tag}.fir", std::process::id()));
    std::fs::write(&path, TINY).expect("write input");
    path
}

fn fmsa_opt(input: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fmsa_opt")).arg(input).args(args).output().expect("spawn")
}

#[test]
fn bad_flag_values_exit_2_with_one_line() {
    let input = tiny_input("bad");
    for args in [
        &["--search", "lhs"][..],
        &["--search"],
        &["--arch", "arm"],
        &["--arch"],
        &["--threshold", "x"],
        &["--threshold"],
        &["--threads", "-1"],
        &["-o"],
    ] {
        let out = fmsa_opt(&input, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.starts_with("fmsa_opt: "), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing is printed");
    }
    std::fs::remove_file(input).expect("remove input");
}

#[test]
fn good_flag_values_run() {
    let input = tiny_input("good");
    let out = fmsa_opt(&input, &["--search", "lsh", "--arch", "arm-thumb", "--threshold", "3"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout), TINY);
    std::fs::remove_file(input).expect("remove input");
}
