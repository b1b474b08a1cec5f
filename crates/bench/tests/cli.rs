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

/// Two varargs definitions that differ in one constant, and a caller
/// that passes them variadic arguments (`tests/varargs.rs`'s
/// `varargs_definitions_module(100, 200)`, printed).
const VARARGS: &str = "\
; module varargs_defs

define internal i32 @log_a(i32 %a0, ...) {
entry.0:
  %v0 = add i32 %a0, i32 0
  %v1 = mul i32 %v0, i32 %a0
  %v2 = add i32 %v1, i32 1
  %v3 = mul i32 %v2, i32 %a0
  %v4 = add i32 %v3, i32 2
  %v5 = mul i32 %v4, i32 %a0
  %v6 = add i32 %v5, i32 3
  %v7 = mul i32 %v6, i32 %a0
  %v8 = add i32 %v7, i32 4
  %v9 = mul i32 %v8, i32 %a0
  %v10 = add i32 %v9, i32 5
  %v11 = mul i32 %v10, i32 %a0
  %v12 = add i32 %v11, i32 6
  %v13 = mul i32 %v12, i32 %a0
  %v14 = add i32 %v13, i32 7
  %v15 = mul i32 %v14, i32 %a0
  %v16 = add i32 %v15, i32 8
  %v17 = mul i32 %v16, i32 %a0
  %v18 = add i32 %v17, i32 9
  %v19 = mul i32 %v18, i32 %a0
  %v20 = add i32 %v19, i32 10
  %v21 = mul i32 %v20, i32 %a0
  %v22 = add i32 %v21, i32 11
  %v23 = mul i32 %v22, i32 %a0
  %v24 = xor i32 %v23, i32 100
  ret i32 %v24
}

define internal i32 @log_b(i32 %a0, ...) {
entry.0:
  %v0 = add i32 %a0, i32 0
  %v1 = mul i32 %v0, i32 %a0
  %v2 = add i32 %v1, i32 1
  %v3 = mul i32 %v2, i32 %a0
  %v4 = add i32 %v3, i32 2
  %v5 = mul i32 %v4, i32 %a0
  %v6 = add i32 %v5, i32 3
  %v7 = mul i32 %v6, i32 %a0
  %v8 = add i32 %v7, i32 4
  %v9 = mul i32 %v8, i32 %a0
  %v10 = add i32 %v9, i32 5
  %v11 = mul i32 %v10, i32 %a0
  %v12 = add i32 %v11, i32 6
  %v13 = mul i32 %v12, i32 %a0
  %v14 = add i32 %v13, i32 7
  %v15 = mul i32 %v14, i32 %a0
  %v16 = add i32 %v15, i32 8
  %v17 = mul i32 %v16, i32 %a0
  %v18 = add i32 %v17, i32 9
  %v19 = mul i32 %v18, i32 %a0
  %v20 = add i32 %v19, i32 10
  %v21 = mul i32 %v20, i32 %a0
  %v22 = add i32 %v21, i32 11
  %v23 = mul i32 %v22, i32 %a0
  %v24 = xor i32 %v23, i32 200
  ret i32 %v24
}

define i32 @main(i32 %a0) {
entry.0:
  %v0 = call i32 @log_a(i32 %a0, i32 1, double 2.5)
  %v1 = call i32 @log_b(i32 %v0, i32 3)
  %v2 = call i32 @log_a(i32 %v1)
  ret i32 %v2
}
";

/// Writes `text` to a file of its own and returns the path.
fn input_file(tag: &str, text: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("fmsa-opt-cli-{}-{tag}.fir", std::process::id()));
    std::fs::write(&path, text).expect("write input");
    path
}

fn fmsa_opt(input: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fmsa_opt")).arg(input).args(args).output().expect("spawn")
}

#[test]
fn bad_flag_values_exit_2_with_one_line() {
    let input = input_file("bad", TINY);
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
    let input = input_file("good", TINY);
    let out = fmsa_opt(&input, &["--search", "lsh", "--arch", "arm-thumb", "--threshold", "3"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout), TINY);
    std::fs::remove_file(input).expect("remove input");
}

#[test]
fn soa_leaves_varargs_definitions_unmerged() {
    let input = input_file("varargs", VARARGS);
    let out = fmsa_opt(&input, &["--technique", "soa"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout), VARARGS);
    std::fs::remove_file(input).expect("remove input");
}
