//! The unified library error surface.
//!
//! Until PR 7 the crate boundary leaked three failure shapes: panics out
//! of merge codegen, `String`s from the verifier, and per-crate error
//! structs (`fmsa_ir::parser::ParseError`, `fmsa_wasm::WasmError`). A
//! long-running daemon cannot map that zoo onto HTTP statuses, so the
//! public entry points ([`crate::optimize`], the session API in
//! [`crate::session`], and the meta-crate loaders) now return one
//! [`enum@Error`] implementing [`std::error::Error`].
//!
//! Every variant keeps the machine-readable pieces (parse spans, wasm
//! byte offsets, failing function names) as fields,
//! and [`Error::stage`]/[`Error::function`] expose the same vocabulary as
//! `fmsa_opt`'s one-line `stage=<s> [function=<f>]` contract from PR 6 —
//! the CLI and the daemon render the *same* classification, one as a
//! structured stderr line, the other as a 4xx/5xx JSON body.
//!
//! The crate does not depend on `fmsa-wasm`, so decode failures cross the
//! boundary through the [`Error::decode`] constructor rather than a
//! `From<WasmError>` impl (the orphan rule forbids it from either side
//! without inverting the dependency graph).

use std::fmt;

/// Any failure the merging stack can report across the library boundary.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// Textual IR did not parse. `line`/`column` are 1-based, matching
    /// `fmsa_ir::parser::ParseError` spans.
    Parse {
        /// 1-based source line of the failure.
        line: usize,
        /// 1-based source column of the failure.
        column: usize,
        /// What the parser expected or found.
        message: String,
    },
    /// A wasm binary (or other front-end input) failed to decode.
    Decode {
        /// Absolute byte offset of the failure in the input.
        offset: usize,
        /// Decoder diagnosis (section, opcode, truncation...).
        message: String,
    },
    /// The IR verifier rejected a module.
    Verify {
        /// `false`: the *input* module was invalid (caller error).
        /// `true`: the *output* failed re-verification — an internal
        /// merging bug, never the caller's fault.
        output: bool,
        /// The function the first verifier diagnostic names.
        function: String,
        /// The first verifier diagnostic.
        message: String,
    },
    /// Merge codegen failed (a caught panic from behind the fault
    /// boundary, or a driver-level failure).
    Merge {
        /// The function being merged, when known.
        function: Option<String>,
        /// The panic message or failure description.
        message: String,
    },
    /// An I/O failure (store persistence, input files).
    Io {
        /// The underlying `std::io` error, rendered.
        message: String,
    },
    /// The request or configuration itself is unusable (bad flag value,
    /// unknown format, oversized input).
    Config {
        /// What was wrong with it.
        message: String,
    },
}

impl Error {
    /// A decode failure at `offset` — the constructor front ends use in
    /// place of the orphan-forbidden `From<WasmError>` impl.
    pub fn decode(offset: usize, message: impl Into<String>) -> Error {
        Error::Decode { offset, message: message.into() }
    }

    /// A verifier rejection; `output` distinguishes invalid input from an
    /// internal post-merge verification failure.
    pub fn verify(output: bool, function: impl Into<String>, message: impl Into<String>) -> Error {
        Error::Verify { output, function: function.into(), message: message.into() }
    }

    /// A configuration/request error.
    pub fn config(message: impl Into<String>) -> Error {
        Error::Config { message: message.into() }
    }

    /// The PR 6 stage vocabulary: the same strings `fmsa_opt` prints in
    /// its `stage=` field, so CLI scripts and daemon clients classify
    /// failures identically.
    pub fn stage(&self) -> &'static str {
        match self {
            Error::Parse { .. } => "parse",
            Error::Decode { .. } => "decode",
            Error::Verify { output: false, .. } => "verify-input",
            Error::Verify { output: true, .. } => "verify-output",
            Error::Merge { .. } => "merge",
            Error::Io { .. } => "read",
            Error::Config { .. } => "config",
        }
    }

    /// The function the failure names, if any (the `function=` field of
    /// the structured error line).
    pub fn function(&self) -> Option<&str> {
        match self {
            Error::Verify { function, .. } => Some(function),
            Error::Merge { function, .. } => function.as_deref(),
            _ => None,
        }
    }

    /// Whether the caller's input caused this (4xx territory for the
    /// daemon) as opposed to an internal failure (5xx).
    pub fn is_caller_fault(&self) -> bool {
        matches!(
            self,
            Error::Parse { .. }
                | Error::Decode { .. }
                | Error::Verify { output: false, .. }
                | Error::Config { .. }
        )
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse { line, column, message } => {
                write!(f, "line {line}:{column}: {message}")
            }
            Error::Decode { offset, message } => {
                write!(f, "at byte {offset:#x}: {message}")
            }
            Error::Verify { output: false, function, message } => {
                write!(f, "input module invalid in @{function}: {message}")
            }
            Error::Verify { output: true, function, message } => {
                write!(f, "internal error — output module invalid in @{function}: {message}")
            }
            Error::Merge { function: Some(name), message } => {
                write!(f, "merge failed in @{name}: {message}")
            }
            Error::Merge { function: None, message } => write!(f, "merge failed: {message}"),
            Error::Io { message } => write!(f, "{message}"),
            Error::Config { message } => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<fmsa_ir::parser::ParseError> for Error {
    fn from(e: fmsa_ir::parser::ParseError) -> Error {
        Error::Parse { line: e.line, column: e.column, message: e.message }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Error {
        Error::Io { message: e.to_string() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_match_the_cli_contract() {
        let cases: Vec<(Error, &str)> = vec![
            (Error::Parse { line: 1, column: 2, message: "x".into() }, "parse"),
            (Error::decode(16, "bad section"), "decode"),
            (Error::verify(false, "f", "m"), "verify-input"),
            (Error::verify(true, "f", "m"), "verify-output"),
            (Error::Merge { function: None, message: "m".into() }, "merge"),
            (Error::Io { message: "m".into() }, "read"),
            (Error::config("m"), "config"),
        ];
        for (e, stage) in cases {
            assert_eq!(e.stage(), stage, "{e}");
        }
    }

    #[test]
    fn caller_fault_split_matches_http_mapping() {
        assert!(Error::decode(0, "x").is_caller_fault());
        assert!(Error::verify(false, "f", "m").is_caller_fault());
        assert!(!Error::verify(true, "f", "m").is_caller_fault());
        assert!(!Error::Merge { function: None, message: "m".into() }.is_caller_fault());
    }

    #[test]
    fn parse_error_converts_with_span() {
        let e = fmsa_ir::parser::parse_module("define garbage").unwrap_err();
        let err: Error = e.into();
        match &err {
            Error::Parse { line, .. } => assert_eq!(*line, 1),
            other => panic!("{other:?}"),
        }
        assert!(err.to_string().starts_with("line 1:"), "{err}");
    }

    #[test]
    fn implements_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&Error::config("x"));
    }
}
