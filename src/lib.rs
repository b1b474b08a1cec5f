//! # fmsa — Function Merging by Sequence Alignment
//!
//! Meta-crate re-exporting the whole reproduction of Rocha et al.,
//! *Function Merging by Sequence Alignment* (CGO 2019). See the individual
//! crates for details:
//!
//! * [`ir`] — the LLVM-like IR substrate
//! * [`align`] — Needleman-Wunsch and banded alignment
//! * [`target`] — TTI-style code-size cost models (x86-64, ARM Thumb)
//! * [`interp`] — IR interpreter (correctness oracle + Fig. 14 runtime)
//! * [`core`] — the FMSA merger, exploration framework, and baselines
//! * [`wasm`] — WebAssembly frontend (binary decoder + lowering to [`ir`])
//! * [`workloads`] — SPEC/MiBench-calibrated synthetic benchmarks
//!
//! The unified public API lives at this crate's root: [`Config`]
//! configures a run, [`optimize`] executes it, every failure is one
//! [`enum@Error`], [`load_module_bytes`] auto-detects wasm vs textual IR,
//! and [`MergeSession`]/[`FunctionStore`] are the persistent,
//! store-backed lifecycle the `fmsa-serve` daemon sits on.
//!
//! # Examples
//!
//! ```
//! use fmsa::ir::{Module, FuncBuilder, Value};
//! use fmsa::{optimize, Config};
//!
//! let mut m = Module::new("demo");
//! let i32t = m.types.i32();
//! let fn_ty = m.types.func(i32t, vec![i32t]);
//! for (i, name) in ["a", "b"].into_iter().enumerate() {
//!     let f = m.create_function(name, fn_ty);
//!     let mut bl = FuncBuilder::new(&mut m, f);
//!     let e = bl.block("entry");
//!     bl.switch_to(e);
//!     let mut v = Value::Param(0);
//!     for k in 0..10 {
//!         // The two bodies differ in exactly one constant: too
//!         // different for the identical-merging prepass, ideal for a
//!         // profitable FMSA merge.
//!         let c = if k == 0 { 41 + i as i32 } else { k };
//!         v = bl.add(v, bl.const_i32(c));
//!     }
//!     bl.ret(Some(v));
//! }
//! let stats = optimize(&mut m, &Config::new()).unwrap();
//! assert_eq!(stats.merges, 1);
//! ```

pub use fmsa_align as align;
pub use fmsa_core as core;
pub use fmsa_interp as interp;
pub use fmsa_ir as ir;
pub use fmsa_target as target;
pub use fmsa_wasm as wasm;
pub use fmsa_workloads as workloads;

pub use fmsa_core::{
    optimize, telemetry, Config, ContentHash, Error, FsyncPolicy, FunctionStore, MergeOutcome,
    MergeSession, RequestStats, SessionTotals, StoreOptions,
};

/// Loads a module from raw bytes with `fmsa_opt`-style format
/// auto-detection: bytes starting with the wasm magic (`\0asm`) are
/// decoded and lowered by [`wasm`]; anything else must be UTF-8 textual
/// IR for [`ir::parser`]. `name` becomes the module name (wasm) or is
/// used for diagnostics.
///
/// This is the one loader the CLI (`fmsa_opt`), the daemon
/// (`fmsa-serve`), and the bench harness share, so all three accept the
/// same inputs and classify failures with the same [`Error::stage`]
/// vocabulary (`decode` vs `parse`).
pub fn load_module_bytes(bytes: &[u8], name: &str) -> Result<ir::Module, Error> {
    if wasm::is_wasm(bytes) {
        return wasm::load_wasm(bytes, name).map_err(|e| Error::decode(e.offset, e.to_string()));
    }
    let text = std::str::from_utf8(bytes).map_err(|_| {
        Error::decode(0, "not a wasm binary (no \\0asm magic) and not UTF-8 textual IR")
    })?;
    ir::parser::parse_module(text).map_err(Error::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_module_bytes_detects_wasm() {
        let cfg = workloads::WasmFixtureConfig::with_functions(8);
        let bytes = workloads::wasm_fixture_bytes(&cfg);
        let m = load_module_bytes(&bytes, "corpus").unwrap();
        assert!(m.func_ids().len() >= 8);
    }

    #[test]
    fn load_module_bytes_parses_textual_ir() {
        let mut m = ir::Module::new("t");
        let i32t = m.types.i32();
        let fn_ty = m.types.func(i32t, vec![i32t]);
        let f = m.create_function("id", fn_ty);
        let mut b = ir::FuncBuilder::new(&mut m, f);
        let e = b.block("entry");
        b.switch_to(e);
        b.ret(Some(ir::Value::Param(0)));
        let text = ir::printer::print_module(&m);
        let loaded = load_module_bytes(text.as_bytes(), "t").unwrap();
        assert_eq!(ir::printer::print_module(&loaded), text);
    }

    #[test]
    fn load_module_bytes_classifies_failures() {
        // Truncated wasm: decode stage with an offset.
        let err = load_module_bytes(b"\0asm", "x").unwrap_err();
        assert_eq!(err.stage(), "decode");
        // Bad text: parse stage with a span.
        let err = load_module_bytes(b"define nonsense", "x").unwrap_err();
        assert_eq!(err.stage(), "parse");
        // Binary garbage: decode stage.
        let err = load_module_bytes(&[0xff, 0xfe, 0x00, 0x01], "x").unwrap_err();
        assert_eq!(err.stage(), "decode");
    }
}
