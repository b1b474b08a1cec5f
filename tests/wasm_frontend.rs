//! Full-stack wasm frontend tests:
//!
//! 1. **Round-trip property** — `wasm_fixtures` emit → `fmsa-wasm` decode
//!    → lower → verifier-clean module, across seeds/shapes/memory modes.
//! 2. **Pipeline bit-identity** — merging a lowered wasm corpus through
//!    `pipeline::run` produces byte-identical output at 1/2/4
//!    threads, with a measurable size reduction.
//! 3. **Interpreter differential** — the `fmsa_interp::batch` driver runs
//!    coverage-seeded input pairs over every exported function and finds
//!    zero mismatches (and zero panics) between the original and merged
//!    module.

use fmsa_core::pipeline;
use fmsa_core::Config;
use fmsa_interp::batch::wire_targets;
use fmsa_interp::{run_differential_batch, BatchConfig};
use fmsa_ir::printer::print_module;
use fmsa_ir::{verify_module, Module};
use fmsa_workloads::{wasm_fixture_bytes, WasmFixtureConfig};
use proptest::prelude::*;

fn lowered_fixture(cfg: &WasmFixtureConfig) -> Module {
    let bytes = wasm_fixture_bytes(cfg);
    let m = fmsa_wasm::load_wasm(&bytes, "wasm-fixture").expect("fixture decodes and lowers");
    let errs = verify_module(&m);
    assert!(errs.is_empty(), "lowered fixture verifies: {errs:?}");
    m
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn emit_decode_lower_roundtrip(seed in 0u64..1_000_000, n in 6usize..36, mem in 0u8..2) {
        let cfg = WasmFixtureConfig {
            functions: n,
            with_memory: mem == 1,
            seed,
            ..WasmFixtureConfig::default()
        };
        let bytes = wasm_fixture_bytes(&cfg);
        prop_assert!(fmsa_wasm::is_wasm(&bytes));
        let wasm = fmsa_wasm::parse_wasm(&bytes).expect("decodes");
        prop_assert_eq!(wasm.funcs.len(), n);
        let m = fmsa_wasm::lower_module(&wasm, "rt").expect("lowers");
        let errs = verify_module(&m);
        prop_assert!(errs.is_empty(), "{:?}", errs);
        prop_assert_eq!(m.func_count(), n);
    }
}

#[test]
fn pipeline_output_identical_across_threads_on_wasm_input() {
    let cfg = WasmFixtureConfig::with_functions(80);
    let base = lowered_fixture(&cfg);
    let cfg = Config::new().threshold(5);
    let mut outputs = Vec::new();
    let mut merges = Vec::new();
    for threads in [1usize, 2, 4] {
        let mut m = base.clone();
        let pcfg = cfg.clone().parallel(threads);
        let stats = pipeline::run(&mut m, &pcfg);
        let errs = verify_module(&m);
        assert!(errs.is_empty(), "merged wasm module verifies at {threads} threads: {errs:?}");
        outputs.push(print_module(&m));
        merges.push(stats.merges);
        assert!(
            stats.size_after < stats.size_before,
            "measurable reduction at {threads} threads: {} -> {}",
            stats.size_before,
            stats.size_after
        );
    }
    assert!(merges[0] > 0, "the wasm corpus must produce merges");
    assert_eq!(outputs[0], outputs[1], "1 vs 2 threads");
    assert_eq!(outputs[0], outputs[2], "1 vs 4 threads");
}

#[test]
fn merged_wasm_is_differentially_equal_under_the_interpreter() {
    let cfg = WasmFixtureConfig::with_functions(48);
    let mut pre = lowered_fixture(&cfg);

    let mut post = pre.clone();
    let mcfg = Config::new().threshold(5).parallel(2);
    let stats = pipeline::run(&mut post, &mcfg);
    assert!(stats.merges > 0, "corpus must merge");
    assert!(stats.quarantine.is_empty(), "a clean run quarantines nothing");

    // Exported (external) functions survive merging under their names;
    // the batch driver wires them up (adding memory drivers to both
    // modules when the corpus threads a linear-memory base).
    let targets = wire_targets(&mut pre, &mut post, cfg.with_memory);
    assert!(!targets.is_empty());
    let bcfg =
        BatchConfig { threads: 2, seed: 0xd1ff_e2e2, per_target: 6, ..BatchConfig::default() };
    let out = run_differential_batch(&pre, &post, &targets, &bcfg);
    assert!(out.pairs_run >= 40, "enough differential samples ran: {}", out.pairs_run);
    assert_eq!(out.panics_caught, 0, "no interpreter panics");
    assert!(out.mismatches.is_empty(), "differential mismatches: {:?}", out.mismatches);
    assert!(out.paths_covered > 0, "coverage is aggregated");
    // The drivers were appended after merging; both modules still verify.
    assert!(verify_module(&pre).is_empty());
    assert!(verify_module(&post).is_empty());
}
