//! Decode a generated wasm corpus, merge it, and report the reduction —
//! the end-to-end "real binary" path of the reproduction.
//!
//! ```text
//! cargo run --release --example wasm_quickstart [n_functions]
//! ```

use fmsa::core::pipeline;
use fmsa::workloads::{wasm_fixture_bytes, WasmFixtureConfig};
use fmsa::Config;

fn main() {
    let n = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(80);
    let cfg = WasmFixtureConfig::with_functions(n);
    let bytes = wasm_fixture_bytes(&cfg);
    println!("corpus: {n} functions, {} wasm bytes", bytes.len());
    let mut module = fmsa::wasm::load_wasm(&bytes, "wasm-corpus").expect("decodes and lowers");
    assert!(fmsa::ir::verify_module(&module).is_empty());
    println!("lowered: {} functions, {} instructions", module.func_count(), module.total_insts());
    let merge = Config::new().threshold(5).parallel(0);
    let stats = pipeline::run(&mut module, &merge);
    println!(
        "merges: {} (attempted {}), size {} -> {} ({:.2}% reduction)",
        stats.merges,
        stats.attempted,
        stats.size_before,
        stats.size_after,
        stats.reduction_percent()
    );
}
