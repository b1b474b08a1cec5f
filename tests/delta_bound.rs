//! The pre-codegen Δ gate on whole inputs: every attempt the pipeline
//! makes on a 1000-function LSH swarm, the suite modules, a lowered wasm
//! corpus and the benchmark's 96-function daemon uploads is audited
//! against a real build (`pipeline::run_audited`):
//!
//! * soundness — no attempt's real Δ exceeds its bound, including the
//!   gate-skipped ones, which the audit builds and discards in place;
//! * type replay — each skip leaves the type store exactly as that build
//!   and discard did: same length, same `Type` at every id;
//! * recall — at most 1 % of the attempts that turn out unprofitable
//!   were built anyway (`gate_missed`).
//!
//! Plus bit-identity with the paper's ungated loop
//! (`support/paper_loop.rs`) at 1/2/4/8 threads on a swarm where skipped
//! builds would have interned new signatures.

#[path = "support/paper_loop.rs"]
mod paper_loop;

use fmsa::core::pass::FmsaStats;
use fmsa::core::pipeline;
use fmsa::core::profitability::GateAudit;
use fmsa::core::SearchStrategy;
use fmsa::ir::printer::print_module;
use fmsa::ir::Module;
use fmsa::workloads::{clone_swarm_module, spec_suite, wasm_fixture_bytes, SwarmConfig};
use fmsa::Config;
use fmsa_workloads::WasmFixtureConfig;

fn audit(base: &Module, cfg: &Config) -> (FmsaStats, GateAudit) {
    let mut m = base.clone();
    let out = pipeline::run_audited(&mut m, cfg);
    // The audit's extra builds must not change the result.
    let mut plain = base.clone();
    pipeline::run(&mut plain, cfg);
    assert_eq!(print_module(&m), print_module(&plain), "{}: audit changed the output", base.name);
    out
}

/// The audit covered every attempt that reached the gate, and found
/// nothing wrong: each evaluated build was checked, each skip was built
/// for the audit (checked too, unless that build failed), and the gate
/// skipped all but at most 1 % of the unprofitable attempts.
fn assert_clean(label: &str, stats: &FmsaStats, audit: &GateAudit) {
    assert!(audit.is_clean(), "{label}: {:?} / {:?}", audit.violations, audit.replay_mismatches);
    let p = stats.pipeline.expect("pipeline stats");
    assert_eq!(audit.skipped, p.gate_skipped, "{label}: every skip is audited");
    assert!(
        p.gate_missed * 100 <= p.gate_skipped + p.gate_missed,
        "{label}: {} unprofitable attempts built, {} skipped",
        p.gate_missed,
        p.gate_skipped
    );
    let evaluated = stats.decisions.records().filter(|r| r.delta.is_some()).count();
    assert_eq!(stats.decisions.dropped(), 0, "{label}: the log kept every record");
    assert!(
        (evaluated..=evaluated + audit.skipped).contains(&audit.checked),
        "{label}: {evaluated} evaluated attempts, {audit:?}"
    );
    for r in stats.decisions.records().filter(|r| r.delta.is_some()) {
        assert!(r.delta_bound.is_some(), "{label}: an evaluated attempt without a bound: {r:?}");
    }
}

#[test]
fn gate_bound_and_replay_hold_on_lsh_swarm() {
    let base = clone_swarm_module(&SwarmConfig::with_functions(1000));
    let cfg = Config::new().threshold(5).search(SearchStrategy::Lsh).parallel(1);
    let (stats, audit) = audit(&base, &cfg);
    assert_clean("swarm", &stats, &audit);
    // The gate must carry its weight here, and its skips must include
    // builds that would have interned new types.
    assert!(audit.skipped * 2 > stats.attempted, "{audit:?} of {} attempts", stats.attempted);
    assert!(audit.replays_interning > 0, "{audit:?}");
    assert!(stats.merges > 0);
}

#[test]
fn gate_bound_and_replay_hold_on_suite_modules() {
    let (mut skipped, mut checked) = (0, 0);
    for d in spec_suite().into_iter().filter(|d| d.paper_fns <= 300) {
        let base = d.build();
        let cfg = Config::new().threshold(5).parallel(1);
        let (stats, audit) = audit(&base, &cfg);
        assert_clean(d.name, &stats, &audit);
        skipped += audit.skipped;
        checked += audit.checked;
    }
    assert!(skipped > 0 && checked > skipped, "skipped {skipped}, checked {checked}");
}

#[test]
fn gate_bound_and_replay_hold_on_wasm_corpus() {
    let bytes = wasm_fixture_bytes(&WasmFixtureConfig::with_functions(120));
    let base = fmsa::wasm::load_wasm(&bytes, "wasm-corpus").expect("fixture lowers");
    for threads in [1usize, 2] {
        let cfg = Config::new().threshold(5).parallel(threads);
        let (stats, audit) = audit(&base, &cfg);
        assert_clean("wasm", &stats, &audit);
        assert!(audit.skipped > 0, "{audit:?}");
    }
}

/// The `serve` workload's input: 96-function wasm corpora, merged with
/// the daemon's default configuration at one and two threads.
#[test]
fn gate_bound_and_replay_hold_on_serve_corpora() {
    let mut skipped = 0;
    for seed in [100u64, 101, 102, 103] {
        let cfg = WasmFixtureConfig { seed, ..WasmFixtureConfig::with_functions(96) };
        let base = fmsa::wasm::load_wasm(&wasm_fixture_bytes(&cfg), "serve-corpus")
            .expect("fixture lowers");
        for threads in [1usize, 2] {
            let (stats, audit) = audit(&base, &Config::new().parallel(threads));
            assert_clean(&format!("serve corpus {seed}, t={threads}"), &stats, &audit);
            skipped += audit.skipped;
        }
    }
    assert!(skipped > 0, "the gate never fired on the serve corpora");
}

/// Bit-identity with the paper's ungated loop at 1/2/4/8 threads on a
/// swarm where the gate fires and its skips replay new signatures — the
/// case a skip that interned nothing would get wrong.
#[test]
fn gated_pipeline_is_bit_identical_where_skips_intern_types() {
    let base =
        clone_swarm_module(&SwarmConfig { functions: 300, seed: 7, ..SwarmConfig::default() });
    let cfg = Config::new().threshold(5).search(SearchStrategy::Lsh);
    let (stats, audit) = audit(&base, &cfg.clone().parallel(1));
    assert_clean("swarm-300", &stats, &audit);
    assert!(audit.replays_interning > 0, "skips must replay new types here: {audit:?}");
    let mut m_seq = base.clone();
    let seq = paper_loop::paper_loop(&mut m_seq, &cfg);
    let seq_text = print_module(&m_seq);
    for threads in [1usize, 2, 4, 8] {
        let pcfg = cfg.clone().parallel(threads);
        let mut m = base.clone();
        let par = pipeline::run(&mut m, &pcfg);
        assert_eq!(seq_text, print_module(&m), "module text at {threads} threads");
        assert_eq!((seq.merges, seq.attempted), (par.merges, par.attempted));
        let p = par.pipeline.expect("pipeline stats");
        assert_eq!(p.gate_skipped, audit.skipped, "gate decisions at {threads} threads");
    }
}
