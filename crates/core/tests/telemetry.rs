//! Flight-recorder integration tests: Chrome-trace well-formedness
//! over random span trees, the observe-don't-decide invariant (tracing
//! changes no output bytes at any thread count), and exact
//! reconciliation of the per-attempt decision log against the run's
//! aggregate stats.
//!
//! The recorder is process-global and `cargo test` runs tests on
//! concurrent threads, so every test that enables tracing or drains
//! the buffers holds [`RECORDER`] for its whole body.

use fmsa_core::pass::FmsaStats;
use fmsa_core::pipeline;
use fmsa_core::telemetry::{trace, DecisionOutcome};
use fmsa_core::Config;
use fmsa_core::SearchStrategy;
use fmsa_ir::printer::print_module;
use fmsa_workloads::{clone_swarm_module, SwarmConfig};
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes access to the global trace recorder across test threads.
static RECORDER: Mutex<()> = Mutex::new(());

fn swarm(functions: usize, seed: u64) -> fmsa_ir::Module {
    let mut cfg = SwarmConfig::with_functions(functions);
    cfg.seed = seed;
    clone_swarm_module(&cfg)
}

fn cfg() -> Config {
    Config::new().threshold(5).search(SearchStrategy::Lsh)
}

/// Runs the pipeline over `m` under `cfg()` at `threads` workers.
fn run(m: &mut fmsa_ir::Module, threads: usize) -> FmsaStats {
    let pcfg = cfg().parallel(threads);
    pipeline::run(m, &pcfg)
}

/// Emits a deterministic span tree described by `shape`: entry `i`
/// holds the number of children at depth `i` (bounded), recursing one
/// level per entry. Returns the number of spans emitted.
fn emit_tree(shape: &[usize]) -> usize {
    const NAMES: [&str; 4] = ["alpha", "beta", "gamma", "delta"];
    let Some((&width, rest)) = shape.split_first() else {
        return 0;
    };
    let mut emitted = 0;
    for i in 0..width.clamp(1, 3) {
        let _g = trace::span("test", NAMES[i % NAMES.len()]);
        emitted += 1 + emit_tree(rest);
    }
    emitted
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Any span tree drains to balanced, well-nested begin/end pairs,
    /// and the Chrome export stays structurally sound (one JSON object
    /// per event, `B`s and `E`s balanced).
    #[test]
    fn random_span_trees_export_well_nested(shape in proptest::collection::vec(1usize..4, 1..5)) {
        let _lock = RECORDER.lock().unwrap();
        trace::disable();
        let _ = trace::drain();

        trace::enable();
        let spans = emit_tree(&shape);
        trace::disable();
        let (events, dropped) = trace::drain();

        prop_assert_eq!(dropped, 0);
        prop_assert_eq!(events.len(), spans * 2, "one begin + one end per span");
        prop_assert!(trace::check_nesting(&events).is_ok());

        let export = trace::export_chrome(&events);
        // Bound outside the assert macros: the vendored prop_assert!
        // stringifies its expression into a format string, so literal
        // braces in the expression would break it.
        let envelope_ok = export.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")
            && export.trim_end().ends_with("]}");
        prop_assert!(envelope_ok, "bad Chrome export envelope");
        prop_assert_eq!(export.matches("\"ph\":\"B\"").count(), spans);
        prop_assert_eq!(export.matches("\"ph\":\"E\"").count(), spans);
        // Braces stay balanced — no event can break the envelope (span
        // names and args here contain no string-literal braces).
        prop_assert_eq!(export.matches('{').count(), export.matches('}').count());
    }
}

/// A real merge run traces the full hierarchy, well nested, and the
/// recorder round-trips through disable/drain leaving nothing behind.
#[test]
fn merge_run_traces_are_well_nested() {
    let _lock = RECORDER.lock().unwrap();
    trace::disable();
    let _ = trace::drain();

    trace::enable();
    for threads in [1, 2] {
        run(&mut swarm(64, 7), threads);
    }
    trace::disable();

    let (events, _) = trace::drain();
    assert!(!events.is_empty());
    trace::check_nesting(&events).expect("merge spans are well nested");
    for name in ["pass", "generation", "schedule", "prepare", "commit", "merge_attempt"] {
        assert!(events.iter().any(|e| e.name == name), "missing span {name:?}");
    }
    let (leftover, _) = trace::drain();
    assert!(leftover.is_empty(), "drain must clear the buffers");
}

/// Tracing observes, it never decides: the printed module is
/// byte-identical with the recorder off and on, at every pipeline width.
#[test]
fn tracing_changes_no_output_bytes() {
    let _lock = RECORDER.lock().unwrap();
    trace::disable();
    let _ = trace::drain();

    let reference = {
        let mut m = swarm(96, 3);
        run(&mut m, 1);
        print_module(&m)
    };
    for tracing_on in [false, true] {
        if tracing_on {
            trace::enable();
        } else {
            trace::disable();
        }
        for threads in [1usize, 2, 4, 8] {
            let mut m = swarm(96, 3);
            run(&mut m, threads);
            assert_eq!(
                print_module(&m),
                reference,
                "pipeline threads={threads}, tracing={tracing_on}"
            );
        }
    }
    trace::disable();
    let _ = trace::drain();
}

fn assert_reconciled(label: &str, st: &FmsaStats) {
    use DecisionOutcome as O;
    let d = &st.decisions;
    assert_eq!(d.total(), st.attempted as u64, "{label}: one record per attempt");
    assert_eq!(d.count(O::Merged), st.merges as u64, "{label}: committed merges");
    let p = st.pipeline.expect("pipeline stats");
    assert_eq!(d.count(O::GateSkipped), p.gate_skipped as u64, "{label}: gate");
    assert_eq!(d.count(O::Unprofitable), p.gate_missed as u64, "{label}: gate misses");
    assert_eq!(d.count(O::BudgetSkipped), p.budget_skipped as u64, "{label}: budget");
    assert_eq!(d.count(O::Quarantined), p.quarantined() as u64, "{label}: quarantine");
    // Retained records never exceed the exact totals, and the JSONL
    // dump carries exactly the retained records.
    assert!(d.len() as u64 <= d.total());
    assert_eq!(d.to_jsonl().lines().count(), d.len());
}

/// Every attempt the pipeline counts lands as exactly one decision
/// record, with outcome counts that reconcile against the aggregate
/// stats — at one thread and in parallel.
#[test]
fn decision_log_reconciles_with_stats() {
    // Hold the recorder lock: these merge runs would otherwise emit
    // events into another test's tracing-enabled window and skew its
    // event counts.
    let _lock = RECORDER.lock().unwrap();
    let m = swarm(128, 11);
    let one = run(&mut m.clone(), 1);
    assert!(one.attempted > 0, "swarm produced no merge attempts");
    assert_reconciled("pipeline-1", &one);

    let par = run(&mut m.clone(), 4);
    assert_reconciled("pipeline-4", &par);
    assert_eq!(
        par.decisions.count(DecisionOutcome::Merged),
        one.merges as u64,
        "pipeline-4 commits the one-thread merge set"
    );
}

/// The bounded log drops oldest records but keeps exact totals.
#[test]
fn decision_log_retention_bound_keeps_exact_counts() {
    use fmsa_core::telemetry::{DecisionLog, DecisionRecord};
    let mut log = DecisionLog::new(4);
    for i in 0..10u32 {
        log.push(DecisionRecord {
            subject: format!("f{i}"),
            candidate: "g".to_owned(),
            similarity: 0.5,
            rank: 1,
            align_score: Some(i as i64),
            delta: None,
            delta_bound: None,
            outcome: if i % 2 == 0 {
                DecisionOutcome::Merged
            } else {
                DecisionOutcome::Unprofitable
            },
        });
    }
    assert_eq!(log.total(), 10);
    assert_eq!(log.len(), 4);
    assert_eq!(log.dropped(), 6);
    assert_eq!(log.count(DecisionOutcome::Merged), 5);
    assert_eq!(log.count(DecisionOutcome::Unprofitable), 5);
    // recent() returns the newest records, newest last.
    let recent = log.recent(2);
    assert_eq!(recent.len(), 2);
    assert_eq!(recent[1].subject, "f9");
}
