//! Graceful-degradation tests at clone-swarm scale: a deterministic
//! [`FaultPlan`] forces panics and verifier failures inside the
//! pipeline, and the run must still complete with
//! every planned casualty quarantined, every unplanned pair merged, and
//! bit-identical output at 1, 2, and 4 threads.
//!
//! The default swarm keeps `cargo test` fast; the acceptance-scale
//! 5000-function swarm runs under `--ignored` (and in release mode via
//! `experiments faults`).

use fmsa_core::pipeline;
use fmsa_core::quarantine::QuarantineStage;
use fmsa_core::Config;
use fmsa_core::{silence_injected_panics, FaultPlan, FaultSite, SearchStrategy};
use fmsa_ir::printer::print_module;
use fmsa_ir::verify_module;
use fmsa_workloads::{clone_swarm_module, SwarmConfig};

fn swarm_cfg() -> Config {
    Config::new().threshold(5).search(SearchStrategy::Lsh)
}

/// The full matrix for one swarm size: run the injected plan at 1/2/4
/// threads and check completion, quarantine provenance, determinism, and
/// counter/log agreement.
fn check_injected_plan(functions: usize) {
    silence_injected_panics();
    let base = clone_swarm_module(&SwarmConfig::with_functions(functions));
    let plan = FaultPlan::new(0xFA17, 20_000, &FaultSite::ALL);
    let mut reference: Option<(String, String, usize)> = None;
    for threads in [1usize, 2, 4] {
        let mut m = base.clone();
        let cfg = swarm_cfg().parallel(threads).faults(plan);
        let stats = pipeline::run(&mut m, &cfg);
        let errs = verify_module(&m);
        assert!(errs.is_empty(), "faulted run verifies at {threads} threads: {errs:?}");
        assert!(stats.merges > 0, "the swarm still merges around the faults");

        let p = stats.pipeline.expect("pipeline stats");
        assert!(p.quarantined() > 0, "the plan must actually fire at {threads} threads");
        assert_eq!(
            p.quarantined(),
            stats.quarantine.len(),
            "counters and quarantine log agree at {threads} threads"
        );
        // Quarantine provenance: the swarm itself is healthy, so every
        // entry must trace back to a planned fault at its stage.
        for e in stats.quarantine.entries() {
            let site = match e.stage {
                QuarantineStage::Align => FaultSite::Align,
                QuarantineStage::Codegen => FaultSite::Codegen,
                QuarantineStage::Verify => FaultSite::Verify,
                QuarantineStage::Mismatch => panic!("no differential stage in this test"),
            };
            assert!(
                plan.fires(site, &e.f1, &e.f2),
                "pair {},{} quarantined at {} without a planned fault",
                e.f1,
                e.f2,
                e.stage
            );
            assert_eq!(e.seed, plan.seed, "entries record the reproducer seed");
        }

        let text = print_module(&m);
        let summary = stats.quarantine.summary();
        match &reference {
            None => reference = Some((text, summary, stats.merges)),
            Some((rt, rs, rm)) => {
                assert_eq!(*rm, stats.merges, "merge count identical at {threads} threads");
                assert_eq!(*rs, summary, "quarantine set identical at {threads} threads");
                assert!(*rt == text, "output bit-identical at {threads} threads");
            }
        }
    }
}

#[test]
fn injected_faults_quarantine_only_planned_pairs_across_threads() {
    check_injected_plan(600);
}

/// The default configuration runs the same pipeline, so a fault plan
/// reaches it: `optimize` with no thread count quarantines exactly the
/// pairs a two-thread run does, and leaves the same module.
#[test]
fn default_config_quarantines_like_the_parallel_pipeline() {
    silence_injected_panics();
    let base = clone_swarm_module(&SwarmConfig::with_functions(600));
    let plan = FaultPlan::new(0xFA17, 20_000, &FaultSite::ALL);
    let run = |cfg: Config| {
        let mut m = base.clone();
        let stats = fmsa_core::optimize(&mut m, &cfg.faults(plan)).expect("faults degrade");
        (print_module(&m), stats.quarantine.summary())
    };
    let (default_text, default_summary) = run(swarm_cfg());
    let (parallel_text, parallel_summary) = run(swarm_cfg().parallel(2));
    assert!(!default_summary.is_empty(), "the plan must fire under the default configuration");
    assert_eq!(default_summary, parallel_summary, "quarantine set");
    assert!(default_text == parallel_text, "module text");
}

/// Acceptance-scale swarm; slow in debug builds, so opt-in.
#[test]
#[ignore = "5000-function swarm: run with --ignored or via `experiments faults`"]
fn injected_faults_on_the_5000_function_swarm() {
    check_injected_plan(5000);
}
