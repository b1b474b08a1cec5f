//! Property tests for the candidate-search subsystem: on random clone-swarm
//! modules, LSH shortlisting must retain most of the exact search's merging
//! power, and both strategies must be run-to-run deterministic.

use fmsa_core::pass::FmsaStats;
use fmsa_core::Config;
use fmsa_core::SearchStrategy;
use fmsa_ir::Module;
use fmsa_workloads::{clone_swarm_module, SwarmConfig};
use proptest::prelude::*;

fn swarm(seed: u64, functions: usize) -> Module {
    clone_swarm_module(&SwarmConfig { functions, seed, ..SwarmConfig::default() })
}

fn run(m: &Module, search: SearchStrategy) -> (FmsaStats, String) {
    let mut m = m.clone();
    let cfg = Config::new().threshold(5).search(search).identical_prepass(false);
    let stats = fmsa_core::optimize(&mut m, &cfg).expect("optimize");
    let errs = fmsa_ir::verify_module(&m);
    assert!(errs.is_empty(), "invalid module after pass: {errs:?}");
    (stats, fmsa_ir::printer::print_module(&m))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn lsh_tracks_exact_search(seed in 0u64..10_000, functions in 24usize..64) {
        let m = swarm(seed, functions);
        let (exact, _) = run(&m, SearchStrategy::Exact);
        let (lsh, _) = run(&m, SearchStrategy::lsh());

        // The LSH shortlist must find at least half of the merges the
        // exhaustive scan commits (on clone swarms it typically finds all
        // of them — family members are near-duplicates, the regime LSH
        // recalls best).
        prop_assert!(
            lsh.merges * 2 >= exact.merges,
            "lsh found {} of {} exact merges (seed={seed}, n={functions})",
            lsh.merges,
            exact.merges
        );

        // And retain at least half of the exact size reduction.
        let exact_saved = exact.size_before.saturating_sub(exact.size_after);
        let lsh_saved = lsh.size_before.saturating_sub(lsh.size_after);
        prop_assert!(
            lsh_saved * 2 >= exact_saved,
            "lsh saved {lsh_saved} of {exact_saved} bytes (seed={seed}, n={functions})"
        );
    }

    #[test]
    fn both_strategies_are_deterministic(seed in 0u64..10_000) {
        let m = swarm(seed, 32);
        for strategy in [SearchStrategy::Exact, SearchStrategy::lsh()] {
            let (s1, out1) = run(&m, strategy);
            let (s2, out2) = run(&m, strategy);
            prop_assert_eq!(s1.merges, s2.merges, "merges differ for {:?}", strategy);
            prop_assert_eq!(s1.size_after, s2.size_after, "sizes differ for {:?}", strategy);
            prop_assert_eq!(
                s1.rank_positions.clone(),
                s2.rank_positions.clone(),
                "rank positions differ for {:?}",
                strategy
            );
            prop_assert!(out1 == out2, "printed modules differ for {strategy:?}");
        }
    }
}
