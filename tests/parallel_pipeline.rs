//! Cross-crate tests of the merge pipeline: bit-identity with the
//! paper's loop (`support/paper_loop.rs`), greedy and oracle,
//! determinism, commit-stage conflict re-validation under heavy
//! candidate sharing, and the alignment budget's behaviour on
//! paper-scale and adversarial inputs.

#[path = "support/paper_loop.rs"]
mod paper_loop;

use fmsa::core::pipeline;
use fmsa::core::SearchStrategy;
use fmsa::ir::printer::print_module;
use fmsa::ir::Module;
use fmsa::workloads::{clone_swarm_module, spec_suite, SwarmConfig};
use fmsa::Config;
use paper_loop::paper_loop;
use proptest::prelude::*;

/// The module text the paper's loop and the pipeline leave under `cfg`.
fn run_both(base: &Module, cfg: &Config) -> (String, String) {
    let mut m_seq = base.clone();
    paper_loop(&mut m_seq, cfg);
    let mut m_par = base.clone();
    pipeline::run(&mut m_par, cfg);
    (print_module(&m_seq), print_module(&m_par))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The pipeline replays the paper's decision procedure exactly: for
    /// any swarm shape and any thread count, the optimized module is
    /// bit-identical to the paper's loop.
    #[test]
    fn pipeline_is_bit_identical_to_sequential(
        functions in 20usize..70,
        family_size in 2usize..5,
        clone_percent in 20usize..90,
        target_size in 10usize..30,
        seed in 0u64..1_000,
        threads in 1usize..5,
    ) {
        let clone_fraction = clone_percent as f64 / 100.0;
        let cfg = SwarmConfig { functions, family_size, clone_fraction, target_size, seed };
        let base = clone_swarm_module(&cfg);
        let cfg = Config::new().threshold(5).search(SearchStrategy::Lsh).parallel(threads);
        let (seq, par) = run_both(&base, &cfg);
        prop_assert_eq!(seq, par);
    }

    /// Fixed seed in, fixed module out: the pipeline is deterministic
    /// regardless of worker scheduling.
    #[test]
    fn pipeline_is_deterministic_for_fixed_seed(seed in 0u64..1_000) {
        let cfg = SwarmConfig { functions: 40, seed, ..SwarmConfig::default() };
        let base = clone_swarm_module(&cfg);
        let cfg = Config::new().threshold(5).search(SearchStrategy::Lsh).parallel(4);
        let mut runs = Vec::new();
        for _ in 0..2 {
            let mut m = base.clone();
            pipeline::run(&mut m, &cfg);
            runs.push(print_module(&m));
        }
        prop_assert_eq!(&runs[0], &runs[1]);
    }
}

/// Families of near-clones with cross-calls and mixed linkage: deletable
/// sides with live callers (their calls are rewritten through the
/// call-site index), thunked (external) sides, and caller-less families,
/// all in one module.
fn calling_swarm(seed: u64, families: usize, members: usize) -> Module {
    use fmsa::ir::{FuncBuilder, Linkage, Value};
    let mut m = Module::new("calling_swarm");
    let i32t = m.types.i32();
    let fn_ty = m.types.func(i32t, vec![i32t]);
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut ids = Vec::new();
    for fam in 0..families {
        for mem in 0..members {
            let f = m.create_function(format!("fam{fam}_m{mem}"), fn_ty);
            if next() % 100 < 20 {
                m.func_mut(f).linkage = Linkage::External;
            }
            ids.push(f);
        }
    }
    for (k, &f) in ids.iter().enumerate().collect::<Vec<_>>() {
        let fam = k / members;
        let callee = ids[(next() as usize) % ids.len()];
        let cross_call = next() % 100 < 40 && callee != f;
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.block("entry");
        b.switch_to(e);
        let mut v = Value::Param(0);
        for j in 0..10 {
            v = b.add(v, b.const_i32((fam * 3 + j) as i32));
            v = b.mul(v, Value::Param(0));
        }
        if cross_call {
            v = b.call(callee, vec![v]);
        }
        v = b.xor(v, b.const_i32((k % members) as i32));
        b.ret(Some(v));
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Commits through the call-site index are decision-invisible: with
    /// cross-calls and mixed linkage, any thread count produces the
    /// paper's loop's exact module text.
    #[test]
    fn calling_swarm_commits_are_bit_identical_to_sequential(
        seed in 0u64..10_000,
        families in 3usize..8,
        members in 2usize..4,
        threads in 1usize..9,
    ) {
        let base = calling_swarm(seed, families, members);
        let cfg = Config::new().threshold(5).parallel(threads);
        let mut m_seq = base.clone();
        let seq = paper_loop(&mut m_seq, &cfg);
        let mut m_par = base.clone();
        let par = pipeline::run(&mut m_par, &cfg);
        prop_assert_eq!(print_module(&m_seq), print_module(&m_par));
        prop_assert_eq!(seq.merges, par.merges);
    }
}

/// Pinned: merges whose sides share callers, merges with thunked sides
/// and caller-less merges must reproduce the serial text at 1/2/4/8
/// threads.
#[test]
fn caller_overlap_matches_serial_at_any_thread_count() {
    let base = calling_swarm(0x0ba7_c4ed, 6, 3);
    let mut m_seq = base.clone();
    let seq = paper_loop(&mut m_seq, &Config::new().threshold(5));
    assert!(seq.merges > 3, "workload must merge: {}", seq.merges);
    let seq_text = print_module(&m_seq);
    for threads in [1usize, 2, 4, 8] {
        let cfg = Config::new().threshold(5).parallel(threads);
        let mut m_par = base.clone();
        let par = pipeline::run(&mut m_par, &cfg);
        assert_eq!(seq_text, print_module(&m_par), "module text at {threads} threads");
        assert_eq!(seq.merges, par.merges, "merges at {threads} threads");
        assert!(fmsa::ir::verify_module(&m_par).is_empty());
    }
}

/// Large clone families make many scheduled attempts share functions:
/// when one member merges, every other scheduled attempt touching it is
/// stale and must be re-validated by the commit stage.
#[test]
fn stress_shared_candidates_exercise_conflict_revalidation() {
    let cfg = SwarmConfig {
        functions: 160,
        family_size: 8,
        clone_fraction: 0.8,
        target_size: 20,
        seed: 0xfeed_beef,
    };
    let base = clone_swarm_module(&cfg);
    let cfg = Config::new().threshold(8).search(SearchStrategy::Lsh).parallel(4);
    let mut m_seq = base.clone();
    let seq = paper_loop(&mut m_seq, &cfg);
    assert!(seq.merges > 10, "stress module must merge heavily: {}", seq.merges);
    let mut m_par = base.clone();
    let par = pipeline::run(&mut m_par, &cfg);
    assert_eq!(print_module(&m_seq), print_module(&m_par));
    let p = par.pipeline.expect("pipeline stats");
    assert!(p.recomputed > 0, "shared candidates must invalidate prepared attempts: {p:?}");
    assert!(p.reused > 0, "independent attempts must still be reused: {p:?}");
    assert!(fmsa::ir::verify_module(&m_par).is_empty());
}

/// Every thread count must produce the identical merge list and module
/// text on a swarm whose clone families make scheduled attempts share
/// functions.
#[test]
fn stress_swarm_is_identical_across_thread_counts() {
    let cfg = SwarmConfig {
        functions: 120,
        family_size: 6,
        clone_fraction: 0.7,
        target_size: 18,
        seed: 0x5bec_c0de,
    };
    let base = clone_swarm_module(&cfg);
    let cfg = Config::new().threshold(5).search(SearchStrategy::Lsh);
    let mut m_seq = base.clone();
    let seq = paper_loop(&mut m_seq, &cfg);
    let seq_text = print_module(&m_seq);
    assert!(seq.merges > 5, "stress module must merge: {}", seq.merges);
    for threads in [1usize, 2, 4, 8] {
        let mut m_par = base.clone();
        let pcfg = cfg.clone().parallel(threads);
        let par = pipeline::run(&mut m_par, &pcfg);
        assert_eq!(seq.merges, par.merges, "merge count at {threads} threads");
        assert_eq!(
            seq.rank_positions, par.rank_positions,
            "merge list (rank order) at {threads} threads"
        );
        assert_eq!(seq_text, print_module(&m_par), "module text at {threads} threads");
        assert!(fmsa::ir::verify_module(&m_par).is_empty());
    }
}

/// Generations hold the same subjects at every thread count, so the
/// decision log and every commit counter are thread-invariant — here on
/// a module with more eligible functions than one generation holds, under
/// injected faults so quarantine records take part.
#[test]
fn decision_log_and_commit_counters_are_thread_invariant() {
    use fmsa::core::pipeline::GENERATION_SUBJECTS;
    use fmsa::core::{silence_injected_panics, FaultPlan, FaultSite};
    silence_injected_panics();
    let base = clone_swarm_module(&SwarmConfig::with_functions(600));
    assert!(base.func_ids().len() > 2 * GENERATION_SUBJECTS);
    let faults = FaultPlan::new(0xFA17, 20_000, &FaultSite::ALL);
    let cfg = Config::new().threshold(5).search(SearchStrategy::Lsh).faults(faults);
    let mut reference: Option<(String, String, Vec<usize>)> = None;
    for threads in [1usize, 2, 4, 8] {
        let mut m = base.clone();
        let pcfg = cfg.clone().parallel(threads);
        let st = pipeline::run(&mut m, &pcfg);
        let p = st.pipeline.expect("pipeline stats");
        let counters = vec![
            p.generations,
            p.gate_skipped,
            p.gate_missed,
            p.budget_skipped,
            p.quarantined_align,
            p.quarantined_codegen,
            p.quarantined_verify,
        ];
        assert!(p.generations > 2, "the frontier must span generations: {p:?}");
        let run = (print_module(&m), st.decisions.to_jsonl(), counters);
        match &reference {
            None => {
                assert!(p.quarantined() > 0, "the plan must quarantine something: {p:?}");
                reference = Some(run);
            }
            Some(r) => {
                assert!(r.0 == run.0, "module text diverged at {threads} threads");
                assert!(r.1 == run.1, "decision log diverged at {threads} threads");
                assert_eq!(r.2, run.2, "commit counters diverged at {threads} threads: {p:?}");
            }
        }
    }
}

/// The pipeline also replays the paper's loop on the calibrated suite
/// modules (exact search, the paper's configuration).
#[test]
fn pipeline_matches_sequential_on_suite_modules() {
    for d in spec_suite().into_iter().filter(|d| d.paper_fns <= 400) {
        let base = d.build();
        let cfg = Config::new().threshold(5).parallel(3);
        let (seq, par) = run_both(&base, &cfg);
        assert_eq!(seq, par, "{} diverged", d.name);
    }
}

/// The alignment budget must never trigger at paper scale — that is what
/// keeps the pipeline bit-identical to the paper's (budget-less) loop on
/// every evaluated workload.
#[test]
fn default_budget_is_invisible_on_suite_modules() {
    use fmsa::core::linearize;
    for d in spec_suite() {
        let m = d.build();
        for f in m.func_ids() {
            let n = linearize(m.func(f)).len();
            assert_eq!(
                fmsa::align::plan(n, n),
                fmsa::align::AlignPlan::Full,
                "{}: function of {n} entries hit the default budget",
                d.name
            );
        }
    }
}

/// Two functions of `len` instructions each, the second differing from
/// the first in every `every`-th constant (`every == 0`: identical).
fn long_pair(len: usize, every: usize) -> Module {
    use fmsa::ir::{FuncBuilder, Value};
    let mut m = Module::new("adversarial");
    let i32t = m.types.i32();
    let fn_ty = m.types.func(i32t, vec![i32t]);
    for (side, name) in ["huge_a", "huge_b"].into_iter().enumerate() {
        let f = m.create_function(name, fn_ty);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.block("entry");
        b.switch_to(e);
        let mut v = Value::Param(0);
        for k in 0..len {
            let differs = side == 1 && every > 0 && k % every == 0;
            v = b.add(v, b.const_i32((k % 7) as i32 + if differs { 100 } else { 0 }));
        }
        b.ret(Some(v));
    }
    m
}

/// Functions longer than `fmsa::align::MAX_LEN` trip the length cap: the
/// pair is abandoned instead of stalling a worker on a huge DP matrix.
/// The same shape under the cap merges, through the band.
#[test]
fn length_cap_triggers_on_adversarially_long_functions() {
    use fmsa::align::{plan, AlignPlan, MAX_LEN};
    let cfg = Config::new().threshold(5).parallel(2);
    // Linearized, each function holds more entries than adds: its `ret`
    // and its entry label too.
    let over = MAX_LEN + 1;
    assert_eq!(plan(over, over), AlignPlan::Skip);
    let mut merged = long_pair(over, 0);
    let stats = pipeline::run(&mut merged, &cfg);
    assert_eq!(stats.merges, 0, "capped pairs must not merge");
    assert_eq!(stats.pipeline.expect("stats").budget_skipped, 2);
    // Without the cap the same shape merges.
    let under = 5_100;
    assert!(matches!(plan(under, under), AlignPlan::Banded(_)));
    let mut merged = long_pair(under, 0);
    let stats = pipeline::run(&mut merged, &cfg);
    assert_eq!(stats.merges, 1);
    assert_eq!(stats.pipeline.expect("stats").budget_skipped, 0);
}

/// Over the cell budget, the banded fallback still merges near-identical
/// clones: their alignment hugs the diagonal, so the band aligns them as
/// the full matrix does, and the pipeline's one merge is the one the
/// paper's unbudgeted loop makes, at every thread count.
#[test]
fn banded_fallback_still_merges_clone_families() {
    use fmsa::align::{
        banded_needleman_wunsch, needleman_wunsch, plan, AlignPlan, ScoringScheme, BAND,
        FULL_MATRIX_CELLS,
    };
    use fmsa::core::{linearize, KeyInterner};
    let len = 5_100;
    assert!(len * len > FULL_MATRIX_CELLS);
    assert!(matches!(plan(len, len), AlignPlan::Banded(_)));
    let base = long_pair(len, 97);
    // The band loses nothing: on the two key sequences it gives the full
    // matrix's (26 M cells) score and steps.
    let interner = KeyInterner::new();
    let keys: Vec<Vec<u32>> = base
        .func_ids()
        .into_iter()
        .map(|f| interner.keys(&base, f, &linearize(base.func(f))))
        .collect();
    let scheme = ScoringScheme::default();
    let full = needleman_wunsch(&keys[0], &keys[1], |x, y| x == y, &scheme);
    let banded = banded_needleman_wunsch(&keys[0], &keys[1], |x, y| x == y, &scheme, BAND);
    assert_eq!(banded.score, full.score);
    assert_eq!(banded.steps, full.steps);
    let cfg = Config::new().threshold(5);
    let mut m_seq = base.clone();
    assert_eq!(paper_loop(&mut m_seq, &cfg).merges, 1);
    let want = print_module(&m_seq);
    for threads in [1, 2] {
        let mut m = base.clone();
        let stats = pipeline::run(&mut m, &cfg.clone().parallel(threads));
        assert_eq!(stats.merges, 1, "at {threads} threads");
        assert!(fmsa::ir::verify_module(&m).is_empty());
        assert!(
            print_module(&m) == want,
            "at {threads} threads the merge is not the full matrix's"
        );
    }
}

/// On the seed suite modules, the pre-codegen Δ bound computed from a
/// banded(64) alignment of the key sequences stays within the CI parity
/// budget of the one computed from the full-matrix alignment, for exactly
/// the pairs the pass would explore (each subject's top-ranked
/// candidate).
#[test]
fn banded_estimate_within_error_bound_on_suite_modules() {
    use fmsa::core::fingerprint::Fingerprint;
    use fmsa::core::linearize::linearize;
    use fmsa::core::profitability::delta_bound;
    use fmsa::core::ranking::rank_candidates;
    use fmsa::core::{KeyInterner, MergeConfig};
    use fmsa::target::CostModel;
    use fmsa_align::{banded_needleman_wunsch, needleman_wunsch, ScoringScheme};
    let cm = CostModel::new(fmsa::target::TargetArch::X86_64);
    let scheme = ScoringScheme::default();
    let merge = MergeConfig::default();
    let mut pairs_checked = 0;
    for d in spec_suite().into_iter().filter(|d| d.paper_fns <= 300) {
        let m = d.build();
        let ids = m.func_ids();
        let fps: Vec<(fmsa::ir::FuncId, Fingerprint)> =
            ids.iter().map(|&f| (f, Fingerprint::of(&m, f))).collect();
        let interner = KeyInterner::new();
        for (k, &(f1, ref fp1)) in fps.iter().enumerate().take(20) {
            let others =
                fps.iter().enumerate().filter(|&(j, _)| j != k).map(|(_, (f, fp))| (*f, fp));
            let Some(best) = rank_candidates(f1, fp1, others, 1, 0.0).into_iter().next() else {
                continue;
            };
            let f2 = best.func;
            let seq1 = linearize(m.func(f1));
            let seq2 = linearize(m.func(f2));
            if seq1.is_empty() || seq2.is_empty() {
                continue;
            }
            let keys1 = interner.keys(&m, f1, &seq1);
            let keys2 = interner.keys(&m, f2, &seq2);
            let eq = |a: &u32, b: &u32| a == b;
            let full = needleman_wunsch(&keys1, &keys2, eq, &scheme);
            let banded = banded_needleman_wunsch(&keys1, &keys2, eq, &scheme, 64);
            let bound = |al| delta_bound(&m, &cm, f1, f2, &seq1, &seq2, al, &merge);
            let (Ok(est_full), Ok(est_banded)) = (bound(&full), bound(&banded)) else {
                continue;
            };
            let (est_full, est_banded) = (est_full.bound, est_banded.bound);
            let slack = (0.10 * est_full.abs() as f64).max(8.0);
            assert!(
                (est_full - est_banded).abs() as f64 <= slack,
                "{}: pair {:?}/{:?} full-est {est_full} vs banded-est {est_banded}",
                d.name,
                m.func(f1).name,
                m.func(f2).name
            );
            pairs_checked += 1;
        }
    }
    assert!(pairs_checked > 30, "suite sample too small: {pairs_checked}");
}

/// `count` near-clones differing in one constant each: pairwise merges
/// produce merged functions that merge again (the feedback loop).
fn clone_family(count: usize, body_len: usize) -> Module {
    use fmsa::ir::{FuncBuilder, Value};
    let mut m = Module::new("m");
    let i32t = m.types.i32();
    let fn_ty = m.types.func(i32t, vec![i32t, i32t]);
    for k in 0..count {
        let f = m.create_function(format!("fam{k}"), fn_ty);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.block("entry");
        b.switch_to(e);
        let mut v = Value::Param(0);
        for j in 0..body_len {
            v = b.add(v, b.const_i32(j as i32));
            v = b.mul(v, Value::Param(1));
        }
        v = b.xor(v, b.const_i32(k as i32 + 100));
        b.ret(Some(v));
    }
    m
}

/// Runs the paper's loop and the pipeline at each thread count on
/// `base` under `cfg`: module text, merges, attempts and rank positions
/// must all agree.
fn assert_matches_paper_loop(label: &str, base: &Module, cfg: &Config, threads: &[usize]) {
    let mut m_seq = base.clone();
    let seq = paper_loop(&mut m_seq, cfg);
    let seq_text = print_module(&m_seq);
    for &t in threads {
        let pcfg = cfg.clone().parallel(t);
        let mut m = base.clone();
        let par = pipeline::run(&mut m, &pcfg);
        assert!(seq_text == print_module(&m), "{label}: module text at {t} threads");
        assert_eq!(
            (seq.merges, seq.attempted, &seq.rank_positions),
            (par.merges, par.attempted, &par.rank_positions),
            "{label}: merges, attempts and ranks at {t} threads"
        );
    }
}

/// The 6-clone family at t=5, exact and LSH search: the smallest input on
/// which every commit path and the feedback loop run.
#[test]
fn pipeline_matches_paper_loop_on_a_clone_family() {
    let base = clone_family(6, 12);
    for search in [SearchStrategy::Exact, SearchStrategy::Lsh] {
        let cfg = Config::new().threshold(5).search(search);
        assert_matches_paper_loop(&format!("{search:?}"), &base, &cfg, &[1, 2, 4, 8]);
    }
}

/// Oracle mode in the commit stage evaluates every candidate and commits
/// the largest Δ, exactly as the paper's oracle loop does, at any thread
/// count.
#[test]
fn oracle_matches_paper_loop() {
    let cfg = Config::new().oracle(true);
    for (count, body_len) in [(5, 10), (6, 12)] {
        let label = format!("{count}-clone family");
        assert_matches_paper_loop(&label, &clone_family(count, body_len), &cfg, &[1, 2, 4]);
    }
    let desc = spec_suite().into_iter().find(|d| d.name == "462.libquantum").expect("in suite");
    let mut base = desc.build();
    fmsa::core::baselines::run_identical(&mut base, cfg.arch);
    assert_matches_paper_loop(desc.name, &base, &cfg, &[1, 2, 4]);
}

/// The inputs the CI gates once compared against the paper's loop, which
/// now gate identity across thread counts: the 100- and 1 000-function
/// LSH t=5 swarms of `experiments merge-parallel` and `obs`, and the two
/// 2 000-function chunks of `experiments scale --fast`'s sample. Slow in
/// debug builds; CI runs it in release.
#[test]
#[ignore = "CI-gate inputs: run with --release -- --ignored"]
fn pipeline_matches_paper_loop_on_ci_gate_inputs() {
    use fmsa::workloads::stream_chunks;
    let cfg = Config::new().threshold(5).search(SearchStrategy::Lsh);
    for n in [100, 1_000] {
        let base = clone_swarm_module(&SwarmConfig::with_functions(n));
        assert_matches_paper_loop(&format!("{n}-fn swarm"), &base, &cfg, &[1]);
    }
    for (k, spec) in stream_chunks(4_000, 2_000, 0x5ca1_e001).enumerate() {
        let base = spec.materialize();
        assert_matches_paper_loop(&format!("scale chunk {k}"), &base, &cfg, &[1]);
    }
}
