//! Cross-crate pipeline tests: calibrated benchmark modules through the
//! full technique stack, with the paper's qualitative claims asserted.

use fmsa::core::baselines::{run_identical, run_soa};
use fmsa::interp::Interpreter;
use fmsa::target::{CostModel, TargetArch};
use fmsa::workloads::{add_driver, mibench_suite, spec_suite, DriverConfig};
use fmsa::{optimize, Config};
use std::collections::HashSet;

fn desc(name: &str) -> fmsa::workloads::BenchDesc {
    spec_suite()
        .into_iter()
        .chain(mibench_suite())
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("{name} in suites"))
}

#[test]
fn technique_ordering_on_small_spec_benchmarks() {
    // The paper's core qualitative claim, checked per benchmark:
    // FMSA >= SOA >= Identical in code-size reduction.
    for name in ["433.milc", "462.libquantum", "482.sphinx3", "458.sjeng"] {
        let d = desc(name);
        let base = d.build();
        let cm = CostModel::new(TargetArch::X86_64);
        let before = cm.module_size(&base);
        let mut mi = base.clone();
        run_identical(&mut mi, TargetArch::X86_64);
        let ident = before - cm.module_size(&mi);
        let mut ms = base.clone();
        run_identical(&mut ms, TargetArch::X86_64);
        run_soa(&mut ms, TargetArch::X86_64);
        let soa = before - cm.module_size(&ms);
        let mut mf = base.clone();
        optimize(&mut mf, &Config::new().threshold(10)).expect("optimize");
        let fmsa = before - cm.module_size(&mf);
        assert!(fmsa >= soa, "{name}: FMSA {fmsa} < SOA {soa}");
        assert!(soa >= ident, "{name}: SOA {soa} < Identical {ident}");
        assert!(fmsa > 0, "{name}: FMSA should find something");
        assert!(fmsa_ir::verify_module(&mf).is_empty());
    }
}

#[test]
fn modules_stay_valid_through_all_techniques() {
    for d in spec_suite().into_iter().filter(|d| d.paper_fns <= 250) {
        let base = d.build();
        let mut m = base.clone();
        run_identical(&mut m, TargetArch::X86_64);
        run_soa(&mut m, TargetArch::X86_64);
        optimize(&mut m, &Config::new().threshold(5).identical_prepass(false)).expect("optimize");
        let errs = fmsa_ir::verify_module(&m);
        assert!(errs.is_empty(), "{}: {errs:?}", d.name);
    }
}

#[test]
fn driver_behaviour_preserved_through_full_pipeline() {
    // End-to-end differential: the __driver's observable output must be
    // identical before and after the whole merging pipeline.
    let d = desc("433.milc");
    let mut base = d.build();
    add_driver(&mut base, &DriverConfig::default());
    let run = |m: &fmsa::ir::Module| {
        let mut interp = Interpreter::new(m);
        interp.set_fuel(100_000_000);
        let r = interp.run("__driver", vec![]).expect("driver runs");
        (r.output, r.steps)
    };
    let (out_before, steps_before) = run(&base);
    let mut merged = base.clone();
    let cfg = Config::new().threshold(10).exclude(["__driver"]);
    let stats = optimize(&mut merged, &cfg).expect("optimize");
    assert!(stats.merges > 0, "milc-like module should merge something");
    let (out_after, steps_after) = run(&merged);
    assert_eq!(out_before, out_after, "observable behaviour changed");
    // Fig. 14's effect: overhead exists but is small.
    let overhead = steps_after as f64 / steps_before as f64;
    assert!(
        (0.99..1.25).contains(&overhead),
        "dynamic-instruction overhead out of range: {overhead}"
    );
}

#[test]
fn hot_function_exclusion_reduces_overhead() {
    // §V-D: preventing hot functions from merging removes the runtime
    // impact while retaining some code-size reduction.
    let d = desc("433.milc");
    let r = fmsa_bench_harness_runtime(&d);
    assert!(r.0 <= r.1 + 1e-9, "hot-excluded {} should not exceed plain {}", r.0, r.1);
}

// Minimal local copy of the harness runtime experiment to avoid making
// fmsa-bench a dependency of the root test crate.
fn fmsa_bench_harness_runtime(d: &fmsa::workloads::BenchDesc) -> (f64, f64) {
    let mut base = d.build();
    add_driver(&mut base, &DriverConfig::default());
    let run = |m: &fmsa::ir::Module| {
        let mut interp = Interpreter::new(m);
        interp.set_fuel(100_000_000);
        let r = interp.run("__driver", vec![]).expect("driver runs");
        let hot = interp.profile().hot_functions(0.05);
        (r.steps, hot)
    };
    let (steps_before, hot) = run(&base);
    let merge = |exclude: Vec<String>| {
        let mut m = base.clone();
        let mut ex: HashSet<String> = exclude.into_iter().collect();
        ex.insert("__driver".to_owned());
        optimize(&mut m, &Config::new().threshold(1).exclude(ex)).expect("optimize");
        run(&m).0 as f64 / steps_before as f64
    };
    (merge(hot), merge(Vec::new()))
}

#[test]
fn mibench_tiny_benchmarks_find_nothing() {
    // Table II: the tiny C programs have no mergeable pairs for anyone.
    for name in ["CRC32", "qsort", "dijkstra"] {
        let d = desc(name);
        let mut m = d.build();
        let i = run_identical(&mut m, TargetArch::X86_64);
        let s = run_soa(&mut m, TargetArch::X86_64);
        let f = optimize(&mut m, &Config::new().threshold(10).identical_prepass(false))
            .expect("optimize");
        assert_eq!((i.merges, s.merges, f.merges), (0, 0, 0), "{name} should have no merges");
    }
}

#[test]
fn rijndael_giant_pair_dominates() {
    // §V-B: FMSA merges the two giants; other techniques find nothing.
    let d = desc("rijndael");
    let base = d.build();
    let cm = CostModel::new(TargetArch::X86_64);
    let before = cm.module_size(&base);
    let mut m = base.clone();
    assert_eq!(run_identical(&mut m, TargetArch::X86_64).merges, 0);
    assert_eq!(run_soa(&mut m, TargetArch::X86_64).merges, 0);
    let stats = optimize(&mut m, &Config::new().identical_prepass(false)).expect("optimize");
    assert_eq!(stats.merges, 1);
    let red = fmsa::target::reduction_percent(before, cm.module_size(&m));
    assert!((15.0..30.0).contains(&red), "rijndael reduction should be paper-sized (20.6%): {red}");
}

#[test]
fn oracle_never_loses_to_greedy() {
    for name in ["462.libquantum", "473.astar", "429.mcf"] {
        let d = desc(name);
        let base = d.build();
        let cm = CostModel::new(TargetArch::X86_64);
        let cfg = Config::new().identical_prepass(false);
        let mut g = base.clone();
        optimize(&mut g, &cfg.clone().threshold(1)).expect("optimize");
        let mut o = base.clone();
        optimize(&mut o, &cfg.clone().oracle(true)).expect("optimize");
        assert!(
            cm.module_size(&o) <= cm.module_size(&g),
            "{name}: oracle should be at least as good"
        );
    }
}

#[test]
fn both_targets_agree_qualitatively() {
    // §V-B: "We observe similar trends of code size reduction on both
    // target architectures."
    let d = desc("445.gobmk");
    let base = d.build();
    let mut reductions = Vec::new();
    for arch in TargetArch::ALL {
        let cm = CostModel::new(arch);
        let before = cm.module_size(&base);
        let mut m = base.clone();
        optimize(&mut m, &Config::new().threshold(1).arch(arch)).expect("optimize");
        reductions.push(fmsa::target::reduction_percent(before, cm.module_size(&m)));
    }
    assert!(reductions.iter().all(|&r| r > 0.0), "{reductions:?}");
    let diff = (reductions[0] - reductions[1]).abs();
    assert!(diff < 5.0, "targets should agree within second-order effects: {reductions:?}");
}
