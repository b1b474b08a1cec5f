//! The batch workloads, `swarm` and `suite`: in-memory modules in,
//! printed optimized text out, as `fmsa_opt` does it.

use crate::check::driver_diff;
use crate::compile::{measure, size_reduction_pct};
use crate::stats::{geomean, median};
use crate::{mix, trace, Args, Report};
use fmsa::core::SearchStrategy;
use fmsa::ir::{verify_module, Module};
use fmsa::workloads::{
    add_driver, clone_swarm_module, mibench_suite, spec_suite, DriverConfig, SwarmConfig,
};
use fmsa::Config;
use std::time::Instant;

/// Functions in the `swarm` module.
const SWARM_FUNCTIONS: usize = 5000;

/// The `swarm` input: one clone-swarm module plus a `__driver` that
/// calls a seeded sample of its functions. The sampled functions keep
/// callers, so merging them leaves thunks the interpreter can run.
fn swarm_inputs(seed: u64) -> Vec<Module> {
    let cfg = SwarmConfig {
        functions: SWARM_FUNCTIONS,
        seed: mix(seed, 1),
        ..SwarmConfig::with_functions(SWARM_FUNCTIONS)
    };
    let mut m = clone_swarm_module(&cfg);
    let driver = DriverConfig {
        seed: mix(seed, 2),
        hot_calls: 4,
        cold_calls: 1,
        max_callees: 200,
        ..DriverConfig::default()
    };
    add_driver(&mut m, &driver);
    vec![m]
}

/// The `suite` inputs: the 42 calibrated SPEC CPU2006 and MiBench
/// modules, generator seeds derived from the run seed, each with a
/// small `__driver` for the runtime check.
fn suite_inputs(seed: u64) -> Vec<Module> {
    spec_suite()
        .into_iter()
        .chain(mibench_suite())
        .enumerate()
        .map(|(k, mut desc)| {
            desc.seed = mix(seed, desc.seed);
            let mut m = desc.build();
            let driver = DriverConfig {
                seed: mix(seed, 1000 + k as u64),
                hot_calls: 2,
                cold_calls: 1,
                max_callees: 16,
                ..DriverConfig::default()
            };
            add_driver(&mut m, &driver);
            m
        })
        .collect()
}

/// Generates the inputs once; returns the seconds it took and them.
fn set_up(suite: bool, seed: u64) -> (f64, Vec<Module>) {
    let _s = trace::span("bench.setup");
    trace::timed("alloc.trim", crate::release_free_memory);
    let t0 = Instant::now();
    let inputs = trace::timed("workloads.generate", || {
        if suite {
            suite_inputs(seed)
        } else {
            swarm_inputs(seed)
        }
    });
    (t0.elapsed().as_secs_f64(), inputs)
}

/// One round of set-up repetitions; returns the last inputs. Earlier
/// inputs are freed before the clock starts.
pub fn setup_round(suite: bool, seed: u64, times: &mut Vec<f64>) -> Result<Vec<Module>, String> {
    let mut inputs = Vec::new();
    crate::setup_round(times, |_| {
        trace::timed("ir.drop", || drop(std::mem::take(&mut inputs)));
        let (s, m) = set_up(suite, seed);
        inputs = m;
        Ok(s)
    })?;
    Ok(inputs)
}

/// Runs `swarm` (or `suite` when `suite` is set) into `r`.
pub fn run(args: &Args, suite: bool, r: &mut Report) -> Result<(), String> {
    let threads = crate::nproc();
    let cfg = if suite {
        Config::new().parallel(threads).exclude(["__driver"])
    } else {
        Config::new()
            .threshold(5)
            .search(SearchStrategy::lsh())
            .parallel(threads)
            .exclude(["__driver"])
    };

    // Set-up, in rounds spread over the run; the median is reported.
    // Set-up is input generation alone, so both metrics read the same.
    let mut setup_s = Vec::new();
    let inputs = setup_round(suite, args.seed, &mut setup_s)?;
    r.note(format!(
        "{} module(s), {} functions, threads={threads}",
        inputs.len(),
        inputs.iter().map(|m| m.func_ids().len()).sum::<usize>()
    ));

    let passes = measure(&inputs, &cfg, args.seconds, args.trace, r, || {
        crate::setup_round_in_child(&args.workload, args.seed, &mut setup_s)
    })?;
    r.set("setup_s", median(&setup_s));
    r.set("workloads.generate_s", median(&setup_s));
    r.note(format!("{} set-ups, median {:.4} s", setup_s.len(), median(&setup_s)));
    let (out, walls) = (&passes.out, &passes.walls);
    // A module's latency is its median compile time over the passes,
    // as `compile_s` sums them.
    let latencies = &passes.module_ms;
    crate::set_latency(r, latencies, 0);
    r.set("throughput_rps", latencies.len() as f64 * 1e3 / latencies.iter().sum::<f64>());
    let size = trace::timed("target.size", || size_reduction_pct(&inputs, &out.modules, &cfg));
    r.set("size_reduction_pct", size);
    let (attempts, merges) = out.attempts_and_merges();
    r.note(format!(
        "{} untraced pass(es): median {:.3} s wall; {merges} merges from {attempts} attempts",
        walls.len(),
        median(walls),
    ));
    r.note(format!("pass walls (s): {walls:.3?}"));

    // Output checks: every module verifies, and every `__driver` ends
    // the same way before and after merging.
    let t0 = Instant::now();
    let mut ratios = Vec::new();
    let (mut steps, mut pairs) = (0u64, 0u64);
    let mut heavy = Vec::new();
    for (pre, post) in inputs.iter().zip(&out.modules) {
        let errs = trace::timed("ir.verify", || verify_module(post));
        r.check(errs.is_empty(), || format!("{} does not verify: {}", post.name, errs[0]));
        let Some(d) = trace::timed("interp.check", || driver_diff(pre, post)) else {
            heavy.push(pre.name.as_str());
            continue;
        };
        r.check(d.mismatches == 0, || format!("{}: __driver outcome changed by merging", pre.name));
        ratios.push(d.overhead());
        steps += d.pre_steps + d.post_steps;
        pairs += d.pairs;
    }
    let check_s = t0.elapsed().as_secs_f64();
    if ratios.is_empty() {
        return Err("no __driver fits the interpreter budget".into());
    }
    r.note(format!(
        "runtime check: {} of {} drivers run before and after merging; over the {} step budget: {heavy:?}",
        ratios.len(),
        inputs.len(),
        crate::check::DRIVER_BUDGET
    ));
    r.set("runtime_overhead", geomean(&ratios));
    r.set("interp.check_s", check_s);
    r.set("interp.steps_per_s", steps as f64 / check_s);
    r.set("interp.diff_pairs", pairs as f64);

    Ok(())
}
