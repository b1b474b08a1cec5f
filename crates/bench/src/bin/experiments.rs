//! Regenerates every table and figure of the paper's evaluation (§V).
//!
//! ```text
//! experiments table1            Table I  (SPEC stats + merge ops)
//! experiments table2            Table II (MiBench stats + merge ops)
//! experiments fig8              CDF of profitable candidate rank
//! experiments fig10             Code-size reduction, x86-64 + ARM Thumb
//! experiments fig11             Code-size reduction, MiBench
//! experiments fig12             Compile-time overhead
//! experiments fig13             Compile-time breakdown (t=1)
//! experiments fig14             Runtime overhead + §V-D case study
//! experiments ablation-params   §III-E parameter-reuse ablation
//! experiments search            Exact vs LSH candidate search at scale
//! experiments merge-parallel    Merge pipeline at 1/2/4 threads at scale
//! experiments wasm              Decode/lower/merge a wasm binary corpus
//! experiments fuzz              Differential fuzz farm over merged wasm
//! experiments faults            Fault-injection matrix (quarantine gates)
//! experiments serve-bench       Merge-daemon load generator (fmsa-serve)
//! experiments scale             Streamed million-function corpus + scaling curve
//! experiments chaos             Kill/restart cycles under injected store faults
//! experiments obs               Flight-recorder smoke: overhead gate, trace
//!                               validity, decision-log reconciliation, /metrics
//! experiments all               everything above except `scale`, `chaos`, `obs`
//! ```
//!
//! Add `--oracle` to include the quadratic oracle where feasible, and
//! `--fast` to restrict to the smaller half of each suite (used by CI).
//! `--json <path>` appends one self-describing JSON line per measured
//! configuration (the `BENCH_ci.json` artifact), and `--check` turns
//! parity-budget violations (LSH vs exact, pipeline thread counts vs one
//! thread, daemon vs batch) into a non-zero exit for the CI gate.
//! `scale` honours `--functions N` (corpus size; default 1 000 000, or 20 000 with
//! `--fast`) and `--chunk N` (streamed chunk size): it processes the
//! corpus one materialized chunk at a time so peak memory stays bounded
//! by the chunk, then measures a threads-vs-wall scaling curve on a
//! sampled prefix. `chaos` boots the daemon over a persistent store,
//! runs concurrent uploads under injected store I/O faults, kills it
//! without drain, truncates/bit-flips the log to simulate dying
//! mid-write, and gates the recovery invariant (zero checksum-valid
//! durable entries lost, zero panics, byte-identical re-serve after
//! recovery, atomic compaction). Any subcommand honours `--trace-out
//! PATH`: the run records flight-recorder spans and writes Chrome
//! trace-event JSON (Perfetto-viewable) on exit. `obs` measures the
//! telemetry-disabled vs tracing-enabled overhead (gated ≤ 3% under
//! `--check`), revalidates output bit-identity with tracing on, requires
//! the same decision log at every thread count, checks span nesting,
//! reconciles the merge decision log against
//! `PipelineStats`, fails on any decision record whose `delta` exceeds
//! its `delta_bound` or on Δ-gate recall below 0.95, and scrapes a
//! booted daemon's `/metrics`. `scale`,
//! `chaos`, and `obs` are deliberately not part of `all`.

use fmsa::Config;
use fmsa_bench::harness::{
    mean, pipeline_json_fields, rank_cdf, run_benchmark, run_runtime_experiment, BenchResult, Json,
    Report, RunPlan,
};
use fmsa_core::merge::MergeConfig;
use fmsa_core::pipeline::run_fmsa_pipeline;
use fmsa_target::{reduction_percent, CostModel, TargetArch};
use fmsa_workloads::{mibench_suite, spec_suite, BenchDesc};

/// Relative drift allowed between an optimized configuration and its
/// exact/one-thread baseline before the CI gate trips.
const PARITY_BUDGET: f64 = 0.10;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let oracle = args.iter().any(|a| a == "--oracle");
    let fast = args.iter().any(|a| a == "--fast");
    let check = args.iter().any(|a| a == "--check");
    let json_path = args.iter().position(|a| a == "--json").and_then(|k| args.get(k + 1)).cloned();
    let flag_value = |name: &str| -> Option<usize> {
        let k = args.iter().position(|a| a == name)?;
        match args.get(k + 1).map(|v| (v, v.parse())) {
            Some((_, Ok(n))) => Some(n),
            other => {
                let got = other.map(|(v, _)| format!("got {v:?}")).unwrap_or("missing".to_owned());
                eprintln!("experiments: {name} needs a number, {got}");
                std::process::exit(2);
            }
        }
    };
    let budget_secs = flag_value("--budget").unwrap_or(30);
    let scale_functions = flag_value("--functions");
    let scale_chunk = flag_value("--chunk");
    let trace_out =
        args.iter().position(|a| a == "--trace-out").and_then(|k| args.get(k + 1)).cloned();
    let value_flags = ["--json", "--budget", "--functions", "--chunk", "--trace-out"];
    let cmd = args
        .iter()
        .enumerate()
        .find(|(k, a)| {
            !a.starts_with("--")
                && !args
                    .get(k.wrapping_sub(1))
                    .is_some_and(|prev| value_flags.contains(&prev.as_str()))
        })
        .map(|(_, a)| a.clone())
        .unwrap_or_else(|| "all".to_owned());
    // Result header: make every run self-describing. The search strategy
    // varies per experiment, so it is stated in each section title and
    // repeated per record in the bench JSON lines.
    println!(
        "experiments {cmd}: threads={} available, alignment=needleman-wunsch, \
         search per section header / JSON record{}{}",
        Config::new().parallel(0).pipeline_options().resolved_threads(),
        if fast { ", --fast" } else { "" },
        if oracle { ", --oracle" } else { "" },
    );
    let mut report = Report::new(json_path);
    let spec = filtered(spec_suite(), fast);
    let mibench = filtered(mibench_suite(), fast);
    if trace_out.is_some() {
        fmsa::telemetry::trace::enable();
    }
    match cmd.as_str() {
        "table1" => table(&spec, "Table I (SPEC CPU2006)"),
        "table2" => table(&mibench, "Table II (MiBench)"),
        "fig8" => fig8(&spec),
        "fig10" => fig10(&spec, oracle),
        "fig11" => fig11(&mibench, oracle),
        "fig12" => fig12(&spec),
        "fig13" => fig13(&spec),
        "fig14" => fig14(&spec),
        "ablation-params" => ablation_params(&spec),
        "search" => search_scalability(fast, &mut report),
        "merge-parallel" => merge_parallel(fast, &mut report),
        "wasm" => wasm_frontend(fast, &mut report),
        "fuzz" => fuzz_farm(fast, budget_secs, &mut report),
        "faults" => fault_matrix(fast, &mut report),
        "serve-bench" => serve_bench(fast, &mut report),
        "scale" => scale(fast, scale_functions, scale_chunk, &mut report),
        "chaos" => chaos(fast, &mut report),
        "obs" => obs(fast, &mut report),
        "all" => {
            table(&spec, "Table I (SPEC CPU2006)");
            table(&mibench, "Table II (MiBench)");
            fig8(&spec);
            fig10(&spec, oracle);
            fig11(&mibench, oracle);
            fig12(&spec);
            fig13(&spec);
            fig14(&spec);
            ablation_params(&spec);
            search_scalability(fast, &mut report);
            merge_parallel(fast, &mut report);
            wasm_frontend(fast, &mut report);
            fuzz_farm(fast, budget_secs, &mut report);
            fault_matrix(fast, &mut report);
            serve_bench(fast, &mut report);
        }
        other => {
            eprintln!("unknown experiment {other:?}");
            std::process::exit(2);
        }
    }
    if let Some(path) = &trace_out {
        use fmsa::telemetry::trace;
        trace::disable();
        let (events, dropped) = trace::drain();
        if dropped > 0 {
            eprintln!("experiments: trace: {dropped} events dropped at the per-thread cap");
        }
        if let Err(e) = std::fs::write(path, trace::export_chrome(&events)) {
            eprintln!("experiments: cannot write trace {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("experiments: wrote {} trace events to {path}", events.len());
    }
    if let Err(e) = report.flush() {
        eprintln!("experiments: cannot write bench JSON: {e}");
        std::process::exit(1);
    }
    if check && !report.failures().is_empty() {
        eprintln!("experiments: {} parity budget violation(s)", report.failures().len());
        std::process::exit(1);
    }
}

fn filtered(suite: Vec<BenchDesc>, fast: bool) -> Vec<BenchDesc> {
    if !fast {
        return suite;
    }
    suite.into_iter().filter(|d| d.paper_fns <= 600).collect()
}

fn run_suite(suite: &[BenchDesc], plan: &RunPlan) -> Vec<BenchResult> {
    suite
        .iter()
        .map(|d| {
            eprintln!("  running {} ({:?})...", d.name, plan.arch);
            run_benchmark(d, plan)
        })
        .collect()
}

// ---------------------------------------------------------------- tables

fn table(suite: &[BenchDesc], title: &str) {
    println!("\n== {title}: functions, sizes, and merge operations ==");
    println!(
        "{:<16} {:>6} {:>18} {:>9} {:>6} {:>9} {:>10}",
        "benchmark", "#fns", "min/avg/max", "identical", "soa", "fmsa[t=1]", "fmsa[t=10]"
    );
    let plan = RunPlan { thresholds: vec![1, 10], oracle: false, ..RunPlan::default() };
    for desc in suite {
        let r = run_benchmark(desc, &plan);
        let (mn, avg, mx) = r.sizes;
        let t1 = r.fmsa.iter().find(|(t, _)| *t == 1).map(|(_, x)| x.merges).unwrap_or(0);
        let t10 = r.fmsa.iter().find(|(t, _)| *t == 10).map(|(_, x)| x.merges).unwrap_or(0);
        println!(
            "{:<16} {:>6} {:>18} {:>9} {:>6} {:>9} {:>10}",
            r.name,
            r.fns,
            format!("{mn}/{avg:.0}/{mx}"),
            r.identical.merges,
            r.soa.merges,
            t1,
            t10
        );
    }
    println!("(function counts are paper counts / {}; see EXPERIMENTS.md)", fmsa_workloads::SCALE);
}

// ---------------------------------------------------------------- fig 8

fn fig8(suite: &[BenchDesc]) {
    println!("\n== Fig. 8: CDF of the rank position of profitable candidates (t=10) ==");
    let plan = RunPlan { thresholds: vec![10], oracle: false, ..RunPlan::default() };
    let mut positions = Vec::new();
    for desc in suite {
        let r = run_benchmark(desc, &plan);
        for (_, tech) in &r.fmsa {
            positions.extend(tech.rank_positions.iter().copied());
        }
    }
    let cdf = rank_cdf(&positions, 10);
    println!("{:>9} {:>12}", "position", "coverage(%)");
    for (k, c) in cdf.iter().enumerate() {
        println!("{:>9} {:>12.1}", k + 1, c * 100.0);
    }
    println!(
        "(paper: ~89% at position 1, >98% within the top 5; measured: {:.0}% / {:.0}%)",
        cdf[0] * 100.0,
        cdf[4] * 100.0
    );
}

// ---------------------------------------------------------------- fig 10/11

fn reduction_table(results: &[BenchResult], oracle: bool) {
    println!(
        "{:<16} {:>9} {:>7} {:>9} {:>9} {:>10}{}",
        "benchmark",
        "identical",
        "soa",
        "fmsa[t=1]",
        "fmsa[t=5]",
        "fmsa[t=10]",
        if oracle { "   oracle" } else { "" }
    );
    let pick = |r: &BenchResult, t: usize| {
        r.fmsa.iter().find(|(x, _)| *x == t).map(|(_, v)| v.reduction).unwrap_or(0.0)
    };
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 6];
    for r in results {
        let row = [
            r.identical.reduction,
            r.soa.reduction,
            pick(r, 1),
            pick(r, 5),
            pick(r, 10),
            r.oracle.as_ref().map(|o| o.reduction).unwrap_or(f64::NAN),
        ];
        for (c, v) in cols.iter_mut().zip(row) {
            if !v.is_nan() {
                c.push(v);
            }
        }
        print!(
            "{:<16} {:>9.2} {:>7.2} {:>9.2} {:>9.2} {:>10.2}",
            r.name, row[0], row[1], row[2], row[3], row[4]
        );
        if oracle {
            if row[5].is_nan() {
                print!("  (skipped)");
            } else {
                print!(" {:>8.2}", row[5]);
            }
        }
        println!();
    }
    print!(
        "{:<16} {:>9.2} {:>7.2} {:>9.2} {:>9.2} {:>10.2}",
        "MEAN",
        mean(&cols[0]),
        mean(&cols[1]),
        mean(&cols[2]),
        mean(&cols[3]),
        mean(&cols[4])
    );
    if oracle {
        print!(" {:>8.2}", mean(&cols[5]));
    }
    println!();
}

fn fig10(suite: &[BenchDesc], oracle: bool) {
    for arch in TargetArch::ALL {
        println!("\n== Fig. 10: object size reduction (%) on {} ==", arch.name());
        let plan = RunPlan { arch, thresholds: vec![1, 5, 10], oracle, ..RunPlan::default() };
        let results = run_suite(suite, &plan);
        reduction_table(&results, oracle);
    }
    println!("(paper means: Intel 1.4/2.5/6.0/6.2/6.2/6.3; ARM 1.8/3.0/5.7/5.9/6.0/6.1)");
}

fn fig11(suite: &[BenchDesc], oracle: bool) {
    println!("\n== Fig. 11: object size reduction (%) on MiBench (x86-64) ==");
    let plan = RunPlan { thresholds: vec![1, 5, 10], oracle, ..RunPlan::default() };
    let results = run_suite(suite, &plan);
    reduction_table(&results, oracle);
    println!("(paper means: 0 / 0.1 / 1.7 / 1.7 / 1.7; rijndael ≈ 20.6% for FMSA)");
}

// ---------------------------------------------------------------- fig 12

fn fig12(suite: &[BenchDesc]) {
    println!("\n== Fig. 12: compilation-time overhead, normalized to no-merging baseline ==");
    println!(
        "{:<16} {:>10} {:>8} {:>10} {:>10} {:>11}",
        "benchmark", "identical", "soa", "fmsa[t=1]", "fmsa[t=5]", "fmsa[t=10]"
    );
    let plan = RunPlan { thresholds: vec![1, 5, 10], oracle: false, ..RunPlan::default() };
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 5];
    for desc in suite {
        let r = run_benchmark(desc, &plan);
        let base = r.baseline_compile.as_secs_f64().max(1e-9);
        let norm = |d: std::time::Duration| 1.0 + d.as_secs_f64() / base;
        let pick = |t: usize| {
            r.fmsa.iter().find(|(x, _)| *x == t).map(|(_, v)| norm(v.time)).unwrap_or(f64::NAN)
        };
        let row = [norm(r.identical.time), norm(r.soa.time), pick(1), pick(5), pick(10)];
        for (c, v) in cols.iter_mut().zip(row) {
            c.push(v);
        }
        println!(
            "{:<16} {:>10.2} {:>8.2} {:>10.2} {:>10.2} {:>11.2}",
            r.name, row[0], row[1], row[2], row[3], row[4]
        );
    }
    println!(
        "{:<16} {:>10.2} {:>8.2} {:>10.2} {:>10.2} {:>11.2}",
        "MEAN",
        mean(&cols[0]),
        mean(&cols[1]),
        mean(&cols[2]),
        mean(&cols[3]),
        mean(&cols[4])
    );
    println!("(paper means: 1.0 / 1.0 / 1.15 / 1.47 / 1.74; oracle ≈ 25x, not shown)");
}

// ---------------------------------------------------------------- fig 13

fn fig13(suite: &[BenchDesc]) {
    println!("\n== Fig. 13: compile-time breakdown of FMSA (t=1), % of pass time ==");
    println!(
        "{:<16} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "benchmark", "fingerp", "ranking", "linear", "align", "codegen", "updates"
    );
    let plan = RunPlan { thresholds: vec![1], oracle: false, ..RunPlan::default() };
    let mut sums = [0.0f64; 6];
    for desc in suite {
        let r = run_benchmark(desc, &plan);
        let Some(timers) = r.fmsa.first().and_then(|(_, v)| v.timers) else { continue };
        let total = timers.total().as_secs_f64().max(1e-12);
        let rows = timers.rows();
        let pct: Vec<f64> = rows.iter().map(|(_, s)| s / total * 100.0).collect();
        for (s, p) in sums.iter_mut().zip(&pct) {
            *s += p;
        }
        println!(
            "{:<16} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1}",
            r.name, pct[0], pct[1], pct[2], pct[3], pct[4], pct[5]
        );
    }
    let n = suite.len().max(1) as f64;
    println!(
        "{:<16} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1}",
        "MEAN",
        sums[0] / n,
        sums[1] / n,
        sums[2] / n,
        sums[3] / n,
        sums[4] / n,
        sums[5] / n
    );
    println!("(paper: alignment dominates, then ranking, then code generation)");
}

// ---------------------------------------------------------------- fig 14

fn fig14(suite: &[BenchDesc]) {
    println!("\n== Fig. 14: runtime overhead (normalized dynamic instructions, t=1) ==");
    println!(
        "{:<16} {:>9} {:>14} {:>12} {:>14}",
        "benchmark", "fmsa", "hot-excluded", "reduction%", "red% (excl)"
    );
    let mut norms = Vec::new();
    let mut norms_excl = Vec::new();
    for desc in suite {
        // Interpreting the biggest modules is slow; Fig. 14's point is made
        // by the bulk of the suite.
        if desc.paper_fns > 3000 {
            println!("{:<16} {:>9}", desc.name, "(skipped: module too large to interpret)");
            continue;
        }
        let r = run_runtime_experiment(desc, 1);
        norms.push(r.normalized());
        norms_excl.push(r.normalized_hot_excluded());
        println!(
            "{:<16} {:>9.3} {:>14.3} {:>12.2} {:>14.2}",
            r.name,
            r.normalized(),
            r.normalized_hot_excluded(),
            r.reduction,
            r.reduction_hot_excluded
        );
    }
    println!("{:<16} {:>9.3} {:>14.3}", "MEAN", mean(&norms), mean(&norms_excl));
    println!("(paper: ≈1.03 mean; hot-function exclusion removes the overhead, §V-D)");
}

// ---------------------------------------------------------------- search

fn search_scalability(fast: bool, report: &mut Report) {
    use fmsa_core::SearchStrategy;
    use fmsa_workloads::{clone_swarm_module, SwarmConfig};
    println!("\n== Candidate search at scale: exact pairwise vs MinHash/LSH (t=5) ==");
    println!(
        "{:>6} {:<7} {:>8} {:>12} {:>12} {:>12} {:>9}",
        "#fns", "search", "merges", "reduction%", "rank+search", "total", "speedup"
    );
    let sizes: &[usize] = if fast { &[100, 1000] } else { &[100, 1000, 5000] };
    for &n in sizes {
        let base = clone_swarm_module(&SwarmConfig::with_functions(n));
        let mut rank_times = Vec::new();
        let mut reductions = Vec::new();
        for (label, strategy) in [("exact", SearchStrategy::Exact), ("lsh", SearchStrategy::lsh())]
        {
            let mut m = base.clone();
            let cfg = Config::new().threshold(5).search(strategy).identical_prepass(false);
            let t0 = std::time::Instant::now();
            let stats = fmsa::optimize(&mut m, &cfg).expect("swarm merges");
            let total = t0.elapsed();
            rank_times.push(stats.timers.ranking.as_secs_f64());
            reductions.push(stats.reduction_percent());
            let speedup = if rank_times.len() == 2 {
                format!("{:8.1}x", rank_times[0] / rank_times[1].max(1e-12))
            } else {
                String::new()
            };
            println!(
                "{:>6} {:<7} {:>8} {:>12.2} {:>12.2?} {:>12.2?} {:>9}",
                n,
                label,
                stats.merges,
                stats.reduction_percent(),
                stats.timers.ranking,
                total,
                speedup
            );
            report.record(&[
                ("experiment", Json::S("search".into())),
                ("functions", Json::I(n as i64)),
                ("search", Json::S(label.into())),
                ("threads", Json::I(1)),
                ("alignment", Json::S("needleman-wunsch".into())),
                ("merges", Json::I(stats.merges as i64)),
                ("reduction_percent", Json::F(stats.reduction_percent())),
                ("rank_search_s", Json::F(stats.timers.ranking.as_secs_f64())),
                ("wall_s", Json::F(total.as_secs_f64())),
            ]);
        }
        // CI gate: LSH shortlisting must stay within the reduction-parity
        // budget of the exact scan.
        let (exact, lsh) = (reductions[0], reductions[1]);
        if (exact - lsh).abs() > PARITY_BUDGET * exact.abs().max(1e-9) {
            report.fail(format!(
                "search n={n}: LSH reduction {lsh:.3}% drifts >{:.0}% from exact {exact:.3}%",
                PARITY_BUDGET * 100.0
            ));
        }
    }
    println!("(rank+search = index seeding + per-iteration candidate queries)");
}

// ---------------------------------------------------------------- pipeline

fn merge_parallel(fast: bool, report: &mut Report) {
    use fmsa_core::SearchStrategy;
    use fmsa_ir::printer::print_module;
    use fmsa_workloads::{clone_swarm_module, SwarmConfig};
    let auto = Config::new().parallel(0).pipeline_options().resolved_threads();
    println!("\n== Merge pipeline across thread counts (t=5, lsh search) ==");
    println!(
        "{:>6} {:>7} {:>10} {:>8} {:>11} {:>10} {:>8}",
        "#fns", "threads", "wall", "merges", "reduction%", "identical", "speedup"
    );
    let sizes: &[usize] = if fast { &[100, 1000] } else { &[100, 1000, 5000] };
    for &n in sizes {
        let base = clone_swarm_module(&SwarmConfig::with_functions(n));
        let cfg = Config::new().threshold(5).search(SearchStrategy::lsh());
        // threads=1 (the reference) runs without a prepare stage;
        // threads=2 adds the parallel schedule and prepare (alignment + Δ
        // bound) stages; threads=4 runs them on more workers (CI runs
        // `--check` over all three); `auto` adds the machine's real
        // parallelism when it offers more.
        let mut thread_counts = vec![1usize, 2, 4];
        if auto > 4 {
            thread_counts.push(auto);
        }
        let mut reference: Option<(String, f64, f64)> = None;
        for threads in thread_counts {
            let mut m_par = base.clone();
            let pcfg = cfg.clone().parallel(threads);
            let t0 = std::time::Instant::now();
            let par = run_fmsa_pipeline(&mut m_par, &pcfg.fmsa_options(), &pcfg.pipeline_options());
            let t_par = t0.elapsed().as_secs_f64();
            let text = print_module(&m_par);
            let (ref_text, t_one, r_one) =
                reference.get_or_insert_with(|| (text.clone(), t_par, par.reduction_percent()));
            let identical = text == *ref_text;
            let speedup = *t_one / t_par.max(1e-9);
            let r_one = *r_one;
            println!(
                "{:>6} {:>7} {:>9.3}s {:>8} {:>11.2} {:>10} {:>7.1}x",
                n,
                threads,
                t_par,
                par.merges,
                par.reduction_percent(),
                if identical { "yes" } else { "NO" },
                speedup
            );
            let p = par.pipeline.unwrap_or_default();
            println!(
                "       stages: schedule {:.2?} (query {:.2?} + prefill {:.2?}; cpu {:.2?}), \
                 prepare {:.2?} (cpu {:.2?}); align cpu {:.2?}, bound cpu {:.2?}; \
                 commit {:.2?} (codegen {:.2?}, rewrite {:.2?}); generations {}",
                p.schedule,
                p.schedule_query,
                p.schedule_prefill,
                p.schedule_cpu,
                p.prepare,
                p.prepare_cpu,
                p.align_cpu,
                p.bound_cpu,
                p.commit,
                p.commit_codegen,
                p.rewrite,
                p.generations,
            );
            // Header pairs first, then the canonical PipelineStats field
            // list (shared with `scale --json` and `fmsa_opt --stats`).
            // `threads` is already in the header, so drop the duplicate.
            let mut rec: Vec<(&str, Json)> = vec![
                ("experiment", Json::S("merge-parallel".into())),
                ("functions", Json::I(n as i64)),
                ("driver", Json::S("pipeline".into())),
                ("search", Json::S("lsh".into())),
                ("alignment", Json::S("needleman-wunsch".into())),
                ("threads", Json::I(threads as i64)),
                ("merges", Json::I(par.merges as i64)),
                ("reduction_percent", Json::F(par.reduction_percent())),
                ("wall_s", Json::F(t_par)),
                ("speedup_vs_threads1", Json::F(speedup)),
                ("identical_to_threads1", Json::B(identical)),
            ];
            rec.extend(pipeline_json_fields(&p).into_iter().filter(|(k, _)| *k != "threads"));
            report.record(&rec);
            if !identical {
                report.fail(format!(
                    "merge-parallel n={n} threads={threads}: pipeline output diverges \
                     from threads=1"
                ));
            }
            let rp = par.reduction_percent();
            if (r_one - rp).abs() > PARITY_BUDGET * r_one.abs().max(1e-9) {
                report.fail(format!(
                    "merge-parallel n={n} threads={threads}: reduction {rp:.3}% drifts \
                     >{:.0}% from threads=1 {r_one:.3}%",
                    PARITY_BUDGET * 100.0
                ));
            }
        }
    }
    println!(
        "(threads=1 has no prepare stage; identity with the paper's loop on these inputs is \
         tests/parallel_pipeline.rs::pipeline_matches_paper_loop_on_ci_gate_inputs)"
    );
}

// ---------------------------------------------------------------- scale

/// Peak resident-set size of this process so far, from `VmHWM` in
/// `/proc/self/status`. `None` off Linux — the measurement is a
/// diagnostic, not an input to any gate.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Million-function scale: streams a corpus of chunk descriptors
/// ([`fmsa_workloads::stream_chunks`] — clone swarms mixed with decoded
/// wasm binaries), materializing, optimizing, and dropping one chunk at a
/// time so peak memory is bounded by the chunk size, then measures a
/// threads-vs-wall scaling curve on a sampled prefix. Gates (`--check`):
/// pipeline output on the sample must be bit-identical to threads=1 at
/// every measured thread count, and — when the runner has ≥ 2 (resp.
/// ≥ 4) cores — threads=2 (resp. threads=4) must beat threads=1
/// wall-clock.
fn scale(fast: bool, functions: Option<usize>, chunk: Option<usize>, report: &mut Report) {
    use fmsa_core::pipeline::PipelineStats;
    use fmsa_core::SearchStrategy;
    use fmsa_ir::printer::print_module;
    use fmsa_workloads::stream_chunks;
    let total = functions.unwrap_or(if fast { 20_000 } else { 1_000_000 });
    let chunk = chunk.unwrap_or(if fast { 2_000 } else { 10_000 });
    let seed = 0x5ca1_e001u64;
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let auto = Config::new().parallel(0).pipeline_options().resolved_threads();
    let cfg = Config::new().threshold(5).search(SearchStrategy::lsh());
    println!(
        "\n== Million-function scale: streamed corpus of {total} functions in \
         chunks of {chunk} (t=5, lsh search, {cores} cores) =="
    );

    // Phase 1: stream the whole corpus at the machine's parallelism.
    // One chunk lives at a time; the rolling counters are the corpus
    // totals.
    let mut agg = PipelineStats::default();
    let mut merges = 0usize;
    let mut funcs_in = 0usize;
    let mut funcs_out = 0usize;
    let mut chunks_done = 0usize;
    let pcfg = cfg.clone().parallel(auto);
    let t_stream = std::time::Instant::now();
    for spec in stream_chunks(total, chunk, seed) {
        let mut m = spec.materialize();
        funcs_in += m.func_count();
        let stats = run_fmsa_pipeline(&mut m, &pcfg.fmsa_options(), &pcfg.pipeline_options());
        funcs_out += m.func_count();
        merges += stats.merges;
        if let Some(p) = stats.pipeline {
            agg.accumulate(&p);
        }
        chunks_done += 1;
        if chunks_done.is_multiple_of(10) {
            eprintln!(
                "  {chunks_done} chunks / {funcs_in} functions in {:.1?}, peak rss {:.0} MiB",
                t_stream.elapsed(),
                peak_rss_mib().unwrap_or(f64::NAN)
            );
        }
        drop(m); // chunk lifetime ends here — memory stays bounded
    }
    let stream_wall = t_stream.elapsed();
    let rss = peak_rss_mib();
    println!(
        "  streamed {funcs_in} functions ({chunks_done} chunks) in {stream_wall:.1?} at \
         threads={auto}: {merges} merges, {funcs_out} functions out, peak rss {:.0} MiB",
        rss.unwrap_or(f64::NAN)
    );
    println!(
        "  stages: schedule {:.2?} (query {:.2?} + prefill {:.2?}; cpu {:.2?}), \
         prepare {:.2?} (cpu {:.2?}), align cpu {:.2?}, bound cpu {:.2?}, commit {:.2?}",
        agg.schedule,
        agg.schedule_query,
        agg.schedule_prefill,
        agg.schedule_cpu,
        agg.prepare,
        agg.prepare_cpu,
        agg.align_cpu,
        agg.bound_cpu,
        agg.commit,
    );
    // Header pairs, then the canonical PipelineStats field list (same
    // formatter as merge-parallel and fmsa_opt --stats); `threads` is
    // already in the header.
    let mut rec: Vec<(&str, Json)> = vec![
        ("experiment", Json::S("scale".into())),
        ("phase", Json::S("stream".into())),
        ("functions", Json::I(funcs_in as i64)),
        ("chunk", Json::I(chunk as i64)),
        ("chunks", Json::I(chunks_done as i64)),
        ("search", Json::S("lsh".into())),
        ("alignment", Json::S("needleman-wunsch".into())),
        ("threads", Json::I(auto as i64)),
        ("cores", Json::I(cores as i64)),
        ("merges", Json::I(merges as i64)),
        ("functions_out", Json::I(funcs_out as i64)),
        ("wall_s", Json::F(stream_wall.as_secs_f64())),
        ("peak_rss_mib", Json::F(rss.unwrap_or(f64::NAN))),
    ];
    rec.extend(pipeline_json_fields(&agg).into_iter().filter(|(k, _)| *k != "threads"));
    report.record(&rec);
    if funcs_in != total {
        report.fail(format!("scale: stream produced {funcs_in} functions, expected {total}"));
    }

    // Phase 2: scaling curve on a sampled prefix — small enough to rerun
    // at every thread count, big enough to keep all workers busy.
    let sample_total = total.min(if fast { 4_000 } else { 20_000 });
    let sample: Vec<_> = stream_chunks(sample_total, chunk.min(sample_total), seed)
        .map(|s| s.materialize())
        .collect();
    println!("  scaling curve over a {sample_total}-function sample ({} chunks):", sample.len());
    println!("    {:>7} {:>10} {:>9} {:>8}", "threads", "wall", "speedup", "identical");
    // The threads=1 texts are the reference for the bit-identity gate.
    let mut reference: Option<Vec<String>> = None;
    let mut walls: Vec<(usize, f64)> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let pcfg = cfg.clone().parallel(threads);
        let t0 = std::time::Instant::now();
        let texts: Vec<String> = sample
            .iter()
            .map(|base| {
                let mut m = base.clone();
                run_fmsa_pipeline(&mut m, &pcfg.fmsa_options(), &pcfg.pipeline_options());
                print_module(&m)
            })
            .collect();
        let identical = reference.as_ref().is_none_or(|r| *r == texts);
        reference.get_or_insert(texts);
        let wall = t0.elapsed().as_secs_f64();
        let speedup = walls.first().map(|&(_, w1)| w1 / wall.max(1e-9)).unwrap_or(1.0);
        walls.push((threads, wall));
        println!(
            "    {:>7} {:>9.2}s {:>8.2}x {:>9}",
            threads,
            wall,
            speedup,
            if identical { "yes" } else { "NO" }
        );
        report.record(&[
            ("experiment", Json::S("scale".into())),
            ("phase", Json::S("curve".into())),
            ("functions", Json::I(sample_total as i64)),
            ("search", Json::S("lsh".into())),
            ("alignment", Json::S("needleman-wunsch".into())),
            ("threads", Json::I(threads as i64)),
            ("cores", Json::I(cores as i64)),
            ("wall_s", Json::F(wall)),
            ("speedup_vs_threads1", Json::F(speedup)),
            ("identical_to_threads1", Json::B(identical)),
        ]);
        if !identical {
            report.fail(format!(
                "scale: pipeline output diverges from threads=1 at threads={threads}"
            ));
        }
    }
    // Speedup gates only bind when the runner actually has the cores:
    // with one core, every thread count shares it and the curve is flat
    // (plus scheduling noise).
    let wall_at = |t: usize| walls.iter().find(|&&(w, _)| w == t).map(|&(_, w)| w);
    if cores >= 2 {
        if let (Some(w1), Some(w2)) = (wall_at(1), wall_at(2)) {
            if w2 >= w1 {
                report.fail(format!(
                    "scale: no speedup at threads=2 on a {cores}-core runner \
                     ({w2:.2}s vs {w1:.2}s at threads=1)"
                ));
            }
        }
    }
    if cores >= 4 {
        if let (Some(w1), Some(w4)) = (wall_at(1), wall_at(4)) {
            if w4 >= w1 {
                report.fail(format!(
                    "scale: no speedup at threads=4 on a {cores}-core runner \
                     ({w4:.2}s vs {w1:.2}s at threads=1)"
                ));
            }
        }
    }
}

// ---------------------------------------------------------------- wasm

/// Decode a generated wasm corpus, lower it, and push it through the full
/// search→pipeline→merge stack — the "real binary" path. Reports frontend
/// timers (decode/lower/verify) and per-stage pipeline timers, and gates
/// both merge-output parity across 1/2/4 threads and a non-trivial size
/// reduction.
fn wasm_frontend(fast: bool, report: &mut Report) {
    use fmsa_core::SearchStrategy;
    use fmsa_ir::printer::print_module;
    use fmsa_workloads::{wasm_fixture_bytes, WasmFixtureConfig};
    println!("\n== WebAssembly frontend: decode -> lower -> merge (t=5, auto search) ==");
    println!(
        "{:>6} {:>10} {:>9} {:>9} {:>7} {:>10} {:>8} {:>11} {:>10}",
        "#fns",
        "wasm KiB",
        "decode",
        "lower",
        "threads",
        "wall",
        "merges",
        "reduction%",
        "identical"
    );
    let sizes: &[usize] = if fast { &[96] } else { &[96, 384] };
    for &n in sizes {
        let cfg = WasmFixtureConfig::with_functions(n);
        let bytes = wasm_fixture_bytes(&cfg);
        let t0 = std::time::Instant::now();
        let wasm = match fmsa_wasm::parse_wasm(&bytes) {
            Ok(w) => w,
            Err(e) => {
                report.fail(format!("wasm n={n}: corpus does not decode: {e}"));
                continue;
            }
        };
        let t_decode = t0.elapsed();
        let t0 = std::time::Instant::now();
        let base = match fmsa_wasm::lower_module(&wasm, "wasm-corpus") {
            Ok(m) => m,
            Err(e) => {
                report.fail(format!("wasm n={n}: corpus does not lower: {e}"));
                continue;
            }
        };
        let t_lower = t0.elapsed();
        let errs = fmsa_ir::verify_module(&base);
        if !errs.is_empty() {
            report.fail(format!("wasm n={n}: lowered module invalid: {}", errs[0]));
            continue;
        }
        let cfg = Config::new().threshold(5).search(SearchStrategy::Auto);
        let mut first: Option<(String, f64)> = None;
        for threads in [1usize, 2, 4] {
            let mut m = base.clone();
            let pcfg = cfg.clone().parallel(threads);
            let t0 = std::time::Instant::now();
            let stats = run_fmsa_pipeline(&mut m, &pcfg.fmsa_options(), &pcfg.pipeline_options());
            let wall = t0.elapsed();
            let text = print_module(&m);
            let identical = match &first {
                None => {
                    first = Some((text, stats.reduction_percent()));
                    true
                }
                Some((reference, _)) => *reference == text,
            };
            println!(
                "{:>6} {:>10.1} {:>9.2?} {:>9.2?} {:>7} {:>9.2?} {:>8} {:>11.2} {:>10}",
                n,
                bytes.len() as f64 / 1024.0,
                t_decode,
                t_lower,
                threads,
                wall,
                stats.merges,
                stats.reduction_percent(),
                if identical { "yes" } else { "NO" }
            );
            let p = stats.pipeline.unwrap_or_default();
            report.record(&[
                ("experiment", Json::S("wasm".into())),
                ("functions", Json::I(n as i64)),
                ("wasm_bytes", Json::I(bytes.len() as i64)),
                ("driver", Json::S("pipeline".into())),
                ("search", Json::S("auto".into())),
                ("alignment", Json::S("needleman-wunsch".into())),
                ("threads", Json::I(threads as i64)),
                ("decode_s", Json::F(t_decode.as_secs_f64())),
                ("lower_s", Json::F(t_lower.as_secs_f64())),
                ("merges", Json::I(stats.merges as i64)),
                ("reduction_percent", Json::F(stats.reduction_percent())),
                ("wall_s", Json::F(wall.as_secs_f64())),
                ("identical_to_threads1", Json::B(identical)),
                ("schedule_s", Json::F(p.schedule.as_secs_f64())),
                ("prepare_s", Json::F(p.prepare.as_secs_f64())),
                ("commit_s", Json::F(p.commit.as_secs_f64())),
                ("commit_codegen_s", Json::F(p.commit_codegen.as_secs_f64())),
                ("rewrite_s", Json::F(p.rewrite.as_secs_f64())),
            ]);
            if !identical {
                report.fail(format!(
                    "wasm n={n} threads={threads}: merge output diverges from threads=1"
                ));
            }
            if stats.merges == 0 || stats.reduction_percent() <= 0.0 {
                report.fail(format!(
                    "wasm n={n} threads={threads}: no measurable reduction ({} merges, {:.3}%)",
                    stats.merges,
                    stats.reduction_percent()
                ));
            }
        }
    }
    println!("(corpus: fmsa_workloads::wasm_fixtures — clone families serialized to wasm bytes)");
}

// ---------------------------------------------------------------- fuzz

/// The batched differential fuzz farm: lower a wasm corpus, merge it with
/// the pipeline, then hammer original-vs-merged with coverage-seeded
/// random inputs on a worker pool until both the pair target (≥1000) and
/// the time budget are spent. Any behavioural mismatch or interpreter
/// panic is a CI failure; throughput and coverage land in the bench JSON.
fn fuzz_farm(fast: bool, budget_secs: usize, report: &mut Report) {
    use fmsa_core::SearchStrategy;
    use fmsa_interp::batch::wire_targets;
    use fmsa_interp::{run_differential_batch, BatchConfig};
    use fmsa_workloads::{wasm_fixture_bytes, WasmFixtureConfig};
    let threads = Config::new().parallel(0).pipeline_options().resolved_threads();
    let n = if fast { 48 } else { 96 };
    println!("\n== Differential fuzz farm: original vs merged wasm corpus ==");
    println!(
        "{:>6} {:>7} {:>8} {:>8} {:>10} {:>7} {:>11} {:>8} {:>7}",
        "#fns", "memory", "targets", "pairs", "pairs/sec", "paths", "mismatches", "panics", "quar"
    );
    let budget = std::time::Duration::from_secs(budget_secs as u64);
    // Half the budget per corpus flavour: pure-compute and linear-memory
    // modules stress different interpreter and merge paths.
    let per_corpus = budget / 2;
    for with_memory in [false, true] {
        let cfg = WasmFixtureConfig {
            functions: n,
            with_memory,
            seed: 0xF22A + with_memory as u64,
            ..WasmFixtureConfig::default()
        };
        let bytes = wasm_fixture_bytes(&cfg);
        let mut pre = match fmsa_wasm::load_wasm(&bytes, "fuzz-corpus") {
            Ok(m) => m,
            Err(e) => {
                report.fail(format!("fuzz memory={with_memory}: corpus does not load: {e}"));
                continue;
            }
        };
        let mut post = pre.clone();
        let cfg = Config::new().threshold(5).search(SearchStrategy::Auto).parallel(threads);
        let stats = run_fmsa_pipeline(&mut post, &cfg.fmsa_options(), &cfg.pipeline_options());
        if stats.merges == 0 {
            report.fail(format!("fuzz memory={with_memory}: corpus did not merge"));
            continue;
        }
        let quarantined = stats.quarantine.len();
        if quarantined > 0 {
            report.fail(format!(
                "fuzz memory={with_memory}: clean merge quarantined {quarantined} pair(s)"
            ));
        }
        let targets = wire_targets(&mut pre, &mut post, with_memory);
        let (mut pairs, mut panics, mut paths, mut rounds) = (0usize, 0usize, 0usize, 0u64);
        let mut mismatches = Vec::new();
        let t0 = std::time::Instant::now();
        while pairs < 1000 || t0.elapsed() < per_corpus {
            let bcfg = BatchConfig {
                threads,
                seed: 0xF22A_0000 ^ rounds,
                per_target: 8,
                ..BatchConfig::default()
            };
            let out = run_differential_batch(&pre, &post, &targets, &bcfg);
            pairs += out.pairs_run;
            panics += out.panics_caught;
            // Coverage within one round is a unique (function, block) set
            // over the same module, so the union across rounds is tracked
            // as the best single round.
            paths = paths.max(out.paths_covered);
            mismatches.extend(out.mismatches);
            rounds += 1;
        }
        let wall = t0.elapsed().as_secs_f64();
        let pairs_per_sec = pairs as f64 / wall.max(1e-9);
        println!(
            "{:>6} {:>7} {:>8} {:>8} {:>10.0} {:>7} {:>11} {:>8} {:>7}",
            n,
            with_memory,
            targets.len(),
            pairs,
            pairs_per_sec,
            paths,
            mismatches.len(),
            panics,
            quarantined
        );
        for m in mismatches.iter().take(5) {
            println!(
                "       MISMATCH {} seed={:#x}: pre={} post={} (replay: seeded_args from this seed)",
                m.function, m.seed, m.pre, m.post
            );
        }
        report.record(&[
            ("experiment", Json::S("fuzz".into())),
            ("functions", Json::I(n as i64)),
            ("with_memory", Json::B(with_memory)),
            ("threads", Json::I(threads as i64)),
            ("budget_s", Json::F(per_corpus.as_secs_f64())),
            ("targets", Json::I(targets.len() as i64)),
            ("pairs_run", Json::I(pairs as i64)),
            ("pairs_per_sec", Json::F(pairs_per_sec)),
            ("paths_covered", Json::I(paths as i64)),
            ("mismatches", Json::I(mismatches.len() as i64)),
            ("panics_caught", Json::I(panics as i64)),
            ("quarantined", Json::I(quarantined as i64)),
            ("merges", Json::I(stats.merges as i64)),
        ]);
        if !mismatches.is_empty() {
            report.fail(format!(
                "fuzz memory={with_memory}: {} differential mismatch(es), first in {} seed={:#x}",
                mismatches.len(),
                mismatches[0].function,
                mismatches[0].seed
            ));
        }
        if panics > 0 {
            report.fail(format!("fuzz memory={with_memory}: {panics} interpreter panic(s)"));
        }
        if pairs < 1000 {
            report.fail(format!(
                "fuzz memory={with_memory}: only {pairs} input pairs inside the budget (<1000)"
            ));
        }
    }
    println!("(pairs = one input vector run on both original and merged module under equal fuel)");
}

// ---------------------------------------------------------------- faults

/// The fault-injection matrix: run the pipeline over a clone swarm with a
/// deterministic `FaultPlan` forcing panics and verifier failures, and
/// gate the graceful-degradation contract — the run completes, only
/// planned pairs are quarantined, and output plus quarantine summary are
/// bit-identical at 1, 2, and 4 threads.
fn fault_matrix(fast: bool, report: &mut Report) {
    use fmsa_core::quarantine::QuarantineStage;
    use fmsa_core::SearchStrategy;
    use fmsa_core::{silence_injected_panics, FaultPlan, FaultSite};
    use fmsa_ir::printer::print_module;
    use fmsa_workloads::{clone_swarm_module, SwarmConfig};
    silence_injected_panics();
    let n = if fast { 600 } else { 5000 };
    println!("\n== Fault-injection matrix: quarantine and graceful degradation (n={n}) ==");
    println!(
        "{:>9} {:>7} {:>10} {:>8} {:>6} {:>8} {:>7} {:>10} {:>9}",
        "plan", "threads", "wall", "merges", "quar", "panics", "verify", "identical", "summary="
    );
    let base = clone_swarm_module(&SwarmConfig::with_functions(n));
    let cfg = Config::new().threshold(5).search(SearchStrategy::lsh());
    let (label, faults) = ("injected", FaultPlan::new(0xFA17, 20_000, &FaultSite::ALL));
    let mut reference: Option<(String, String)> = None;
    for threads in [1usize, 2, 4] {
        let mut m = base.clone();
        let pcfg = cfg.clone().parallel(threads).faults(faults);
        let t0 = std::time::Instant::now();
        let stats = run_fmsa_pipeline(&mut m, &pcfg.fmsa_options(), &pcfg.pipeline_options());
        let wall = t0.elapsed();
        let errs = fmsa_ir::verify_module(&m);
        if !errs.is_empty() {
            report.fail(format!(
                "faults {label} threads={threads}: output module invalid: {}",
                errs[0]
            ));
        }
        let text = print_module(&m);
        let summary = stats.quarantine.summary();
        let (identical, summary_same) = match &reference {
            None => {
                reference = Some((text, summary));
                (true, true)
            }
            Some((rt, rs)) => (*rt == text, *rs == summary),
        };
        let p = stats.pipeline.unwrap_or_default();
        println!(
            "{:>9} {:>7} {:>9.2?} {:>8} {:>6} {:>8} {:>7} {:>10} {:>9}",
            label,
            threads,
            wall,
            stats.merges,
            p.quarantined(),
            p.panics_caught,
            p.quarantined_verify,
            if identical { "yes" } else { "NO" },
            if summary_same { "same" } else { "DIFFERS" }
        );
        report.record(&[
            ("experiment", Json::S("faults".into())),
            ("plan", Json::S(label.into())),
            ("functions", Json::I(n as i64)),
            ("threads", Json::I(threads as i64)),
            ("rate_ppm", Json::I(faults.rate_ppm as i64)),
            ("merges", Json::I(stats.merges as i64)),
            ("quarantined", Json::I(p.quarantined() as i64)),
            ("quarantined_align", Json::I(p.quarantined_align as i64)),
            ("quarantined_codegen", Json::I(p.quarantined_codegen as i64)),
            ("quarantined_verify", Json::I(p.quarantined_verify as i64)),
            ("panics_caught", Json::I(p.panics_caught as i64)),
            ("wall_s", Json::F(wall.as_secs_f64())),
            ("identical_to_threads1", Json::B(identical)),
            ("quarantine_summary_identical", Json::B(summary_same)),
        ]);
        if !identical || !summary_same {
            report.fail(format!(
                "faults {label} threads={threads}: output or quarantine set diverges \
                 from threads=1"
            ));
        }
        // Every quarantined pair must trace back to the plan: the
        // corpus itself is healthy, so an unplanned entry means the
        // fault boundary leaked.
        for e in stats.quarantine.entries() {
            let site = match e.stage {
                QuarantineStage::Align => FaultSite::Align,
                QuarantineStage::Codegen => FaultSite::Codegen,
                QuarantineStage::Verify => FaultSite::Verify,
                QuarantineStage::Mismatch => {
                    report.fail(format!(
                        "faults {label}: unexpected mismatch quarantine for {},{}",
                        e.f1, e.f2
                    ));
                    continue;
                }
            };
            if !faults.fires(site, &e.f1, &e.f2) {
                report.fail(format!(
                    "faults {label}: pair {},{} quarantined at {} without a planned fault",
                    e.f1, e.f2, e.stage
                ));
            }
        }
        if p.quarantined() == 0 {
            report.fail(format!(
                "faults {label} threads={threads}: plan fired no quarantines — \
                 the matrix is not exercising the boundaries"
            ));
        }
    }
    println!("(injected faults quarantine deterministically on the commit path)");
}

// ---------------------------------------------------------------- ablation

fn ablation_params(suite: &[BenchDesc]) {
    println!("\n== Ablation: §III-E parameter reuse (\"improves ... by up to 7%\") ==");
    println!("{:<16} {:>10} {:>10} {:>8}", "benchmark", "reuse-on", "reuse-off", "delta");
    let cm = CostModel::new(TargetArch::X86_64);
    let mut best = 0.0f64;
    for desc in suite {
        let base = desc.build();
        let size_before = cm.module_size(&base);
        let run = |reuse: bool| -> f64 {
            let mut m = base.clone();
            let cfg = Config::new().threshold(1).merge(MergeConfig { reuse_params: reuse });
            fmsa::optimize(&mut m, &cfg).expect("suite module merges");
            reduction_percent(size_before, cm.module_size(&m))
        };
        let on = run(true);
        let off = run(false);
        best = best.max(on - off);
        println!("{:<16} {:>10.2} {:>10.2} {:>8.2}", desc.name, on, off, on - off);
    }
    println!("(largest per-benchmark improvement from parameter reuse: {best:.2}%)");
}

// ---------------------------------------------------------------- serve

/// The merge-daemon load generator: boots an in-process `fmsa-serve` over
/// a persistent store, then measures (and under `--check` gates) the
/// service contract — daemon output byte-identical to batch
/// `fmsa::optimize`, byte-identical re-uploads served from the response
/// cache with a nonzero store hit rate (`warm_wall_s` is their median)
/// and measurably faster than the cold merge, sustained merges/sec over
/// distinct corpora, and index survival across a daemon restart.
fn serve_bench(fast: bool, report: &mut Report) {
    use fmsa_serve::{client, Server, ServerConfig};
    use fmsa_workloads::{wasm_fixture_bytes, WasmFixtureConfig};
    let n = if fast { 96 } else { 192 };
    println!("\n== fmsa-serve: merge daemon under load (n={n} functions per corpus) ==");

    let corpus = |seed: u64| -> Vec<u8> {
        let mut cfg = WasmFixtureConfig::with_functions(n);
        cfg.seed = seed;
        wasm_fixture_bytes(&cfg)
    };
    let store_dir = std::env::temp_dir().join(format!("fmsa-serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let server_cfg = ServerConfig { store_dir: Some(store_dir.clone()), ..ServerConfig::default() };
    let mut server = match Server::bind(server_cfg.clone()).and_then(Server::spawn) {
        Ok(s) => s,
        Err(e) => {
            report.fail(format!("serve-bench: cannot boot daemon: {e}"));
            return;
        }
    };

    // Parity reference: the exact bytes batch fmsa_opt would print.
    let primary = corpus(1);
    let reference = {
        let mut m = fmsa::load_module_bytes(&primary, "upload").expect("corpus loads");
        fmsa::optimize(&mut m, &Config::new()).expect("corpus merges");
        fmsa::ir::printer::print_module(&m)
    };

    // Uploads go through the retrying client: a shed (429/503) response
    // is backed off and retried per its Retry-After instead of failing
    // the run — the same path a well-behaved production client takes.
    let retry = client::RetryPolicy { seed: 11, ..client::RetryPolicy::default() };
    let upload = |server: &fmsa_serve::RunningServer, body: &[u8]| {
        let t0 = std::time::Instant::now();
        let resp =
            client::request_with_retry(server.addr(), "POST", "/v1/modules", &[], body, &retry);
        (resp, t0.elapsed())
    };
    let header_u64 = |resp: &client::Response, name: &str| -> u64 {
        resp.header(name).and_then(|v| v.parse().ok()).unwrap_or(0)
    };

    // Cold upload: the merge runs, every function is a store miss.
    let (cold, t_cold) = upload(&server, &primary);
    let Ok(cold) = cold else {
        report.fail("serve-bench: cold upload failed".to_owned());
        return;
    };
    if cold.status != 200 {
        report.fail(format!("serve-bench: cold upload returned {}", cold.status));
        return;
    }
    if cold.text() != reference {
        report
            .fail("serve-bench: daemon output is not byte-identical to batch fmsa_opt".to_owned());
    }
    let merges = header_u64(&cold, "x-fmsa-merges");

    // Warm re-uploads, timed as the median of WARM_RUNS cache hits: each
    // byte-identical to the cold merge, with a nonzero hit rate, and the
    // median faster than the cold merge.
    const WARM_RUNS: usize = 21;
    let mut warm_walls = Vec::with_capacity(WARM_RUNS);
    let mut hit_rate = 0.0;
    for _ in 0..WARM_RUNS {
        let (warm, t_warm) = upload(&server, &primary);
        let Ok(warm) = warm else {
            report.fail("serve-bench: warm upload failed".to_owned());
            return;
        };
        let warm_hits = header_u64(&warm, "x-fmsa-store-hits");
        let warm_total = warm_hits + header_u64(&warm, "x-fmsa-store-misses");
        hit_rate = warm_hits as f64 / (warm_total as f64).max(1.0);
        if warm.header("x-fmsa-cache") != Some("hit") {
            report.fail("serve-bench: warm re-upload missed the response cache".to_owned());
        }
        if warm.body != cold.body {
            report.fail(
                "serve-bench: warm re-upload is not byte-identical to the cold merge".to_owned(),
            );
        }
        if warm_hits == 0 {
            report.fail("serve-bench: warm re-upload saw zero store hits".to_owned());
        }
        warm_walls.push(t_warm);
    }
    warm_walls.sort();
    let t_warm = warm_walls[WARM_RUNS / 2];
    if t_warm >= t_cold {
        report.fail(format!(
            "serve-bench: warm re-upload ({t_warm:.2?}) not faster than cold merge ({t_cold:.2?})"
        ));
    }

    // Sustained load: distinct corpora, so every request is a real merge.
    let seeds: &[u64] = if fast { &[2, 3, 4, 5] } else { &[2, 3, 4, 5, 6, 7, 8, 9] };
    let mut sustained_merges = 0u64;
    let t0 = std::time::Instant::now();
    for &seed in seeds {
        let (resp, _) = upload(&server, &corpus(seed));
        match resp {
            Ok(r) if r.status == 200 => sustained_merges += header_u64(&r, "x-fmsa-merges"),
            Ok(r) => report.fail(format!("serve-bench: seed {seed} upload returned {}", r.status)),
            Err(e) => report.fail(format!("serve-bench: seed {seed} upload failed: {e}")),
        }
    }
    let sustained_wall = t0.elapsed();
    let merges_per_sec = sustained_merges as f64 / sustained_wall.as_secs_f64().max(1e-9);
    let requests_per_sec = seeds.len() as f64 / sustained_wall.as_secs_f64().max(1e-9);

    // Restart: a new daemon over the same directory reloads the index, so
    // the primary corpus is all store hits without the response cache.
    server.stop();
    let mut restart_hit_rate = 0.0;
    match Server::bind(server_cfg).and_then(Server::spawn) {
        Ok(mut restarted) => {
            let (resp, _) = upload(&restarted, &primary);
            match resp {
                Ok(r) if r.status == 200 => {
                    let hits = header_u64(&r, "x-fmsa-store-hits");
                    let total = hits + header_u64(&r, "x-fmsa-store-misses");
                    restart_hit_rate = hits as f64 / (total as f64).max(1.0);
                    if r.body != cold.body {
                        report.fail("serve-bench: output changed across a restart".to_owned());
                    }
                    if hits != total || total == 0 {
                        report.fail(format!(
                            "serve-bench: reloaded index recognized {hits}/{total} functions"
                        ));
                    }
                }
                Ok(r) => report.fail(format!("serve-bench: post-restart upload got {}", r.status)),
                Err(e) => report.fail(format!("serve-bench: post-restart upload failed: {e}")),
            }
            restarted.stop();
        }
        Err(e) => report.fail(format!("serve-bench: cannot restart daemon: {e}")),
    }
    let _ = std::fs::remove_dir_all(&store_dir);

    println!(
        "{:>10} {:>10} {:>9} {:>12} {:>12} {:>13} {:>13}",
        "cold", "warm", "speedup", "hit rate", "merges/sec", "requests/sec", "restart hits"
    );
    let speedup = t_cold.as_secs_f64() / t_warm.as_secs_f64().max(1e-9);
    println!(
        "{:>9.2?} {:>9.2?} {:>8.1}x {:>12.3} {:>12.1} {:>13.1} {:>13.3}",
        t_cold, t_warm, speedup, hit_rate, merges_per_sec, requests_per_sec, restart_hit_rate
    );
    report.record(&[
        ("experiment", Json::S("serve-bench".into())),
        ("functions", Json::I(n as i64)),
        ("corpora", Json::I(seeds.len() as i64 + 1)),
        ("cold_wall_s", Json::F(t_cold.as_secs_f64())),
        ("warm_wall_s", Json::F(t_warm.as_secs_f64())),
        ("warm_speedup", Json::F(speedup)),
        ("warm_hit_rate", Json::F(hit_rate)),
        ("merges", Json::I(merges as i64)),
        ("sustained_merges", Json::I(sustained_merges as i64)),
        ("merges_per_sec", Json::F(merges_per_sec)),
        ("requests_per_sec", Json::F(requests_per_sec)),
        ("restart_hit_rate", Json::F(restart_hit_rate)),
    ]);
    println!(
        "(cold = first upload, warm = median of {WARM_RUNS} byte-identical re-uploads served \
         from the response cache; restart hits = store recognition after an index reload \
         from disk)"
    );
}

// ---------------------------------------------------------------- chaos

/// Deterministic pseudo-random stream for the chaos harness (splitmix64
/// over `(cycle, salt)`): every cut point, bit flip, and upload seed is
/// a pure function of the cycle index, so a failing cycle replays
/// exactly by number.
fn chaos_mix(cycle: u64, salt: u64) -> u64 {
    let mut z = cycle
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The crash/recovery chaos harness: kill/restart cycles over one
/// persistent store, concurrent uploads under injected store I/O
/// faults, and a simulated kill-at-byte-N (log truncation, sometimes a
/// bit flip) after every kill. Gates, per the robustness contract:
/// zero panics anywhere, the reopened store always equals an
/// independent [`fmsa_core::scan_store`] of the mutated log (no
/// checksum-valid durable entry lost), the recovered daemon re-serves
/// the warm corpus byte-identically, and a compaction killed at the
/// rename leaves the old log authoritative (never a hybrid).
fn chaos(fast: bool, report: &mut Report) {
    use fmsa::ContentHash;
    use fmsa_core::store::{scan_store, FunctionStore, StoreOptions, STORE_FILE};
    use fmsa_core::{FaultPlan, FaultSite};
    use fmsa_serve::{client, Server, ServerConfig};
    use fmsa_workloads::{wasm_fixture_bytes, WasmFixtureConfig};
    use std::time::{Duration, Instant};

    let cycles: u64 = if fast { 20 } else { 50 };
    let n = if fast { 16 } else { 32 };
    println!("\n== chaos: {cycles} kill/restart cycles under store faults (n={n} fns/corpus) ==");

    let corpus = |seed: u64| -> Vec<u8> {
        let mut cfg = WasmFixtureConfig::with_functions(n);
        cfg.seed = seed;
        wasm_fixture_bytes(&cfg)
    };
    let store_dir = std::env::temp_dir().join(format!("fmsa-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let mk_cfg = |faults: FaultPlan| ServerConfig {
        store_dir: Some(store_dir.clone()),
        store: StoreOptions { faults, ..StoreOptions::default() },
        // Deadline bounds every request's tail latency by construction.
        request_timeout: Some(Duration::from_secs(30)),
        ..ServerConfig::default()
    };
    // Low-rate write/fsync faults during the cycles; the store keys
    // faults by a monotonic op counter, so a retried request is a new
    // draw rather than a permanently poisoned input.
    let cycle_faults =
        |cycle: u64| FaultPlan::new(cycle, 5_000, &[FaultSite::StoreWrite, FaultSite::StoreFsync]);
    let entry_set = |entries: &[(ContentHash, u64)]| -> Vec<(ContentHash, u64)> {
        let mut v = entries.to_vec();
        v.sort();
        v
    };

    // Warm phase (no faults): reference bytes + a durable warm store.
    let primary = corpus(1);
    let reference = {
        let mut m = fmsa::load_module_bytes(&primary, "upload").expect("corpus loads");
        fmsa::optimize(&mut m, &Config::new()).expect("corpus merges");
        fmsa::ir::printer::print_module(&m).into_bytes()
    };
    match Server::bind(mk_cfg(FaultPlan::disabled())).and_then(Server::spawn) {
        Ok(mut server) => {
            match client::post(server.addr(), "/v1/modules", &primary) {
                Ok(r) if r.status == 200 && r.body == reference => {}
                Ok(r) => report.fail(format!("chaos: warm upload got {} or wrong bytes", r.status)),
                Err(e) => report.fail(format!("chaos: warm upload failed: {e}")),
            }
            server.stop(); // graceful: flush + compact
        }
        Err(e) => {
            report.fail(format!("chaos: cannot boot daemon: {e}"));
            return;
        }
    }

    let retry = client::RetryPolicy {
        max_attempts: 4,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(100),
        seed: 7,
    };
    let mut kills = 0u64;
    let mut panics = 0u64;
    let mut lost_cycles = 0u64;
    let mut reserve_mismatches = 0u64;
    let mut uploads_ok = 0u64;
    let mut uploads_faulted = 0u64;
    let mut skipped_total = 0u64;
    let mut latencies: Vec<Duration> = Vec::new();

    for cycle in 0..cycles {
        let mut server = match Server::bind(mk_cfg(cycle_faults(cycle))).and_then(Server::spawn) {
            Ok(s) => s,
            Err(e) => {
                report.fail(format!("chaos: cycle {cycle}: cannot restart daemon: {e}"));
                break;
            }
        };
        // Gate: byte-identical re-serve of the warm corpus after the
        // previous cycle's crash + recovery. (Merge decisions never read
        // the store, so recovery must not change responses.)
        let t0 = Instant::now();
        match client::request_with_retry(
            server.addr(),
            "POST",
            "/v1/modules",
            &[],
            &primary,
            &retry,
        ) {
            Ok(r) if r.status == 200 => {
                latencies.push(t0.elapsed());
                uploads_ok += 1;
                if r.body != reference {
                    reserve_mismatches += 1;
                    report.fail(format!("chaos: cycle {cycle}: re-serve not byte-identical"));
                }
            }
            // An injected ingest fault surfaces as a 5xx: acceptable
            // chaos, the gate is on what 200s contain.
            Ok(_) => uploads_faulted += 1,
            Err(e) => report.fail(format!("chaos: cycle {cycle}: re-serve transport error: {e}")),
        }
        // Concurrent uploads of distinct corpora under store faults.
        let workers: Vec<_> = (0..3u64)
            .map(|w| {
                let addr = server.addr();
                let body = corpus(100 + cycle * 3 + w);
                let retry = retry.clone();
                std::thread::spawn(move || {
                    let t0 = Instant::now();
                    let r =
                        client::request_with_retry(addr, "POST", "/v1/modules", &[], &body, &retry);
                    (r, t0.elapsed())
                })
            })
            .collect();
        for w in workers {
            match w.join() {
                Ok((Ok(r), lat)) if r.status == 200 => {
                    latencies.push(lat);
                    uploads_ok += 1;
                }
                Ok((Ok(_), _)) => uploads_faulted += 1,
                Ok((Err(_), _)) => uploads_faulted += 1,
                Err(_) => {
                    panics += 1;
                    report.fail(format!("chaos: cycle {cycle}: upload worker panicked"));
                }
            }
        }

        // The crash: no drain, no flush, no compaction...
        server.kill();
        kills += 1;
        // ...then kill-at-byte-N: truncate the log to a random cut and,
        // every third cycle, flip one bit inside what remains.
        let path = store_dir.join(STORE_FILE);
        let raw = std::fs::read(&path).unwrap_or_default();
        if raw.is_empty() {
            continue;
        }
        let cut = (chaos_mix(cycle, 1) as usize) % (raw.len() + 1);
        let mut mutated = raw[..cut].to_vec();
        if cycle % 3 == 0 && !mutated.is_empty() {
            let off = (chaos_mix(cycle, 2) as usize) % mutated.len();
            mutated[off] ^= 1 << (chaos_mix(cycle, 3) % 8);
        }
        if let Err(e) = std::fs::write(&path, &mutated) {
            report.fail(format!("chaos: cycle {cycle}: cannot mutate log: {e}"));
            break;
        }

        // Gate: recovery == independent scan; open never panics.
        let expected = scan_store(&mutated);
        skipped_total += expected.skipped_records as u64;
        match std::panic::catch_unwind(|| FunctionStore::open(&store_dir)) {
            Ok(Ok(store)) => {
                let got: Vec<(ContentHash, u64)> =
                    store.entries().map(|e| (e.hash, e.seen)).collect();
                if entry_set(&got) != entry_set(&expected.entries) {
                    lost_cycles += 1;
                    report.fail(format!(
                        "chaos: cycle {cycle}: recovered {} entries, independent scan \
                         of the mutated log says {} (cut {cut}/{})",
                        got.len(),
                        expected.entries.len(),
                        raw.len()
                    ));
                }
            }
            Ok(Err(e)) => report.fail(format!("chaos: cycle {cycle}: recovery errored: {e}")),
            Err(_) => {
                panics += 1;
                report.fail(format!("chaos: cycle {cycle}: recovery panicked"));
            }
        }
    }

    // Gate: a compaction killed at the rename is atomic — the old log
    // stays authoritative, no hybrid, and the scratch tmp is cleaned up.
    {
        let rename_fault = StoreOptions {
            faults: FaultPlan::new(999, 1_000_000, &[FaultSite::StoreRename]),
            ..StoreOptions::default()
        };
        match FunctionStore::open_with(&store_dir, rename_fault) {
            Ok(mut store) => {
                let before: Vec<(ContentHash, u64)> =
                    store.entries().map(|e| (e.hash, e.seen)).collect();
                if store.compact().is_ok() {
                    report.fail("chaos: rename fault did not fire on compact".to_owned());
                }
                drop(store);
                match FunctionStore::open(&store_dir) {
                    Ok(store) => {
                        let after: Vec<(ContentHash, u64)> =
                            store.entries().map(|e| (e.hash, e.seen)).collect();
                        if entry_set(&after) != entry_set(&before) {
                            report.fail(
                                "chaos: failed compaction changed the log (hybrid state)"
                                    .to_owned(),
                            );
                        }
                    }
                    Err(e) => report.fail(format!("chaos: reopen after failed compact: {e}")),
                }
            }
            Err(e) => report.fail(format!("chaos: cannot open store for compact gate: {e}")),
        }
        // And an unfaulted compaction folds cleanly and round-trips.
        match FunctionStore::open(&store_dir) {
            Ok(mut store) => {
                let before: Vec<(ContentHash, u64)> =
                    store.entries().map(|e| (e.hash, e.seen)).collect();
                match store.compact() {
                    Ok(_) => {
                        drop(store);
                        match FunctionStore::open(&store_dir) {
                            Ok(store) => {
                                let after: Vec<(ContentHash, u64)> =
                                    store.entries().map(|e| (e.hash, e.seen)).collect();
                                if entry_set(&after) != entry_set(&before) {
                                    report.fail(
                                        "chaos: compaction changed the live entry set".to_owned(),
                                    );
                                }
                                if store.dead_bytes() != 0 {
                                    report.fail(
                                        "chaos: compacted log still has dead bytes".to_owned(),
                                    );
                                }
                            }
                            Err(e) => report.fail(format!("chaos: reopen after compact: {e}")),
                        }
                    }
                    Err(e) => report.fail(format!("chaos: final compact failed: {e}")),
                }
            }
            Err(e) => report.fail(format!("chaos: cannot open store for final compact: {e}")),
        }
    }
    let _ = std::fs::remove_dir_all(&store_dir);

    if kills < cycles {
        report.fail(format!("chaos: only {kills}/{cycles} kill cycles ran"));
    }
    if panics > 0 {
        report.fail(format!("chaos: {panics} panic(s) observed"));
    }
    latencies.sort();
    let pct = |p: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let i = ((latencies.len() - 1) as f64 * p).round() as usize;
        latencies[i].as_secs_f64() * 1000.0
    };
    let (p50, p95, max) = (pct(0.50), pct(0.95), pct(1.0));
    // Tail bound: the request deadline caps every successful upload.
    if max > 60_000.0 {
        report.fail(format!("chaos: tail latency unbounded ({max:.0} ms)"));
    }

    println!(
        "{:>7} {:>8} {:>7} {:>10} {:>9} {:>9} {:>9} {:>9}",
        "cycles", "kills", "panics", "lost", "ok", "faulted", "p50 ms", "p95 ms"
    );
    println!(
        "{:>7} {:>8} {:>7} {:>10} {:>9} {:>9} {:>9.1} {:>9.1}",
        cycles, kills, panics, lost_cycles, uploads_ok, uploads_faulted, p50, p95
    );
    report.record(&[
        ("experiment", Json::S("chaos".into())),
        ("cycles", Json::I(cycles as i64)),
        ("kills", Json::I(kills as i64)),
        ("panics", Json::I(panics as i64)),
        ("entries_lost_cycles", Json::I(lost_cycles as i64)),
        ("reserve_mismatches", Json::I(reserve_mismatches as i64)),
        ("uploads_ok", Json::I(uploads_ok as i64)),
        ("uploads_faulted", Json::I(uploads_faulted as i64)),
        ("corrupt_records_skipped", Json::I(skipped_total as i64)),
        ("p50_ms", Json::F(p50)),
        ("p95_ms", Json::F(p95)),
        ("max_ms", Json::F(max)),
    ]);
    println!(
        "(every cut/flip/upload seed is a pure function of the cycle index; a failing \
         cycle replays exactly from its number — see docs/robustness.md)"
    );
}

// ---------------------------------------------------------------- obs

/// The least share of unprofitable attempts the Δ gate must skip on the
/// `obs` swarm (`--check`).
const MIN_GATE_RECALL: f64 = 0.95;

/// Flight-recorder smoke test: the CI `obs-smoke` job runs this with
/// `--fast --check`. Gates (a) tracing overhead ≤ 3% over the
/// telemetry-disabled run, (b) bit-identical output and a byte-identical
/// decision log at 1/2/4/8 threads with tracing on and off, (c)
/// well-nested Chrome-trace spans with the
/// expected span names, (d) exact reconciliation of the per-attempt
/// decision log against `FmsaStats`/`PipelineStats`, with no record's
/// real Δ above its pre-codegen `delta_bound` and gate recall of at
/// least [`MIN_GATE_RECALL`], and (e) a booted
/// daemon serving valid Prometheus exposition with the required metric
/// families plus a populated `/v1/merges/recent`.
fn obs(fast: bool, report: &mut Report) {
    use fmsa::telemetry::{trace, DecisionOutcome};
    use fmsa_core::SearchStrategy;
    use fmsa_ir::printer::print_module;
    use fmsa_serve::{client, Server, ServerConfig};
    use fmsa_workloads::{clone_swarm_module, wasm_fixture_bytes, SwarmConfig, WasmFixtureConfig};

    let n = if fast { 1_000 } else { 5_000 };
    println!("\n== Flight recorder: overhead, identity, trace, decisions, /metrics (n={n}) ==");
    let cfg = Config::new().threshold(5).search(SearchStrategy::lsh());
    let base = clone_swarm_module(&SwarmConfig::with_functions(n));

    // Tracing is process-global; remember the caller's state (a global
    // `--trace-out` enables it before dispatch) and restore it on exit.
    let was_tracing = trace::enabled();
    trace::disable();
    let _ = trace::drain();

    // (a) Overhead: telemetry-disabled vs tracing-enabled wall clock of
    // the default configuration, the pipeline at one thread. Runs are
    // interleaved off/on (so clock and cache drift hit both sides
    // equally) after an untimed warm-up, and each side keeps its
    // minimum — the least-noise estimate of the true cost. A run takes
    // about 0.2 s, so 32 pairs still cost less than the four pairs of
    // the several-second paper loop this gate used to time, and on a
    // shared 2-core VM, where single runs spread by 30 %, they pull each
    // minimum closer to the floor.
    const OVERHEAD_PAIRS: usize = 32;
    let one_cfg = cfg.clone().parallel(1);
    let time_run = || {
        let mut m = base.clone();
        let t0 = std::time::Instant::now();
        let st = run_fmsa_pipeline(&mut m, &one_cfg.fmsa_options(), &one_cfg.pipeline_options());
        (t0.elapsed().as_secs_f64(), st)
    };
    let _ = time_run(); // warm-up: page cache, allocator, branch predictors
    let mut wall_off = f64::INFINITY;
    let mut wall_on = f64::INFINITY;
    let mut one_stats = None;
    for _ in 0..OVERHEAD_PAIRS {
        trace::disable();
        let (w, st) = time_run();
        wall_off = wall_off.min(w);
        one_stats = Some(st);
        trace::enable();
        let (w, _) = time_run();
        wall_on = wall_on.min(w);
        let _ = trace::drain(); // keep per-thread buffers from filling up
    }
    trace::disable();
    let overhead_pct = (wall_on / wall_off.max(1e-9) - 1.0) * 100.0;
    println!(
        "  overhead: pipeline threads=1 n={n}, min of {OVERHEAD_PAIRS} off/on pairs, tracing \
         off {wall_off:.3}s vs on {wall_on:.3}s ({overhead_pct:+.2}%)"
    );
    report.record(&[
        ("experiment", Json::S("obs".into())),
        ("check", Json::S("overhead".into())),
        ("functions", Json::I(n as i64)),
        ("wall_off_s", Json::F(wall_off)),
        ("wall_on_s", Json::F(wall_on)),
        ("overhead_pct", Json::F(overhead_pct)),
    ]);
    if overhead_pct > 3.0 {
        report.fail(format!(
            "obs: tracing overhead {overhead_pct:.2}% exceeds the 3% budget \
             (off {wall_off:.3}s, on {wall_on:.3}s)"
        ));
    }

    // (b) Bit-identity: the pipeline must print the untraced threads=1
    // bytes at every thread count, with the flight recorder both off and
    // on — telemetry observes, it never decides — and its decision log
    // must be byte-identical to the threads=1 run's.
    let mut identical_all = true;
    let mut decisions_all = true;
    let mut reference_text: Option<String> = None;
    let mut reference_log: Option<String> = None;
    for traced in [false, true] {
        if traced {
            trace::enable();
        } else {
            trace::disable();
        }
        for threads in [1usize, 2, 4, 8] {
            let pcfg = cfg.clone().parallel(threads);
            let mut m = base.clone();
            let st = run_fmsa_pipeline(&mut m, &pcfg.fmsa_options(), &pcfg.pipeline_options());
            let tracing = if traced { "on" } else { "off" };
            let text = print_module(&m);
            let identical = *reference_text.get_or_insert_with(|| text.clone()) == text;
            identical_all &= identical;
            if !identical {
                report.fail(format!(
                    "obs: pipeline output at threads={threads} tracing={tracing} differs from \
                     the threads=1 output"
                ));
            }
            let log = st.decisions.to_jsonl();
            let same_log = *reference_log.get_or_insert_with(|| log.clone()) == log;
            decisions_all &= same_log;
            if !same_log {
                report.fail(format!(
                    "obs: decision log at threads={threads} tracing={tracing} differs from \
                     the threads=1 log"
                ));
            }
        }
    }
    println!(
        "  bit-identity at threads 1/2/4/8, tracing off+on: {}; decision log identical to \
         threads=1: {}",
        if identical_all { "yes" } else { "NO" },
        if decisions_all { "yes" } else { "NO" }
    );
    report.record(&[
        ("experiment", Json::S("obs".into())),
        ("check", Json::S("bit-identity".into())),
        ("functions", Json::I(n as i64)),
        ("identical_to_threads1", Json::B(identical_all)),
        ("decisions_identical_to_threads1", Json::B(decisions_all)),
    ]);

    // (c) Trace validity: the traced half of the identity loop left its
    // spans in the per-thread buffers; they must be well nested and
    // cover the whole span hierarchy.
    trace::disable();
    let (events, dropped) = trace::drain();
    let nesting = trace::check_nesting(&events);
    if events.is_empty() {
        report.fail("obs: tracing-enabled runs recorded no span events".to_owned());
    }
    if let Err(e) = &nesting {
        report.fail(format!("obs: trace spans are not well nested: {e}"));
    }
    for required in ["pass", "generation", "schedule", "prepare", "commit", "merge_attempt"] {
        if !events.iter().any(|ev| ev.name == required) {
            report.fail(format!("obs: trace is missing the {required:?} span"));
        }
    }
    let export = trace::export_chrome(&events);
    if !export.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[") {
        report.fail("obs: Chrome-trace export has an unexpected envelope".to_owned());
    }
    println!(
        "  trace: {} events across {} threads, nesting {}",
        events.len(),
        events.iter().map(|ev| ev.tid).collect::<std::collections::HashSet<_>>().len(),
        if nesting.is_ok() { "ok" } else { "BROKEN" }
    );
    report.record(&[
        ("experiment", Json::S("obs".into())),
        ("check", Json::S("trace".into())),
        ("trace_events", Json::I(events.len() as i64)),
        ("trace_dropped", Json::I(dropped as i64)),
        ("nesting_ok", Json::B(nesting.is_ok())),
    ]);

    // (d) Decision-log reconciliation at one and four threads: every
    // attempt produces exactly one record, and the outcome counts are
    // exact even past the retention bound.
    use DecisionOutcome as O;
    let reconcile = |label: &str, st: &fmsa_core::pass::FmsaStats, report: &mut Report| {
        let d = &st.decisions;
        let mut ok = true;
        let mut check = |what: &str, got: u64, want: u64| {
            if got != want {
                ok = false;
                report.fail(format!("obs: {label} decisions: {what} = {got}, expected {want}"));
            }
        };
        check("total()", d.total(), st.attempted as u64);
        check("Merged", d.count(O::Merged), st.merges as u64);
        let p = st.pipeline.unwrap_or_default();
        check("GateSkipped", d.count(O::GateSkipped), p.gate_skipped as u64);
        check("Unprofitable", d.count(O::Unprofitable), p.gate_missed as u64);
        check("BudgetSkipped", d.count(O::BudgetSkipped), p.budget_skipped as u64);
        check("Quarantined", d.count(O::Quarantined), p.quarantined() as u64);
        ok
    };
    let par_stats = {
        let pcfg = cfg.clone().parallel(4);
        let mut m = base.clone();
        run_fmsa_pipeline(&mut m, &pcfg.fmsa_options(), &pcfg.pipeline_options())
    };
    let one_stats = one_stats.expect("overhead loop ran");
    let one_ok = reconcile("threads=1", &one_stats, report);
    let par_ok = reconcile("threads=4", &par_stats, report);
    println!(
        "  decisions: threads=1 {} records / {} attempts, threads=4 {} / {} — {}",
        one_stats.decisions.total(),
        one_stats.attempted,
        par_stats.decisions.total(),
        par_stats.attempted,
        if one_ok && par_ok { "reconciled" } else { "MISMATCH" }
    );
    // The gate's bound must hold for every attempt whose body was built:
    // a real Δ above its `delta_bound` is a soundness bug.
    let (mut bounded, mut compared, mut violations) = (0usize, 0usize, 0usize);
    for r in par_stats.decisions.records() {
        let Some(bound) = r.delta_bound else { continue };
        bounded += 1;
        let Some(delta) = r.delta else { continue };
        compared += 1;
        if delta > bound {
            violations += 1;
            report.fail(format!(
                "obs: {}/{}: delta {delta} exceeds its delta_bound {bound}",
                r.subject, r.candidate
            ));
        }
    }
    println!(
        "  Δ bound: {bounded} bounded records, {compared} with a real Δ, {violations} above \
         their bound"
    );
    // Gate recall: of the attempts that turn out unprofitable, the share
    // the gate skipped instead of building and discarding a body.
    let skipped = par_stats.decisions.count(O::GateSkipped);
    let missed = par_stats.decisions.count(O::Unprofitable);
    let recall = skipped as f64 / (skipped + missed).max(1) as f64;
    println!(
        "  gate recall: {skipped} skipped of {} unprofitable attempts ({:.1}%)",
        skipped + missed,
        recall * 100.0
    );
    if recall < MIN_GATE_RECALL {
        report.fail(format!(
            "obs: gate recall {recall:.3} ({skipped} of {}) is below {MIN_GATE_RECALL}",
            skipped + missed
        ));
    }
    report.record(&[
        ("experiment", Json::S("obs".into())),
        ("check", Json::S("decisions".into())),
        ("functions", Json::I(n as i64)),
        ("attempted", Json::I(par_stats.attempted as i64)),
        ("decisions_total", Json::I(par_stats.decisions.total() as i64)),
        ("merged", Json::I(par_stats.decisions.count(O::Merged) as i64)),
        ("unprofitable", Json::I(par_stats.decisions.count(O::Unprofitable) as i64)),
        ("gate_skipped", Json::I(skipped as i64)),
        ("gate_recall", Json::F(recall)),
        ("bound_violations", Json::I(violations as i64)),
        ("reconciled", Json::B(one_ok && par_ok)),
    ]);

    // (e) Daemon scrape: boot fmsa-serve, push one corpus through it,
    // then assert the Prometheus exposition carries every family the
    // dashboards depend on and the decision-log endpoint is populated.
    let store_dir = std::env::temp_dir().join(format!("fmsa-obs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let server_cfg = ServerConfig { store_dir: Some(store_dir.clone()), ..ServerConfig::default() };
    match Server::bind(server_cfg).and_then(Server::spawn) {
        Err(e) => report.fail(format!("obs: cannot boot daemon: {e}")),
        Ok(mut server) => {
            let corpus = wasm_fixture_bytes(&WasmFixtureConfig::with_functions(96));
            match client::post(server.addr(), "/v1/modules", &corpus) {
                Ok(r) if r.status == 200 => {}
                Ok(r) => report.fail(format!("obs: daemon upload returned {}", r.status)),
                Err(e) => report.fail(format!("obs: daemon upload failed: {e}")),
            }
            let mut families_ok = true;
            match client::get(server.addr(), "/metrics") {
                Err(e) => report.fail(format!("obs: GET /metrics failed: {e}")),
                Ok(r) => {
                    if r.status != 200 {
                        report.fail(format!("obs: GET /metrics returned {}", r.status));
                    }
                    if !r.header("content-type").is_some_and(|ct| ct.contains("version=0.0.4")) {
                        report
                            .fail("obs: /metrics content-type is not exposition 0.0.4".to_owned());
                    }
                    let body = r.text();
                    for family in [
                        "fmsa_http_requests_total",
                        "fmsa_http_request_duration_seconds_bucket",
                        "fmsa_merge_duration_seconds_bucket",
                        "fmsa_merge_decisions",
                        "fmsa_build_info",
                        "fmsa_store_functions",
                        "fmsa_queue_active_connections",
                        "fmsa_uptime_seconds",
                    ] {
                        if !body.contains(family) {
                            families_ok = false;
                            report.fail(format!("obs: /metrics is missing family {family}"));
                        }
                    }
                    if !body.contains("# TYPE fmsa_http_requests_total counter") {
                        families_ok = false;
                        report.fail(
                            "obs: /metrics lacks the TYPE line for requests_total".to_owned(),
                        );
                    }
                }
            }
            let mut recent_ok = false;
            match client::get(server.addr(), "/v1/merges/recent?n=10") {
                Err(e) => report.fail(format!("obs: GET /v1/merges/recent failed: {e}")),
                Ok(r) => {
                    let body = r.text();
                    recent_ok = r.status == 200
                        && body.contains("\"records\":[")
                        && body.contains("\"total\":");
                    if !recent_ok {
                        report.fail(format!(
                            "obs: /v1/merges/recent malformed (status {})",
                            r.status
                        ));
                    }
                }
            }
            match client::get(server.addr(), "/v1/stats") {
                Err(e) => report.fail(format!("obs: GET /v1/stats failed: {e}")),
                Ok(r) => {
                    let body = r.text();
                    if !(body.contains("\"version\":") && body.contains("\"started_at\":")) {
                        report.fail("obs: /v1/stats lacks build metadata".to_owned());
                    }
                }
            }
            println!(
                "  daemon: /metrics families {}, /v1/merges/recent {}",
                if families_ok { "ok" } else { "MISSING" },
                if recent_ok { "ok" } else { "MALFORMED" }
            );
            report.record(&[
                ("experiment", Json::S("obs".into())),
                ("check", Json::S("daemon".into())),
                ("metrics_families_ok", Json::B(families_ok)),
                ("merges_recent_ok", Json::B(recent_ok)),
            ]);
            server.stop();
        }
    }
    let _ = std::fs::remove_dir_all(&store_dir);

    if was_tracing {
        trace::enable();
    }
    println!("(the CI obs-smoke job gates this via --check; see docs/observability.md)");
}
