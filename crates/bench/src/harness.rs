//! Shared experiment harness: runs the three techniques over calibrated
//! benchmark modules and produces the rows of every table/figure in the
//! paper's evaluation (§V). The `experiments` binary is a thin CLI over
//! this module.

use fmsa::telemetry::json_escape;
use fmsa_core::baselines::{run_identical, run_soa};
use fmsa_core::pipeline::{PipelineStats, StatValue};
use fmsa_core::Config;
use fmsa_ir::Module;
use fmsa_target::{reduction_percent, CostModel, TargetArch};
use fmsa_workloads::{add_driver, BenchDesc, DriverConfig};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Outcome of applying one technique to one benchmark on one target.
#[derive(Debug, Clone, Default)]
pub struct TechniqueResult {
    /// Merge operations committed.
    pub merges: usize,
    /// Code-size reduction (percent of the pre-pass module size).
    pub reduction: f64,
    /// Wall-clock time of the merging phase.
    pub time: Duration,
    /// FMSA's pipeline clocks and counters, when applicable.
    pub pipeline: Option<PipelineStats>,
    /// Rank positions of committed merges (Fig. 8 data), when applicable.
    pub rank_positions: Vec<usize>,
}

/// All techniques over one benchmark on one target.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Target evaluated.
    pub arch: TargetArch,
    /// Functions in the module before merging.
    pub fns: usize,
    /// (min, avg, max) function sizes in instructions.
    pub sizes: (usize, f64, usize),
    /// Module size before merging (cost-model bytes).
    pub size_before: u64,
    /// Identical-only result.
    pub identical: TechniqueResult,
    /// Identical + SOA.
    pub soa: TechniqueResult,
    /// Identical + FMSA for each requested threshold, in order.
    pub fmsa: Vec<(usize, TechniqueResult)>,
    /// Identical + FMSA oracle, when requested.
    pub oracle: Option<TechniqueResult>,
    /// Proxy for the baseline (no-merging) compilation time.
    pub baseline_compile: Duration,
}

/// Which techniques to run.
#[derive(Debug, Clone)]
pub struct RunPlan {
    /// Target architecture.
    pub arch: TargetArch,
    /// FMSA thresholds to evaluate (the paper uses 1, 5, 10).
    pub thresholds: Vec<usize>,
    /// Include the quadratic oracle (skipped for modules above
    /// `oracle_fn_cap`).
    pub oracle: bool,
    /// Function-count cap for oracle runs.
    pub oracle_fn_cap: usize,
    /// Function names excluded from FMSA merging (hot functions, drivers).
    pub exclude: HashSet<String>,
}

impl Default for RunPlan {
    fn default() -> Self {
        RunPlan {
            arch: TargetArch::X86_64,
            thresholds: vec![1, 5, 10],
            oracle: false,
            oracle_fn_cap: 400,
            exclude: HashSet::new(),
        }
    }
}

/// A stand-in for the rest of a `-Os` compilation pipeline (frontend,
/// dozens of middle-end passes, backend): verification plus repeated
/// whole-module scans and linearizations. Deterministic and linear in
/// program size, so overhead ratios (Fig. 12) behave like the paper's.
/// The scan count is calibrated so the merging pass is a modest fraction
/// of a "full compilation", as it is in the paper's LTO pipeline.
pub fn baseline_compile_proxy(module: &Module) -> Duration {
    let t0 = Instant::now();
    let cm = CostModel::new(TargetArch::X86_64);
    let mut acc = 0u64;
    for _ in 0..8 {
        let _ = fmsa_ir::verify_module(module);
        for f in module.func_ids() {
            acc = acc.wrapping_add(fmsa_core::linearize(module.func(f)).len() as u64);
        }
        for _ in 0..40 {
            acc = acc.wrapping_add(cm.module_size(module));
        }
    }
    std::hint::black_box(acc);
    t0.elapsed()
}

/// Runs every technique of `plan` on the benchmark described by `desc`.
pub fn run_benchmark(desc: &BenchDesc, plan: &RunPlan) -> BenchResult {
    let base = desc.build();
    let cm = CostModel::new(plan.arch);
    let size_before = cm.module_size(&base);
    let sizes = base.size_stats();
    let fns = base.func_count();
    let baseline_compile = baseline_compile_proxy(&base);

    // Identical only.
    let identical = {
        let mut m = base.clone();
        let t0 = Instant::now();
        let stats = run_identical(&mut m, plan.arch);
        TechniqueResult {
            merges: stats.merges,
            reduction: reduction_percent(size_before, cm.module_size(&m)),
            time: t0.elapsed(),
            pipeline: None,
            rank_positions: Vec::new(),
        }
    };
    // Identical + SOA (the paper runs Identical before both, §V-A).
    let soa = {
        let mut m = base.clone();
        let t0 = Instant::now();
        run_identical(&mut m, plan.arch);
        let stats = run_soa(&mut m, plan.arch);
        TechniqueResult {
            merges: stats.merges,
            reduction: reduction_percent(size_before, cm.module_size(&m)),
            time: t0.elapsed(),
            pipeline: None,
            rank_positions: Vec::new(),
        }
    };
    // Identical + FMSA at each threshold.
    let mut fmsa = Vec::new();
    for &t in &plan.thresholds {
        let mut m = base.clone();
        let t0 = Instant::now();
        let cfg = Config::new().threshold(t).arch(plan.arch).exclude(plan.exclude.iter().cloned());
        let stats = fmsa_core::optimize(&mut m, &cfg).expect("suite module merges");
        fmsa.push((
            t,
            TechniqueResult {
                merges: stats.merges,
                reduction: reduction_percent(size_before, cm.module_size(&m)),
                time: t0.elapsed(),
                pipeline: stats.pipeline,
                rank_positions: stats.rank_positions,
            },
        ));
    }
    // Oracle.
    let oracle = (plan.oracle && fns <= plan.oracle_fn_cap).then(|| {
        let mut m = base.clone();
        let t0 = Instant::now();
        let cfg = Config::new().oracle(true).arch(plan.arch).exclude(plan.exclude.iter().cloned());
        let stats = fmsa_core::optimize(&mut m, &cfg).expect("suite module merges");
        TechniqueResult {
            merges: stats.merges,
            reduction: reduction_percent(size_before, cm.module_size(&m)),
            time: t0.elapsed(),
            pipeline: stats.pipeline,
            rank_positions: stats.rank_positions,
        }
    });
    BenchResult {
        name: desc.name.to_owned(),
        arch: plan.arch,
        fns,
        sizes,
        size_before,
        identical,
        soa,
        fmsa,
        oracle,
        baseline_compile,
    }
}

/// Runtime-overhead measurement for Fig. 14 and the §V-D case study.
#[derive(Debug, Clone)]
pub struct RuntimeResult {
    /// Benchmark name.
    pub name: String,
    /// Dynamic instructions executed by the driver before merging.
    pub steps_before: u64,
    /// Dynamic instructions after Identical + FMSA.
    pub steps_after: u64,
    /// Dynamic instructions when hot functions were excluded (§V-D).
    pub steps_hot_excluded: u64,
    /// Code-size reduction achieved by the normal FMSA run (percent).
    pub reduction: f64,
    /// Code-size reduction with hot functions excluded.
    pub reduction_hot_excluded: f64,
}

impl RuntimeResult {
    /// Normalized runtime of merged code (1.0 = no overhead).
    pub fn normalized(&self) -> f64 {
        if self.steps_before == 0 {
            return 1.0;
        }
        self.steps_after as f64 / self.steps_before as f64
    }

    /// Normalized runtime with profile-guided hot-function exclusion.
    pub fn normalized_hot_excluded(&self) -> f64 {
        if self.steps_before == 0 {
            return 1.0;
        }
        self.steps_hot_excluded as f64 / self.steps_before as f64
    }
}

/// Runs the Fig. 14 experiment for one benchmark: build a driver, measure
/// dynamic instructions before merging, after plain FMSA, and after
/// profile-guided FMSA that excludes hot functions.
pub fn run_runtime_experiment(desc: &BenchDesc, threshold: usize) -> RuntimeResult {
    let mut base = desc.build();
    let (_, _) = add_driver(&mut base, &DriverConfig::default());
    let cm = CostModel::new(TargetArch::X86_64);
    let size_before = cm.module_size(&base);

    let run_driver = |m: &Module| -> (u64, Vec<String>) {
        let mut interp = fmsa_interp::Interpreter::new(m);
        interp.set_fuel(200_000_000);
        let r = interp.run("__driver", vec![]).expect("driver executes");
        let hot = interp.profile().hot_functions(0.05);
        (r.steps, hot)
    };
    let (steps_before, hot_names) = run_driver(&base);

    let merge_with_exclusions = |exclude: &[String]| -> (u64, f64) {
        let mut m = base.clone();
        let cfg = Config::new()
            .threshold(threshold)
            .exclude(exclude.iter().cloned().chain(["__driver".to_owned()]));
        fmsa_core::optimize(&mut m, &cfg).expect("driver module merges");
        let (steps, _) = run_driver(&m);
        (steps, reduction_percent(size_before, cm.module_size(&m)))
    };
    let (steps_after, reduction) = merge_with_exclusions(&[]);
    let (steps_hot_excluded, reduction_hot_excluded) = merge_with_exclusions(&hot_names);
    RuntimeResult {
        name: desc.name.to_owned(),
        steps_before,
        steps_after,
        steps_hot_excluded,
        reduction,
        reduction_hot_excluded,
    }
}

/// A JSON scalar for `BENCH_ci.json` lines (hand-rolled: the workspace
/// is offline and the records are flat).
#[derive(Debug, Clone)]
pub enum Json {
    /// A string value.
    S(String),
    /// A float value (NaN/infinite rendered as `null`).
    F(f64),
    /// An integer value.
    I(i64),
    /// A boolean value.
    B(bool),
}

/// Renders one flat JSON object from field/value pairs.
pub fn json_object(fields: &[(&str, Json)]) -> String {
    let mut out = String::from("{");
    for (k, (name, v)) in fields.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":", json_escape(name)));
        match v {
            Json::S(s) => out.push_str(&format!("\"{}\"", json_escape(s))),
            Json::F(f) if f.is_finite() => out.push_str(&format!("{f:.6}")),
            Json::F(_) => out.push_str("null"),
            Json::I(i) => out.push_str(&i.to_string()),
            Json::B(b) => out.push_str(&b.to_string()),
        }
    }
    out.push('}');
    out
}

/// Collects benchmark result lines (JSON-lines file) and parity-budget
/// violations for the CI gate.
#[derive(Debug, Default)]
pub struct Report {
    /// Target path for JSON lines (`--json`); buffered until [`Report::flush`].
    pub json_path: Option<String>,
    lines: Vec<String>,
    failures: Vec<String>,
}

impl Report {
    /// A report writing JSON lines to `path` (or discarding them).
    pub fn new(json_path: Option<String>) -> Report {
        Report { json_path, ..Report::default() }
    }

    /// Records one result line.
    pub fn record(&mut self, fields: &[(&str, Json)]) {
        self.lines.push(json_object(fields));
    }

    /// Records a budget violation (reported and, under `--check`, fatal).
    pub fn fail(&mut self, msg: impl Into<String>) {
        let msg = msg.into();
        eprintln!("BUDGET VIOLATION: {msg}");
        self.failures.push(msg);
    }

    /// Budget violations recorded so far.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Writes the JSON lines out (append: several subcommands can share
    /// one artifact file across processes).
    pub fn flush(&self) -> std::io::Result<()> {
        let Some(path) = &self.json_path else { return Ok(()) };
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        for l in &self.lines {
            writeln!(f, "{l}")?;
        }
        Ok(())
    }
}

/// The canonical [`PipelineStats`] → JSON field mapping. Every
/// serializer of pipeline counters (`experiments merge-parallel
/// --json`, `experiments scale --json`, `fmsa_opt --stats`) goes
/// through this one function, so a counter added to
/// [`PipelineStats::fields`] can never drift out of any output.
pub fn pipeline_json_fields(p: &PipelineStats) -> Vec<(&'static str, Json)> {
    p.fields()
        .into_iter()
        .map(|(name, v)| {
            let j = match v {
                StatValue::Count(c) => Json::I(c as i64),
                StatValue::Secs(s) => Json::F(s),
            };
            (name, j)
        })
        .collect()
}

/// Renders the canonical field list as `key=value` text, `per_line`
/// fields per line — the `--stats` human form of the same vocabulary.
pub fn pipeline_stats_text(p: &PipelineStats, per_line: usize) -> Vec<String> {
    let mut lines = Vec::new();
    let mut line = String::new();
    for (i, (name, v)) in p.fields().into_iter().enumerate() {
        if i > 0 && i % per_line.max(1) == 0 {
            lines.push(std::mem::take(&mut line));
        }
        if !line.is_empty() {
            line.push(' ');
        }
        match v {
            StatValue::Count(c) => line.push_str(&format!("{name}={c}")),
            StatValue::Secs(s) => line.push_str(&format!("{name}={s:.3}")),
        }
    }
    if !line.is_empty() {
        lines.push(line);
    }
    lines
}

/// The six rows of the paper's Fig. 13 compile-time breakdown, each from
/// its [`PipelineStats`] source (`docs/pipeline.md` tabulates the
/// mapping): index seeding, candidate queries, linearization, alignment
/// with the Δ bound, code generation, and the call-graph update.
pub fn fig13_rows(p: &PipelineStats) -> [(&'static str, Duration); 6] {
    [
        ("seed", p.seed),
        ("query", p.query_cpu),
        ("linear", p.linearize_cpu),
        ("align", p.align_cpu + p.bound_cpu),
        ("codegen", p.commit_codegen),
        ("rewrite", p.rewrite),
    ]
}

/// Arithmetic mean, used for the summary rows of Figs. 10-12.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Cumulative distribution of rank positions (Fig. 8): `cdf[k]` is the
/// fraction of merges whose winning candidate was at position ≤ k+1.
pub fn rank_cdf(positions: &[usize], max_rank: usize) -> Vec<f64> {
    let total = positions.len().max(1) as f64;
    (1..=max_rank).map(|k| positions.iter().filter(|&&p| p <= k).count() as f64 / total).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_desc() -> BenchDesc {
        fmsa_workloads::spec_suite()
            .into_iter()
            .find(|d| d.name == "462.libquantum")
            .expect("libquantum in suite")
    }

    #[test]
    fn full_benchmark_run_produces_ordered_results() {
        let desc = small_desc();
        let plan = RunPlan { thresholds: vec![1, 10], oracle: true, ..RunPlan::default() };
        let r = run_benchmark(&desc, &plan);
        // The paper's headline ordering: FMSA >= SOA >= Identical.
        let fmsa10 = &r.fmsa.iter().find(|(t, _)| *t == 10).expect("t=10 run").1;
        assert!(
            fmsa10.reduction >= r.soa.reduction - 1e-9,
            "FMSA {:?} vs SOA {:?}",
            fmsa10.reduction,
            r.soa.reduction
        );
        assert!(r.soa.reduction >= r.identical.reduction - 1e-9);
        assert!(fmsa10.reduction > 0.0, "libquantum-like module must shrink");
        // Oracle at least matches the greedy threshold runs.
        let oracle = r.oracle.expect("oracle requested and small enough");
        assert!(oracle.reduction >= fmsa10.reduction - 1e-6);
    }

    #[test]
    fn rank_cdf_shape() {
        let cdf = rank_cdf(&[1, 1, 1, 2, 5], 5);
        assert!((cdf[0] - 0.6).abs() < 1e-9);
        assert!((cdf[1] - 0.8).abs() < 1e-9);
        assert!((cdf[4] - 1.0).abs() < 1e-9);
        assert!(cdf.windows(2).all(|w| w[0] <= w[1]), "CDF is monotone");
    }

    #[test]
    fn runtime_experiment_overhead_is_bounded() {
        let desc = small_desc();
        let r = run_runtime_experiment(&desc, 1);
        assert!(r.steps_before > 0);
        // Merged code may be a bit slower but not catastrophically.
        assert!(r.normalized() < 1.5, "{r:?}");
        // Profile-guided exclusion should not be slower than plain FMSA.
        assert!(r.normalized_hot_excluded() <= r.normalized() + 0.05, "{r:?}");
    }
}
