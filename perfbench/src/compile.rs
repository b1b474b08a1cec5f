//! Compile passes: in-memory modules → printed optimized text, the
//! end-to-end path of `fmsa_opt`. The untraced pass calls the public
//! entry point `fmsa::optimize`; the traced pass calls the steps
//! `optimize` performs one by one, each inside a benchmark span.
//! [`measure`] runs passes until a run's time is spent.

use crate::stats::{median, process_cpu_s};
use crate::{trace, Report};
use fmsa::core::baselines::run_identical;
use fmsa::core::pass::FmsaStats;
use fmsa::core::pipeline::{run_fmsa_pipeline, PipelineStats};
use fmsa::ir::{printer::print_module, verify_module, Module};
use fmsa::target::CostModel;
use fmsa::Config;
use std::time::{Duration, Instant};

/// Untraced passes a run measures at least, however long they take, so
/// that the pass-to-pass byte-identity check always runs.
const MIN_PASSES: usize = 3;

/// What one pass over a module set produced.
pub struct Pass {
    /// Wall seconds of the whole pass.
    pub wall_s: f64,
    /// Process CPU seconds (all threads) over the same interval.
    pub cpu_s: f64,
    /// Per-module milliseconds, in module order.
    pub module_ms: Vec<f64>,
    /// The optimized modules.
    pub modules: Vec<Module>,
    /// Their printed text.
    pub texts: Vec<String>,
    /// Merge statistics per module.
    pub stats: Vec<FmsaStats>,
    /// Functions folded by the identical prepass (traced pass only).
    pub identical_merges: usize,
}

impl Pass {
    /// Pipeline statistics summed over the pass's modules.
    pub fn pipeline(&self) -> PipelineStats {
        let mut sum = PipelineStats::default();
        for s in &self.stats {
            sum.accumulate(&s.pipeline.unwrap_or_default());
        }
        sum
    }

    /// Merge attempts and committed merges over the pass.
    pub fn attempts_and_merges(&self) -> (usize, usize) {
        self.stats.iter().fold((0, 0), |(a, m), s| (a + s.attempted, m + s.merges))
    }
}

/// Each module's median time over the passes, in milliseconds. A
/// per-module median drops a slow stretch that hit one module in one
/// pass without discarding the whole pass.
pub fn module_medians_ms(module_ms_by_pass: &[Vec<f64>]) -> Vec<f64> {
    let modules = module_ms_by_pass.first().map_or(0, Vec::len);
    (0..modules)
        .map(|k| median(&module_ms_by_pass.iter().map(|p| p[k]).collect::<Vec<_>>()))
        .collect()
}

/// Cost-model size reduction in percent over a whole module set, as in
/// the paper's Fig. 10/11: `before` and `after` are summed first.
pub fn size_reduction_pct(before: &[Module], after: &[Module], cfg: &Config) -> f64 {
    let cm = CostModel::new(cfg.arch);
    let b: u64 = before.iter().map(|m| cm.module_size(m)).sum();
    let a: u64 = after.iter().map(|m| cm.module_size(m)).sum();
    fmsa::target::reduction_percent(b, a)
}

/// Optimizes and prints every module of `inputs` through
/// `fmsa::optimize`. The copies are made before the clock starts.
pub fn untraced_pass(inputs: &[Module], cfg: &Config) -> Result<Pass, String> {
    let mut work: Vec<Module> = trace::timed("ir.clone", || inputs.to_vec());
    // One span around the whole pass: in a traced run, the untraced
    // comparison passes are time spent inside `fmsa::optimize`.
    let _pass_span = trace::span("optimize.pass");
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let mut pass = empty_pass(work.len());
    for m in &mut work {
        let t = Instant::now();
        let stats = fmsa::optimize(m, cfg).map_err(|e| format!("optimize {}: {e}", m.name))?;
        pass.texts.push(print_module(m));
        pass.module_ms.push(t.elapsed().as_secs_f64() * 1e3);
        pass.stats.push(stats);
    }
    pass.wall_s = t0.elapsed().as_secs_f64();
    pass.cpu_s = process_cpu_s() - cpu0;
    pass.modules = work;
    Ok(pass)
}

/// The same pass with `optimize`'s steps called one by one — verify,
/// identical prepass, pipeline, verify — and printing, each in a span.
/// Its output must be byte-identical to [`untraced_pass`].
#[allow(deprecated)] // the pipeline driver still takes the options shims
pub fn traced_pass(inputs: &[Module], cfg: &Config) -> Result<Pass, String> {
    let mut work: Vec<Module> = trace::timed("ir.clone", || inputs.to_vec());
    let _pass_span = trace::span("bench.pass");
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let mut pass = empty_pass(work.len());
    let (opts, pipe) = (cfg.fmsa_options(), cfg.pipeline_options());
    for m in &mut work {
        let t = Instant::now();
        let errs = trace::timed("ir.verify", || verify_module(m));
        if let Some(e) = errs.first() {
            return Err(format!("input of {} does not verify: {e}", m.name));
        }
        if cfg.identical_prepass {
            let ident = trace::timed("identical.run", || run_identical(m, cfg.arch));
            pass.identical_merges += ident.merges;
        }
        let stats = trace::timed("pipeline.run", || run_fmsa_pipeline(m, &opts, &pipe));
        let errs = trace::timed("ir.verify", || verify_module(m));
        if let Some(e) = errs.first() {
            return Err(format!("output of {} does not verify: {e}", m.name));
        }
        pass.texts.push(trace::timed("ir.print", || print_module(m)));
        pass.module_ms.push(t.elapsed().as_secs_f64() * 1e3);
        pass.stats.push(stats);
    }
    pass.wall_s = t0.elapsed().as_secs_f64();
    pass.cpu_s = process_cpu_s() - cpu0;
    pass.modules = work;
    Ok(pass)
}

fn empty_pass(n: usize) -> Pass {
    Pass {
        wall_s: 0.0,
        cpu_s: 0.0,
        module_ms: Vec::with_capacity(n),
        modules: Vec::new(),
        texts: Vec::with_capacity(n),
        stats: Vec::with_capacity(n),
        identical_merges: 0,
    }
}

/// The untraced passes of a run.
pub struct Passes {
    /// The last untraced pass: the run's output.
    pub out: Pass,
    /// Wall seconds of each untraced pass.
    pub walls: Vec<f64>,
    /// Each module's median milliseconds over the untraced passes.
    pub module_ms: Vec<f64>,
}

/// Compiles `inputs` pass after pass until `seconds` are spent and at
/// least [`MIN_PASSES`] untraced passes ran. A traced run alternates
/// untraced and traced passes, so their difference is the tracing
/// overhead. Calls `between` after every pass, outside the pass's
/// clock. Checks that every pass prints the same bytes, and sets
/// `compile_s`, `compile_cpu_s` and, in a traced run, the per-layer
/// metrics of the traced passes.
pub fn measure(
    inputs: &[Module],
    cfg: &Config,
    seconds: f64,
    traced: bool,
    r: &mut Report,
    mut between: impl FnMut() -> Result<(), String>,
) -> Result<Passes, String> {
    let start = Instant::now();
    let (mut walls, mut cpus, mut module_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced_walls = Vec::new();
    let mut out: Option<Pass> = None;
    let mut last_traced: Option<Pass> = None;
    loop {
        if traced && walls.len() > traced_walls.len() {
            let p = traced_pass(inputs, cfg)?;
            traced_walls.push(p.wall_s);
            if let Some(prev) = last_traced.replace(p) {
                trace::timed("ir.drop", || drop(prev));
            }
        } else {
            let p = untraced_pass(inputs, cfg)?;
            r.tally.record(true);
            walls.push(p.wall_s);
            cpus.push(p.cpu_s);
            module_ms.push(p.module_ms.clone());
            if let Some(prev) = out.replace(p) {
                let same = out.as_ref().is_some_and(|p| p.texts == prev.texts);
                r.check(same, || "two untraced passes printed different output".into());
                trace::timed("ir.drop", || drop(prev));
            }
        }
        between()?;
        let spent = start.elapsed().as_secs_f64() >= seconds && walls.len() >= MIN_PASSES;
        if spent && (!traced || !traced_walls.is_empty()) {
            break;
        }
    }
    let out = out.expect("at least one untraced pass");
    let module_ms = module_medians_ms(&module_ms);
    r.set("compile_s", module_ms.iter().sum::<f64>() / 1e3);
    r.set("compile_cpu_s", median(&cpus));
    if let Some(t) = last_traced {
        r.check(t.texts == out.texts, || "traced output bytes differ from untraced".into());
        set_pass_layers(r, &t, traced_walls.len() as f64, median(&walls), median(&traced_walls));
    }
    Ok(Passes { out, walls, module_ms })
}

/// Per-layer metrics of the traced passes: the benchmark's spans
/// (averaged over `traced` passes) and the counters the pipeline
/// returned for the last one, `pass`.
fn set_pass_layers(
    r: &mut Report,
    pass: &Pass,
    traced: f64,
    untraced_compile_s: f64,
    traced_compile_s: f64,
) {
    let spans = trace::spans();
    let per_pass = |name| trace::total_s(&spans, name) / traced;
    r.set("ir.verify_s", per_pass("ir.verify"));
    r.set("ir.print_s", per_pass("ir.print"));
    r.set("identical.wall_s", per_pass("identical.run"));
    r.set("identical.merges", pass.identical_merges as f64);
    let p = pass.pipeline();
    let (attempts, merges) = pass.attempts_and_merges();
    let secs = |d: Duration| d.as_secs_f64();
    r.set("schedule.wall_s", secs(p.schedule));
    r.set("schedule.cpu_s", secs(p.schedule_cpu));
    r.set("search.query_s", secs(p.schedule_query));
    r.set("linearize.prefill_s", secs(p.schedule_prefill));
    r.set("prepare.wall_s", secs(p.prepare));
    r.set("prepare.cpu_s", secs(p.prepare_cpu));
    r.set("align.pairs", p.prepared as f64);
    r.set("gate.skipped", p.gate_skipped as f64);
    r.set("gate.skip_ratio", p.gate_skipped as f64 / attempts.max(1) as f64);
    r.set("spec.codegen_s", secs(p.spec_codegen));
    r.set("spec.built", p.spec_built as f64);
    r.set("spec.committed", p.spec_committed as f64);
    r.set("spec.useful_ratio", p.spec_committed as f64 / p.spec_built.max(1) as f64);
    r.set("commit.wall_s", secs(p.commit));
    r.set("commit.codegen_s", secs(p.commit_codegen));
    r.set("commit.transplant_s", secs(p.transplant));
    r.set("commit.rewrite_s", secs(p.rewrite));
    r.set("commit.barriers", p.commit_barriers as f64);
    r.set("commit.attempts", attempts as f64);
    r.set("commit.merges", merges as f64);
    r.set("commit.merge_ratio", merges as f64 / attempts.max(1) as f64);
    // The pipeline's own stage timers cover the last traced pass only,
    // so the rest of `run_fmsa_pipeline` is taken from that pass's spans.
    let last = spans.iter().rposition(|s| s.name == "bench.pass");
    let last_pipeline_s = spans
        .iter()
        .filter(|s| s.name == "pipeline.run" && s.parent == last)
        .map(|s| s.dur_us / 1e6)
        .sum::<f64>();
    r.set("pipeline.other_s", last_pipeline_s - secs(p.schedule + p.prepare + p.commit));
    r.set("trace.compile_s", traced_compile_s);
    r.set("trace.untraced_compile_s", untraced_compile_s);
    r.set("trace.overhead_s", traced_compile_s - untraced_compile_s);
    r.note(format!(
        "speculation: {} bodies built, {} committed (useful ratio {:.4}); gate skipped {} of {attempts} attempts",
        p.spec_built,
        p.spec_committed,
        p.spec_committed as f64 / p.spec_built.max(1) as f64,
        p.gate_skipped,
    ));
}
