//! `fmsa-opt` — run function-merging techniques on a textual IR module or
//! a WebAssembly binary.
//!
//! ```text
//! fmsa_opt <input.fir|input.wasm> [--technique identical|soa|fmsa]
//!          [--threshold N] [--oracle] [--arch x86-64|arm-thumb]
//!          [--canonicalize] [--search exact|lsh|auto] [--threads N]
//!          [--exclude name,name] [--stats] [--trace-out trace.json]
//!          [--explain-merges decisions.jsonl] [-o <output.fir>]
//! ```
//!
//! The input format is auto-detected (via [`fmsa::load_module_bytes`]):
//! files starting with the wasm magic (`\0asm`) are decoded and lowered by
//! `fmsa-wasm` (unsupported wasm features abort with an error naming the
//! section/opcode and byte offset); anything else parses as the textual
//! IR. Output is always textual IR.
//!
//! `--threads N` runs the merge pipeline with `N` workers (default 1;
//! `0` = available parallelism). Output is bit-identical at every thread
//! count (see `fmsa_core::pipeline`), and `--oracle` works at any of
//! them.
//!
//! The `fmsa` technique is one [`fmsa::Config`] fed to [`fmsa::optimize`]
//! — the same call the `fmsa-serve` daemon makes per upload, which is why
//! daemon responses are byte-identical to this tool's output.
//!
//! The input format is the printer/parser syntax of `fmsa-ir` (see
//! `fmsa_ir::printer`); `cargo run --example quickstart` prints modules in
//! this form. Without `-o` the optimized module goes to stdout; `--stats`
//! sends a summary to stderr.
//!
//! Flight recorder (see `docs/observability.md`): `--trace-out PATH`
//! records hierarchical spans and writes Chrome trace-event JSON
//! viewable in Perfetto; `--explain-merges PATH` dumps one JSON line
//! per merge attempt (pair, similarity, alignment score, Δ, outcome).
//! Both observe without deciding — output bytes are identical with or
//! without them.

use fmsa::{Config, Error};
use fmsa_core::baselines::{run_identical, run_soa};
use fmsa_core::quarantine::panic_message;
use fmsa_core::{FaultPlan, SearchStrategy};
use fmsa_ir::printer;
use fmsa_target::{reduction_percent, CostModel, TargetArch};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

/// Prints the one-line structured failure contract — `stage=` plus, where
/// known, `function=` — and returns the nonzero exit code. Scripts can
/// parse this line without guessing at free-form prose.
fn fail(stage: &str, function: Option<&str>, detail: &str) -> ExitCode {
    match function {
        Some(f) => eprintln!("fmsa_opt: error stage={stage} function={f}: {detail}"),
        None => eprintln!("fmsa_opt: error stage={stage}: {detail}"),
    }
    ExitCode::FAILURE
}

/// [`fail`] from a library [`Error`]: the enum carries the stage and
/// function, so the contract line falls straight out.
fn fail_error(e: &Error, context: &str) -> ExitCode {
    fail(e.stage(), e.function(), &format!("{context}: {e}"))
}

/// Prints a one-line usage error and returns exit code 2.
fn bad_usage(message: &str) -> ExitCode {
    eprintln!("fmsa_opt: {message}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: fmsa_opt <input.fir|input.wasm> [--technique identical|soa|fmsa] \
             [--threshold N] [--oracle] [--arch x86-64|arm-thumb] \
             [--canonicalize] [--search exact|lsh|auto] [--threads N] \
             [--exclude a,b] [--stats] [--trace-out trace.json] \
             [--explain-merges out.jsonl] [-o out.fir]"
        );
        return ExitCode::from(2);
    }
    let mut input: Option<String> = None;
    let mut output: Option<String> = None;
    let mut technique = "fmsa".to_owned();
    let mut threshold = 1usize;
    let mut oracle = false;
    let mut arch = TargetArch::X86_64;
    let mut canonicalize = false;
    let mut search = SearchStrategy::Auto;
    let mut threads = 1usize;
    let mut exclude: HashSet<String> = HashSet::new();
    let mut stats = false;
    let mut trace_out: Option<String> = None;
    let mut explain_merges: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--technique" => technique = it.next().unwrap_or_default(),
            "--threshold" => match it.next().as_deref().map(str::parse) {
                Some(Ok(n)) => threshold = n,
                _ => return bad_usage("--threshold needs a number"),
            },
            "--oracle" => oracle = true,
            "--arch" => {
                let name = it.next();
                match TargetArch::ALL.into_iter().find(|a| name.as_deref() == Some(a.name())) {
                    Some(a) => arch = a,
                    None => {
                        return bad_usage(&format!(
                            "--arch needs x86-64 or arm-thumb, got {name:?}"
                        ))
                    }
                }
            }
            "--canonicalize" => canonicalize = true,
            "--search" => {
                search = match it.next().as_deref() {
                    Some("lsh") => SearchStrategy::Lsh,
                    Some("exact") => SearchStrategy::Exact,
                    Some("auto") => SearchStrategy::Auto,
                    other => {
                        return bad_usage(&format!(
                            "--search needs exact, lsh or auto, got {other:?}"
                        ))
                    }
                }
            }
            "--threads" => match it.next().as_deref().map(str::parse) {
                Some(Ok(n)) => threads = n,
                _ => return bad_usage("--threads needs a number (0 = available parallelism)"),
            },
            "--exclude" => {
                for n in it.next().unwrap_or_default().split(',') {
                    if !n.is_empty() {
                        exclude.insert(n.to_owned());
                    }
                }
            }
            "--stats" => stats = true,
            "--trace-out" => match it.next() {
                Some(p) => trace_out = Some(p),
                None => return bad_usage("--trace-out needs a path"),
            },
            "--explain-merges" => match it.next() {
                Some(p) => explain_merges = Some(p),
                None => return bad_usage("--explain-merges needs a path"),
            },
            "-o" => match it.next() {
                Some(p) => output = Some(p),
                None => return bad_usage("-o needs a path"),
            },
            other if !other.starts_with('-') && input.is_none() => input = Some(other.to_owned()),
            other => return bad_usage(&format!("unknown argument {other:?}")),
        }
    }
    let Some(input) = input else {
        return bad_usage("no input file");
    };
    if !matches!(technique.as_str(), "identical" | "soa" | "fmsa") {
        return bad_usage(&format!("unknown technique {technique:?}"));
    }
    let bytes = match std::fs::read(&input) {
        Ok(b) => b,
        Err(e) => return fail("read", None, &format!("cannot read {input}: {e}")),
    };
    // Format auto-detection: wasm magic vs textual IR.
    let stem = std::path::Path::new(&input)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "wasm".to_owned());
    let mut module = match fmsa::load_module_bytes(&bytes, &stem) {
        Ok(m) => m,
        Err(e) => return fail_error(&e, &input),
    };
    let cm = CostModel::new(arch);
    let before = cm.module_size(&module);

    let cfg = Config::new()
        .threshold(threshold)
        .oracle(oracle)
        .arch(arch)
        .canonicalize(canonicalize)
        .search(search)
        .parallel(threads)
        .exclude(exclude)
        .faults(FaultPlan::from_env().unwrap_or_default());
    if trace_out.is_some() {
        fmsa::telemetry::trace::enable();
    }

    let mut fmsa_stats: Option<fmsa_core::pass::FmsaStats> = None;
    let merges = if technique == "fmsa" {
        // One Config into fmsa::optimize — verification at both ends, the
        // identical-merging prepass, the panic boundary, and the
        // structured error all live in the library now.
        match fmsa::optimize(&mut module, &cfg) {
            Ok(st) => {
                let merges = st.merges;
                fmsa_stats = Some(st);
                merges
            }
            Err(e) => return fail_error(&e, &input),
        }
    } else {
        // The baselines keep their direct driver calls, with the same
        // verify/panic posture the library applies to fmsa runs.
        if let Err(e) = fmsa_ir::verify_module(&module)
            .into_iter()
            .next()
            .map_or(Ok(()), |v| Err(Error::verify(false, v.func.clone(), v.to_string())))
        {
            return fail_error(&e, &input);
        }
        let ran = catch_unwind(AssertUnwindSafe(|| match technique.as_str() {
            "identical" => run_identical(&mut module, arch).merges,
            _ => {
                run_identical(&mut module, arch);
                run_soa(&mut module, arch).merges
            }
        }));
        match ran {
            Ok(m) => m,
            Err(payload) => return fail("merge", None, &panic_message(payload.as_ref())),
        }
    };
    let errs = fmsa_ir::verify_module(&module);
    if !errs.is_empty() {
        return fail(
            "verify-output",
            Some(&errs[0].func),
            &format!("internal error — output module invalid: {}", errs[0]),
        );
    }
    let after = cm.module_size(&module);
    if let Some(path) = &trace_out {
        use fmsa::telemetry::trace;
        trace::disable();
        let (events, dropped) = trace::drain();
        if dropped > 0 {
            eprintln!("fmsa_opt: trace: {dropped} events dropped at the per-thread cap");
        }
        if let Err(e) = std::fs::write(path, trace::export_chrome(&events)) {
            eprintln!("fmsa_opt: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &explain_merges {
        // Baselines record no decisions; an empty file is still a valid dump.
        let body = fmsa_stats.as_ref().map(|st| st.decisions.to_jsonl()).unwrap_or_default();
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("fmsa_opt: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if stats {
        // Self-describing result header: thread count and the selected
        // search/alignment strategies. Only the fmsa technique uses the
        // pipeline's workers or a search strategy; the baselines run on
        // one thread.
        let (nthreads, search_name) = if technique == "fmsa" {
            (
                cfg.pipeline_options().resolved_threads(),
                match search {
                    SearchStrategy::Exact => "exact",
                    SearchStrategy::Lsh => "lsh",
                    SearchStrategy::Auto => "auto (by module size)",
                },
            )
        } else {
            (1, "n/a")
        };
        eprintln!(
            "fmsa_opt: {technique}: threads={nthreads} search={search_name} \
             alignment=needleman-wunsch"
        );
        eprintln!(
            "fmsa_opt: {technique}: {merges} merges, {before} -> {after} bytes \
             ({:.2}% reduction, {})",
            reduction_percent(before, after),
            arch.name()
        );
        if let Some(st) = &fmsa_stats {
            // The canonical PipelineStats vocabulary — the same field
            // names `experiments --json` emits and /metrics exports.
            if let Some(p) = st.pipeline.as_ref() {
                for line in fmsa_bench::harness::pipeline_stats_text(p, 6) {
                    eprintln!("fmsa_opt: {technique}: pipeline: {line}");
                }
            }
            let d = &st.decisions;
            use fmsa::telemetry::DecisionOutcome as O;
            eprintln!(
                "fmsa_opt: {technique}: decisions: attempted={} merged={} \
                 unprofitable={} gate_skipped={} budget_skipped={} quarantined={} failed={}",
                d.total(),
                d.count(O::Merged),
                d.count(O::Unprofitable),
                d.count(O::GateSkipped),
                d.count(O::BudgetSkipped),
                d.count(O::Quarantined),
                d.count(O::Failed),
            );
            for e in st.quarantine.entries() {
                eprintln!(
                    "fmsa_opt: quarantined stage={} pair={},{} seed={:#x}: {}",
                    e.stage, e.f1, e.f2, e.seed, e.reason
                );
            }
        }
    }
    let rendered = printer::print_module(&module);
    match output {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, rendered) {
                eprintln!("fmsa_opt: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        None => print!("{rendered}"),
    }
    ExitCode::SUCCESS
}
