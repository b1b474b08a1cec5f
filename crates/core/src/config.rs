//! The run configuration and the [`optimize`] entry point.
//!
//! [`Config`] is the one options type: a `#[non_exhaustive]`
//! builder-style struct that the merge pipeline ([`crate::pipeline::run`])
//! reads directly, and that the merge daemon (`fmsa-serve`), the CLI and
//! the experiment harness all build. [`optimize`] wraps the pipeline in
//! input verification, the optional identical-merging prepass, a panic
//! boundary and output re-verification.
//!
//! [`Config::threads`] only sets the pipeline's worker count. Output is
//! bit-identical at every thread count, so the choice is pure
//! performance policy.

use crate::error::Error;
use crate::faults::FaultPlan;
use crate::merge::MergeConfig;
use crate::pass::FmsaStats;
use crate::quarantine::panic_message;
use crate::search::SearchStrategy;
use fmsa_ir::Module;
use fmsa_target::TargetArch;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The configuration of a merge run: what to merge and how, how many
/// pipeline workers, fault injection, and the identical-merging prepass
/// ([`Config::identical_prepass`]). The per-pair alignment budget is not
/// an option: it is a fixed policy ([`fmsa_align::plan`]), because which
/// pairs fall back decides the output.
///
/// `#[non_exhaustive]` so fields can be added without a breaking change;
/// construct it with [`Config::new`] (or `Config::default()`) and the
/// chainable builder methods:
///
/// ```
/// use fmsa_core::Config;
/// let cfg = Config::new().threshold(5).parallel(4);
/// assert_eq!(cfg.threshold, 5);
/// assert_eq!(cfg.threads, 4);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct Config {
    /// Exploration threshold `t`: top-ranked candidates tried per
    /// function (paper evaluates t = 1, 5, 10).
    pub threshold: usize,
    /// Oracle mode: evaluate every candidate, commit the best — the
    /// paper's quadratic upper bound. Forces exact search.
    pub oracle: bool,
    /// Target whose cost model drives profitability.
    pub arch: TargetArch,
    /// Per-pair merge configuration.
    pub merge: MergeConfig,
    /// Function names excluded from merging (§V-D hot-function
    /// exclusion).
    pub exclude: HashSet<String>,
    /// Candidates below this similarity are never attempted.
    pub min_similarity: f64,
    /// Canonicalize intra-block instruction order before merging.
    pub canonicalize: bool,
    /// Candidate search strategy (exact, LSH, or auto by module size).
    pub search: SearchStrategy,
    /// Worker threads of the merge pipeline: `1` (the default) runs it
    /// without a prepare stage, `0` means available parallelism. Output
    /// is bit-identical at every count.
    pub threads: usize,
    /// Deterministic fault injection (tests, `experiments faults`).
    pub faults: FaultPlan,
    /// Run LLVM-style identical-function merging before FMSA — what
    /// `fmsa_opt --technique fmsa` has always done, and what the paper's
    /// evaluation assumes. Disable to measure FMSA in isolation.
    pub identical_prepass: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            threshold: 1,
            oracle: false,
            arch: TargetArch::X86_64,
            merge: MergeConfig::default(),
            exclude: HashSet::new(),
            min_similarity: 0.0,
            canonicalize: false,
            search: SearchStrategy::Auto,
            threads: 1,
            faults: FaultPlan::disabled(),
            identical_prepass: true,
        }
    }
}

impl Config {
    /// The default configuration: one pipeline thread, threshold 1, auto
    /// search, identical-merging prepass on.
    pub fn new() -> Config {
        Config::default()
    }

    /// Sets the exploration threshold `t`.
    pub fn threshold(mut self, t: usize) -> Config {
        self.threshold = t;
        self
    }

    /// Enables or disables oracle (exhaustive) exploration.
    pub fn oracle(mut self, on: bool) -> Config {
        self.oracle = on;
        self
    }

    /// Sets the target architecture.
    pub fn arch(mut self, arch: TargetArch) -> Config {
        self.arch = arch;
        self
    }

    /// Sets the per-pair merge configuration.
    pub fn merge(mut self, merge: MergeConfig) -> Config {
        self.merge = merge;
        self
    }

    /// Excludes the given function names from merging.
    pub fn exclude<I, S>(mut self, names: I) -> Config
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.exclude.extend(names.into_iter().map(Into::into));
        self
    }

    /// Sets the minimum candidate similarity.
    pub fn min_similarity(mut self, s: f64) -> Config {
        self.min_similarity = s;
        self
    }

    /// Enables or disables intra-block canonicalization.
    pub fn canonicalize(mut self, on: bool) -> Config {
        self.canonicalize = on;
        self
    }

    /// Sets the candidate search strategy.
    pub fn search(mut self, search: SearchStrategy) -> Config {
        self.search = search;
        self
    }

    /// Runs the pipeline with `n` worker threads (`0` = available
    /// parallelism).
    pub fn parallel(mut self, n: usize) -> Config {
        self.threads = n;
        self
    }

    /// Installs a fault-injection plan.
    pub fn faults(mut self, faults: FaultPlan) -> Config {
        self.faults = faults;
        self
    }

    /// Enables or disables the identical-merging prepass.
    pub fn identical_prepass(mut self, on: bool) -> Config {
        self.identical_prepass = on;
        self
    }

    /// The worker count this configuration resolves to on this machine
    /// (`threads == 0` means available parallelism).
    pub fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            rayon::current_num_threads()
        } else {
            self.threads
        }
    }
}

/// Runs the full merge stack over `module` under `cfg`: input
/// verification, the optional identical-merging prepass, the merge
/// pipeline behind a panic boundary, and output re-verification.
///
/// This is the library entry point the daemon and `fmsa_opt` share —
/// byte-identical output between them falls out of calling the same
/// function. Panics from merge codegen (or `FMSA_FAULTS` injection)
/// surface as [`Error::Merge`], never as an unwinding stack.
pub fn optimize(module: &mut Module, cfg: &Config) -> Result<FmsaStats, Error> {
    check_input(module)?;
    optimize_checked(module, cfg)
}

/// [`optimize`]'s input check: the first verifier error of `module`, as
/// a `verify-input` error.
pub(crate) fn check_input(module: &Module) -> Result<(), Error> {
    match fmsa_ir::verify_module(module).first() {
        Some(e) => Err(Error::verify(false, &e.func, e.to_string())),
        None => Ok(()),
    }
}

/// [`optimize`] after its input check, for a caller that has run
/// [`check_input`] on this same module already.
pub(crate) fn optimize_checked(module: &mut Module, cfg: &Config) -> Result<FmsaStats, Error> {
    let ran = catch_unwind(AssertUnwindSafe(|| {
        if cfg.identical_prepass {
            crate::baselines::run_identical(module, cfg.arch);
        }
        crate::pipeline::run(module, cfg)
    }));
    let stats = match ran {
        Ok(stats) => stats,
        Err(payload) => {
            return Err(Error::Merge { function: None, message: panic_message(payload.as_ref()) })
        }
    };
    let errs = fmsa_ir::verify_module(module);
    if let Some(e) = errs.first() {
        return Err(Error::verify(true, &e.func, e.to_string()));
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmsa_ir::{FuncBuilder, Value};

    fn clone_family(m: &mut Module, count: usize) {
        let i32t = m.types.i32();
        let fn_ty = m.types.func(i32t, vec![i32t, i32t]);
        for k in 0..count {
            let f = m.create_function(format!("fam{k}"), fn_ty);
            let mut b = FuncBuilder::new(m, f);
            let e = b.block("entry");
            b.switch_to(e);
            let mut v = Value::Param(0);
            for j in 0..12 {
                v = b.add(v, b.const_i32(j));
                v = b.mul(v, Value::Param(1));
            }
            v = b.xor(v, b.const_i32(k as i32 + 100));
            b.ret(Some(v));
        }
    }

    #[test]
    fn optimize_merges_and_verifies() {
        let mut m = Module::new("m");
        clone_family(&mut m, 4);
        let stats = optimize(&mut m, &Config::new().threshold(10)).unwrap();
        assert!(stats.merges >= 2, "{stats:?}");
        assert!(fmsa_ir::verify_module(&m).is_empty());
    }

    #[test]
    fn default_and_parallel_configs_agree_bitwise() {
        let mut m1 = Module::new("m");
        clone_family(&mut m1, 6);
        let mut m2 = Module::new("m");
        clone_family(&mut m2, 6);
        optimize(&mut m1, &Config::new().threshold(5)).unwrap();
        optimize(&mut m2, &Config::new().threshold(5).parallel(2)).unwrap();
        assert_eq!(fmsa_ir::printer::print_module(&m1), fmsa_ir::printer::print_module(&m2));
    }

    #[test]
    fn invalid_input_is_verify_input_error() {
        let mut m = Module::new("m");
        let i32t = m.types.i32();
        let fn_ty = m.types.func(i32t, vec![]);
        // A defined function whose block lacks a terminator fails
        // verification.
        let f = m.create_function("broken", fn_ty);
        let b = m.func_mut(f).add_block("entry");
        m.func_mut(f).append_inst(
            b,
            fmsa_ir::Inst::new(
                fmsa_ir::Opcode::Add,
                i32t,
                vec![Value::ConstInt { ty: i32t, bits: 1 }, Value::ConstInt { ty: i32t, bits: 2 }],
            ),
        );
        let err = optimize(&mut m, &Config::new()).unwrap_err();
        assert_eq!(err.stage(), "verify-input");
        assert_eq!(err.function(), Some("broken"));
    }

    #[test]
    fn identical_prepass_is_part_of_the_contract() {
        // Two byte-identical functions: the prepass merges them even at
        // threshold 0 exploration budget for FMSA proper.
        let mut m = Module::new("m");
        let i32t = m.types.i32();
        let fn_ty = m.types.func(i32t, vec![i32t]);
        for name in ["a", "b"] {
            let f = m.create_function(name, fn_ty);
            let mut b = FuncBuilder::new(&mut m, f);
            let e = b.block("entry");
            b.switch_to(e);
            let r = b.add(Value::Param(0), b.const_i32(1));
            b.ret(Some(r));
        }
        let with = {
            let mut mm = m.clone();
            optimize(&mut mm, &Config::new()).unwrap();
            fmsa_ir::printer::print_module(&mm)
        };
        let without = {
            let mut mm = m.clone();
            optimize(&mut mm, &Config::new().identical_prepass(false)).unwrap();
            fmsa_ir::printer::print_module(&mm)
        };
        // The prepass thunks one of the twins; without it FMSA may still
        // merge them, but through its own (different) codegen path.
        assert_ne!(with, without);
    }
}
