//! Output checks in the interpreter. Semantics are always compared
//! against the unmerged input, never against the optimizer's own
//! output, and dynamic instruction counts give the runtime overhead
//! of merged code (the paper's Fig. 14).

use fmsa::interp::batch::canon_outcome;
use fmsa::interp::{harvest_seeds, seeded_args, BatchTarget, Interpreter, Trap};
use fmsa::ir::Module;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Dynamic instructions a `__driver` may run before merging. Drivers
/// that need more are left out of the check, as the paper's Fig. 14
/// leaves out modules too large to interpret; merged code gets twice
/// the budget.
pub const DRIVER_BUDGET: u64 = 2_000_000;

/// Fuel per exported-function run, the same on both sides, as in
/// `fmsa_interp::run_differential_batch`.
const EXPORT_FUEL: u64 = 2_000_000;

/// The outcome and dynamic instruction count of one run.
pub struct Run {
    /// Canonical outcome (value bits, output, or trap).
    pub outcome: String,
    /// Dynamic instructions executed (0 when the run trapped).
    pub steps: u64,
    /// The run used up its fuel.
    pub out_of_fuel: bool,
}

/// Runs `name(args)` in `m` with `fuel`.
pub fn run(m: &Module, name: &str, args: Vec<fmsa::interp::Val>, fuel: u64) -> Run {
    let mut interp = Interpreter::new(m);
    interp.set_fuel(fuel);
    let r = interp.run(name, args);
    Run {
        steps: r.as_ref().map_or(0, |r| r.steps),
        out_of_fuel: matches!(r, Err(Trap::OutOfFuel)),
        outcome: canon_outcome(&r),
    }
}

/// Pre- versus post-merge comparison over some inputs.
#[derive(Debug, Default, Clone, Copy)]
pub struct Diff {
    /// Input pairs run.
    pub pairs: u64,
    /// Pairs whose outcomes differ.
    pub mismatches: u64,
    /// Dynamic instructions before merging.
    pub pre_steps: u64,
    /// Dynamic instructions after merging.
    pub post_steps: u64,
}

impl Diff {
    /// Post- over pre-merge dynamic instructions.
    pub fn overhead(&self) -> f64 {
        self.post_steps as f64 / self.pre_steps.max(1) as f64
    }
}

/// Runs the `__driver` the workload added to the module before and
/// after merging; `None` when the unmerged driver exceeds
/// [`DRIVER_BUDGET`].
pub fn driver_diff(pre: &Module, post: &Module) -> Option<Diff> {
    let a = run(pre, "__driver", vec![], DRIVER_BUDGET);
    if a.out_of_fuel {
        return None;
    }
    let b = run(post, "__driver", vec![], 2 * DRIVER_BUDGET);
    Some(Diff {
        pairs: 1,
        mismatches: u64::from(a.outcome != b.outcome),
        pre_steps: a.steps,
        post_steps: b.steps,
    })
}

/// Runs `per_target` coverage-seeded inputs through every target in
/// both modules (`fmsa_interp::batch::wire_targets` built the targets).
pub fn targets_diff(
    pre: &Module,
    post: &Module,
    targets: &[BatchTarget],
    seed: u64,
    per_target: u64,
) -> Diff {
    let seeds = harvest_seeds(post);
    let mut d = Diff::default();
    for (ti, t) in targets.iter().enumerate() {
        for k in 0..per_target {
            let mut rng = StdRng::seed_from_u64(crate::mix(seed, (ti as u64) << 16 | k));
            let args = seeded_args(&mut rng, post, t.fn_ty, &seeds, t.skip_mem);
            let a = run(pre, &t.call, args.clone(), EXPORT_FUEL);
            let b = run(post, &t.call, args, EXPORT_FUEL);
            d.pairs += 1;
            d.mismatches += u64::from(a.outcome != b.outcome);
            d.pre_steps += a.steps;
            d.post_steps += b.steps;
        }
    }
    d
}
