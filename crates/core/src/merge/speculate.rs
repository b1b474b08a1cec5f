//! Speculative merge codegen into a scratch module (pipeline prepare
//! stage) and the transplant that commits it.
//!
//! [`merge_pair_aligned`](super::merge_pair_aligned) mutates the module it
//! targets, so the parallel pipeline could not run code generation on
//! worker threads — until now the commit stage regenerated every merged
//! body sequentially. [`speculate_merge`] runs the *same* §III-E pipeline
//! (return merging, parameter merging, two-pass codegen, verification)
//! against a private [`ScratchModule`] that only borrows the main module,
//! and [`commit_speculative`] splices the finished body into the main
//! module via [`fmsa_ir::transplant_function`].
//!
//! Equivalence contract: given the same `(f1, f2, seq1, seq2, alignment,
//! config)` and an unchanged module state for `f1`/`f2`, the
//! `speculate_merge`-then-`commit_speculative` path produces a function
//! byte-identical (printer output, arena ids, type-store evolution) to a
//! direct `merge_pair_aligned` call at commit time. The pipeline enforces
//! the "unchanged" premise with its mutation-generation re-validation and
//! falls back to direct codegen on any conflict; the equivalence itself is
//! property-tested in `tests/transplant.rs`.

use super::{
    codegen, merge_setup, unique_name, MergeConfig, MergeError, MergeInfo, MergeSetup, RetInfo,
};
use crate::callsites::{outgoing_calls, CallSiteIndex};
use crate::linearize::Entry;
use crate::merge::params::ParamMerge;
use crate::profitability::{delta_cost_side, ProfitReport};
use fmsa_align::Alignment;
use fmsa_ir::{FuncId, Module, ScratchModule};
use fmsa_target::CostModel;

/// A merged function built speculatively in a scratch module, waiting to
/// be transplanted (or discarded) by the commit stage.
#[derive(Debug)]
pub struct SpeculativeMerge {
    scratch: ScratchModule,
    /// The merged function's id *in the scratch module*.
    merged: FuncId,
    /// First original, in the main module.
    pub f1: FuncId,
    /// Second original, in the main module.
    pub f2: FuncId,
    has_func_id: bool,
    params: ParamMerge,
    ret: RetInfo,
    matches: usize,
    alignment_len: usize,
}

/// Runs the full merge code generation for `(f1, f2)` against a scratch
/// module, leaving `module` untouched. Safe to run on a worker thread that
/// only holds `&Module`.
///
/// # Errors
///
/// The same failures as [`super::merge_pair_aligned`]; an error here means
/// a direct codegen at commit time would fail identically, so the pipeline
/// replays it inline to preserve the sequential driver's behaviour.
pub fn speculate_merge(
    module: &Module,
    f1: FuncId,
    f2: FuncId,
    seq1: &[Entry],
    seq2: &[Entry],
    alignment: Alignment,
    config: &MergeConfig,
) -> Result<SpeculativeMerge, MergeError> {
    let MergeSetup { ret, has_func_id, params: pm } =
        merge_setup(module, f1, f2, seq1, seq2, &alignment, config)?;
    let matches = alignment.match_count();
    let alignment_len = alignment.len();
    let mut scratch = ScratchModule::new(module);
    let sf1 = scratch.import_function(module, f1);
    let sf2 = scratch.import_function(module, f2);
    // The scratch clones keep the donors' instruction/block arenas
    // verbatim, so the precomputed linearizations stay valid. The name is
    // provisional — the commit-time transplant names the function against
    // the then-current main module, exactly as direct codegen would.
    let name = unique_name(&scratch.module, config, sf1, sf2);
    let merged = codegen::generate(
        &mut scratch.module,
        codegen::CodegenInput {
            f1: sf1,
            f2: sf2,
            seq1: seq1.to_vec(),
            seq2: seq2.to_vec(),
            alignment,
            params: pm.clone(),
            ret,
            name,
            reorder_commutative: config.reorder_commutative,
        },
    )?;
    Ok(SpeculativeMerge {
        scratch,
        merged,
        f1,
        f2,
        has_func_id,
        params: pm,
        ret,
        matches,
        alignment_len,
    })
}

impl SpeculativeMerge {
    /// How the scratch module's type store was seeded from the main
    /// module: shared by reference (copy-on-write frozen prefix) vs
    /// copied eagerly. The pipeline aggregates these into its
    /// scratch-setup counters.
    pub fn scratch_setup(&self) -> fmsa_ir::ScratchSetup {
        self.scratch.setup()
    }

    /// Types this speculative build interned beyond the donor snapshot.
    pub fn suffix_types(&self) -> usize {
        self.scratch.suffix_types()
    }

    /// Consumes a speculative build whose merge will *not* be committed,
    /// replaying the one side effect an in-place build-and-discard leaves
    /// behind: the types codegen interned. (The sequential driver
    /// generates the merged function, evaluates it, and removes it — but
    /// interned types outlive the removal, and type-id values are
    /// observable through the MinHash candidate index.)
    pub fn discard_into(self, module: &mut Module) {
        self.scratch.migrate_types_into(module);
    }

    /// Whether the speculatively built body still verifies in its scratch
    /// module. The commit stage checks this before trusting a body built
    /// on another thread — a corrupted scratch build must degrade to
    /// inline codegen, never reach the main module.
    pub fn body_valid(&self) -> bool {
        fmsa_ir::verify_function(&self.scratch.module, self.merged).is_empty()
    }

    /// Test-only sabotage: corrupts the scratch body (drops the entry
    /// block's terminator) so [`SpeculativeMerge::body_valid`] fails.
    /// Exercised by the fault-injection harness; not part of the API.
    #[doc(hidden)]
    pub fn poison_scratch(&mut self) {
        let f = self.scratch.module.func_mut(self.merged);
        let entry = f.entry();
        if let Some(t) = f.terminator(entry) {
            f.remove_inst(t);
        }
    }
}

/// Evaluates the Δ profitability of a speculative merge *before*
/// transplanting it: body sizes are read from the scratch build
/// (instruction costs are structural, so they are identical either side
/// of a transplant) and the merged body's outgoing calls are mapped to
/// main-module ids through the scratch import map. Returns exactly what
/// [`crate::profitability::evaluate_indexed`] would return for the same
/// body after a transplant — letting the caller skip the transplant
/// entirely for unprofitable merges.
pub fn evaluate_speculative(
    module: &Module,
    cm: &CostModel,
    spec: &SpeculativeMerge,
    sites: &CallSiteIndex,
) -> ProfitReport {
    let size_f1 = cm.body_size(module, spec.f1);
    let size_f2 = cm.body_size(module, spec.f2);
    let size_merged = cm.body_size(&spec.scratch.module, spec.merged);
    let merged_out: std::collections::HashMap<FuncId, usize> =
        outgoing_calls(spec.scratch.module.func(spec.merged))
            .into_iter()
            .map(|(g, n)| {
                (spec.scratch.donor_of(g).expect("merged body only calls imported functions"), n)
            })
            .collect();
    let sites_of = |f: FuncId| sites.count(f) + merged_out.get(&f).copied().unwrap_or(0);
    // `ret` / `merged_tys` carry scratch TyIds, but both come from the
    // inputs' signatures, which existed when the scratch store was cloned
    // — prefix ids, valid in the main store with identical values.
    let merged_params = spec.params.merged_tys.len() as u64;
    let epsilon =
        delta_cost_side(module, cm, spec.f1, merged_params, spec.ret.ty1, spec.ret.base, &sites_of)
            + delta_cost_side(
                module,
                cm,
                spec.f2,
                merged_params,
                spec.ret.ty2,
                spec.ret.base,
                &sites_of,
            );
    let delta = (size_f1 + size_f2) as i64 - (size_merged + epsilon) as i64;
    ProfitReport { size_f1, size_f2, size_merged, epsilon, delta }
}

/// Transplants a speculatively built merge into `module`, returning the
/// same [`MergeInfo`] a direct [`super::merge_pair_aligned`] call would
/// have produced. The function name is computed against the current module
/// state (so name deduplication matches the sequential driver), and every
/// [`fmsa_ir::TyId`] recorded alongside the scratch build is remapped
/// through the transplant's type migration.
///
/// # Errors
///
/// [`MergeError::InvalidCodegen`] when the transplant cannot resolve a
/// cross-module reference; the module is left without the new function and
/// the caller falls back to direct codegen.
pub fn commit_speculative(
    module: &mut Module,
    spec: SpeculativeMerge,
    config: &MergeConfig,
) -> Result<MergeInfo, MergeError> {
    let name = unique_name(module, config, spec.f1, spec.f2);
    let t = spec
        .scratch
        .transplant_into(module, spec.merged, name)
        .map_err(|e| MergeError::InvalidCodegen(format!("transplant: {e}")))?;
    let params = ParamMerge {
        merged_tys: spec.params.merged_tys.iter().map(|&ty| t.types.get(ty)).collect(),
        has_func_id: spec.params.has_func_id,
        map1: spec.params.map1,
        map2: spec.params.map2,
    };
    let ret = RetInfo {
        base: t.types.get(spec.ret.base),
        ty1: t.types.get(spec.ret.ty1),
        ty2: t.types.get(spec.ret.ty2),
    };
    Ok(MergeInfo {
        merged: t.func,
        f1: spec.f1,
        f2: spec.f2,
        has_func_id: spec.has_func_id,
        params,
        ret,
        matches: spec.matches,
        alignment_len: spec.alignment_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linearize::linearize;
    use crate::merge::{align_with, merge_pair_aligned};
    use fmsa_ir::printer::print_module;
    use fmsa_ir::{FuncBuilder, Value};

    fn pair_module() -> (Module, FuncId, FuncId) {
        let mut m = Module::new("m");
        let i32t = m.types.i32();
        let fn_ty = m.types.func(i32t, vec![i32t, i32t]);
        let mut out = Vec::new();
        for (name, c) in [("sa", 7), ("sb", 9)] {
            let f = m.create_function(name, fn_ty);
            let mut b = FuncBuilder::new(&mut m, f);
            let e = b.block("entry");
            b.switch_to(e);
            let mut v = Value::Param(0);
            for k in 0..10 {
                v = b.add(v, b.const_i32(k));
                v = b.mul(v, Value::Param(1));
            }
            v = b.xor(v, b.const_i32(c));
            b.ret(Some(v));
            out.push(f);
        }
        (m, out[0], out[1])
    }

    #[test]
    fn speculative_build_matches_direct_codegen() {
        let (base, f1, f2) = pair_module();
        let config = MergeConfig::default();
        let seq1 = linearize(base.func(f1));
        let seq2 = linearize(base.func(f2));
        let al = align_with(&base, f1, f2, &seq1, &seq2, &config.scoring, config.algorithm);

        let mut direct = base.clone();
        let info_d = merge_pair_aligned(
            &mut direct,
            f1,
            f2,
            seq1.clone(),
            seq2.clone(),
            al.clone(),
            &config,
        )
        .expect("direct codegen");

        let mut spec_m = base.clone();
        let spec =
            speculate_merge(&spec_m, f1, f2, &seq1, &seq2, al, &config).expect("speculative build");
        let info_s = commit_speculative(&mut spec_m, spec, &config).expect("transplant");

        assert_eq!(print_module(&direct), print_module(&spec_m));
        assert_eq!(info_d.merged, info_s.merged);
        assert_eq!(info_d.has_func_id, info_s.has_func_id);
        assert_eq!(info_d.params, info_s.params);
        assert_eq!(info_d.ret, info_s.ret);
        assert_eq!((info_d.matches, info_d.alignment_len), (info_s.matches, info_s.alignment_len));
        assert!(
            fmsa_ir::verify_module(&spec_m).is_empty(),
            "{:?}",
            fmsa_ir::verify_module(&spec_m)
        );
    }

    #[test]
    fn speculative_evaluation_matches_post_transplant_evaluation() {
        use crate::callsites::CallSiteIndex;
        use crate::profitability::evaluate_indexed;
        use fmsa_target::TargetArch;
        let (base, f1, f2) = pair_module();
        // A caller so the δ term sees non-trivial call-site counts.
        let mut base = base;
        let i32t = base.types.i32();
        let fn_ty = base.types.func(i32t, vec![i32t]);
        let caller = base.create_function("caller", fn_ty);
        {
            let mut b = FuncBuilder::new(&mut base, caller);
            let e = b.block("entry");
            b.switch_to(e);
            let r = b.call(f1, vec![Value::Param(0), Value::Param(0)]);
            b.ret(Some(r));
        }
        let config = MergeConfig::default();
        let cm = CostModel::new(TargetArch::X86_64);
        let sites = CallSiteIndex::build(&base);
        let seq1 = linearize(base.func(f1));
        let seq2 = linearize(base.func(f2));
        let al = align_with(&base, f1, f2, &seq1, &seq2, &config.scoring, config.algorithm);
        let mut m = base.clone();
        let spec = speculate_merge(&m, f1, f2, &seq1, &seq2, al, &config).expect("builds");
        let before = evaluate_speculative(&m, &cm, &spec, &sites);
        let info = commit_speculative(&mut m, spec, &config).expect("transplants");
        let after = evaluate_indexed(&m, &cm, &info, &sites);
        assert_eq!(before, after, "pre-transplant Δ must equal post-transplant Δ");
    }

    #[test]
    fn discard_replays_type_interning_only() {
        let (base, f1, f2) = pair_module();
        let config = MergeConfig::default();
        let seq1 = linearize(base.func(f1));
        let seq2 = linearize(base.func(f2));
        let al = align_with(&base, f1, f2, &seq1, &seq2, &config.scoring, config.algorithm);
        // Direct codegen, then removal: the types stay interned.
        let mut direct = base.clone();
        let info = merge_pair_aligned(
            &mut direct,
            f1,
            f2,
            seq1.clone(),
            seq2.clone(),
            al.clone(),
            &config,
        )
        .expect("builds");
        direct.remove_function(info.merged);
        // Speculative build, then discard: same store, same text.
        let mut spec_m = base.clone();
        let spec = speculate_merge(&spec_m, f1, f2, &seq1, &seq2, al, &config).expect("builds");
        spec.discard_into(&mut spec_m);
        assert_eq!(spec_m.types.len(), direct.types.len(), "type interning must be replayed");
        assert_eq!(print_module(&direct), print_module(&spec_m));
    }

    #[test]
    fn speculation_leaves_the_main_module_untouched() {
        let (base, f1, f2) = pair_module();
        let config = MergeConfig::default();
        let seq1 = linearize(base.func(f1));
        let seq2 = linearize(base.func(f2));
        let al = align_with(&base, f1, f2, &seq1, &seq2, &config.scoring, config.algorithm);
        let before = print_module(&base);
        let types_before = base.types.len();
        let spec = speculate_merge(&base, f1, f2, &seq1, &seq2, al, &config).expect("builds");
        assert_eq!(print_module(&base), before);
        assert_eq!(base.types.len(), types_before, "no types interned into the donor");
        drop(spec);
    }
}
