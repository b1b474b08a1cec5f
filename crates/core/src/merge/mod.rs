//! Merging two arbitrary functions by sequence alignment (paper §III).
//!
//! [`merge_pair`] is the whole §III pipeline for one pair: linearize both
//! functions, align the sequences, merge parameter lists and return types,
//! then generate the merged body in two passes. The merged function is
//! *added* to the module; committing it (thunks, call-graph update,
//! deleting the originals) is the pass driver's job so that unprofitable
//! merges can simply be discarded.

pub mod codegen;
pub mod params;

pub use params::{merge_params, ParamMerge};

use crate::equivalence::KeyInterner;
use crate::linearize::{linearize, Entry};
use fmsa_align::{needleman_wunsch, Alignment, ScoringScheme, Step};
use fmsa_ir::{FuncId, Module, TyId, Type};
use std::error::Error;
use std::fmt;

/// Tunables for one merge.
#[derive(Debug, Clone)]
pub struct MergeConfig {
    /// Reuse parameters between the two functions (§III-E; the ablation
    /// knob behind the paper's "up to 7%" claim).
    pub reuse_params: bool,
}

impl Default for MergeConfig {
    fn default() -> Self {
        MergeConfig { reuse_params: true }
    }
}

/// Why a pair could not be merged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// One of the functions is a declaration.
    Declaration,
    /// Attempted to merge a function with itself.
    SameFunction,
    /// Return types cannot be merged (differing aggregate returns).
    IncompatibleReturns,
    /// One of the functions is varargs: its callers may pass arguments
    /// that the merged function has no params for.
    Varargs,
    /// Code generation refused the pair: the block layout or an operand
    /// could not be built (returned rather than panicking so the pass can
    /// skip the pair).
    InvalidCodegen(String),
    /// The verifier rejected the built body, which is removed again;
    /// carries the first verifier error. This indicates a codegen bug, so
    /// the pipeline quarantines the pair.
    Unverified(String),
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Declaration => write!(f, "cannot merge declarations"),
            MergeError::SameFunction => write!(f, "cannot merge a function with itself"),
            MergeError::IncompatibleReturns => {
                write!(f, "return types cannot be merged")
            }
            MergeError::Varargs => write!(f, "cannot merge a varargs function"),
            MergeError::InvalidCodegen(msg) => write!(f, "merged function invalid: {msg}"),
            MergeError::Unverified(msg) => write!(f, "merged function failed verification: {msg}"),
        }
    }
}

impl Error for MergeError {}

/// How the merged return type relates to the originals (§III-E: "we select
/// the largest one as the base type ... If one of them is void, then ... we
/// just return the non-void type").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetInfo {
    /// Return type of the merged function.
    pub base: TyId,
    /// Original return type of the first function.
    pub ty1: TyId,
    /// Original return type of the second function.
    pub ty2: TyId,
}

/// Everything the pass needs to commit (or discard) a completed merge.
#[derive(Debug, Clone)]
pub struct MergeInfo {
    /// The merged function (already added to the module).
    pub merged: FuncId,
    /// First original.
    pub f1: FuncId,
    /// Second original.
    pub f2: FuncId,
    /// Whether the merged function takes the leading `i1` identifier
    /// (false when the two functions were effectively identical).
    pub has_func_id: bool,
    /// Parameter mapping.
    pub params: ParamMerge,
    /// Return-type merging.
    pub ret: RetInfo,
    /// Number of match columns in the alignment (diagnostics).
    pub matches: usize,
    /// Total alignment length (diagnostics).
    pub alignment_len: usize,
}

/// Computes the merged return type.
///
/// # Errors
///
/// [`MergeError::IncompatibleReturns`] when both types are distinct
/// aggregates (the paper's aggregate-return path is out of scope; see
/// DESIGN.md).
pub fn compute_ret_info(
    types: &fmsa_ir::TypeStore,
    r1: TyId,
    r2: TyId,
) -> Result<RetInfo, MergeError> {
    if r1 == r2 {
        return Ok(RetInfo { base: r1, ty1: r1, ty2: r2 });
    }
    let void1 = matches!(types.get(r1), Type::Void);
    let void2 = matches!(types.get(r2), Type::Void);
    if void1 {
        return Ok(RetInfo { base: r2, ty1: r1, ty2: r2 });
    }
    if void2 {
        return Ok(RetInfo { base: r1, ty1: r1, ty2: r2 });
    }
    if types.is_aggregate(r1) || types.is_aggregate(r2) {
        return Err(MergeError::IncompatibleReturns);
    }
    let s1 = types.bit_size(r1).unwrap_or(0);
    let s2 = types.bit_size(r2).unwrap_or(0);
    let base = if s1 >= s2 { r1 } else { r2 };
    Ok(RetInfo { base, ty1: r1, ty2: r2 })
}

/// Runs the full §III pipeline on `(f1, f2)`, adding the merged function to
/// `module` and returning the mapping information. On error the module is
/// left unchanged.
///
/// # Errors
///
/// See [`MergeError`].
pub fn merge_pair(
    module: &mut Module,
    f1: FuncId,
    f2: FuncId,
    config: &MergeConfig,
) -> Result<MergeInfo, MergeError> {
    if f1 == f2 {
        return Err(MergeError::SameFunction);
    }
    if module.func(f1).is_declaration() || module.func(f2).is_declaration() {
        return Err(MergeError::Declaration);
    }
    // Step 1: linearization (§III-B).
    let seq1 = linearize(module.func(f1));
    let seq2 = linearize(module.func(f2));
    // Step 2: sequence alignment (§III-C).
    let alignment = align(module, f1, f2, &seq1, &seq2);
    merge_pair_aligned(module, f1, f2, seq1, seq2, alignment, config)
}

/// Computes the alignment of two already-linearized functions with
/// Needleman-Wunsch under the paper's scoring scheme
/// ([`ScoringScheme::default`]). Builds both key sequences
/// ([`crate::equivalence`]) and aligns those. Exposed for the pass
/// driver, which times this step separately (paper Fig. 13).
pub fn align(module: &Module, f1: FuncId, f2: FuncId, seq1: &[Entry], seq2: &[Entry]) -> Alignment {
    let interner = KeyInterner::new();
    let keys1 = interner.keys(module, f1, seq1);
    let keys2 = interner.keys(module, f2, seq2);
    needleman_wunsch(&keys1, &keys2, |a, b| a == b, &ScoringScheme::default())
}

/// The parameter, return and identical-function set-up of one merge:
/// everything code generation takes besides the alignment and a name.
/// Computed once, the same way, for every build path and for the
/// pre-codegen Δ bound ([`crate::profitability::delta_bound`]), so the
/// bound always sees the merged signature codegen will emit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeSetup {
    /// Return-type merging.
    pub ret: RetInfo,
    /// Whether the merged function takes the leading `i1` identifier
    /// (false when the alignment shows the two functions identical).
    pub has_func_id: bool,
    /// The merged parameter list.
    pub params: ParamMerge,
}

/// Computes the [`MergeSetup`] of `(f1, f2)` under `alignment`, without
/// touching the module.
///
/// # Errors
///
/// [`MergeError::Varargs`] when either function is varargs, and
/// [`MergeError::IncompatibleReturns`] (see [`compute_ret_info`]).
pub fn merge_setup(
    module: &Module,
    f1: FuncId,
    f2: FuncId,
    seq1: &[Entry],
    seq2: &[Entry],
    alignment: &Alignment,
    config: &MergeConfig,
) -> Result<MergeSetup, MergeError> {
    if [f1, f2].into_iter().any(|f| module.types.is_varargs(module.func(f).fn_ty())) {
        return Err(MergeError::Varargs);
    }
    let ret = compute_ret_info(
        &module.types,
        module.func(f1).ret_ty(&module.types),
        module.func(f2).ret_ty(&module.types),
    )?;
    // "In the special case where we merge identical functions, the output
    // is also identical ... we can remove the extra parameter" (§III-E).
    let has_func_id = !functions_identical(module, f1, f2, seq1, seq2, alignment);
    let params = params::merge_params(
        module.func(f1),
        module.func(f2),
        has_func_id,
        module.types.i1(),
        Some((alignment, seq1, seq2)),
        config.reuse_params,
    );
    Ok(MergeSetup { ret, has_func_id, params })
}

/// The code-generation half of [`merge_pair`], taking a precomputed
/// alignment (used by the pipeline, which aligns on cached keys, and by
/// the SOA baseline which builds its lock-step alignment directly).
///
/// # Errors
///
/// See [`MergeError`].
pub fn merge_pair_aligned(
    module: &mut Module,
    f1: FuncId,
    f2: FuncId,
    seq1: Vec<Entry>,
    seq2: Vec<Entry>,
    alignment: Alignment,
    config: &MergeConfig,
) -> Result<MergeInfo, MergeError> {
    let MergeSetup { ret, has_func_id, params } =
        merge_setup(module, f1, f2, &seq1, &seq2, &alignment, config)?;
    let matches = alignment.match_count();
    let alignment_len = alignment.len();
    let name = unique_name(module, f1, f2);
    let merged = codegen::generate(
        module,
        codegen::CodegenInput { f1, f2, seq1, seq2, alignment, params: params.clone(), ret, name },
    )?;
    Ok(MergeInfo { merged, f1, f2, has_func_id, params, ret, matches, alignment_len })
}

fn unique_name(module: &Module, f1: FuncId, f2: FuncId) -> String {
    let base = format!("__merged.{}.{}", module.func(f1).name, module.func(f2).name);
    if module.func_by_name(&base).is_none() {
        return base;
    }
    let mut k = 1;
    loop {
        let cand = format!("{base}.{k}");
        if module.func_by_name(&cand).is_none() {
            return cand;
        }
        k += 1;
    }
}

/// Whether the alignment shows the two functions to be operand-level
/// identical, so no `func_id`, selects, or guard branches will be needed.
fn functions_identical(
    module: &Module,
    f1: FuncId,
    f2: FuncId,
    seq1: &[Entry],
    seq2: &[Entry],
    alignment: &Alignment,
) -> bool {
    if module.func(f1).fn_ty() != module.func(f2).fn_ty() {
        return false;
    }
    if !alignment.steps.iter().all(Step::is_match) {
        return false;
    }
    // Build positional correspondences and check operands are congruent.
    let fa = module.func(f1);
    let fb = module.func(f2);
    let mut inst_pairs: std::collections::HashMap<fmsa_ir::InstId, fmsa_ir::InstId> =
        std::collections::HashMap::new();
    let mut block_pairs: std::collections::HashMap<fmsa_ir::BlockId, fmsa_ir::BlockId> =
        std::collections::HashMap::new();
    for step in &alignment.steps {
        let Step::Both { i, j, .. } = *step else { return false };
        match (seq1[i], seq2[j]) {
            (Entry::Inst(a), Entry::Inst(b)) => {
                inst_pairs.insert(a, b);
            }
            (Entry::Label(a), Entry::Label(b)) => {
                block_pairs.insert(a, b);
            }
            _ => return false,
        }
    }
    for (&a, &b) in &inst_pairs {
        let ia = fa.inst(a);
        let ib = fb.inst(b);
        if ia.ty != ib.ty || ia.operands.len() != ib.operands.len() {
            return false;
        }
        for (&oa, &ob) in ia.operands.iter().zip(&ib.operands) {
            let congruent = match (oa, ob) {
                (fmsa_ir::Value::Inst(x), fmsa_ir::Value::Inst(y)) => {
                    inst_pairs.get(&x) == Some(&y)
                }
                (fmsa_ir::Value::Block(x), fmsa_ir::Value::Block(y)) => {
                    block_pairs.get(&x) == Some(&y)
                }
                (fmsa_ir::Value::Param(x), fmsa_ir::Value::Param(y)) => x == y,
                (x, y) => x == y,
            };
            if !congruent {
                return false;
            }
        }
    }
    true
}
