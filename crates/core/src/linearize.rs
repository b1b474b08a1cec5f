//! Linearization of CFGs into sequences (paper §III-B).
//!
//! "It takes the CFG of the function, specifies a traversal order of the
//! basic blocks, and for each block outputs its label and its instructions.
//! ... We empirically chose a reverse post-order traversal with a canonical
//! ordering of successor basic blocks."

use crate::equivalence::{entry_key, KeyInterner};
use fmsa_ir::{cfg, BlockId, FuncId, Function, IdHashMap, IdHashSet, InstId, Module};
use std::sync::Arc;

/// One element of a linearized function: the alphabet of the sequence
/// alignment is "all possible typed instructions and labels" (§III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Entry {
    /// A basic-block label.
    Label(BlockId),
    /// An instruction.
    Inst(InstId),
}

impl Entry {
    /// The block id, if this is a label.
    pub fn as_label(&self) -> Option<BlockId> {
        match self {
            Entry::Label(b) => Some(*b),
            Entry::Inst(_) => None,
        }
    }

    /// The instruction id, if this is an instruction.
    pub fn as_inst(&self) -> Option<InstId> {
        match self {
            Entry::Inst(i) => Some(*i),
            Entry::Label(_) => None,
        }
    }
}

/// Linearizes `f`: reverse post-order over reachable blocks, emitting each
/// block's label followed by its instructions in block order. Instruction
/// order inside blocks is preserved, and CFG edges stay implicit in branch
/// operands, exactly as in the paper's Fig. 4.
pub fn linearize(f: &Function) -> Vec<Entry> {
    let mut out = Vec::with_capacity(f.inst_count() + f.block_count());
    for b in cfg::reverse_post_order(f) {
        out.push(Entry::Label(b));
        out.extend(f.block(b).insts.iter().map(|&i| Entry::Inst(i)));
    }
    out
}

/// One function's cached linearization and its key sequence:
/// `keys[k]` is the interned §III-D key of `entries[k]` (see
/// [`crate::equivalence`]), so two entries of different functions are
/// equivalent exactly when their keys are equal.
#[derive(Debug, Clone)]
pub struct Linearized {
    /// The linearization ([`linearize`]).
    pub entries: Arc<[Entry]>,
    /// The interned key of each entry.
    pub keys: Arc<[u32]>,
}

impl Linearized {
    fn compute(module: &Module, f: FuncId, interner: &KeyInterner) -> Linearized {
        let entries = linearize(module.func(f));
        let keys = interner.keys(module, f, &entries);
        Linearized { entries: Arc::from(entries), keys: Arc::from(keys) }
    }
}

/// A cache of linearizations and their key sequences, keyed by function
/// id.
///
/// The paper's loop linearizes both functions of every merge attempt,
/// so a function that appears as a candidate of many subjects is
/// re-linearized once per attempt. The pipeline keeps one
/// [`LinearizationCache`] for the whole pass and invalidates entries only
/// when a commit mutates the function (thunked originals, rewritten
/// callers), so each function is linearized, and its keys built, once per
/// *generation* instead of once per attempt. All keys come from the one
/// [`KeyInterner`] the cache owns, so key sequences of any two cached
/// functions are comparable; invalidating a function drops its keys with
/// its linearization.
///
/// Entries are `Arc`s so the read-only parallel prepare stage can share
/// them across workers without cloning; the cache itself is filled
/// sequentially (it hands out shared references once populated). It is
/// keyed by program-assigned `FuncId`s, so it hashes with
/// [`fmsa_ir::IdHashMap`]; the interner's keys hold module content and
/// keep the standard hasher.
#[derive(Debug, Default)]
pub struct LinearizationCache {
    map: IdHashMap<FuncId, Linearized>,
    interner: KeyInterner,
}

impl LinearizationCache {
    /// An empty cache.
    pub fn new() -> LinearizationCache {
        LinearizationCache::default()
    }

    /// The linearization of `f`, computing and caching it on a miss.
    pub fn get(&mut self, module: &Module, f: FuncId) -> Linearized {
        let interner = &self.interner;
        self.map.entry(f).or_insert_with(|| Linearized::compute(module, f, interner)).clone()
    }

    /// The cached linearization of `f`, if present (lock-free read path
    /// for workers; the scheduler pre-fills entries before a generation).
    pub fn cached(&self, f: FuncId) -> Option<&Linearized> {
        self.map.get(&f)
    }

    /// Fills the cache for every function of `funcs` not already present,
    /// computing the missing linearizations and keys on `pool` (inline on
    /// a single-thread pool). Returns the summed per-function compute time
    /// — the stage's CPU time, reported against its wall-clock by the
    /// pipeline. [`linearize`] is deterministic, the insertions are keyed
    /// by function id, and key ids only ever meet in equality tests, so a
    /// pre-filled cache is indistinguishable from one filled by sequential
    /// [`LinearizationCache::get`] calls.
    pub fn prefill(
        &mut self,
        module: &Module,
        funcs: &[FuncId],
        pool: &rayon::ThreadPool,
    ) -> std::time::Duration {
        let mut misses: Vec<FuncId> = Vec::new();
        let mut seen: IdHashSet<FuncId> = IdHashSet::default();
        for &f in funcs {
            if !self.map.contains_key(&f) && seen.insert(f) {
                misses.push(f);
            }
        }
        let cpu = std::sync::atomic::AtomicU64::new(0);
        let interner = &self.interner;
        let computed = pool.par_map(&misses, |_, &f| {
            let t = std::time::Instant::now();
            let lin = Linearized::compute(module, f, interner);
            cpu.fetch_add(t.elapsed().as_nanos() as u64, std::sync::atomic::Ordering::Relaxed);
            (f, lin)
        });
        self.map.extend(computed);
        std::time::Duration::from_nanos(cpu.into_inner())
    }

    /// Drops the entry for `f` (call when the function body changed or the
    /// function was removed).
    pub fn invalidate(&mut self, f: FuncId) {
        self.map.remove(&f);
    }

    /// Checks the cached linearization and keys of `f`, if any, against
    /// freshly computed ones (the same interner resolves the fresh keys;
    /// keyless entries must hold fresh ids). Returns what differs.
    pub(crate) fn audit(&self, module: &Module, f: FuncId) -> Option<String> {
        let cached = self.map.get(&f)?;
        let func = module.func(f);
        let name = &func.name;
        if cached.entries[..] != linearize(func)[..] {
            return Some(format!("{name}: cached linearization is stale"));
        }
        let mut key = Vec::new();
        for (k, (&e, &id)) in cached.entries.iter().zip(cached.keys.iter()).enumerate() {
            key.clear();
            let fresh = if entry_key(module, func, e, &mut key) {
                self.interner.lookup(&key) == Some(id)
            } else {
                KeyInterner::is_fresh(id)
            };
            if !fresh {
                return Some(format!("{name}: cached key {id:#x} of entry {k} ({e:?}) is stale"));
            }
        }
        None
    }

    /// Number of cached functions.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// The record of a key audit ([`crate::pipeline::run_key_audited`]): at
/// every commit attempt, the cached linearization and keys of both
/// functions are compared with fresh ones.
#[derive(Debug, Clone, Default)]
pub struct KeyAudit {
    /// Cached functions checked (two per attempt).
    pub checked: usize,
    /// What differed, one line per stale function.
    pub mismatches: Vec<String>,
}

impl KeyAudit {
    /// Whether every checked function's cache entry was fresh.
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Audits the cache entry of `f`.
    pub(crate) fn check(&mut self, cache: &LinearizationCache, module: &Module, f: FuncId) {
        self.checked += 1;
        if let Some(mismatch) = cache.audit(module, f) {
            self.mismatches.push(mismatch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmsa_ir::{FuncBuilder, IntPredicate, Module, Value};

    fn diamond_module() -> (Module, fmsa_ir::FuncId) {
        let mut m = Module::new("m");
        let i32t = m.types.i32();
        let fn_ty = m.types.func(i32t, vec![i32t]);
        let f = m.create_function("f", fn_ty);
        let mut b = FuncBuilder::new(&mut m, f);
        let entry = b.block("entry");
        let t = b.block("t");
        let e = b.block("e");
        let join = b.block("join");
        b.switch_to(entry);
        let c = b.icmp(IntPredicate::Sgt, Value::Param(0), b.const_i32(0));
        b.condbr(c, t, e);
        b.switch_to(t);
        b.br(join);
        b.switch_to(e);
        b.br(join);
        b.switch_to(join);
        b.ret(Some(Value::Param(0)));
        (m, f)
    }

    #[test]
    fn label_then_instructions() {
        let (m, f) = diamond_module();
        let seq = linearize(m.func(f));
        // 4 labels + 5 instructions.
        assert_eq!(seq.len(), 9);
        assert!(matches!(seq[0], Entry::Label(_)));
        assert!(matches!(seq[1], Entry::Inst(_))); // icmp
        assert!(matches!(seq[2], Entry::Inst(_))); // condbr
        assert!(matches!(seq[3], Entry::Label(_))); // then
        let labels = seq.iter().filter(|e| e.as_label().is_some()).count();
        assert_eq!(labels, 4);
    }

    #[test]
    fn instruction_order_within_blocks_preserved() {
        let (m, f) = diamond_module();
        let seq = linearize(m.func(f));
        let func = m.func(f);
        // For each block, the instruction subsequence after its label must
        // equal the block's instruction list.
        let mut idx = 0;
        while idx < seq.len() {
            let Entry::Label(b) = seq[idx] else { panic!("expected label at {idx}") };
            let insts = &func.block(b).insts;
            for (k, &expect) in insts.iter().enumerate() {
                assert_eq!(seq[idx + 1 + k], Entry::Inst(expect));
            }
            idx += 1 + insts.len();
        }
    }

    #[test]
    fn deterministic_linearization() {
        let (m, f) = diamond_module();
        assert_eq!(linearize(m.func(f)), linearize(m.func(f)));
    }

    #[test]
    fn declarations_linearize_empty() {
        let mut m = Module::new("m");
        let fn_ty = m.types.func(m.types.void(), vec![]);
        let f = m.create_function("decl", fn_ty);
        assert!(linearize(m.func(f)).is_empty());
    }

    #[test]
    fn prefill_matches_sequential_gets() {
        let (m, f) = diamond_module();
        let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().expect("pool");
        let mut cache = LinearizationCache::new();
        cache.prefill(&m, &[f, f], &pool);
        assert_eq!(cache.len(), 1, "duplicates collapse to one entry");
        let mut seq_cache = LinearizationCache::new();
        let pre = cache.cached(f).expect("pre-filled");
        let seq = seq_cache.get(&m, f);
        assert_eq!(pre.entries[..], seq.entries[..]);
        assert_eq!(pre.keys.len(), seq.keys.len());
        assert!(cache.audit(&m, f).is_none());
        // Pre-filling again is a no-op on hits.
        cache.prefill(&m, &[f], &pool);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn audit_flags_an_entry_a_mutation_left_stale() {
        let (mut m, f) = diamond_module();
        let mut cache = LinearizationCache::new();
        cache.get(&m, f);
        assert!(cache.audit(&m, f).is_none());
        // Flip the icmp's predicate without invalidating: same entries,
        // different key.
        let icmp = m.func(f).inst_ids()[0];
        m.func_mut(f).inst_mut(icmp).extra = fmsa_ir::ExtraData::ICmp(IntPredicate::Slt);
        assert!(cache.audit(&m, f).expect("stale key").contains("stale"));
        cache.invalidate(f);
        cache.get(&m, f);
        assert!(cache.audit(&m, f).is_none());
    }

    #[test]
    fn cache_returns_same_sequence_and_invalidates() {
        let (m, f) = diamond_module();
        let mut cache = LinearizationCache::new();
        assert!(cache.cached(f).is_none());
        let a = cache.get(&m, f);
        assert_eq!(&a.entries[..], &linearize(m.func(f))[..]);
        // Second fetch shares the same allocations.
        let b = cache.get(&m, f);
        assert!(Arc::ptr_eq(&a.entries, &b.entries));
        assert!(Arc::ptr_eq(&a.keys, &b.keys));
        assert_eq!(cache.len(), 1);
        assert!(cache.cached(f).is_some());
        cache.invalidate(f);
        assert!(cache.cached(f).is_none());
        assert!(cache.is_empty());
    }
}
