//! Criterion microbenchmarks for the sequence-alignment kernels — the
//! component that dominates FMSA's compile time (paper Fig. 13).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fmsa_align::{banded_needleman_wunsch, needleman_wunsch, plan, AlignPlan, ScoringScheme, BAND};
use fmsa_core::fingerprint::Fingerprint;
use fmsa_core::profitability::delta_bound;
use fmsa_core::ranking::rank_candidates;
use fmsa_core::{linearize, Entry, KeyInterner, MergeConfig};
use fmsa_ir::{FuncId, Module};
use fmsa_target::{CostModel, TargetArch};
use fmsa_workloads::{clone_swarm_module, SwarmConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_seq(seed: u64, len: usize, alphabet: u8) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(0..alphabet)).collect()
}

fn bench_alignment(c: &mut Criterion) {
    let scheme = ScoringScheme::default();
    let mut group = c.benchmark_group("alignment");
    for &len in &[64usize, 256, 1024, 8192] {
        let a = random_seq(1, len, 12);
        let b = random_seq(2, len, 12);
        // At 8 192 the budget only ever bands: no full-matrix row there.
        if plan(len, len) == AlignPlan::Full {
            group.bench_with_input(BenchmarkId::new("needleman-wunsch", len), &len, |bch, _| {
                bch.iter(|| needleman_wunsch(&a, &b, |x, y| x == y, &scheme));
            });
        }
        // The band the budget runs on pairs over its cell cap.
        group.bench_with_input(BenchmarkId::new(format!("banded-{BAND}"), len), &len, |bch, _| {
            bch.iter(|| banded_needleman_wunsch(&a, &b, |x, y| x == y, &scheme, BAND));
        });
    }
    group.finish();
}

fn bench_alignment_similar_inputs(c: &mut Criterion) {
    // Near-identical sequences — the common case for ranked candidates.
    let scheme = ScoringScheme::default();
    let a = random_seq(3, 512, 12);
    let mut b = a.clone();
    for k in (0..b.len()).step_by(17) {
        b[k] = b[k].wrapping_add(1);
    }
    c.bench_function("alignment/nw-near-identical-512", |bch| {
        bch.iter(|| needleman_wunsch(&a, &b, |x, y| x == y, &scheme));
    });
}

/// One ranked pair of a clone swarm: both functions with their
/// linearizations and §III-D key sequences.
struct SwarmPair {
    funcs: (FuncId, FuncId),
    entries: (Vec<Entry>, Vec<Entry>),
    keys: (Vec<u32>, Vec<u32>),
}

/// A clone swarm and its pairs, paired the way the pass pairs them: each
/// function with its top-ranked candidate.
fn swarm_pairs(functions: usize) -> (Module, Vec<SwarmPair>) {
    let m = clone_swarm_module(&SwarmConfig::with_functions(functions));
    let interner = KeyInterner::new();
    let ids = m.func_ids();
    let fps: Vec<_> = ids.iter().map(|&f| (f, Fingerprint::of(&m, f))).collect();
    let lin = |f| {
        let entries = linearize(m.func(f));
        let keys = interner.keys(&m, f, &entries);
        (entries, keys)
    };
    let pairs = fps
        .iter()
        .filter_map(|(f1, fp1)| {
            let others = fps.iter().filter(|(f, _)| f != f1).map(|(f, fp)| (*f, fp));
            let best = rank_candidates(*f1, fp1, others, 1, 0.0).into_iter().next()?;
            let ((e1, k1), (e2, k2)) = (lin(*f1), lin(best.func));
            Some(SwarmPair { funcs: (*f1, best.func), entries: (e1, e2), keys: (k1, k2) })
        })
        .collect();
    (m, pairs)
}

fn bench_swarm_keys(c: &mut Criterion) {
    // What the merge pass aligns: interned §III-D keys of real functions.
    let scheme = ScoringScheme::default();
    let (_, pairs) = swarm_pairs(300);
    let cells: usize = pairs.iter().map(|p| (p.keys.0.len() + 1) * (p.keys.1.len() + 1)).sum();
    let mut group = c.benchmark_group("alignment-swarm-keys");
    group.throughput(Throughput::Elements(cells as u64));
    group.bench_function(format!("needleman-wunsch/{}-pairs", pairs.len()), |bch| {
        bch.iter(|| {
            pairs
                .iter()
                .map(|p| needleman_wunsch(&p.keys.0, &p.keys.1, |x, y| x == y, &scheme).score)
                .sum::<i64>()
        });
    });
    group.finish();
}

fn bench_delta_bound(c: &mut Criterion) {
    // The Δ bound of the same pairs under their alignments, per pair
    // (`ns/elem`), to read next to the alignment's cost.
    let scheme = ScoringScheme::default();
    let (m, pairs) = swarm_pairs(300);
    let cm = CostModel::new(TargetArch::X86_64);
    let config = MergeConfig::default();
    let aligned: Vec<_> = pairs
        .iter()
        .map(|p| (p, needleman_wunsch(&p.keys.0, &p.keys.1, |x, y| x == y, &scheme)))
        .collect();
    let mut group = c.benchmark_group("delta-bound");
    group.throughput(Throughput::Elements(aligned.len() as u64));
    group.bench_function(format!("{}-pairs", aligned.len()), |bch| {
        bch.iter(|| {
            aligned
                .iter()
                .filter_map(|(p, al)| {
                    let (f1, f2) = p.funcs;
                    let (e1, e2) = (&p.entries.0, &p.entries.1);
                    delta_bound(&m, &cm, f1, f2, e1, e2, al, &config).ok().map(|b| b.bound)
                })
                .sum::<i64>()
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_alignment,
    bench_alignment_similar_inputs,
    bench_swarm_keys,
    bench_delta_bound
);
criterion_main!(benches);
