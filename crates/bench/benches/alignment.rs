//! Criterion microbenchmarks for the sequence-alignment kernels — the
//! component that dominates FMSA's compile time (paper Fig. 13).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fmsa_align::{banded_needleman_wunsch, needleman_wunsch, plan, AlignPlan, ScoringScheme, BAND};
use fmsa_core::fingerprint::Fingerprint;
use fmsa_core::ranking::rank_candidates;
use fmsa_core::{linearize, KeyInterner};
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

/// Key sequences of a clone swarm, paired the way the pass pairs them:
/// each function with its top-ranked candidate.
fn swarm_key_pairs(functions: usize) -> Vec<(Vec<u32>, Vec<u32>)> {
    let m = clone_swarm_module(&SwarmConfig::with_functions(functions));
    let interner = KeyInterner::new();
    let ids = m.func_ids();
    let fps: Vec<_> = ids.iter().map(|&f| (f, Fingerprint::of(&m, f))).collect();
    let keys = |f| interner.keys(&m, f, &linearize(m.func(f)));
    fps.iter()
        .filter_map(|(f1, fp1)| {
            let others = fps.iter().filter(|(f, _)| f != f1).map(|(f, fp)| (*f, fp));
            let best = rank_candidates(*f1, fp1, others, 1, 0.0).into_iter().next()?;
            Some((keys(*f1), keys(best.func)))
        })
        .collect()
}

fn bench_swarm_keys(c: &mut Criterion) {
    // What the merge pass aligns: interned §III-D keys of real functions.
    let scheme = ScoringScheme::default();
    let pairs = swarm_key_pairs(300);
    let cells: usize = pairs.iter().map(|(a, b)| (a.len() + 1) * (b.len() + 1)).sum();
    let mut group = c.benchmark_group("alignment-swarm-keys");
    group.throughput(Throughput::Elements(cells as u64));
    group.bench_function(format!("needleman-wunsch/{}-pairs", pairs.len()), |bch| {
        bch.iter(|| {
            pairs
                .iter()
                .map(|(a, b)| needleman_wunsch(a, b, |x, y| x == y, &scheme).score)
                .sum::<i64>()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_alignment, bench_alignment_similar_inputs, bench_swarm_keys);
criterion_main!(benches);
