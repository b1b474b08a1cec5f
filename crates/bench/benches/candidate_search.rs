//! Criterion benchmarks for the candidate-search subsystem: exact pairwise
//! ranking vs MinHash/LSH shortlisting at increasing module sizes, as both
//! a per-query microbenchmark and a whole-index build.
//!
//! The quadratic→near-linear crossover shows up as the "all-queries" exact
//! numbers growing ~n² while the LSH numbers grow ~n.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fmsa_core::fingerprint::Fingerprint;
use fmsa_core::search::{CandidateSearch, ExactSearch, LshSearch};
use fmsa_ir::{FuncId, Module};
use fmsa_workloads::{clone_swarm_module, SwarmConfig};
use std::collections::HashMap;

fn swarm_fingerprints(functions: usize) -> (Module, Vec<FuncId>, HashMap<FuncId, Fingerprint>) {
    let m = clone_swarm_module(&SwarmConfig::with_functions(functions));
    let ids = m.func_ids();
    let fps = ids.iter().map(|&f| (f, Fingerprint::of(&m, f))).collect();
    (m, ids, fps)
}

fn build_index<S: CandidateSearch>(
    mut index: S,
    ids: &[FuncId],
    fps: &HashMap<FuncId, Fingerprint>,
) -> S {
    for &f in ids {
        index.insert(f, fps[&f].clone());
    }
    index
}

fn bench_index_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("search-build");
    for &n in &[100usize, 1000, 5000] {
        let (_m, ids, fps) = swarm_fingerprints(n);
        group.bench_with_input(BenchmarkId::new("exact", n), &n, |b, _| {
            b.iter(|| build_index(ExactSearch::new(), &ids, &fps).len());
        });
        group.bench_with_input(BenchmarkId::new("lsh", n), &n, |b, _| {
            b.iter(|| build_index(LshSearch::new(), &ids, &fps).len());
        });
    }
    group.finish();
}

fn bench_all_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("search-all-queries-top10");
    for &n in &[100usize, 1000, 5000] {
        let (_m, ids, fps) = swarm_fingerprints(n);
        let exact = build_index(ExactSearch::new(), &ids, &fps);
        let lsh = build_index(LshSearch::new(), &ids, &fps);
        group.bench_with_input(BenchmarkId::new("exact", n), &n, |b, _| {
            b.iter(|| ids.iter().map(|&f| exact.candidates(f, 10, 0.0).len()).sum::<usize>());
        });
        group.bench_with_input(BenchmarkId::new("lsh", n), &n, |b, _| {
            b.iter(|| ids.iter().map(|&f| lsh.candidates(f, 10, 0.0).len()).sum::<usize>());
        });
    }
    group.finish();
}

fn bench_incremental_update(c: &mut Criterion) {
    // The feedback-loop operation: remove two functions, insert one.
    let (_m, ids, fps) = swarm_fingerprints(1000);
    let mut group = c.benchmark_group("search-update");
    group.bench_function("lsh-remove2-insert1", |b| {
        let mut lsh = build_index(LshSearch::new(), &ids, &fps);
        let (a, z) = (ids[0], ids[1]);
        b.iter(|| {
            lsh.remove(a);
            lsh.remove(z);
            lsh.insert(a, fps[&a].clone());
            lsh.insert(z, fps[&z].clone());
        });
    });
    group.finish();
}

criterion_group!(benches, bench_index_build, bench_all_queries, bench_incremental_update);
criterion_main!(benches);
