//! Criterion benchmarks of the per-module fixed costs around the merge
//! pipeline: the identical-function prepass on the suite module with the
//! most folds (`483.xalancbmk`), and printing the optimized module.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use fmsa_core::baselines::run_identical;
use fmsa_core::{optimize, Config};
use fmsa_ir::printer::print_module;
use fmsa_target::TargetArch;
use fmsa_workloads::spec_suite;

fn xalancbmk_module() -> fmsa_ir::Module {
    spec_suite()
        .into_iter()
        .find(|d| d.name == "483.xalancbmk")
        .expect("xalancbmk in suite")
        .build()
}

fn bench_fixed_costs(c: &mut Criterion) {
    let mut group = c.benchmark_group("fixed-costs-xalancbmk");
    group.sample_size(10);
    group.bench_function("identical", |b| {
        b.iter_batched(
            xalancbmk_module,
            |mut m| run_identical(&mut m, TargetArch::X86_64),
            BatchSize::SmallInput,
        );
    });
    let mut optimized = xalancbmk_module();
    optimize(&mut optimized, &Config::new()).expect("optimize");
    group.bench_function("print", |b| b.iter(|| print_module(&optimized)));
    group.finish();
}

criterion_group!(benches, bench_fixed_costs);
criterion_main!(benches);
