//! Criterion end-to-end benchmarks: the three techniques over a calibrated
//! benchmark module, plus the interpreter throughput that Fig. 14 depends
//! on.

use criterion::{criterion_group, criterion_main, Criterion};
use fmsa_core::baselines::{run_identical, run_soa};
use fmsa_core::{optimize, Config};
use fmsa_target::TargetArch;
use fmsa_workloads::spec_suite;

fn libquantum_module() -> fmsa_ir::Module {
    spec_suite()
        .into_iter()
        .find(|d| d.name == "462.libquantum")
        .expect("libquantum in suite")
        .build()
}

fn milc_module() -> fmsa_ir::Module {
    spec_suite().into_iter().find(|d| d.name == "433.milc").expect("milc in suite").build()
}

fn bench_techniques(c: &mut Criterion) {
    let mut group = c.benchmark_group("full-pass-milc");
    group.sample_size(10);
    group.bench_function("identical", |b| {
        b.iter_batched(
            milc_module,
            |mut m| run_identical(&mut m, TargetArch::X86_64),
            criterion::BatchSize::SmallInput,
        );
    });
    group.bench_function("soa", |b| {
        b.iter_batched(
            milc_module,
            |mut m| run_soa(&mut m, TargetArch::X86_64),
            criterion::BatchSize::SmallInput,
        );
    });
    for t in [1usize, 10] {
        group.bench_function(format!("fmsa-t{t}"), |b| {
            b.iter_batched(
                milc_module,
                |mut m| optimize(&mut m, &Config::new().threshold(t).identical_prepass(false)),
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.bench_function("fmsa-oracle", |b| {
        b.iter_batched(
            libquantum_module, // oracle is quadratic; use the small module
            |mut m| optimize(&mut m, &Config::new().oracle(true).identical_prepass(false)),
            criterion::BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_interpreter(c: &mut Criterion) {
    let mut m = libquantum_module();
    let (_, _) = fmsa_workloads::add_driver(&mut m, &fmsa_workloads::DriverConfig::default());
    c.bench_function("interpreter/libquantum-driver", |b| {
        b.iter(|| {
            let mut interp = fmsa_interp::Interpreter::new(&m);
            interp.set_fuel(50_000_000);
            interp.run("__driver", vec![]).expect("driver runs")
        });
    });
}

criterion_group!(benches, bench_techniques, bench_interpreter);
criterion_main!(benches);
