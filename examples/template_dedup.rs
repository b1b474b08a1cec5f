//! Template-instantiation deduplication: the C++-flavoured scenario behind
//! dealII/xalancbmk in the paper. A "template" is instantiated at several
//! types; identical merging folds the exact duplicates, but only FMSA also
//! fuses the instantiations that differ in operand widths — and the
//! feedback loop then merges merged functions again.
//!
//! ```sh
//! cargo run --example template_dedup
//! ```

use fmsa::core::baselines::run_identical;
use fmsa::ir::Module;
use fmsa::target::{reduction_percent, CostModel, TargetArch};
use fmsa::workloads::{generate_function, GenConfig, Variant};
use fmsa::Config;

fn build_instantiations() -> Module {
    let mut m = Module::new("templates");
    let cfg =
        GenConfig { target_size: 60, flex_weight: 8, flexf_weight: 6, ..GenConfig::default() };
    // One "template" stamped out six times: two identical i32 copies, two
    // identical i64 copies, one float and one double instantiation.
    let seed = 4242;
    for (name, variant) in [
        ("vec_sum_i32", Variant::exact()),
        ("vec_sum_i32_dup", Variant::exact()),
        ("vec_sum_i64", Variant::typed(true, false)),
        ("vec_sum_i64_dup", Variant::typed(true, false)),
        ("vec_sum_f32", Variant::typed(false, false)),
        ("vec_sum_f64", Variant::typed(false, true)),
    ] {
        generate_function(&mut m, name, seed, &cfg, &variant);
    }
    m
}

fn main() {
    let module = build_instantiations();
    let cm = CostModel::new(TargetArch::X86_64);
    let before = cm.module_size(&module);
    println!(
        "6 instantiations of one template, {} instructions total, {} bytes",
        module.total_insts(),
        before
    );

    // What a production compiler achieves.
    let mut m_ident = module.clone();
    let ident = run_identical(&mut m_ident, TargetArch::X86_64);
    println!(
        "\nIdentical merging folds the exact duplicates: {} merges, {:.1}% reduction",
        ident.merges,
        ident.reduction_percent()
    );

    // FMSA with the feedback loop.
    let mut m = module.clone();
    let stats = fmsa::optimize(&mut m, &Config::new().threshold(5)).expect("module merges");
    let after = cm.module_size(&m);
    println!(
        "FMSA merges across types too: {} more merges, {:.1}% total reduction",
        stats.merges,
        reduction_percent(before, after)
    );
    println!("\nsurviving functions:");
    for f in m.func_ids() {
        let func = m.func(f);
        if !func.is_declaration() {
            println!("  @{:<28} {:>4} insts", func.name, func.inst_count());
        }
    }
}
