//! The paper's best MiBench result (§V-B): in `rijndael`, FMSA merges the
//! two giant `encrypt`/`decrypt` functions — over 70% of the program — for
//! a 20.6% object-file reduction, while Identical and SOA find nothing.
//! This example reproduces that situation on the rijndael-calibrated
//! synthetic module.
//!
//! ```sh
//! cargo run --release --example rijndael
//! ```

use fmsa::core::baselines::{run_identical, run_soa};
use fmsa::target::{reduction_percent, CostModel, TargetArch};
use fmsa::Config;

fn main() {
    let desc = fmsa::workloads::mibench_suite()
        .into_iter()
        .find(|d| d.name == "rijndael")
        .expect("rijndael in the MiBench suite");
    let module = desc.build();
    let cm = CostModel::new(TargetArch::X86_64);
    let before = cm.module_size(&module);
    println!("rijndael-calibrated module: {} functions, {} bytes", module.func_count(), before);
    let (_, avg, max) = module.size_stats();
    println!("average function size {avg:.0} insts, largest {max} insts");

    let mut m = module.clone();
    let ident = run_identical(&mut m, TargetArch::X86_64);
    println!("\nIdentical: {} merges, {:.2}% reduction", ident.merges, ident.reduction_percent());

    let mut m = module.clone();
    let soa = run_soa(&mut m, TargetArch::X86_64);
    println!("SOA      : {} merges, {:.2}% reduction", soa.merges, soa.reduction_percent());

    let mut m = module.clone();
    let stats = fmsa::optimize(&mut m, &Config::new().identical_prepass(false)).expect("merges");
    let after = cm.module_size(&m);
    println!(
        "FMSA     : {} merges, {:.2}% reduction (paper: 20.6%)",
        stats.merges,
        reduction_percent(before, after)
    );
    // The winning merge is the giant pair.
    let merged = m
        .func_ids()
        .into_iter()
        .filter(|&f| m.func(f).name.starts_with("__merged"))
        .max_by_key(|&f| m.func(f).inst_count());
    if let Some(f) = merged {
        println!(
            "largest merged function: @{} with {} instructions",
            m.func(f).name,
            m.func(f).inst_count()
        );
    }
}
