//! Steadiness evidence: runs each workload of `BENCHMARK.json` [`RUNS`]
//! times per seed set, each run with its own seed and `run_seconds`
//! long, and prints every end-to-end metric's median, quartiles and
//! spread next to the bound `BENCHMARK.json` gives it. It also prints
//! how far the held-out set's medians moved from the default set's.

use crate::json::{self, Value};
use crate::stats::{median, quartiles, spread};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

/// Runs per seed set.
const RUNS: u64 = 10;

/// First seeds of the default and the held-out seed set; run k of a set
/// uses seed base + k.
const SEED_SETS: [u64; 2] = [21, 2001];

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn benchmark_json() -> Result<Value, String> {
    let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text)
}

/// One benchmark run in a child process; the metrics of its result line.
fn child(workload: &str, seed: u64, seconds: f64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("spawning a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let v = json::parse(last).map_err(|e| format!("{workload} seed {seed}: {e}: {last}"))?;
    if !out.status.success() || v.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!("{workload} seed {seed} failed:\n{stdout}"));
    }
    let mut metrics = BTreeMap::new();
    if let Some(Value::Obj(m)) = v.get("metrics") {
        for (name, m) in m {
            if let Some(x) = m.get("value").and_then(Value::num) {
                metrics.insert(name.clone(), x);
            }
        }
    }
    Ok(metrics)
}

/// `perfbench --steady`; returns the exit code.
pub fn main() -> i32 {
    match steady() {
        Ok(ok) => i32::from(!ok),
        Err(e) => {
            eprintln!("perfbench --steady: {e}");
            2
        }
    }
}

fn steady() -> Result<bool, String> {
    let bench = benchmark_json()?;
    let workloads: Vec<String> = bench
        .get("workloads")
        .map(|w| w.arr().iter().filter_map(|x| x.get("name")?.str().map(str::to_owned)).collect())
        .unwrap_or_default();
    let seconds = bench.get("run_seconds").and_then(Value::num).ok_or("no run_seconds")?;
    let bounds: Vec<Bound> = bench
        .get("end_to_end")
        .map(Value::arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some(Bound {
                name: m.get("name")?.str()?.to_owned(),
                lower_is_better: m.get("better")?.str()? == "lower",
                bound: m.get("bound")?.num()?,
            })
        })
        .collect();

    let mut all_ok = true;
    for w in &workloads {
        // medians[set][metric]
        let mut medians: Vec<BTreeMap<String, f64>> = Vec::new();
        for base in SEED_SETS {
            let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
            for k in 0..RUNS {
                let seed = base + k;
                eprintln!("perfbench --steady: {w} seed {seed}");
                for (name, v) in child(w, seed, seconds)? {
                    values.entry(name).or_default().push(v);
                }
            }
            println!("\n{w}, seeds {base}..{}, {RUNS} runs of {seconds} s:", base + RUNS - 1);
            println!(
                "  {:<20} {:>12} {:>12} {:>12} {:>8} {:>7}  verdict",
                "metric", "q1", "median", "q3", "spread", "bound"
            );
            let mut set = BTreeMap::new();
            for b in &bounds {
                let Some(v) = values.get(&b.name) else { continue };
                let (q1, _, q3) = quartiles(v);
                let (m, s) = (median(v), spread(v));
                let verdict = if s <= b.bound / 3.0 {
                    "steady"
                } else if s <= b.bound {
                    "within bound"
                } else {
                    all_ok = false;
                    "TOO WIDE"
                };
                println!(
                    "  {:<20} {q1:>12.5} {m:>12.5} {q3:>12.5} {s:>8.4} {:>7.3}  {verdict}",
                    b.name, b.bound
                );
                set.insert(b.name.clone(), m);
            }
            medians.push(set);
        }
        if let [first, second] = medians.as_slice() {
            println!("  median drift between the two seed sets (worse direction positive):");
            for b in &bounds {
                let (Some(&a), Some(&c)) = (first.get(&b.name), second.get(&b.name)) else {
                    continue;
                };
                let worse = if b.lower_is_better { (c - a) / a } else { (a - c) / a };
                let ok = worse <= b.bound;
                all_ok &= ok;
                println!(
                    "  {:<20} {:>+8.4} of {:>7.3}  {}",
                    b.name,
                    worse,
                    b.bound,
                    if ok { "ok" } else { "WORSE THAN BOUND" }
                );
            }
        }
    }
    Ok(all_ok)
}
