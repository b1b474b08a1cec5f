//! The repository benchmark. One command runs one named workload from a
//! seed, checks that every output is correct, and prints every metric
//! by name with its unit; the last line of standard output is the JSON
//! result. See `perfbench/README.md` for the workloads and metrics.
//!
//! ```text
//! perfbench --workload swarm|suite|serve --seed N --seconds S --trace 0|1
//! perfbench --steady
//! ```

mod batch;
mod check;
mod compile;
mod json;
mod serve;
mod stats;
mod steady;
mod trace;

use stats::{beyond, latencies_with_refusals, percentile, Tally};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

/// Set-up repetitions one round makes at least.
const SETUP_MIN_REPS: usize = 5;

/// Seconds one round of set-up repetitions lasts at least.
const SETUP_ROUND_S: f64 = 0.3;

/// One round of set-up: calls `once(rep)` (which sets up once and
/// returns its seconds) until the round has lasted [`SETUP_ROUND_S`]
/// and made [`SETUP_MIN_REPS`] repetitions.
pub fn setup_round(
    times: &mut Vec<f64>,
    mut once: impl FnMut(usize) -> Result<f64, String>,
) -> Result<(), String> {
    let (t0, first) = (Instant::now(), times.len());
    loop {
        times.push(once(times.len())?);
        if times.len() - first >= SETUP_MIN_REPS && t0.elapsed().as_secs_f64() >= SETUP_ROUND_S {
            return Ok(());
        }
    }
}

/// Hands the memory the allocator holds free back to the system, so
/// that every set-up repetition starts from the same heap. Without it,
/// whether the allocator still held the previous repetition's pages
/// made a `swarm` set-up take about 34 or 49 ms, from round to round.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` only returns free heap pages to the
        // system; no live allocation is touched.
        unsafe { malloc_trim(0) };
    }
}

/// Runs one round of set-up in a fresh child process and adds its
/// times to `times`. A run makes its first round itself, before the
/// measured passes, and one in a child after each pass, so `setup_s`,
/// the median of all repetitions, samples the whole run (the host's
/// speed drifts over seconds), and every round meets the heap of a
/// fresh process, not one the passes have grown.
pub fn setup_round_in_child(workload: &str, seed: u64, times: &mut Vec<f64>) -> Result<(), String> {
    let _s = trace::span("workloads.setup_round");
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--setup-round", workload, &seed.to_string()])
        .output()
        .map_err(|e| format!("spawning a set-up round: {e}"))?;
    if !out.status.success() {
        return Err(format!("set-up round failed: {}", String::from_utf8_lossy(&out.stderr)));
    }
    for t in String::from_utf8_lossy(&out.stdout).split_whitespace() {
        times.push(t.parse().map_err(|e| format!("set-up round printed {t:?}: {e}"))?);
    }
    Ok(())
}

/// `perfbench --setup-round <workload> <seed>`: the child side of
/// [`setup_round_in_child`]; returns the round's times.
fn setup_round_child(argv: &[String]) -> Result<Vec<f64>, String> {
    let [workload, seed] = argv else {
        return Err("usage: --setup-round <workload> <seed>".into());
    };
    let seed: u64 = seed.parse().map_err(|e| format!("seed: {e}"))?;
    let mut times = Vec::new();
    match workload.as_str() {
        "swarm" | "suite" => drop(batch::setup_round(workload == "suite", seed, &mut times)),
        "serve" => serve::setup_round_child(seed, &mut times)?,
        other => return Err(format!("unknown workload {other:?}")),
    }
    Ok(times)
}

/// How far the main lane's summed self times may be from the traced
/// wall time, which is read from its own clock around the root span.
const WALL_TOLERANCE_S: f64 = 1e-3;

/// Largest share of the traced wall time the benchmark's own code
/// (`bench.*` self time, outside every program-layer span) may take.
const MAX_BENCH_SHARE: f64 = 0.02;

/// End-to-end metrics, printed by an untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("compile_s", "s"),
    ("compile_cpu_s", "s"),
    ("size_reduction_pct", "%"),
    ("runtime_overhead", "ratio"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by a traced run (`--trace 1`). A layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.generate_s", "s"),
    ("wasm.decode_s", "s"),
    ("wasm.lower_s", "s"),
    ("ir.verify_s", "s"),
    ("ir.print_s", "s"),
    ("identical.wall_s", "s"),
    ("identical.merges", "count"),
    ("schedule.wall_s", "s"),
    ("schedule.cpu_s", "s"),
    ("search.query_s", "s"),
    ("linearize.prefill_s", "s"),
    ("prepare.wall_s", "s"),
    ("prepare.cpu_s", "s"),
    ("align.pairs", "count"),
    ("gate.skipped", "count"),
    ("gate.skip_ratio", "ratio"),
    ("spec.codegen_s", "s"),
    ("spec.built", "count"),
    ("spec.committed", "count"),
    ("spec.useful_ratio", "ratio"),
    ("commit.wall_s", "s"),
    ("commit.codegen_s", "s"),
    ("commit.transplant_s", "s"),
    ("commit.rewrite_s", "s"),
    ("commit.barriers", "count"),
    ("commit.attempts", "count"),
    ("commit.merges", "count"),
    ("commit.merge_ratio", "ratio"),
    ("pipeline.other_s", "s"),
    ("store.ingest_s", "s"),
    ("store.hit_ratio", "ratio"),
    ("store.log_bytes", "B"),
    ("session.merge_s", "s"),
    ("session.cache_hit_ratio", "ratio"),
    ("http.hit_ms", "ms"),
    ("http.merge_ms", "ms"),
    ("http.overhead_ms", "ms"),
    ("http.shed", "count"),
    ("interp.check_s", "s"),
    ("interp.steps_per_s", "1/s"),
    ("interp.diff_pairs", "count"),
    ("serve.hit_share", "ratio"),
    ("serve.new_share", "ratio"),
    ("serve.evicted_share", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.self_sum_s", "s"),
    ("trace.compile_s", "s"),
    ("trace.untraced_compile_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.bench_share", "ratio"),
];

/// Command-line arguments of one benchmark run.
pub struct Args {
    /// `swarm`, `suite` or `serve`.
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end to end).
    pub trace: bool,
}

/// Everything a run measured and checked.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Attempted and failed operations.
    pub tally: Tally,
    errors: Vec<String>,
    notes: Vec<String>,
}

impl Report {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records one output check; a failed check is a failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.tally.record(ok);
        if !ok {
            self.errors.push(what());
        }
    }

    /// Records a failure that is not a check (an errored call).
    pub fn fail(&mut self, what: String) {
        self.tally.record(false);
        self.errors.push(what);
    }

    /// A line for the human-readable part of the report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// SplitMix64 of `seed` and `k`: decorrelated sub-seeds that are a pure
/// function of the run seed.
pub fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Cores this process may use; every merge runs with this many threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Where runs write traces and scratch stores.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Sets `latency_p50_ms` and `latency_p95_ms` from per-operation
/// latencies, refusals counted as infinitely slow, and notes whether
/// p95 has the ten samples beyond it that a tail percentile needs.
pub fn set_latency(r: &mut Report, latencies_ms: &[f64], refused: u64) {
    let all = latencies_with_refusals(latencies_ms, refused);
    r.set("latency_p50_ms", percentile(&all, 50.0));
    r.set("latency_p95_ms", percentile(&all, 95.0));
    let tail = match stats::tail_percentile(all.len()) {
        Some(p) => format!("p{p} = {:.3} ms", percentile(&all, p)),
        None => "no percentile has 10 samples beyond it".to_owned(),
    };
    r.note(format!(
        "latency over {} samples: p50 {:.3} ms, p95 {:.3} ms ({} beyond p95); highest tail {tail}",
        all.len(),
        percentile(&all, 50.0),
        percentile(&all, 95.0),
        beyond(all.len(), 95.0),
    ));
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !["swarm", "suite", "serve"].contains(&args.workload.as_str()) {
        return Err(format!("--workload must be swarm, suite or serve, not {:?}", args.workload));
    }
    Ok(args)
}

/// Prints the per-layer self-time report of a traced run and sets the
/// `trace.*` metrics; writes the Chrome trace next to it.
fn trace_report(r: &mut Report, args: &Args, wall_s: f64) {
    let spans = trace::spans();
    let path = out_dir().join(format!("trace-{}-{}.json", args.workload, args.seed));
    match std::fs::write(&path, trace::chrome_json(&spans)) {
        Ok(()) => r.note(format!("chrome trace: {} ({} spans)", path.display(), spans.len())),
        Err(e) => r.fail(format!("writing {}: {e}", path.display())),
    }
    let selfs = trace::self_times(&spans);
    let mut by_name: BTreeMap<&str, (f64, f64, usize)> = BTreeMap::new();
    for (s, self_us) in spans.iter().zip(&selfs) {
        let e = by_name.entry(s.name).or_default();
        e.0 += s.dur_us / 1e6;
        e.1 += self_us / 1e6;
        e.2 += 1;
    }
    r.note("span self time (s), all lanes:".to_owned());
    for (name, (total, self_s, n)) in &by_name {
        r.note(format!("  {name:<22} self {self_s:>10.4}  total {total:>10.4}  spans {n}"));
    }
    r.note("layer self time (s), all lanes:".to_owned());
    for (layer, s) in trace::layer_self_s(&spans) {
        r.note(format!("  {layer:<22} {s:>10.4}"));
    }
    let root = spans.iter().find(|s| s.name == "bench.run").expect("root span");
    let lanes = trace::lane_balance(&spans);
    for (lane, (self_sum, roots)) in &lanes {
        r.note(format!(
            "  lane {lane}: self times add up to {self_sum:.6} s; root spans {roots:.6} s"
        ));
    }
    // The main lane's self times must cover the separately measured
    // wall time, and the benchmark's own code (`bench.*` self time) may
    // take only a small share of it: the rest is inside program layers.
    let (self_sum, _) = lanes[&root.lane];
    let bench_share = trace::lane_layer_self_s(&spans, root.lane, "bench") / wall_s;
    r.note(format!(
        "traced wall {wall_s:.6} s; main-lane self times add up to {self_sum:.6} s, \
         {:.3} % of it in the benchmark's own code",
        100.0 * bench_share
    ));
    r.check((self_sum - wall_s).abs() <= WALL_TOLERANCE_S, || {
        format!("main-lane self times {self_sum} s do not add up to the traced wall {wall_s} s")
    });
    r.check(bench_share <= MAX_BENCH_SHARE, || {
        format!(
            "{:.2} % of the traced wall is in the benchmark's own code (limit {} %)",
            100.0 * bench_share,
            100.0 * MAX_BENCH_SHARE
        )
    });
    r.set("trace.wall_s", wall_s);
    r.set("trace.self_sum_s", self_sum);
    r.set("trace.bench_share", bench_share);
}

fn run(args: &Args) -> Report {
    let mut r = Report::default();
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        r.fail(format!("creating {}: {e}", out_dir().display()));
        return r;
    }
    if args.trace {
        trace::enable();
    }
    let steal0 = stats::steal_s();
    let t0 = Instant::now();
    let outcome = {
        let _root = trace::span("bench.run");
        match args.workload.as_str() {
            "swarm" => batch::run(args, false, &mut r),
            "suite" => batch::run(args, true, &mut r),
            _ => serve::run(args, &mut r),
        }
    };
    let wall_s = t0.elapsed().as_secs_f64();
    if let Err(e) = outcome {
        r.fail(e);
    }
    // A run in a phase when the host ran other guests on these CPUs is
    // slower in wall time only; this names such runs.
    let steal = stats::steal_s() - steal0;
    r.note(format!(
        "host steal time during the run: {steal:.2} s of {:.1} CPU-seconds ({:.2} %)",
        wall_s * nproc() as f64,
        100.0 * steal / (wall_s * nproc() as f64)
    ));
    r.set("peak_rss_mib", stats::peak_rss_mib());
    if args.trace {
        trace_report(&mut r, args, wall_s);
    }
    r
}

/// Formats a metric value with every digit it has.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--steady"] {
        std::process::exit(steady::main());
    }
    if argv.first().map(String::as_str) == Some("--setup-round") {
        match setup_round_child(&argv[1..]) {
            Ok(times) => {
                let times: Vec<String> = times.iter().map(f64::to_string).collect();
                println!("{}", times.join(" "));
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("perfbench --setup-round: {e}");
                std::process::exit(2);
            }
        }
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let r = run(&args);
    for line in &r.notes {
        println!("# {line}");
    }
    for e in &r.errors {
        println!("# FAILED: {e}");
    }
    println!(
        "# failed_ratio = {} ({} of {} operations failed, {} refused)",
        r.tally.failed_ratio(),
        r.tally.failed,
        r.tally.attempted,
        r.tally.refused
    );
    let list = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    let mut missing = false;
    for &(name, unit) in list {
        let v = r.values.get(name).copied();
        if v.is_none() && !args.trace {
            // An end-to-end metric every workload must measure.
            println!("# FAILED: metric {name} was not measured");
            missing = true;
        }
        let v = v.unwrap_or(0.0);
        println!("# {name} = {v} {unit}");
        fields.push(format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(v)));
    }
    let correct = r.errors.is_empty() && !missing && r.tally.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.tally.attempted.max(1),
        r.tally.failed,
        fields.join(", ")
    );
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv("--workload serve --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("serve", 7, 12.0, true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload swarm --trace 2")).is_err());
        assert!(parse_args(&argv("--workload swarm --bogus 1")).is_err());
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(
                name.len() <= 64
                    && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
            assert!(unit.len() <= 16);
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let bench = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(&str, &str)> = bench
                .get(key)
                .unwrap()
                .arr()
                .iter()
                .map(|m| {
                    (m.get("name").unwrap().str().unwrap(), m.get("unit").unwrap().str().unwrap())
                })
                .collect();
            assert_eq!(listed, list.to_vec(), "{key}");
        }
    }

    #[test]
    fn a_setup_round_makes_five_repetitions_and_lasts_its_time() {
        let mut times = vec![9.0];
        let t0 = Instant::now();
        let once = |rep| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            Ok(rep as f64)
        };
        setup_round(&mut times, once).unwrap();
        assert!(t0.elapsed().as_secs_f64() >= SETUP_ROUND_S);
        assert!(times.len() > 1 + SETUP_MIN_REPS, "20 ms repetitions fill 0.3 s");
        assert_eq!(times[..3], [9.0, 1.0, 2.0], "each repetition gets its index");
        let failing = setup_round(&mut times, |_| Err("no".to_owned()));
        assert_eq!(failing, Err("no".to_owned()));
    }

    #[test]
    fn seed_mixing_is_deterministic_and_spreads() {
        assert_eq!(mix(1, 2), mix(1, 2));
        assert_ne!(mix(1, 2), mix(2, 1));
        assert_ne!(mix(0, 0), 0);
    }
}
