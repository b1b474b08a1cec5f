//! Deterministic fault injection for the merge pipeline.
//!
//! A [`FaultPlan`] forces failures — worker panics, verifier rejections,
//! store I/O errors — at named sites, standing in for the real bugs the
//! fault-isolation machinery exists to survive. The plan is a pure
//! function of its seed and the *names* of the function pair at each
//! site, so the same pairs fault at every thread count: the quarantine
//! set a faulted run produces is reproducible from `(seed, rate, sites)`
//! alone.
//!
//! Plans come from three places: explicit construction ([`FaultPlan::new`],
//! used by tests and `experiments faults`), a spec string
//! ([`FaultPlan::parse`]), or the `FMSA_FAULTS` environment variable
//! ([`FaultPlan::from_env`], honoured by `fmsa_opt`). The spec grammar is
//! comma-separated `key=value` fields:
//!
//! ```text
//! FMSA_FAULTS="seed=7,rate_ppm=20000,sites=align|codegen|verify"
//! FMSA_FAULTS="seed=3,rate_ppm=50000,sites=store-write|store-fsync|store-rename"
//! ```
//!
//! The `store-*` sites target the persistence path instead of the merge
//! pipeline: they are consulted by [`crate::store::FunctionStore`] on
//! every log append, fsync, and compaction rename, keyed by a
//! monotonically increasing operation number — so a faulted operation
//! is deterministic for a given seed, yet a *retry* (a later operation)
//! can succeed, which is how real transient I/O errors behave.
//!
//! See `docs/robustness.md` for what each site forces and how the
//! pipeline degrades under it.

use std::fmt;

/// A pipeline site where a [`FaultPlan`] can force a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Panic inside sequence alignment (prepare workers *and* the
    /// commit stage's inline recompute — the fault follows the pair, not
    /// the thread, so quarantine decisions stay thread-independent).
    Align,
    /// Panic inside merge code generation at commit.
    Codegen,
    /// The merged body is reported invalid by the verifier even when it
    /// is well-formed.
    Verify,
    /// A store log append fails with an I/O error before any byte is
    /// written (the record is atomically absent, standing in for ENOSPC
    /// or a pulled disk).
    StoreWrite,
    /// A store fsync fails after the bytes were handed to the kernel —
    /// the durability acknowledgement is withheld, not the data.
    StoreFsync,
    /// The atomic rename that publishes a compacted store fails; the old
    /// log must remain the authoritative one.
    StoreRename,
}

impl FaultSite {
    /// Every site, in declaration order.
    pub const ALL: [FaultSite; 6] = [
        FaultSite::Align,
        FaultSite::Codegen,
        FaultSite::Verify,
        FaultSite::StoreWrite,
        FaultSite::StoreFsync,
        FaultSite::StoreRename,
    ];

    /// Stable lower-case name, used by the spec grammar and reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::Align => "align",
            FaultSite::Codegen => "codegen",
            FaultSite::Verify => "verify",
            FaultSite::StoreWrite => "store-write",
            FaultSite::StoreFsync => "store-fsync",
            FaultSite::StoreRename => "store-rename",
        }
    }

    /// Parses a site name as written in a spec string.
    pub fn from_name(s: &str) -> Option<FaultSite> {
        FaultSite::ALL.into_iter().find(|site| site.name() == s)
    }

    fn bit(self) -> u32 {
        match self {
            FaultSite::Align => 1,
            FaultSite::Codegen => 2,
            FaultSite::Verify => 4,
            FaultSite::StoreWrite => 8,
            FaultSite::StoreFsync => 16,
            FaultSite::StoreRename => 32,
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A deterministic, seed-keyed plan of injected faults.
///
/// The default plan is disabled (no sites, rate zero) and costs one
/// branch per query, so it can sit on the pipeline's hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Reproducer seed: re-running with the same seed (and rate/sites)
    /// re-faults the same pairs.
    pub seed: u64,
    /// Injection probability per `(site, pair)`, in parts per million.
    pub rate_ppm: u32,
    sites: u32,
}

impl FaultPlan {
    /// A plan that never fires.
    pub fn disabled() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan firing at `rate_ppm` per pair on each of `sites`.
    pub fn new(seed: u64, rate_ppm: u32, sites: &[FaultSite]) -> FaultPlan {
        let mask = sites.iter().fold(0, |m, s| m | s.bit());
        FaultPlan { seed, rate_ppm, sites: mask }
    }

    /// Whether this plan can fire at all.
    pub fn is_active(&self) -> bool {
        self.sites != 0 && self.rate_ppm > 0
    }

    /// Whether `site` is enabled.
    pub fn enables(&self, site: FaultSite) -> bool {
        self.sites & site.bit() != 0
    }

    /// Whether the plan injects a fault at `site` for the function pair
    /// `(a, b)`. Symmetric in `a`/`b` (the pair may be revisited with
    /// roles swapped) and independent of thread count and visit order.
    pub fn fires(&self, site: FaultSite, a: &str, b: &str) -> bool {
        if self.rate_ppm == 0 || !self.enables(site) {
            return false;
        }
        let (x, y) = if a <= b { (a, b) } else { (b, a) };
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.seed;
        for chunk in [site.name().as_bytes(), b"\0", x.as_bytes(), b"\0", y.as_bytes()] {
            for &byte in chunk {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        // Final avalanche so low bits depend on every input byte.
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        (h % 1_000_000) < self.rate_ppm as u64
    }

    /// Parses a spec string (`seed=7,rate_ppm=20000,sites=align|verify`).
    /// Unknown keys and malformed values are errors; an empty string is
    /// the disabled plan.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed field.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::disabled();
        for field in spec.split(',').map(str::trim).filter(|f| !f.is_empty()) {
            let (key, value) =
                field.split_once('=').ok_or_else(|| format!("field {field:?} is not key=value"))?;
            match key.trim() {
                "seed" => {
                    plan.seed =
                        value.trim().parse().map_err(|_| format!("seed {value:?} is not a u64"))?;
                }
                "rate_ppm" => {
                    plan.rate_ppm = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("rate_ppm {value:?} is not a u32"))?;
                }
                "sites" => {
                    for name in value.split(['|', '+']).map(str::trim).filter(|s| !s.is_empty()) {
                        let site = FaultSite::from_name(name)
                            .ok_or_else(|| format!("unknown fault site {name:?}"))?;
                        plan.sites |= site.bit();
                    }
                }
                other => return Err(format!("unknown fault-plan key {other:?}")),
            }
        }
        Ok(plan)
    }

    /// Reads a plan from the `FMSA_FAULTS` environment variable. `None`
    /// when unset or empty; a malformed spec is reported on stderr and
    /// treated as unset (an injection tool must never abort the run it
    /// is meant to stress).
    pub fn from_env() -> Option<FaultPlan> {
        let spec = std::env::var("FMSA_FAULTS").ok()?;
        if spec.trim().is_empty() {
            return None;
        }
        match FaultPlan::parse(&spec) {
            Ok(plan) => Some(plan),
            Err(e) => {
                eprintln!("FMSA_FAULTS ignored: {e}");
                None
            }
        }
    }
}

/// Message prefix of every panic a [`FaultPlan`] injects.
pub const INJECTED_PANIC_PREFIX: &str = "injected fault:";

/// Installs (once per process) a panic hook that suppresses the default
/// stderr report for *injected* panics — they are caught and quarantined
/// by design, and a fault-injection run would otherwise print thousands
/// of them. Genuine panics still report through the previous hook.
pub fn silence_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.starts_with(INJECTED_PANIC_PREFIX) {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_never_fires() {
        let plan = FaultPlan::disabled();
        assert!(!plan.is_active());
        for site in FaultSite::ALL {
            assert!(!plan.fires(site, "a", "b"));
        }
    }

    #[test]
    fn fires_is_deterministic_and_symmetric() {
        let plan = FaultPlan::new(7, 500_000, &FaultSite::ALL);
        for site in FaultSite::ALL {
            for (a, b) in [("f1", "f2"), ("merged.x.y", "fam3"), ("a", "a")] {
                assert_eq!(plan.fires(site, a, b), plan.fires(site, a, b));
                assert_eq!(plan.fires(site, a, b), plan.fires(site, b, a));
            }
        }
    }

    #[test]
    fn rate_controls_frequency() {
        let never = FaultPlan::new(1, 0, &FaultSite::ALL);
        let always = FaultPlan::new(1, 1_000_000, &FaultSite::ALL);
        let half = FaultPlan::new(1, 500_000, &[FaultSite::Align]);
        let mut hits = 0;
        for k in 0..1000 {
            let a = format!("f{k}");
            assert!(!never.fires(FaultSite::Align, &a, "g"));
            assert!(always.fires(FaultSite::Align, &a, "g"));
            hits += half.fires(FaultSite::Align, &a, "g") as usize;
        }
        assert!((300..700).contains(&hits), "≈50% expected, got {hits}/1000");
    }

    #[test]
    fn sites_are_independent() {
        let plan = FaultPlan::new(9, 1_000_000, &[FaultSite::Verify]);
        assert!(plan.fires(FaultSite::Verify, "a", "b"));
        assert!(!plan.fires(FaultSite::Align, "a", "b"));
        assert!(!plan.fires(FaultSite::Codegen, "a", "b"));
        assert!(!plan.fires(FaultSite::StoreWrite, "a", "b"));
    }

    #[test]
    fn seed_changes_the_faulted_set() {
        let a = FaultPlan::new(1, 200_000, &[FaultSite::Align]);
        let b = FaultPlan::new(2, 200_000, &[FaultSite::Align]);
        let diverges = (0..200).any(|k| {
            let name = format!("f{k}");
            a.fires(FaultSite::Align, &name, "g") != b.fires(FaultSite::Align, &name, "g")
        });
        assert!(diverges, "different seeds must fault different pairs");
    }

    #[test]
    fn store_sites_parse_and_stay_independent() {
        let plan = FaultPlan::parse("seed=1,rate_ppm=1000000,sites=store-write|store-rename")
            .expect("parses");
        assert!(plan.enables(FaultSite::StoreWrite));
        assert!(plan.enables(FaultSite::StoreRename));
        assert!(!plan.enables(FaultSite::StoreFsync));
        assert!(!plan.enables(FaultSite::Align));
        assert!(plan.fires(FaultSite::StoreWrite, "op", "1"));
        assert!(!plan.fires(FaultSite::StoreFsync, "op", "1"));
    }

    #[test]
    fn parse_round_trips() {
        let plan =
            FaultPlan::parse("seed=42, rate_ppm=20000, sites=align|codegen").expect("parses");
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.rate_ppm, 20_000);
        assert!(plan.enables(FaultSite::Align));
        assert!(plan.enables(FaultSite::Codegen));
        assert!(!plan.enables(FaultSite::Verify));
        assert_eq!(FaultPlan::parse("").expect("empty is disabled"), FaultPlan::disabled());
        assert!(FaultPlan::parse("sites=bogus").is_err());
        assert!(FaultPlan::parse("seed=x").is_err());
        assert!(FaultPlan::parse("nonsense").is_err());
    }

    #[test]
    fn retired_scratch_site_is_an_unknown_site() {
        // A stale `FMSA_FAULTS` naming the site of the removed scratch
        // modules must fail loudly, not silently inject nothing.
        let err = FaultPlan::parse("sites=scratch").expect_err("no such site");
        assert!(err.contains("unknown fault site"), "{err}");
        assert!(FaultPlan::parse("seed=3,rate_ppm=100,sites=align|scratch").is_err());
    }
}
