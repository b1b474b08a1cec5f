//! Crash-recovery property tests for the v2 store WAL.
//!
//! The recovery invariant under test: for *any* truncation (kill at byte
//! N) and *any* single-bit corruption of a `functions.store` log,
//! opening the store (a) never panics, (b) recovers exactly the longest
//! checksum-valid prefix of records, and (c) rebuilds an LSH index equal
//! to a fresh index built over the recovered entries' signatures. The
//! expected prefix is computed by an **independent walker** in this file
//! — including an independent bitwise CRC32 — so a store-side framing
//! bug cannot cancel itself out of the comparison.

use fmsa_core::search::minhash::estimated_jaccard;
use fmsa_core::store::STORE_FILE;
use fmsa_core::{FunctionStore, LshSearch};
use fmsa_ir::{FuncBuilder, FuncId, Module, Value};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("fmsa-recovery-{}-{tag}-{n}", std::process::id()))
}

fn module_with(names: &[(&str, i32)]) -> Module {
    let mut m = Module::new("m");
    let i32t = m.types.i32();
    let fn_ty = m.types.func(i32t, vec![i32t]);
    for &(name, c) in names {
        let f = m.create_function(name, fn_ty);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.block("entry");
        b.switch_to(e);
        let mut v = Value::Param(0);
        for j in 0..6 {
            v = b.add(v, b.const_i32(c + j));
        }
        b.ret(Some(v));
    }
    m
}

/// One well-formed v2 log with several entries and several durable
/// `seen` bump records, built once and corrupted per case.
fn fixture() -> &'static [u8] {
    static RAW: OnceLock<Vec<u8>> = OnceLock::new();
    RAW.get_or_init(|| {
        let dir = temp_dir("fixture");
        {
            let mut store = FunctionStore::open(&dir).unwrap();
            store.ingest_module(&module_with(&[("a", 1), ("b", 9), ("c", 40)])).unwrap();
            store.ingest_module(&module_with(&[("a2", 1), ("d", 77)])).unwrap();
            store.ingest_module(&module_with(&[("b2", 9), ("c2", 40)])).unwrap();
            store.flush().unwrap();
        }
        let raw = std::fs::read(dir.join(STORE_FILE)).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert!(raw.len() > 600, "fixture should span several records ({} bytes)", raw.len());
        raw
    })
}

/// Independent bitwise CRC32 (IEEE, reflected) — deliberately not the
/// store's table-driven implementation.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c ^= b as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
        }
    }
    !c
}

/// Independent recovery walker: re-implements the v2 framing rules and
/// returns the `(hash, seen)` set of the longest valid prefix.
fn expected_recovery(raw: &[u8]) -> Vec<(String, u64)> {
    let header = b"fmsa-store v2\n";
    if !raw.starts_with(header) {
        return Vec::new();
    }
    let mut entries: Vec<(String, u64)> = Vec::new();
    let mut pos = header.len();
    'records: loop {
        let rest = &raw[pos..];
        if rest.is_empty() {
            break;
        }
        let Some(nl) = rest.iter().position(|&b| b == b'\n') else { break };
        let Ok(line) = std::str::from_utf8(&rest[..nl]) else { break };
        let Some(fields) = line.strip_prefix("R ") else { break };
        let Some((len_s, crc_s)) = fields.split_once(' ') else { break };
        let (Ok(len), Ok(crc)) = (len_s.parse::<usize>(), u32::from_str_radix(crc_s, 16)) else {
            break;
        };
        if crc_s.len() != 8 || rest.len() < nl + 1 + len + 1 || rest[nl + 1 + len] != b'\n' {
            break;
        }
        let payload = &rest[nl + 1..nl + 1 + len];
        if crc32_bitwise(payload) != crc {
            break;
        }
        let Ok(text) = std::str::from_utf8(payload) else { break };
        if let Some(fields) = text.strip_prefix("seen ") {
            let Some((hash, delta)) = fields.split_once(" +") else { break };
            let Ok(delta) = delta.parse::<u64>() else { break };
            if let Some((_, n)) = entries.iter_mut().find(|(h, _)| h == hash) {
                *n += delta;
            }
        } else if let Some(fields) = text.strip_prefix("fn ") {
            let mut words = fields.split(' ');
            let Some(hash) = words.next() else { break };
            let Some(seen) =
                words.next().and_then(|w| w.strip_prefix("seen=")).and_then(|s| s.parse().ok())
            else {
                break;
            };
            if !entries.iter().any(|(h, _)| h == hash) {
                entries.push((hash.to_owned(), seen));
            }
        } else {
            break 'records;
        }
        pos += nl + 1 + len + 1;
    }
    entries
}

/// Opens a store over `raw` written to a fresh dir and checks the full
/// recovery invariant against the independent walker.
fn check_recovery(raw: &[u8], ctx: &str) -> Result<(), TestCaseError> {
    let dir = temp_dir("case");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(STORE_FILE), raw).unwrap();
    // (a) opening never panics — a panic here fails the harness.
    let store = FunctionStore::open(&dir).unwrap();
    // (b) exactly the longest checksum-valid prefix is recovered.
    let expected = expected_recovery(raw);
    let got: Vec<(String, u64)> = store.entries().map(|e| (e.hash.to_string(), e.seen)).collect();
    prop_assert_eq!(&got, &expected, "{}: recovered set != longest valid prefix", ctx);
    // (c) the rebuilt LSH index equals a fresh one over the recovered
    // entries: every stored entry's similar-set must match what a fresh
    // index over the same signatures produces.
    let mut fresh = LshSearch::new();
    let entries: Vec<_> = store.entries().collect();
    for (i, e) in entries.iter().enumerate() {
        fresh.insert_signature(FuncId::from_index(i), e.signature().to_vec());
    }
    for (i, e) in entries.iter().enumerate() {
        let got: Vec<(String, f64)> =
            store.similar(e.hash, 8).into_iter().map(|s| (s.hash.to_string(), s.score)).collect();
        let mut want: Vec<(String, f64)> = fresh
            .shortlist(FuncId::from_index(i))
            .into_iter()
            .map(|f| {
                let o = entries[f.index()];
                (o.hash.to_string(), estimated_jaccard(e.signature(), o.signature()))
            })
            .collect();
        want.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
        });
        want.truncate(8);
        prop_assert_eq!(got, want, "{}: LSH rebuild diverges from fresh index", ctx);
    }
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Kill-at-byte-N: every truncation point recovers the longest
    /// valid prefix, never panics, and leaves an appendable log.
    #[test]
    fn truncation_recovers_longest_valid_prefix(frac in 0usize..10_000) {
        let raw = fixture();
        let cut = raw.len() * frac / 10_000;
        check_recovery(&raw[..cut], &format!("cut at {cut}/{}", raw.len()))?;
    }

    /// Single-bit corruption anywhere in the log: the CRC catches it and
    /// recovery stops exactly at the corrupted record.
    #[test]
    fn bit_flip_recovers_longest_valid_prefix((frac, bit) in (0usize..10_000, 0u8..8)) {
        let raw = fixture();
        let offset = raw.len() * frac / 10_000;
        let mut corrupted = raw.to_vec();
        if offset < corrupted.len() {
            corrupted[offset] ^= 1 << bit;
        }
        check_recovery(&corrupted, &format!("flip bit {bit} at {offset}/{}", raw.len()))?;
    }

    /// Kill + torn sector: truncate at a kill point, then flip a bit in
    /// what remains — the composed corruption a real crash can leave.
    #[test]
    fn truncation_plus_bit_flip_recovers(
        (kill_frac, flip_frac, bit) in (0usize..10_000, 0usize..10_000, 0u8..8),
    ) {
        let raw = fixture();
        let kill = raw.len() * kill_frac / 10_000;
        let mut corrupted = raw[..kill].to_vec();
        if !corrupted.is_empty() {
            let offset = (corrupted.len() - 1) * flip_frac / 10_000;
            corrupted[offset] ^= 1 << bit;
        }
        check_recovery(&corrupted, &format!("kill {kill} + flip bit {bit}"))?;
    }
}

/// A recovered (possibly truncated) store must accept new appends and
/// serve them after another reopen — recovery truncates the corrupt
/// tail rather than appending into its shadow.
#[test]
fn recovered_store_is_appendable() {
    let raw = fixture();
    for cut in [raw.len() / 3, raw.len() / 2, raw.len() - 7] {
        let dir = temp_dir("append");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(STORE_FILE), &raw[..cut]).unwrap();
        let mut store = FunctionStore::open(&dir).unwrap();
        let recovered = store.len();
        store.ingest_module(&module_with(&[("late", 123)])).unwrap();
        drop(store);
        let store = FunctionStore::open(&dir).unwrap();
        assert_eq!(store.recovery().skipped_records, 0, "cut {cut}: reopened log is clean");
        assert!(store.len() > recovered, "cut {cut}: appended entry must survive");
        std::fs::remove_dir_all(&dir).ok();
    }
}
