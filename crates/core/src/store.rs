//! Content-addressed function store with a durable LSH index and a
//! crash-consistent write-ahead log.
//!
//! The daemon's memory between requests (and restarts): every function
//! that ever passed through a [`crate::session::MergeSession`] is keyed
//! by a [`ContentHash`] of its *canonicalized* body — the printer's
//! textual form with the function's own name replaced by a placeholder,
//! so a renamed copy of the same body hashes identically. Repeat
//! uploads hit the store instead of being treated as new work, and the
//! hit/miss counters are the daemon's index-reuse metric.
//!
//! Alongside the canonical text, each entry stores its MinHash signature
//! (see [`crate::search::minhash`]). Signatures are position-stable and
//! context-free once computed, which makes the LSH index *durable*: on
//! restart the index is rebuilt from persisted signatures with
//! [`LshSearch::insert_signature`] — no module is re-parsed, no
//! fingerprint recomputed. Cross-module candidate search
//! ([`FunctionStore::similar`]) runs over this whole-store index, not
//! over any single upload.
//!
//! # Persistence format
//!
//! `<dir>/functions.store` is an append-only write-ahead log of
//! checksummed, length-framed records, in the one format this build
//! reads and writes ([`FORMAT_VERSION`]):
//!
//! ```text
//! fmsa-store v2
//! R <payload-len> <crc32-hex8>
//! <payload bytes>
//! ```
//!
//! The CRC32 (IEEE) covers exactly the payload bytes. Two payload kinds
//! exist:
//!
//! * `fn <hash-hex32> seen=<n> len=<bytes> sig=<u64hex,...> name=<name>`
//!   followed by `len` bytes of canonical text — a new entry;
//! * `seen <hash-hex32> +<delta>` — a durable repeat-ingest bump for an
//!   existing entry (folded into its `seen` count on load and on
//!   compaction).
//!
//! Recovery ([`FunctionStore::open`]) scans to the last record whose
//! frame parses and whose checksum matches — the longest valid prefix —
//! then truncates the log there so later appends land on a clean tail.
//! Whatever was dropped is reported in [`RecoveryStats`]. A log whose
//! first line reads `fmsa-store v<N>` with another `N` belongs to
//! another format version: `open` refuses it with an error naming `N`
//! and leaves the file byte for byte as it was. A torn or garbled header
//! recovers nothing, and the log is truncated like any damaged tail.
//!
//! Durability is governed by [`FsyncPolicy`]; compaction
//! ([`FunctionStore::compact`]) rewrites the live records to
//! `functions.store.tmp` and atomically renames it over the log, so a
//! crash mid-compaction leaves either the old or the new file, never a
//! hybrid. All three I/O steps (write, fsync, rename) consult the
//! store's [`FaultPlan`] so tests and `experiments chaos` can inject
//! deterministic I/O failures.

use crate::error::Error;
use crate::faults::{FaultPlan, FaultSite, INJECTED_PANIC_PREFIX};
use crate::fingerprint::Fingerprint;
use crate::search::minhash::estimated_jaccard;
use crate::search::LshSearch;
use fmsa_ir::{printer, FuncId, Module};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The store file within a store directory.
pub const STORE_FILE: &str = "functions.store";
/// Compaction scratch file; renamed over [`STORE_FILE`] on success,
/// deleted on failure, ignored (and removed) if found at open time.
pub const STORE_TMP_FILE: &str = "functions.store.tmp";
/// The log format this build reads and writes; the number on the log's
/// first line, `fmsa-store v2`.
pub const FORMAT_VERSION: u32 = 2;
/// The first line of a log, up to its format version.
const HEADER_PREFIX: &str = "fmsa-store v";

/// The first line of a log this build writes, newline included.
fn header() -> String {
    format!("{HEADER_PREFIX}{FORMAT_VERSION}\n")
}

/// The format version a log's first line (up to its first newline, or
/// the end of the file) names, or `None` when that line is not
/// `fmsa-store v<N>`: an empty, torn or garbled header.
fn header_version(raw: &[u8]) -> Option<u32> {
    let line = raw.split(|&b| b == b'\n').next().unwrap_or_default();
    let digits = std::str::from_utf8(line).ok()?.strip_prefix(HEADER_PREFIX)?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// 128-bit content hash of a canonicalized function body (two
/// differently-seeded FNV-1a-64 lanes — not cryptographic, but
/// collision-safe at any realistic store size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentHash(pub u128);

impl ContentHash {
    /// Hashes a byte string.
    pub fn of_bytes(bytes: &[u8]) -> ContentHash {
        const PRIME: u64 = 0x100_0000_01b3;
        let mut lo = 0xcbf2_9ce4_8422_2325u64;
        let mut hi = 0x6c62_272e_07bb_0142u64 ^ (bytes.len() as u64);
        for &b in bytes {
            lo = (lo ^ b as u64).wrapping_mul(PRIME);
            hi = (hi ^ (b as u64).rotate_left(17)).wrapping_mul(PRIME);
        }
        ContentHash(((hi as u128) << 64) | lo as u128)
    }

    /// Parses the 32-digit hex form produced by `Display`.
    pub fn from_hex(s: &str) -> Option<ContentHash> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(ContentHash)
    }
}

impl fmt::Display for ContentHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// CRC32 (IEEE 802.3 polynomial, reflected) over `bytes` — the per-record
/// checksum of the store format. Public so recovery tooling and the
/// corruption property tests can frame records independently.
pub fn crc32(bytes: &[u8]) -> u32 {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, e) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *e = c;
        }
        t
    });
    let mut c = !0u32;
    for &b in bytes {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Frames one payload as a record: `R <len> <crc32:08x>\n<payload>\n`.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = format!("R {} {:08x}\n", payload.len(), crc32(payload)).into_bytes();
    out.extend_from_slice(payload);
    out.push(b'\n');
    out
}

/// When the store calls `fsync` on its log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Never fsync (the OS flushes on its own schedule); a power loss
    /// can drop acknowledged ingests, a process crash cannot (appends
    /// are still write-through).
    Never,
    /// Fsync once at the end of every ingest that wrote anything — the
    /// default: an acknowledged ingest survives power loss.
    PerIngest,
    /// Fsync at most once per interval; bounded-loss middle ground for
    /// high-throughput ingest.
    Interval(Duration),
}

impl FsyncPolicy {
    /// Parses the `--fsync` flag grammar: `never`, `per-ingest`, or
    /// `interval:SECS`.
    pub fn parse(s: &str) -> Result<FsyncPolicy, String> {
        match s {
            "never" => Ok(FsyncPolicy::Never),
            "per-ingest" => Ok(FsyncPolicy::PerIngest),
            other => match other.strip_prefix("interval:") {
                Some(secs) => secs
                    .parse::<u64>()
                    .map(|n| FsyncPolicy::Interval(Duration::from_secs(n.max(1))))
                    .map_err(|_| format!("bad interval seconds {secs:?}")),
                None => Err(format!(
                    "unknown fsync policy {other:?} (expected never | per-ingest | interval:SECS)"
                )),
            },
        }
    }
}

impl fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsyncPolicy::Never => f.write_str("never"),
            FsyncPolicy::PerIngest => f.write_str("per-ingest"),
            FsyncPolicy::Interval(d) => write!(f, "interval:{}", d.as_secs()),
        }
    }
}

/// Dead-bytes fraction of the log at which a write of a persistent
/// store compacts it ([`FunctionStore::compact`]).
const COMPACT_DEAD_RATIO: f64 = 0.5;

/// Log size below which a persistent store never compacts on its own.
const COMPACT_MIN_BYTES: u64 = 16 * 1024;

/// Durability and fault-injection knobs for a persistent store.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// When to fsync the log.
    pub fsync: FsyncPolicy,
    /// Deterministic I/O fault injection plan (store sites only).
    pub faults: FaultPlan,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions { fsync: FsyncPolicy::PerIngest, faults: FaultPlan::disabled() }
    }
}

/// What [`FunctionStore::open`] found (and dropped) while recovering the
/// log — surfaced by the daemon's `/v1/stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Entries recovered from the log.
    pub entries: usize,
    /// `seen` bump records folded into recovered entries.
    pub seen_records: usize,
    /// Records after the valid prefix that were skipped as corrupt or
    /// torn (counted by their frame headers; a torn partial record
    /// counts as one).
    pub skipped_records: usize,
    /// Bytes past the valid prefix, dropped (and truncated) at open.
    pub bytes_dropped: u64,
}

/// What one [`FunctionStore::compact`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactStats {
    /// Live entries written to the compacted log.
    pub entries: usize,
    /// Log size before compaction.
    pub bytes_before: u64,
    /// Log size after compaction.
    pub bytes_after: u64,
}

/// One stored function.
#[derive(Debug, Clone)]
pub struct StoreEntry {
    /// Content hash of the canonical text.
    pub hash: ContentHash,
    /// The name the function had when first ingested (later uploads may
    /// use different names for the same body).
    pub name: String,
    /// How many times this body has been ingested (first ingest = 1).
    pub seen: u64,
    /// The canonical text itself.
    pub text: String,
    /// MinHash signature, the durable half of the LSH index.
    signature: Vec<u64>,
}

impl StoreEntry {
    /// The persisted MinHash signature (for rebuilding an LSH index
    /// without re-fingerprinting).
    pub fn signature(&self) -> &[u64] {
        &self.signature
    }
}

/// What one [`FunctionStore::ingest_module`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Defined (non-declaration) functions examined.
    pub functions: usize,
    /// Functions whose body was already stored.
    pub hits: usize,
    /// Functions stored for the first time.
    pub misses: usize,
}

/// A similar-function search result from [`FunctionStore::similar`].
#[derive(Debug, Clone, PartialEq)]
pub struct SimilarEntry {
    /// Content hash of the similar stored function.
    pub hash: ContentHash,
    /// Its first-seen name.
    pub name: String,
    /// MinHash-estimated Jaccard similarity to the query, in `[0, 1]`.
    pub score: f64,
}

/// Printer-identifier characters: used to find the end of an `@name`
/// token when normalizing a function's references to itself.
fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '$' | '-')
}

/// The canonical text of a function: its printed form with every
/// reference to its *own* name (the `define @name` header, recursive
/// calls) replaced by `@<self>`, so a byte-identical body under a
/// different name produces the same [`ContentHash`]. `<` never occurs in
/// printed identifiers, so the placeholder cannot collide.
pub fn canonical_function_text(module: &Module, func: FuncId) -> String {
    let f = module.func(func);
    let text = printer::print_function(module, f);
    let needle = format!("@{}", f.name);
    let mut out = String::with_capacity(text.len());
    let mut rest = text.as_str();
    while let Some(pos) = rest.find(&needle) {
        let after = &rest[pos + needle.len()..];
        out.push_str(&rest[..pos]);
        if after.chars().next().is_none_or(|c| !is_ident_char(c)) {
            out.push_str("@<self>");
        } else {
            // A longer name that merely starts with ours — keep it.
            out.push_str(&needle);
        }
        rest = after;
    }
    out.push_str(rest);
    out
}

/// Content-addressed store of canonicalized function bodies with an
/// incrementally-maintained, disk-durable LSH index over all of them.
#[derive(Debug)]
pub struct FunctionStore {
    dir: Option<PathBuf>,
    entries: Vec<StoreEntry>,
    by_hash: HashMap<u128, usize>,
    index: LshSearch,
    hits: u64,
    misses: u64,
    // --- persistence state (all zero/inert for in-memory stores) ---
    file: Option<File>,
    opts: StoreOptions,
    last_sync: Instant,
    dirty: bool,
    ops: u64,
    total_bytes: u64,
    dead_bytes: u64,
    compactions: u64,
    compact_failures: u64,
    recovery: RecoveryStats,
}

impl FunctionStore {
    /// An empty, purely in-memory store (nothing persists).
    pub fn in_memory() -> FunctionStore {
        FunctionStore {
            dir: None,
            entries: Vec::new(),
            by_hash: HashMap::new(),
            index: LshSearch::new(),
            hits: 0,
            misses: 0,
            file: None,
            opts: StoreOptions::default(),
            last_sync: Instant::now(),
            dirty: false,
            ops: 0,
            total_bytes: 0,
            dead_bytes: 0,
            compactions: 0,
            compact_failures: 0,
            recovery: RecoveryStats::default(),
        }
    }

    /// Opens (or creates) a persistent store rooted at `dir` with default
    /// [`StoreOptions`], reloading any previously-persisted entries and
    /// rebuilding the LSH index from their stored signatures.
    pub fn open(dir: impl Into<PathBuf>) -> Result<FunctionStore, Error> {
        FunctionStore::open_with(dir, StoreOptions::default())
    }

    /// [`FunctionStore::open`] with explicit durability/compaction/fault
    /// options. Recovery scans the log to the last checksum-valid record
    /// and truncates whatever follows (reported in
    /// [`FunctionStore::recovery`]); a stale compaction scratch file is
    /// removed — the rename that would have published it never happened,
    /// so the old log is authoritative.
    ///
    /// # Errors
    ///
    /// I/O failures, and a log whose header names another format version
    /// than [`FORMAT_VERSION`]: such a log is left untouched.
    pub fn open_with(dir: impl Into<PathBuf>, opts: StoreOptions) -> Result<FunctionStore, Error> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(STORE_FILE);
        let raw = if path.exists() { Some(std::fs::read(&path)?) } else { None };
        let foreign = raw.as_deref().and_then(header_version).filter(|&v| v != FORMAT_VERSION);
        if let Some(version) = foreign {
            return Err(Error::Io {
                message: format!(
                    "{} is a format v{version} store log; this build reads only \
                     v{FORMAT_VERSION} and leaves the file as it is",
                    path.display()
                ),
            });
        }
        let _ = std::fs::remove_file(dir.join(STORE_TMP_FILE));
        let mut store = FunctionStore::in_memory();
        store.opts = opts;
        store.dir = Some(dir);
        if let Some(raw) = raw {
            let valid_len = store.load(&raw);
            if valid_len < raw.len() {
                // Truncate to the valid prefix so later appends land on
                // a clean tail instead of hiding behind corrupt bytes.
                let f = std::fs::OpenOptions::new().write(true).open(&path)?;
                f.set_len(valid_len as u64)?;
                f.sync_all()?;
            }
        }
        Ok(store)
    }

    /// The store directory, if persistent.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Number of distinct function bodies stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store holds no functions.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Ingests that hit an existing entry, over the store's lifetime in
    /// this process (resets on restart; the *entries* persist, the
    /// counters are per-run telemetry).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Ingests that created a new entry.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// `hits / (hits + misses)`, the index-reuse rate; 0 when nothing
    /// was ingested yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// What recovery found (and dropped) when this store was opened.
    pub fn recovery(&self) -> &RecoveryStats {
        &self.recovery
    }

    /// Current log size in bytes (0 for in-memory stores).
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Bytes in the log that compaction would reclaim (`seen` bump
    /// records and repeated entries).
    pub fn dead_bytes(&self) -> u64 {
        self.dead_bytes
    }

    /// `dead_bytes / total_bytes` (0 for an empty log).
    pub fn dead_ratio(&self) -> f64 {
        if self.total_bytes == 0 {
            0.0
        } else {
            self.dead_bytes as f64 / self.total_bytes as f64
        }
    }

    /// Compactions completed since open.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Auto-compactions that failed (explicit [`FunctionStore::compact`]
    /// failures propagate to the caller instead).
    pub fn compact_failures(&self) -> u64 {
        self.compact_failures
    }

    /// Replaces the store's fault-injection plan (only the `store-*`
    /// sites are consulted).
    pub fn set_faults(&mut self, faults: FaultPlan) {
        self.opts.faults = faults;
    }

    /// The active fsync policy.
    pub fn fsync_policy(&self) -> FsyncPolicy {
        self.opts.fsync
    }

    /// Iterates stored entries in insertion order.
    pub fn entries(&self) -> impl Iterator<Item = &StoreEntry> {
        self.entries.iter()
    }

    /// Looks up a stored entry by content hash.
    pub fn get(&self, hash: ContentHash) -> Option<&StoreEntry> {
        self.by_hash.get(&hash.0).map(|&i| &self.entries[i])
    }

    /// Hashes every defined function of `module` into the store:
    /// already-known bodies bump `seen` (durably, via a WAL bump record)
    /// and count as hits, new bodies are fingerprinted, indexed,
    /// appended to disk (when persistent), and count as misses. All of
    /// an ingest's records go to the log in one write, *before* memory
    /// changes, so a failed write never leaves memory ahead of the log.
    pub fn ingest_module(&mut self, module: &Module) -> Result<IngestStats, Error> {
        self.ingest_module_hashed(module).map(|(stats, _)| stats)
    }

    /// [`FunctionStore::ingest_module`] that also returns the content
    /// hash of every defined function, in definition order (duplicates
    /// included) — the session's response cache keeps them, so a cached
    /// replay can bump `seen` without printing the upload again.
    pub fn ingest_module_hashed(
        &mut self,
        module: &Module,
    ) -> Result<(IngestStats, Vec<ContentHash>), Error> {
        let mut hashes = Vec::new();
        let mut entries: Vec<StoreEntry> = Vec::new();
        let mut fresh: HashSet<u128> = HashSet::new();
        // Repeated bodies in definition order, and how many of them
        // precede each new entry: a write fault at entry k leaves the
        // hits scanned before it counted, as a record-at-a-time ingest
        // that stopped there would.
        let mut repeats: Vec<ContentHash> = Vec::new();
        let mut hits_before: Vec<usize> = Vec::new();
        for f in module.func_ids() {
            if module.func(f).is_declaration() {
                continue;
            }
            let text = canonical_function_text(module, f);
            let hash = ContentHash::of_bytes(text.as_bytes());
            hashes.push(hash);
            if self.by_hash.contains_key(&hash.0) || !fresh.insert(hash.0) {
                repeats.push(hash);
            } else {
                let signature = self.index.signature_for(&Fingerprint::of(module, f));
                hits_before.push(repeats.len());
                entries.push(StoreEntry {
                    hash,
                    name: module.func(f).name.clone(),
                    seen: 1,
                    text,
                    signature,
                });
            }
        }
        let stats =
            IngestStats { functions: hashes.len(), hits: repeats.len(), misses: entries.len() };
        let committed = self.commit_batch(entries, &repeats);
        let applied = match &committed {
            Ok(()) => stats.misses,
            Err((applied, _)) => *applied,
        };
        self.misses += applied as u64;
        self.hits += hits_before.get(applied).copied().unwrap_or(stats.hits) as u64;
        committed.map_err(|(_, e)| e)?;
        Ok((stats, hashes))
    }

    /// Durably bumps `seen` for already-stored entries — the
    /// response-cache replay path, whose uploads never reach
    /// [`FunctionStore::ingest_module`] and previously left repeat
    /// counts at their first-ingest values. Every hash counts as a
    /// store hit; unknown hashes are ignored. Memory is only bumped
    /// once the records are written, so a failed write under-counts
    /// rather than diverging from the log.
    pub fn bump_seen(&mut self, hashes: &[ContentHash]) -> Result<(), Error> {
        let known: Vec<ContentHash> =
            hashes.iter().copied().filter(|h| self.by_hash.contains_key(&h.0)).collect();
        if known.is_empty() {
            return Ok(());
        }
        self.hits += known.len() as u64;
        self.commit_batch(Vec::new(), &known).map_err(|(_, e)| e)
    }

    /// The `k` most similar stored functions to the entry at `hash`
    /// (excluding itself), by MinHash signature agreement over the
    /// whole-store LSH index. This is the cross-module candidate search:
    /// the index spans every module ever ingested, not one upload.
    pub fn similar(&self, hash: ContentHash, k: usize) -> Vec<SimilarEntry> {
        let Some(&i) = self.by_hash.get(&hash.0) else {
            return Vec::new();
        };
        let subject = &self.entries[i];
        let mut scored: Vec<SimilarEntry> = self
            .index
            .shortlist(FuncId::from_index(i))
            .into_iter()
            .map(|f| {
                let e = &self.entries[f.index()];
                SimilarEntry {
                    hash: e.hash,
                    name: e.name.clone(),
                    score: estimated_jaccard(&subject.signature, &e.signature),
                }
            })
            .collect();
        scored.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.hash.cmp(&b.hash))
        });
        scored.truncate(k);
        scored
    }

    /// Rewrites the log to exactly the live entries (current `seen`
    /// counts folded in, bump records dropped) via
    /// `functions.store.tmp` + atomic rename. A crash or injected fault
    /// at any point leaves either the old or the new log.
    pub fn compact(&mut self) -> Result<CompactStats, Error> {
        let Some(dir) = self.dir.clone() else {
            return Ok(CompactStats::default());
        };
        let bytes_before = self.total_bytes;
        let mut buf = header().into_bytes();
        for e in &self.entries {
            buf.extend_from_slice(&frame(&entry_payload(e)));
        }
        let tmp = dir.join(STORE_TMP_FILE);
        let path = dir.join(STORE_FILE);
        if let Err(e) = self.write_snapshot(&tmp, &path, &buf) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        // Best-effort directory sync so the rename itself is durable.
        if let Ok(d) = File::open(&dir) {
            let _ = d.sync_all();
        }
        self.file = Some(std::fs::OpenOptions::new().append(true).open(&path)?);
        self.total_bytes = buf.len() as u64;
        self.dead_bytes = 0;
        self.dirty = false;
        self.last_sync = Instant::now();
        self.compactions += 1;
        Ok(CompactStats {
            entries: self.entries.len(),
            bytes_before,
            bytes_after: self.total_bytes,
        })
    }

    /// Fsyncs any unsynced appends (used by graceful shutdown and by
    /// `Interval` policy users that want a final durability point).
    pub fn flush(&mut self) -> Result<(), Error> {
        if self.dirty {
            self.sync_now()?;
        }
        Ok(())
    }

    // ---- internals ----

    fn insert_entry(&mut self, entry: StoreEntry) {
        let id = FuncId::from_index(self.entries.len());
        self.index.insert_signature(id, entry.signature.clone());
        self.by_hash.insert(entry.hash.0, self.entries.len());
        self.entries.push(entry);
    }

    fn injected(&self, site: FaultSite) -> Error {
        Error::from(std::io::Error::other(format!(
            "{INJECTED_PANIC_PREFIX} {} at store op {}",
            site.name(),
            self.ops
        )))
    }

    /// Logs and applies one batch of records: `entries`, then one `seen`
    /// bump per distinct hash in `repeats` (first-repeat order), framed
    /// into one buffer and written once; then the fsync the policy asks
    /// for and any due auto-compaction. Each record advances the op
    /// counter and consults the `StoreWrite` fault site in order: a fault
    /// at record k writes and applies records 1..k−1, then returns the
    /// error — exactly what appending one record at a time would leave.
    /// Write-ahead: memory changes only after the write succeeds. An
    /// error carries how many of `entries` were applied.
    fn commit_batch(
        &mut self,
        entries: Vec<StoreEntry>,
        repeats: &[ContentHash],
    ) -> Result<(), (usize, Error)> {
        let mut bumps: Vec<(ContentHash, u64)> = Vec::new();
        for &hash in repeats {
            match bumps.iter_mut().find(|(h, _)| *h == hash) {
                Some((_, n)) => *n += 1,
                None => bumps.push((hash, 1)),
            }
        }
        let records = entries.len() + bumps.len();
        let mut landed = records;
        let mut fault = None;
        if self.dir.is_some() && records > 0 {
            let mut buf = Vec::new();
            let mut dead = 0u64;
            for k in 0..records {
                self.ops += 1;
                if self.opts.faults.fires(FaultSite::StoreWrite, "store", &self.ops.to_string()) {
                    landed = k;
                    fault = Some(self.injected(FaultSite::StoreWrite));
                    break;
                }
                match entries.get(k) {
                    Some(entry) => buf.extend_from_slice(&frame(&entry_payload(entry))),
                    None => {
                        let (hash, delta) = bumps[k - entries.len()];
                        let framed = frame(format!("seen {hash} +{delta}").as_bytes());
                        dead += framed.len() as u64;
                        buf.extend_from_slice(&framed);
                    }
                }
            }
            if !buf.is_empty() {
                self.write_log(&buf).map_err(|e| (0, e))?;
                self.dead_bytes += dead;
            }
        }
        let applied = landed.min(entries.len());
        for entry in entries.into_iter().take(applied) {
            self.insert_entry(entry);
        }
        for &(hash, delta) in &bumps[..landed - applied] {
            if let Some(&i) = self.by_hash.get(&hash.0) {
                self.entries[i].seen += delta;
            }
        }
        if let Some(e) = fault {
            return Err((applied, e));
        }
        self.sync_per_policy().map_err(|e| (applied, e))?;
        self.maybe_auto_compact();
        Ok(())
    }

    /// Appends framed records to the log, creating the file (with its
    /// header) on first use.
    fn write_log(&mut self, framed: &[u8]) -> Result<(), Error> {
        if self.file.is_none() {
            let path = self.dir.as_ref().expect("persistent").join(STORE_FILE);
            let fresh =
                !path.exists() || std::fs::metadata(&path).map(|m| m.len() == 0).unwrap_or(true);
            let mut file = std::fs::OpenOptions::new().create(true).append(true).open(&path)?;
            if fresh {
                let header = header();
                file.write_all(header.as_bytes())?;
                self.total_bytes = header.len() as u64;
            }
            self.file = Some(file);
        }
        self.file.as_mut().expect("append handle").write_all(framed)?;
        self.total_bytes += framed.len() as u64;
        self.dirty = true;
        Ok(())
    }

    fn sync_now(&mut self) -> Result<(), Error> {
        self.ops += 1;
        if self.opts.faults.fires(FaultSite::StoreFsync, "store", &self.ops.to_string()) {
            return Err(self.injected(FaultSite::StoreFsync));
        }
        if let Some(file) = &self.file {
            file.sync_all()?;
        }
        self.dirty = false;
        self.last_sync = Instant::now();
        Ok(())
    }

    fn sync_per_policy(&mut self) -> Result<(), Error> {
        if !self.dirty {
            return Ok(());
        }
        match self.opts.fsync {
            FsyncPolicy::Never => Ok(()),
            FsyncPolicy::PerIngest => self.sync_now(),
            FsyncPolicy::Interval(d) => {
                if self.last_sync.elapsed() >= d {
                    self.sync_now()
                } else {
                    Ok(())
                }
            }
        }
    }

    fn maybe_auto_compact(&mut self) {
        if self.dir.is_some()
            && self.total_bytes >= COMPACT_MIN_BYTES
            && self.dead_ratio() >= COMPACT_DEAD_RATIO
            && self.compact().is_err()
        {
            // The ingest that triggered this already succeeded; a failed
            // background compaction is counted and retried on a later
            // ingest rather than failing the request.
            self.compact_failures += 1;
        }
    }

    /// Writes and publishes a compaction snapshot; each I/O step is a
    /// fault-injection point.
    fn write_snapshot(&mut self, tmp: &Path, path: &Path, buf: &[u8]) -> Result<(), Error> {
        self.ops += 1;
        if self.opts.faults.fires(FaultSite::StoreWrite, "store", &self.ops.to_string()) {
            return Err(self.injected(FaultSite::StoreWrite));
        }
        let mut f = File::create(tmp)?;
        f.write_all(buf)?;
        self.ops += 1;
        if self.opts.faults.fires(FaultSite::StoreFsync, "store", &self.ops.to_string()) {
            return Err(self.injected(FaultSite::StoreFsync));
        }
        f.sync_all()?;
        drop(f);
        self.ops += 1;
        if self.opts.faults.fires(FaultSite::StoreRename, "store", &self.ops.to_string()) {
            return Err(self.injected(FaultSite::StoreRename));
        }
        std::fs::rename(tmp, path)?;
        Ok(())
    }

    /// Loads entries from a raw store file, returning the byte length of
    /// the valid prefix (0 for an empty, torn or garbled header).
    fn load(&mut self, raw: &[u8]) -> usize {
        let (records, valid_len, skipped_records) = walk(raw);
        let mut seen_records = 0;
        for (payload, size) in records {
            match payload {
                Payload::Entry(entry) => {
                    if !self.by_hash.contains_key(&entry.hash.0) {
                        self.insert_entry(entry);
                    } else {
                        self.dead_bytes += size as u64;
                    }
                }
                Payload::Seen(hash, delta) => {
                    seen_records += 1;
                    if let Some(&i) = self.by_hash.get(&hash.0) {
                        self.entries[i].seen += delta;
                    }
                    self.dead_bytes += size as u64;
                }
            }
        }
        self.total_bytes = valid_len as u64;
        self.recovery = RecoveryStats {
            entries: self.entries.len(),
            seen_records,
            skipped_records,
            bytes_dropped: (raw.len() - valid_len) as u64,
        };
        valid_len
    }
}

/// One record payload of a log.
enum Payload {
    Entry(StoreEntry),
    Seen(ContentHash, u64),
}

/// Walks the framed records of a log (header included in the valid
/// prefix), stopping at the first frame that fails to parse or
/// checksum. Returns the records with their framed byte sizes, the
/// valid prefix length, and how many frame headers follow it. A log
/// without this build's header has no valid prefix, and counts as one
/// skipped record unless it is empty.
fn walk(raw: &[u8]) -> (Vec<(Payload, usize)>, usize, usize) {
    let header = header();
    if !raw.starts_with(header.as_bytes()) {
        return (Vec::new(), 0, usize::from(!raw.is_empty()));
    }
    let mut records = Vec::new();
    let mut pos = header.len();
    loop {
        let rest = &raw[pos..];
        if rest.is_empty() {
            break;
        }
        let Some(parsed) = parse_frame(rest) else { break };
        let (payload, size) = parsed;
        records.push((payload, size));
        pos += size;
    }
    let skipped = count_skipped(&raw[pos..]);
    (records, pos, skipped)
}

/// Parses one frame off the front of `rest`: `R <len> <crc>\n<payload>\n`
/// with a matching checksum and a well-formed payload.
fn parse_frame(rest: &[u8]) -> Option<(Payload, usize)> {
    let nl = rest.iter().position(|&b| b == b'\n')?;
    let line = std::str::from_utf8(&rest[..nl]).ok()?;
    let fields = line.strip_prefix("R ")?;
    let (len_s, crc_s) = fields.split_once(' ')?;
    let len: usize = len_s.parse().ok()?;
    if crc_s.len() != 8 {
        return None;
    }
    let crc = u32::from_str_radix(crc_s, 16).ok()?;
    let body_start = nl + 1;
    if rest.len() < body_start + len + 1 || rest[body_start + len] != b'\n' {
        return None;
    }
    let payload = &rest[body_start..body_start + len];
    if crc32(payload) != crc {
        return None;
    }
    let payload = parse_payload(std::str::from_utf8(payload).ok()?)?;
    Some((payload, body_start + len + 1))
}

/// Parses a checksum-valid payload into an entry or a seen bump.
fn parse_payload(payload: &str) -> Option<Payload> {
    if let Some(fields) = payload.strip_prefix("seen ") {
        let (hash_s, delta_s) = fields.split_once(' ')?;
        let hash = ContentHash::from_hex(hash_s)?;
        let delta: u64 = delta_s.strip_prefix('+')?.parse().ok()?;
        return Some(Payload::Seen(hash, delta));
    }
    let (header, text) = payload.split_once('\n')?;
    let fields = header.strip_prefix("fn ")?;
    let (hash_s, fields) = fields.split_once(' ')?;
    let hash = ContentHash::from_hex(hash_s)?;
    let (seen_s, fields) = fields.split_once(' ')?;
    let seen: u64 = seen_s.strip_prefix("seen=")?.parse().ok()?;
    let (len_s, fields) = fields.split_once(' ')?;
    let len: usize = len_s.strip_prefix("len=")?.parse().ok()?;
    let (sig_s, name_s) = fields.split_once(' ')?;
    let sig_s = sig_s.strip_prefix("sig=")?;
    let name = name_s.strip_prefix("name=")?.to_owned();
    let mut signature = Vec::new();
    for part in sig_s.split(',') {
        signature.push(u64::from_str_radix(part, 16).ok()?);
    }
    if text.len() != len || ContentHash::of_bytes(text.as_bytes()) != hash {
        return None;
    }
    Some(Payload::Entry(StoreEntry { hash, name, seen, text: text.to_owned(), signature }))
}

/// The payload of an entry record (framing added by [`frame`]).
fn entry_payload(entry: &StoreEntry) -> Vec<u8> {
    let sig: Vec<String> = entry.signature.iter().map(|x| format!("{x:x}")).collect();
    let mut payload = format!(
        "fn {} seen={} len={} sig={} name={}\n",
        entry.hash,
        entry.seen,
        entry.text.len(),
        sig.join(","),
        entry.name
    )
    .into_bytes();
    payload.extend_from_slice(entry.text.as_bytes());
    payload
}

/// Counts the frame headers in the invalid remainder of a log — the
/// "skipped corrupt records" diagnostic. A non-empty remainder with no
/// recognizable frame header counts as one torn record.
fn count_skipped(remainder: &[u8]) -> usize {
    if remainder.is_empty() {
        return 0;
    }
    let mut n = 0;
    let mut at_line_start = true;
    let mut iter = remainder.iter().peekable();
    while let Some(&b) = iter.next() {
        if at_line_start && b == b'R' && iter.peek() == Some(&&b' ') {
            n += 1;
        }
        at_line_start = b == b'\n';
    }
    n.max(1)
}

/// A summary scan of raw store-file bytes — what [`FunctionStore::open`]
/// would recover — without building a store. Recovery tooling and the
/// chaos harness use this to compute the expected surviving set after a
/// simulated crash.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreScan {
    /// The format version the log's first line names (`fmsa-store v<N>`),
    /// or `None` for an empty, torn or garbled header.
    pub version: Option<u32>,
    /// Recovered `(hash, seen)` pairs, bump records folded in.
    pub entries: Vec<(ContentHash, u64)>,
    /// Byte length of the checksum-valid prefix.
    pub valid_len: usize,
    /// Frame headers (or one torn record) past the valid prefix.
    pub skipped_records: usize,
    /// `seen` bump records inside the valid prefix.
    pub seen_records: usize,
}

impl StoreScan {
    /// Whether [`FunctionStore::open`] refuses this log, leaving it as it
    /// is: its header names another format version than
    /// [`FORMAT_VERSION`]. A refused log recovers nothing.
    pub fn refused(&self) -> bool {
        self.version.is_some_and(|v| v != FORMAT_VERSION)
    }
}

/// Scans raw store-file bytes; see [`StoreScan`].
pub fn scan_store(raw: &[u8]) -> StoreScan {
    let version = header_version(raw);
    if version.is_some_and(|v| v != FORMAT_VERSION) {
        return StoreScan { version, ..StoreScan::default() };
    }
    let (records, valid_len, skipped_records) = walk(raw);
    let mut entries: Vec<(ContentHash, u64)> = Vec::new();
    let mut seen_records = 0;
    for (payload, _) in records {
        match payload {
            Payload::Entry(e) => {
                if !entries.iter().any(|(h, _)| *h == e.hash) {
                    entries.push((e.hash, e.seen));
                }
            }
            Payload::Seen(hash, delta) => {
                seen_records += 1;
                if let Some((_, n)) = entries.iter_mut().find(|(h, _)| *h == hash) {
                    *n += delta;
                }
            }
        }
    }
    StoreScan { version, entries, valid_len, skipped_records, seen_records }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmsa_ir::{FuncBuilder, Value};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("fmsa-store-test-{}-{tag}-{n}", std::process::id()))
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

    #[test]
    fn canonical_text_is_name_independent() {
        let m = module_with(&[("alpha", 1), ("beta_longer_name", 1)]);
        let ids = m.func_ids();
        let ta = canonical_function_text(&m, ids[0]);
        let tb = canonical_function_text(&m, ids[1]);
        assert_eq!(ta, tb);
        assert!(ta.contains("@<self>"), "{ta}");
        assert!(!ta.contains("alpha"));
    }

    #[test]
    fn prefix_names_do_not_over_normalize() {
        // A function `f` calling `ff` must not rewrite `@ff` to
        // `@<self>f`.
        let mut m = module_with(&[("ff", 1)]);
        let i32t = m.types.i32();
        let fn_ty = m.types.func(i32t, vec![i32t]);
        let callee = m.func_ids()[0];
        let f = m.create_function("f", fn_ty);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.block("entry");
        b.switch_to(e);
        let r = b.call(callee, vec![Value::Param(0)]);
        b.ret(Some(r));
        let text = canonical_function_text(&m, f);
        assert!(text.contains("@ff"), "{text}");
        assert!(text.contains("@<self>"), "{text}");
    }

    /// A recursive `fact` calling a helper, with an unnamed block: the
    /// input of the pinned-bytes tests below.
    fn fact_module() -> (Module, FuncId) {
        let mut m = module_with(&[("fact_helper", 3)]);
        let helper = m.func_ids()[0];
        let i32t = m.types.i32();
        let fn_ty = m.types.func(i32t, vec![i32t]);
        let f = m.create_function("fact", fn_ty);
        let mut b = FuncBuilder::new(&mut m, f);
        let entry = b.block("entry");
        let rec = b.block("rec");
        let done = b.block("");
        b.switch_to(entry);
        let small = b.icmp(fmsa_ir::IntPredicate::Sle, Value::Param(0), b.const_i32(1));
        b.condbr(small, done, rec);
        b.switch_to(rec);
        let n1 = b.sub(Value::Param(0), b.const_i32(1));
        let r = b.call(f, vec![n1]);
        let h = b.call(helper, vec![r]);
        let p = b.mul(h, Value::Param(0));
        b.br(done);
        b.switch_to(done);
        let out = b.phi(i32t, vec![(b.const_i32(1), entry), (p, rec)]);
        b.ret(Some(out));
        (m, f)
    }

    #[test]
    fn canonical_text_and_hash_are_pinned() {
        // Store logs persist these hashes: any drift in the printed text
        // turns every stored function into a miss on its next upload.
        let (m, f) = fact_module();
        let text = canonical_function_text(&m, f);
        let expected = r#"define internal i32 @<self>(i32 %a0) {
entry.0:
  %v0 = icmp sle i32 %a0, i32 1
  condbr i1 %v0, label %bb2, label %rec.1
rec.1:
  %v2 = sub i32 %a0, i32 1
  %v3 = call i32 @<self>(i32 %v2)
  %v4 = call i32 @fact_helper(i32 %v3)
  %v5 = mul i32 %v4, i32 %a0
  br label %bb2
bb2:
  %v7 = phi i32 [ i32 1, %entry.0 ], [ i32 %v5, %rec.1 ]
  ret i32 %v7
}
"#;
        assert_eq!(text, expected);
        assert_eq!(
            ContentHash::of_bytes(text.as_bytes()).to_string(),
            "32387c7edff8bb22214fbcb175b6663f"
        );
    }

    #[test]
    fn stored_signature_is_pinned() {
        // Store logs persist these 128 MinHash words and a restart
        // rebuilds the LSH index from them: any drift strands every
        // stored function in buckets fresh uploads no longer reach.
        let (m, f) = fact_module();
        let mut store = FunctionStore::in_memory();
        store.ingest_module(&m).unwrap();
        let hash = ContentHash::of_bytes(canonical_function_text(&m, f).as_bytes());
        let sig = store.get(hash).expect("fact is stored").signature();
        assert_eq!(sig.len(), 128);
        // The log's `sig=` form.
        let words: Vec<String> = sig.iter().map(|x| format!("{x:x}")).collect();
        assert_eq!(
            ContentHash::of_bytes(words.join(",").as_bytes()).to_string(),
            "e8ee77b346dd6807f09125aaa4240c50"
        );
    }

    #[test]
    fn ingest_dedupes_and_counts() {
        let mut store = FunctionStore::in_memory();
        let m = module_with(&[("a", 1), ("b", 1), ("c", 9)]);
        let s1 = store.ingest_module(&m).unwrap();
        // a and b share a body (name-normalized), c differs.
        assert_eq!(s1.functions, 3);
        assert_eq!(s1.misses, 2);
        assert_eq!(s1.hits, 1);
        assert_eq!(store.len(), 2);
        let s2 = store.ingest_module(&m).unwrap();
        assert_eq!(s2.hits, 3);
        assert_eq!(s2.misses, 0);
        assert!(store.hit_rate() > 0.5);
    }

    #[test]
    fn persistence_survives_reopen() {
        let dir = temp_dir("reopen");
        let m = module_with(&[("a", 1), ("c", 9)]);
        {
            let mut store = FunctionStore::open(&dir).unwrap();
            let s = store.ingest_module(&m).unwrap();
            assert_eq!(s.misses, 2);
        }
        let mut store = FunctionStore::open(&dir).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.hits(), 0, "counters are per-run");
        assert_eq!(store.recovery().entries, 2);
        assert_eq!(store.recovery().skipped_records, 0);
        let s = store.ingest_module(&m).unwrap();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 0);
        assert!(store.hit_rate() > 0.99);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_ignored_and_truncated() {
        let dir = temp_dir("torn");
        let m = module_with(&[("a", 1), ("c", 9)]);
        {
            let mut store = FunctionStore::open(&dir).unwrap();
            store.ingest_module(&m).unwrap();
        }
        // Simulate a crash mid-append: chop bytes off the tail.
        let path = dir.join(STORE_FILE);
        let mut raw = std::fs::read(&path).unwrap();
        let cut = raw.len() - 17;
        raw.truncate(cut);
        std::fs::write(&path, &raw).unwrap();
        let store = FunctionStore::open(&dir).unwrap();
        assert_eq!(store.len(), 1, "intact prefix loads, torn tail dropped");
        assert_eq!(store.recovery().skipped_records, 1);
        assert!(store.recovery().bytes_dropped > 0);
        // Recovery truncated the log: a fresh open sees a clean file.
        let again = FunctionStore::open(&dir).unwrap();
        assert_eq!(again.len(), 1);
        assert_eq!(again.recovery().skipped_records, 0);
        assert_eq!(again.recovery().bytes_dropped, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flip_recovers_longest_valid_prefix() {
        let dir = temp_dir("flip");
        let m = module_with(&[("a", 1), ("c", 9)]);
        {
            let mut store = FunctionStore::open(&dir).unwrap();
            store.ingest_module(&m).unwrap();
        }
        let path = dir.join(STORE_FILE);
        let mut raw = std::fs::read(&path).unwrap();
        // Flip one bit in the *second* record's payload: CRC must catch
        // it and recovery keeps exactly the first record.
        let scan = scan_store(&raw);
        assert_eq!(scan.entries.len(), 2);
        let mid = raw.len() - 10;
        raw[mid] ^= 0x40;
        std::fs::write(&path, &raw).unwrap();
        let store = FunctionStore::open(&dir).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.recovery().skipped_records, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn seen_counts_are_durable() {
        let dir = temp_dir("seen");
        let m = module_with(&[("a", 1), ("c", 9)]);
        {
            let mut store = FunctionStore::open(&dir).unwrap();
            store.ingest_module(&m).unwrap();
            store.ingest_module(&m).unwrap();
            store.ingest_module(&m).unwrap();
        }
        let mut store = FunctionStore::open(&dir).unwrap();
        for e in store.entries() {
            assert_eq!(e.seen, 3, "{}: seen bumps must survive restart", e.name);
        }
        assert_eq!(store.recovery().seen_records, 4, "2 entries x 2 repeat ingests");
        // Compaction folds the bumps and drops the bump records.
        let before = store.total_bytes();
        let stats = store.compact().unwrap();
        assert_eq!(stats.bytes_before, before);
        assert!(stats.bytes_after < before);
        assert_eq!(store.dead_bytes(), 0);
        drop(store);
        let store = FunctionStore::open(&dir).unwrap();
        for e in store.entries() {
            assert_eq!(e.seen, 3, "folded seen survives compaction");
        }
        assert_eq!(store.recovery().seen_records, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn logs_of_another_format_version_are_refused_untouched() {
        // Each log holds two entries under the header of another version:
        // v1 (unframed records, the format before this one), v3 (a later
        // format) and v0. `open` names the version and leaves every byte.
        let m = module_with(&[("a", 1), ("c", 9)]);
        let mut mem = FunctionStore::in_memory();
        mem.ingest_module(&m).unwrap();
        for version in [0, 1, 3] {
            let dir = temp_dir("foreign");
            std::fs::create_dir_all(&dir).unwrap();
            let mut log = format!("fmsa-store v{version}\n").into_bytes();
            for e in mem.entries() {
                log.extend_from_slice(&entry_payload(e));
                log.push(b'\n');
            }
            let path = dir.join(STORE_FILE);
            std::fs::write(&path, &log).unwrap();
            let err = FunctionStore::open(&dir).unwrap_err();
            assert!(err.to_string().contains(&format!("format v{version} store log")), "{err}");
            assert_eq!(std::fs::read(&path).unwrap(), log, "the v{version} log is left as it was");
            let scan = scan_store(&log);
            assert!(scan.refused() && scan.entries.is_empty(), "{scan:?}");
            std::fs::remove_dir_all(&dir).ok();
        }
        // A torn or garbled header names no version: nothing is
        // recovered, and the log is truncated.
        for torn in [&b"fmsa-store v"[..], b"fmsa-store v2", b"fmsa-stire v2\nR 1 0\nx\n"] {
            let dir = temp_dir("torn-header");
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join(STORE_FILE), torn).unwrap();
            assert!(!scan_store(torn).refused());
            let store = FunctionStore::open(&dir).unwrap();
            assert!(store.is_empty());
            assert_eq!(store.recovery().skipped_records, 1);
            assert_eq!(std::fs::read(dir.join(STORE_FILE)).unwrap(), b"");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// A `StoreWrite` plan whose first fault among store ops
    /// `from..=at` is op `at` (found by seed search: `fires` is a pure
    /// function of seed and op number).
    fn first_write_fault_at(from: u64, at: u64) -> FaultPlan {
        (0..)
            .map(|seed| FaultPlan::new(seed, 250_000, &[FaultSite::StoreWrite]))
            .find(|plan| {
                (from..=at).all(|op| {
                    plan.fires(FaultSite::StoreWrite, "store", &op.to_string()) == (op == at)
                })
            })
            .expect("some seed faults exactly there")
    }

    /// `(hash, seen)` of every entry, in insertion order.
    fn seen_counts(store: &FunctionStore) -> Vec<(ContentHash, u64)> {
        store.entries().map(|e| (e.hash, e.seen)).collect()
    }

    /// Memory, the raw log, and a reopened store all hold the same
    /// entries with the same counts.
    fn assert_disk_agrees(store: &FunctionStore, dir: &Path) {
        let memory = seen_counts(store);
        let raw = std::fs::read(dir.join(STORE_FILE)).unwrap_or_default();
        assert_eq!(scan_store(&raw).entries, memory, "log vs memory");
        assert_eq!(seen_counts(&FunctionStore::open(dir).unwrap()), memory, "reopen vs memory");
    }

    #[test]
    fn injected_write_fault_keeps_memory_and_disk_agreeing() {
        let dir = temp_dir("fault-write");
        let opts = StoreOptions {
            faults: FaultPlan::new(1, 1_000_000, &[FaultSite::StoreWrite]),
            ..StoreOptions::default()
        };
        let mut store = FunctionStore::open_with(&dir, opts).unwrap();
        let m = module_with(&[("a", 1)]);
        let err = store.ingest_module(&m).unwrap_err();
        assert!(err.to_string().contains("injected fault"), "{err}");
        assert!(store.is_empty(), "failed append must not leave a memory-only entry");
        // Clearing the plan makes the retry (a later op) succeed.
        store.set_faults(FaultPlan::disabled());
        store.ingest_module(&m).unwrap();
        assert_eq!(store.len(), 1);
        drop(store);
        let store = FunctionStore::open(&dir).unwrap();
        assert_eq!(store.len(), 1);
        std::fs::remove_dir_all(&dir).ok();

        // A fault at record k > 1 keeps records 1..k-1, on disk and in
        // memory, and leaves the op counter where appending one record
        // at a time would. Here the records are entries a, b, c, d (ops
        // 1-4), then a's seen bump (op 5); a fault at c (op 3) keeps a
        // and b, and the one hit (a2) scanned before c.
        let dir = temp_dir("fault-entry-k");
        let m = module_with(&[("a", 1), ("a2", 1), ("b", 2), ("c", 3), ("d", 4)]);
        let opts = StoreOptions { faults: first_write_fault_at(1, 3), ..StoreOptions::default() };
        let mut store = FunctionStore::open_with(&dir, opts).unwrap();
        store.ingest_module(&m).unwrap_err();
        assert_eq!(store.ops, 3, "one op per record up to the fault");
        assert_eq!((store.len(), store.misses(), store.hits()), (2, 2, 1));
        assert_disk_agrees(&store, &dir);
        std::fs::remove_dir_all(&dir).ok();

        // Entries a, b (ops 1-2), bumps a then b (ops 3-4): a fault at
        // b's bump keeps both entries and a's bump.
        let dir = temp_dir("fault-bump-k");
        let m = module_with(&[("a", 1), ("a2", 1), ("b", 2), ("b2", 2)]);
        let opts = StoreOptions { faults: first_write_fault_at(1, 4), ..StoreOptions::default() };
        let mut store = FunctionStore::open_with(&dir, opts).unwrap();
        store.ingest_module(&m).unwrap_err();
        assert_eq!(store.ops, 4);
        let seen: Vec<u64> = store.entries().map(|e| e.seen).collect();
        assert_eq!(seen, [2, 1]);
        assert_eq!((store.misses(), store.hits()), (2, 2));
        assert_disk_agrees(&store, &dir);

        // Ingesting c takes ops 5 (its entry) and 6 (the fsync). A replay
        // of a, b, c, a then bumps a+2, b+1, c+1 at ops 7-9; a fault at
        // the second bump keeps a's only.
        store.set_faults(FaultPlan::disabled());
        let (_, hashes) = store.ingest_module_hashed(&module_with(&[("c", 3)])).unwrap();
        assert_eq!(store.ops, 6);
        let [a, b, c] = [store.entries[0].hash, store.entries[1].hash, hashes[0]];
        store.set_faults(first_write_fault_at(7, 8));
        store.bump_seen(&[a, b, c, a]).unwrap_err();
        assert_eq!(store.ops, 8);
        assert_eq!(seen_counts(&store), [(a, 4), (b, 1), (c, 1)]);
        assert_disk_agrees(&store, &dir);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batched_log_is_each_record_framed_in_order() {
        let dir = temp_dir("frames");
        // The log stays under `COMPACT_MIN_BYTES`, so nothing compacts it.
        let mut store = FunctionStore::open(&dir).unwrap();
        let m = module_with(&[("a", 1), ("b", 2), ("a2", 1)]);
        let (_, hashes) = store.ingest_module_hashed(&m).unwrap();
        store.ingest_module(&m).unwrap();
        let [a, b] = [hashes[0], hashes[1]];
        store.bump_seen(&[b, a, b]).unwrap();
        let first = |h| entry_payload(&StoreEntry { seen: 1, ..store.get(h).unwrap().clone() });
        let seen = |h: ContentHash, delta: u64| format!("seen {h} +{delta}").into_bytes();
        let records = [
            // The first ingest: a and b are new, a2 repeats a.
            first(a),
            first(b),
            seen(a, 1),
            // The re-ingest, then the replay, in first-repeat order.
            seen(a, 2),
            seen(b, 1),
            seen(b, 2),
            seen(a, 1),
        ];
        let mut expected = header().into_bytes();
        for record in &records {
            expected.extend_from_slice(&frame(record));
        }
        assert_eq!(std::fs::read(dir.join(STORE_FILE)).unwrap(), expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingest_returns_the_canonical_hash_of_each_defined_function() {
        let mut m = module_with(&[("a", 1), ("b", 2)]);
        let i32t = m.types.i32();
        let fn_ty = m.types.func(i32t, vec![i32t]);
        m.create_function("ext", fn_ty); // a declaration: skipped
        let dup = m.create_function("a_again", fn_ty); // the body of a
        let mut b = FuncBuilder::new(&mut m, dup);
        let e = b.block("entry");
        b.switch_to(e);
        let mut v = Value::Param(0);
        for j in 0..6 {
            v = b.add(v, b.const_i32(1 + j));
        }
        b.ret(Some(v));
        let expected: Vec<ContentHash> = m
            .func_ids()
            .into_iter()
            .filter(|&f| !m.func(f).is_declaration())
            .map(|f| ContentHash::of_bytes(canonical_function_text(&m, f).as_bytes()))
            .collect();
        let mut store = FunctionStore::in_memory();
        let (stats, hashes) = store.ingest_module_hashed(&m).unwrap();
        assert_eq!(hashes, expected);
        assert_eq!(hashes.len(), 3);
        assert_eq!(hashes[2], hashes[0], "a duplicate body hashes like its first copy");
        assert_eq!((stats.functions, stats.misses, stats.hits), (3, 2, 1));
    }

    #[test]
    fn injected_rename_fault_leaves_old_log_authoritative() {
        let dir = temp_dir("fault-rename");
        let m = module_with(&[("a", 1), ("c", 9)]);
        let mut store = FunctionStore::open(&dir).unwrap();
        store.ingest_module(&m).unwrap();
        store.ingest_module(&m).unwrap();
        store.set_faults(FaultPlan::new(1, 1_000_000, &[FaultSite::StoreRename]));
        let err = store.compact().unwrap_err();
        assert!(err.to_string().contains("store-rename"), "{err}");
        assert!(!dir.join(STORE_TMP_FILE).exists(), "failed compaction cleans its tmp");
        // The store keeps appending to the old log and stays readable.
        store.set_faults(FaultPlan::disabled());
        store.ingest_module(&m).unwrap();
        drop(store);
        let store = FunctionStore::open(&dir).unwrap();
        assert_eq!(store.len(), 2);
        for e in store.entries() {
            assert_eq!(e.seen, 3);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn auto_compaction_triggers_on_dead_ratio() {
        let dir = temp_dir("autocompact");
        let opts = StoreOptions { fsync: FsyncPolicy::Never, ..StoreOptions::default() };
        let mut store = FunctionStore::open_with(&dir, opts).unwrap();
        let m = module_with(&[("a", 1), ("c", 9)]);
        // Every re-ingest appends two seen bumps, all dead bytes, so the
        // dead ratio passes its threshold long before the log reaches
        // the size floor; the first compaction waits for the floor.
        let (mut ingests, mut dead_below_floor) = (0, false);
        while store.compactions() == 0 {
            assert!(ingests < 2_000, "no compaction after {ingests} ingests");
            assert!(
                store.total_bytes() < COMPACT_MIN_BYTES || store.dead_ratio() < COMPACT_DEAD_RATIO
            );
            dead_below_floor |= store.dead_ratio() >= COMPACT_DEAD_RATIO;
            store.ingest_module(&m).unwrap();
            ingests += 1;
        }
        assert!(dead_below_floor, "the floor held a log past the dead ratio back");
        assert_eq!(store.dead_bytes(), 0);
        assert!(store.total_bytes() < COMPACT_MIN_BYTES);
        drop(store);
        let store = FunctionStore::open(&dir).unwrap();
        assert_eq!(store.len(), 2);
        for e in store.entries() {
            assert_eq!(e.seen, ingests);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_compaction_tmp_is_ignored_and_removed() {
        let dir = temp_dir("staletmp");
        let m = module_with(&[("a", 1)]);
        {
            let mut store = FunctionStore::open(&dir).unwrap();
            store.ingest_module(&m).unwrap();
        }
        // A crash mid-compaction leaves a partial tmp; the rename never
        // happened, so the old log must win.
        std::fs::write(dir.join(STORE_TMP_FILE), b"fmsa-store v2\ngarbage").unwrap();
        let store = FunctionStore::open(&dir).unwrap();
        assert_eq!(store.len(), 1);
        assert!(!dir.join(STORE_TMP_FILE).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn similar_finds_near_clones_across_uploads() {
        let mut store = FunctionStore::in_memory();
        // Two separate "modules" (uploads) with similar bodies and one
        // very different body.
        store.ingest_module(&module_with(&[("a", 1)])).unwrap();
        store.ingest_module(&module_with(&[("b", 2)])).unwrap();
        let mut far = Module::new("far");
        let i32t = far.types.i32();
        let fn_ty = far.types.func(i32t, vec![i32t]);
        let f = far.create_function("far", fn_ty);
        let mut b = FuncBuilder::new(&mut far, f);
        let e = b.block("entry");
        b.switch_to(e);
        let mut v = Value::Param(0);
        for _ in 0..9 {
            v = b.mul(v, b.const_i32(3));
            v = b.xor(v, b.const_i32(5));
        }
        b.ret(Some(v));
        store.ingest_module(&far).unwrap();
        let subject = store.entries().next().unwrap().hash;
        let similar = store.similar(subject, 5);
        // The near-clone from the *other upload* must rank first.
        assert!(!similar.is_empty(), "cross-upload clone should collide in LSH");
        assert_eq!(similar[0].name, "b");
        assert!(similar[0].score > 0.8, "{:?}", similar[0]);
    }

    #[test]
    fn hash_hex_round_trips() {
        let h = ContentHash::of_bytes(b"some function body");
        assert_eq!(ContentHash::from_hex(&h.to_string()), Some(h));
        assert_eq!(ContentHash::from_hex("zz"), None);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(FsyncPolicy::parse("never"), Ok(FsyncPolicy::Never));
        assert_eq!(FsyncPolicy::parse("per-ingest"), Ok(FsyncPolicy::PerIngest));
        assert_eq!(
            FsyncPolicy::parse("interval:5"),
            Ok(FsyncPolicy::Interval(Duration::from_secs(5)))
        );
        assert!(FsyncPolicy::parse("interval:x").is_err());
        assert!(FsyncPolicy::parse("sometimes").is_err());
        assert_eq!(FsyncPolicy::Interval(Duration::from_secs(5)).to_string(), "interval:5");
    }
}
