//! # fmsa-core — Function Merging by Sequence Alignment
//!
//! The reproduction of the core contribution of Rocha et al., *Function
//! Merging by Sequence Alignment* (CGO 2019): merging arbitrary pairs of
//! functions — different bodies, CFGs, signatures and return types — by
//! aligning their linearized instruction sequences, plus the exploration
//! framework (fingerprints, ranking, profitability) that makes the
//! optimization practical, and the two baselines the paper evaluates
//! against.
//!
//! Module map (paper section in parentheses):
//!
//! * [`mod@linearize`] — CFG → sequence (§III-B)
//! * [`equivalence`] — instruction/label equivalence (§III-D)
//! * [`merge`] — parameter/return merging and two-pass code generation
//!   (§III-E)
//! * [`fingerprint`] — opcode/type fingerprints and the similarity upper
//!   bound (§IV)
//! * [`ranking`] — priority-queue candidate ranking with exploration
//!   threshold (§IV)
//! * [`search`] — pluggable candidate search: exact pairwise scan or
//!   near-linear MinHash/LSH shortlisting
//! * [`profitability`] — the Δ cost model over the target TTI (§IV-A)
//! * [`thunks`] — call-graph update: thunks, call-site rewriting, deletion
//! * [`pipeline`] — the optimization driver (§IV, Fig. 7), greedy or
//!   oracle, as a schedule/prepare/commit pipeline on a worker pool
//! * [`pass`] — a run's statistics and per-step timers (Fig. 13)
//! * [`baselines`] — LLVM-style identical merging and the SOA structural
//!   merging of von Koch et al. (§V-A)
//! * [`config`] / [`error`] — the unified public API: one builder-style
//!   [`Config`], one [`enum@Error`], one [`optimize`] entry point
//! * [`store`] / [`session`] — the content-addressed function store with
//!   its durable LSH index, and the request lifecycle the merge daemon
//!   (`fmsa-serve`) sits on
//! * [`telemetry`] — the flight recorder: span tracing with Chrome-trace
//!   export, the metrics registry behind `/metrics`, and the per-attempt
//!   merge decision log
//!
//! # Examples
//!
//! ```
//! use fmsa_ir::{Module, FuncBuilder, Value};
//! use fmsa_core::{optimize, Config};
//!
//! let mut m = Module::new("demo");
//! let i32t = m.types.i32();
//! let fn_ty = m.types.func(i32t, vec![i32t]);
//! for (i, name) in ["add_tag_a", "add_tag_b"].into_iter().enumerate() {
//!     let f = m.create_function(name, fn_ty);
//!     let mut b = FuncBuilder::new(&mut m, f);
//!     let entry = b.block("entry");
//!     b.switch_to(entry);
//!     // The bodies differ in one constant: past the identical-merging
//!     // prepass, squarely in FMSA territory.
//!     let mut v = Value::Param(0);
//!     for k in 0..10 {
//!         let c = if k == 0 { 41 + i as i32 } else { k };
//!         v = b.add(v, b.const_i32(c));
//!     }
//!     b.ret(Some(v));
//! }
//! let stats = optimize(&mut m, &Config::new()).unwrap();
//! assert_eq!(stats.merges, 1);
//! ```

#![warn(missing_docs)]

pub mod baselines;
pub mod callsites;
pub mod config;
pub mod equivalence;
pub mod error;
pub mod faults;
pub mod fingerprint;
pub mod linearize;
pub mod merge;
pub mod pass;
pub mod pipeline;
pub mod profitability;
pub mod quarantine;
pub mod ranking;
pub mod search;
pub mod session;
pub mod store;
pub mod telemetry;
pub mod thunks;

pub use callsites::CallSiteIndex;
pub use config::{optimize, Config};
pub use equivalence::{EquivCtx, KeyInterner};
pub use error::Error;
pub use faults::{silence_injected_panics, FaultPlan, FaultSite};
pub use linearize::{linearize, Entry, KeyAudit, LinearizationCache, Linearized};
pub use merge::{merge_pair, MergeConfig, MergeError, MergeInfo};
#[allow(deprecated)]
pub use pipeline::{run_fmsa_pipeline, PipelineOptions};
pub use quarantine::{QuarantineEntry, QuarantineLog, QuarantineStage};
pub use search::{CandidateSearch, ExactSearch, LshSearch, SearchStrategy};
pub use session::{MergeOutcome, MergeSession, RequestStats, SessionTotals};
pub use store::{
    scan_store, CompactStats, ContentHash, FsyncPolicy, FunctionStore, IngestStats, RecoveryStats,
    SimilarEntry, StoreEntry, StoreOptions, StoreScan,
};
pub use telemetry::{DecisionLog, DecisionOutcome, DecisionRecord, Registry};
