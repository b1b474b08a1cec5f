//! Span tracing with Chrome trace-event export.
//!
//! The recorder is off by default and costs one relaxed atomic load
//! per [`span`] call while disabled — no allocation, no clock read, no
//! lock. When enabled, spans record begin/end event pairs into
//! per-thread sharded buffers (each thread appends through its own
//! mutex, uncontended in steady state), which [`drain`] collects and
//! [`export_chrome`] serializes as Chrome trace-event JSON that loads
//! directly in Perfetto or `chrome://tracing`.
//!
//! Nesting falls out of RAII: a [`SpanGuard`] records the end event
//! when dropped, so spans on one thread always form a well-bracketed
//! sequence (property-tested in `crates/core/tests/telemetry.rs`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Per-thread event cap; beyond it events are counted as dropped
/// rather than recorded, bounding memory on long daemon runs.
const MAX_EVENTS_PER_THREAD: usize = 1 << 22;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

fn now_micros() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// One recorded trace event (begin or end of a span).
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Span name (e.g. `"prepare"`, `"merge_attempt"`).
    pub name: &'static str,
    /// Category tag grouping related spans (e.g. `"pipeline"`).
    pub cat: &'static str,
    /// `true` for a begin event, `false` for the matching end.
    pub begin: bool,
    /// Microseconds since the process-wide trace epoch.
    pub ts: u64,
    /// Stable per-thread lane id (assigned on first span per thread).
    pub tid: u64,
    /// Extra key/value arguments attached to the begin event.
    pub args: Vec<(&'static str, String)>,
}

struct Shard {
    tid: u64,
    events: Vec<TraceEvent>,
    dropped: u64,
}

static SHARDS: Mutex<Vec<Arc<Mutex<Shard>>>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: Arc<Mutex<Shard>> = {
        let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        let shard = Arc::new(Mutex::new(Shard { tid, events: Vec::new(), dropped: 0 }));
        SHARDS.lock().unwrap().push(Arc::clone(&shard));
        shard
    };
}

/// Returns whether the recorder is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the recorder on. Spans entered after this call are recorded.
pub fn enable() {
    epoch(); // pin the epoch before the first event
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns the recorder off. In-flight [`SpanGuard`]s still record
/// their end events so pairs stay balanced.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Appends one event to this thread's shard: one lock, no allocation
/// beyond the arguments, so tracing a sub-millisecond pass stays cheap.
fn record(name: &'static str, cat: &'static str, begin: bool, args: Vec<(&'static str, String)>) {
    let ts = now_micros();
    LOCAL.with(|shard| {
        let mut s = shard.lock().unwrap();
        if s.events.len() < MAX_EVENTS_PER_THREAD {
            let tid = s.tid;
            s.events.push(TraceEvent { name, cat, begin, ts, tid, args });
        } else {
            s.dropped += 1;
        }
    });
}

/// RAII guard for a span: records the end event on drop. Inert (and
/// free beyond the construction-time atomic load) when tracing is
/// disabled.
#[must_use = "a span covers the guard's lifetime; dropping it immediately records an empty span"]
pub struct SpanGuard {
    live: bool,
    name: &'static str,
    cat: &'static str,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.live {
            record(self.name, self.cat, false, Vec::new());
        }
    }
}

/// Enters a span named `name` in category `cat`. When the recorder is
/// disabled this is one atomic load and returns an inert guard.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { live: false, name, cat };
    }
    span_slow(cat, name, Vec::new())
}

/// Like [`span`] but attaches arguments to the begin event. The
/// closure runs only when the recorder is enabled, so argument
/// formatting costs nothing in the disabled path.
#[inline]
pub fn span_with<F>(cat: &'static str, name: &'static str, args: F) -> SpanGuard
where
    F: FnOnce() -> Vec<(&'static str, String)>,
{
    if !enabled() {
        return SpanGuard { live: false, name, cat };
    }
    span_slow(cat, name, args())
}

#[cold]
fn span_slow(
    cat: &'static str,
    name: &'static str,
    args: Vec<(&'static str, String)>,
) -> SpanGuard {
    record(name, cat, true, args);
    SpanGuard { live: true, name, cat }
}

/// Collects and clears every thread's recorded events. Returns the
/// events grouped by thread (each thread's events in record order)
/// plus the total number of events dropped to the per-thread cap.
pub fn drain() -> (Vec<TraceEvent>, u64) {
    let shards = SHARDS.lock().unwrap();
    let mut out = Vec::new();
    let mut dropped = 0;
    for shard in shards.iter() {
        let mut s = shard.lock().unwrap();
        out.append(&mut s.events);
        dropped += s.dropped;
        s.dropped = 0;
    }
    out.sort_by_key(|e| (e.tid, e.ts));
    (out, dropped)
}

/// Serializes events as Chrome trace-event JSON (the `traceEvents`
/// array form). The output loads in Perfetto / `chrome://tracing`.
pub fn export_chrome(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 64 + 128);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"fmsa\"}}",
    );
    for e in events {
        out.push_str(",\n{");
        out.push_str(&format!(
            "\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":1,\"tid\":{}",
            super::json_escape(e.name),
            super::json_escape(e.cat),
            if e.begin { "B" } else { "E" },
            e.ts,
            e.tid
        ));
        if !e.args.is_empty() {
            out.push_str(",\"args\":{");
            for (i, (k, v)) in e.args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\"{}\":\"{}\"",
                    super::json_escape(k),
                    super::json_escape(v)
                ));
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

/// Validates span discipline: within each thread, begin/end events
/// must form a well-bracketed sequence with non-decreasing timestamps
/// and matching names. Returns a description of the first violation.
pub fn check_nesting(events: &[TraceEvent]) -> Result<(), String> {
    use std::collections::HashMap;
    let mut stacks: HashMap<u64, Vec<&str>> = HashMap::new();
    let mut last_ts: HashMap<u64, u64> = HashMap::new();
    for e in events {
        if let Some(&prev) = last_ts.get(&e.tid) {
            if e.ts < prev {
                return Err(format!(
                    "tid {} timestamp went backwards: {} after {}",
                    e.tid, e.ts, prev
                ));
            }
        }
        last_ts.insert(e.tid, e.ts);
        let stack = stacks.entry(e.tid).or_default();
        if e.begin {
            stack.push(e.name);
        } else {
            match stack.pop() {
                Some(open) if open == e.name => {}
                Some(open) => {
                    return Err(format!(
                        "tid {}: end of \"{}\" while \"{}\" is open",
                        e.tid, e.name, open
                    ));
                }
                None => {
                    return Err(format!("tid {}: end of \"{}\" with no open span", e.tid, e.name));
                }
            }
        }
    }
    for (tid, stack) in &stacks {
        if !stack.is_empty() {
            return Err(format!("tid {}: {} span(s) left open: {:?}", tid, stack.len(), stack));
        }
    }
    Ok(())
}
