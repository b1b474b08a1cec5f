//! The benchmark's own span recorder. Spans are recorded only around
//! the benchmark's calls into the program's public functions; nothing
//! inside the program is instrumented. Spans stay in memory and are
//! written out as Chrome-trace JSON when the run ends.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_LANE: AtomicU32 = AtomicU32::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static LANE: Cell<Option<u32>> = const { Cell::new(None) };
    /// Indices into `SPANS` of this thread's open spans, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// One recorded span. `parent` is the enclosing open span on the same
/// thread, so each thread's spans form a tree (one lane per thread).
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name, `<layer>.<call>` (e.g. `ir.verify`).
    pub name: &'static str,
    /// Thread lane.
    pub lane: u32,
    /// Start, microseconds since the recorder started.
    pub start_us: f64,
    /// Duration in microseconds (0 while open).
    pub dur_us: f64,
    /// Enclosing span on the same lane.
    pub parent: Option<usize>,
}

impl Span {
    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Starts recording. Spans opened before this call are not recorded.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Closes its span when dropped.
pub struct Guard {
    index: Option<usize>,
    t0: Instant,
}

/// Opens a span named `name` on this thread's lane; a no-op unless
/// recording is enabled.
pub fn span(name: &'static str) -> Guard {
    let t0 = Instant::now();
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard { index: None, t0 };
    }
    let lane = LANE.with(|l| {
        let lane = l.get().unwrap_or_else(|| NEXT_LANE.fetch_add(1, Ordering::Relaxed));
        l.set(Some(lane));
        lane
    });
    let start_us = t0.duration_since(*EPOCH.get().expect("enabled")).as_secs_f64() * 1e6;
    let parent = OPEN.with(|o| o.borrow().last().copied());
    let index = {
        let mut spans = SPANS.lock().expect("span recorder lock poisoned");
        spans.push(Span { name, lane, start_us, dur_us: 0.0, parent });
        spans.len() - 1
    };
    OPEN.with(|o| o.borrow_mut().push(index));
    Guard { index: Some(index), t0 }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        let dur_us = self.t0.elapsed().as_secs_f64() * 1e6;
        OPEN.with(|o| {
            let popped = o.borrow_mut().pop();
            debug_assert_eq!(popped, Some(index), "spans close innermost first");
        });
        if let Ok(mut spans) = SPANS.lock() {
            spans[index].dur_us = dur_us;
        }
    }
}

/// Runs `f` inside a span named `name`.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _g = span(name);
    f()
}

/// A copy of every span recorded so far.
pub fn spans() -> Vec<Span> {
    SPANS.lock().expect("span recorder lock poisoned").clone()
}

/// Each span's self time in microseconds: its duration minus the
/// durations of its direct children. Children on one lane run one after
/// another inside their parent, so a lane's self times add up exactly
/// to the duration of its root spans.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut selfs: Vec<f64> = spans.iter().map(|s| s.dur_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            selfs[p] -= s.dur_us;
        }
    }
    selfs
}

/// Self time per layer, in seconds, over all lanes.
pub fn layer_self_s(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, self_us) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer()).or_insert(0.0) += self_us / 1e6;
    }
    out
}

/// Self time in seconds of `layer`'s spans on `lane`.
pub fn lane_layer_self_s(spans: &[Span], lane: u32, layer: &str) -> f64 {
    spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| s.lane == lane && s.layer() == layer)
        .map(|(_, self_us)| self_us / 1e6)
        .sum()
}

/// Total duration in seconds of the spans named `name`.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(|s| s.dur_us).sum::<f64>() / 1e6
}

/// Per lane: (sum of self times, sum of root-span durations), seconds.
pub fn lane_balance(spans: &[Span]) -> BTreeMap<u32, (f64, f64)> {
    let mut out: BTreeMap<u32, (f64, f64)> = BTreeMap::new();
    for (s, self_us) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.lane).or_default();
        e.0 += self_us / 1e6;
        if s.parent.is_none() {
            e.1 += s.dur_us / 1e6;
        }
    }
    out
}

/// Chrome-trace JSON (`chrome://tracing`, Perfetto) of `spans`: one
/// complete (`X`) event per span, one thread per lane, the layer as the
/// category.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (k, s) in spans.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{}}}",
            s.name,
            s.layer(),
            s.start_us,
            s.dur_us,
            s.lane
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, lane: u32, start: f64, dur: f64, parent: Option<usize>) -> Span {
        Span { name, lane, start_us: start, dur_us: dur, parent }
    }

    #[test]
    fn self_times_add_up_to_root_durations_per_lane() {
        let spans = vec![
            sp("bench.run", 0, 0.0, 100.0, None),
            sp("ir.verify", 0, 5.0, 20.0, Some(0)),
            sp("core.pipeline", 0, 30.0, 60.0, Some(0)),
            sp("ir.print", 0, 35.0, 10.0, Some(2)),
            sp("http.request", 1, 0.0, 40.0, None),
        ];
        assert_eq!(self_times(&spans), vec![20.0, 20.0, 50.0, 10.0, 40.0]);
        let lanes = lane_balance(&spans);
        assert_eq!(lanes[&0], (100.0 / 1e6, 100.0 / 1e6));
        assert_eq!(lanes[&1], (40.0 / 1e6, 40.0 / 1e6));
        let layers = layer_self_s(&spans);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-15;
        assert!(close(layers["ir"], 30.0 / 1e6));
        assert!(close(layers["core"], 50.0 / 1e6));
        assert!(close(total_s(&spans, "ir.verify"), 20.0 / 1e6));
        // Of lane 0's 100 µs, only the root's own 20 µs is bench code.
        assert!(close(lane_layer_self_s(&spans, 0, "bench"), 20.0 / 1e6));
        assert_eq!(lane_layer_self_s(&spans, 1, "bench"), 0.0);
    }

    #[test]
    fn chrome_trace_has_one_event_per_span() {
        let spans = vec![sp("bench.run", 0, 0.0, 10.0, None), sp("ir.print", 0, 1.0, 2.0, Some(0))];
        let json = chrome_json(&spans);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"cat\":\"ir\""));
    }
}
