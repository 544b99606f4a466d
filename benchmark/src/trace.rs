//! The benchmark's span recorder: wall-clock spans kept in memory on the recording thread.
//!
//! Spans are recorded only around calls the benchmark makes into the library (see
//! [`crate::timed`]); the library itself is not instrumented. Each traced operation — one
//! training step, one answered request, one cluster plan — opens a root span named [`OP`],
//! and every span opened inside it becomes its child, so an operation's spans form a tree.
//! Recording is off by default and costs one thread-local flag read per adaptor call while
//! off, which is how the untraced rounds measure the same adaptor-free code the end-to-end
//! metrics report.

use shift_bnn::sweep::json::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Name of the root span of every traced operation.
pub const OP: &str = "op";

/// One recorded span. `id` indexes the recording it came from; `parent` is `None` exactly for
/// an operation's root span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The operation this span belongs to (shared by every span of one operation).
    pub op: u32,
    /// This span's id.
    pub id: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// What the span timed.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall-clock duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Work counted at the span boundaries, so per-unit costs are measured where the work happens.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// ε values drawn by forward generation.
    pub eps_generated: u64,
    /// ε values handed back for the backward stage (LFSR reversal or store replay).
    pub eps_retrieved: u64,
}

/// Everything one recording captured.
#[derive(Debug, Clone, Default)]
pub struct Recording {
    /// Spans in opening order (a parent always precedes its children).
    pub spans: Vec<Span>,
    /// Counts accumulated while recording.
    pub counts: Counts,
}

struct Recorder {
    enabled: bool,
    epoch: Instant,
    ops: u32,
    open: Vec<u32>,
    recording: Recording,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        enabled: false,
        epoch: Instant::now(),
        ops: 0,
        open: Vec::new(),
        recording: Recording::default(),
    });
}

/// Turns recording on or off for this thread.
pub fn set_enabled(enabled: bool) {
    RECORDER.with(|r| r.borrow_mut().enabled = enabled);
}

/// Runs `f` inside a span named `name`, nested in the innermost open span; a span opened with
/// no span open starts a new operation. While recording is off this only runs `f`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let opened = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return None;
        }
        let id = r.recording.spans.len() as u32;
        let parent = r.open.last().copied();
        if parent.is_none() {
            r.ops += 1;
        }
        let (op, start_ns) = (r.ops - 1, r.epoch.elapsed().as_nanos() as u64);
        r.recording.spans.push(Span { op, id, parent, name, start_ns, end_ns: start_ns });
        r.open.push(id);
        Some(id)
    });
    let out = f();
    if let Some(id) = opened {
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let end_ns = r.epoch.elapsed().as_nanos() as u64;
            r.recording.spans[id as usize].end_ns = end_ns;
            assert_eq!(r.open.pop(), Some(id), "spans close in reverse opening order");
        });
    }
    out
}

/// Runs `f` as one traced operation (a root [`OP`] span).
pub fn op<T>(f: impl FnOnce() -> T) -> T {
    span(OP, f)
}

/// Adds to this thread's counts while recording is on.
pub fn count(update: impl FnOnce(&mut Counts)) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if r.enabled {
            update(&mut r.recording.counts);
        }
    });
}

/// Takes this thread's recording, leaving an empty one (span ids restart at 0).
///
/// # Panics
///
/// Panics while a span is open.
pub fn take() -> Recording {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.open.is_empty(), "a recording is taken between operations");
        r.ops = 0;
        std::mem::take(&mut r.recording)
    })
}

/// Per-name totals over a recording.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub spans: u64,
    /// Summed wall-clock duration.
    pub total_ns: u64,
    /// Summed self time: each span's duration minus the durations of its children.
    pub self_ns: i64,
}

/// Self time of every span: its duration minus its children's durations.
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut self_ns: Vec<i64> = spans.iter().map(|s| s.duration_ns() as i64).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            self_ns[parent as usize] -= span.duration_ns() as i64;
        }
    }
    self_ns
}

/// Totals per span name, plus the number of operations recorded.
pub fn totals(spans: &[Span]) -> (BTreeMap<&'static str, NameTotals>, usize) {
    let mut by_name: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let entry = by_name.entry(span.name).or_default();
        entry.spans += 1;
        entry.total_ns += span.duration_ns();
        entry.self_ns += self_ns;
    }
    let ops = spans.iter().filter(|s| s.parent.is_none()).count();
    (by_name, ops)
}

/// Checks that a recording is a well-formed forest: every child shares its parent's operation
/// and lies inside the parent's interval, and within each operation the non-negative self
/// times tile the root's duration to within `tolerance` (overlapping siblings would push the
/// sum past the root).
///
/// # Errors
///
/// Describes the first violation.
pub fn check_tree(spans: &[Span], tolerance: f64) -> Result<(), String> {
    for (index, span) in spans.iter().enumerate() {
        if span.id as usize != index || span.end_ns < span.start_ns {
            return Err(format!("span {index} ({}) is malformed", span.name));
        }
        if let Some(parent) = span.parent {
            let outer = spans.get(parent as usize).filter(|p| p.id < span.id);
            let Some(outer) = outer else {
                return Err(format!("span {index} ({}) has no earlier parent", span.name));
            };
            if outer.op != span.op || span.start_ns < outer.start_ns || span.end_ns > outer.end_ns {
                return Err(format!(
                    "span {index} ({}) escapes its parent {}",
                    span.name, outer.name
                ));
            }
        }
    }
    let mut tiled: BTreeMap<u32, i64> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        *tiled.entry(span.op).or_default() += self_ns.max(0);
    }
    for root in spans.iter().filter(|s| s.parent.is_none()) {
        let (sum, total) = (tiled[&root.op] as f64, root.duration_ns() as f64);
        if (sum - total).abs() > tolerance * total {
            return Err(format!("op {}: self times sum to {sum} ns of {total} ns", root.op));
        }
    }
    Ok(())
}

/// The spans as JSON records of op id, span id, parent, name and start/end ns.
pub fn spans_json(spans: &[Span]) -> Json {
    Json::Array(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("op", Json::UInt(u64::from(s.op))),
                    ("id", Json::UInt(u64::from(s.id))),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::UInt(u64::from(p)))),
                    ("name", Json::Str(s.name.to_string())),
                    ("start_ns", Json::UInt(s.start_ns)),
                    ("end_ns", Json::UInt(s.end_ns)),
                ])
            })
            .collect(),
    )
}
