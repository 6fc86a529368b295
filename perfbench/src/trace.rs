//! In-memory span recorder for the traced runs.
//!
//! A span is a named interval with a parent and a request id: the
//! benchmark opens one around each call it makes into a layer's public
//! functions (and the timing transport opens one around each transport
//! call), so nesting follows the call tree. Spans stay in a thread-local
//! buffer until the run ends; [`take`] hands them to the caller, which
//! computes per-layer self time with [`self_times`] and writes them out
//! with [`write_csv`].
//!
//! Recording is off until [`enable`] is called; while off, [`span`] runs
//! its closure and records nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer boundary name, e.g. `core.system.end_step`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was enabled.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was enabled.
    pub end_ns: u64,
    /// Index of the enclosing span in the buffer, if any.
    pub parent: Option<u32>,
    /// Request id: spans of one request (or one trial) share it.
    pub id: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    on: bool,
    epoch: Instant,
    id: u64,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        epoch: Instant::now(),
        id: 0,
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Starts recording on this thread with an empty buffer.
pub fn enable() {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on = true;
        r.epoch = Instant::now();
        r.spans.clear();
        r.open.clear();
    });
}

/// Stops recording and returns every span recorded since [`enable`].
pub fn take() -> Vec<Span> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on = false;
        r.open.clear();
        std::mem::take(&mut r.spans)
    })
}

/// Sets the request id that spans opened from now on carry.
pub fn set_id(id: u64) {
    REC.with(|r| r.borrow_mut().id = id);
}

/// Runs `f` inside a span named `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let index = REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let index = r.spans.len() as u32;
        let span = Span {
            name,
            start_ns: r.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: r.open.last().copied(),
            id: r.id,
        };
        r.spans.push(span);
        r.open.push(index);
        Some(index)
    });
    let out = f();
    if let Some(index) = index {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let end = r.epoch.elapsed().as_nanos() as u64;
            r.spans[index as usize].end_ns = end;
            r.open.pop();
        });
    }
    out
}

/// Per-name totals over a span buffer.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus direct children), nanoseconds.
    pub self_ns: u64,
}

/// Aggregates spans by name. A span's self time is its duration minus
/// the durations of its direct children.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(children);
    }
    out
}

/// Writes spans as CSV (`name,id,parent,start_ns,end_ns`; parent is the
/// zero-based row index of the enclosing span, or -1).
pub fn write_csv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name,id,parent,start_ns,end_ns")?;
    for s in spans {
        let parent = s.parent.map_or(-1, i64::from);
        writeln!(
            out,
            "{},{},{},{},{}",
            s.name, s.id, parent, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            Span {
                name: "a",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                id: 1,
            },
            Span {
                name: "b",
                start_ns: 10,
                end_ns: 50,
                parent: Some(0),
                id: 1,
            },
            Span {
                name: "c",
                start_ns: 20,
                end_ns: 30,
                parent: Some(1),
                id: 1,
            },
        ];
        let t = self_times(&spans);
        assert_eq!(t["a"].self_ns, 60);
        assert_eq!(t["b"].self_ns, 30);
        assert_eq!(t["c"].self_ns, 10);
        assert_eq!(t["a"].total_ns, 100);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let _ = take();
        assert_eq!(span("x", || 7), 7);
        assert!(take().is_empty());
        enable();
        set_id(3);
        span("outer", || span("inner", || ()));
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.id == 3 && s.end_ns >= s.start_ns));
    }
}
