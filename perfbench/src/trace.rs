//! Benchmark-side spans around every call into a library layer.
//!
//! Spans live in a thread-local recorder: the benchmark calls into the
//! library from one thread (array worker threads run inside the library,
//! below the spans), so spans nest strictly. Recording is off unless the
//! run is traced; a disabled `begin`/`end` pair only reads a flag. Spans
//! stay in memory and are written once, as Chrome trace-event JSON, when
//! the run ends.
//!
//! A span's name is `<layer>.<operation>`; the layer is the part before
//! the first dot. A span's self time is its duration minus the part of it
//! that its children cover, so the self times of every span under a root
//! add up to the root's duration.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to (set by [`set_request`]).
    pub req: u64,
}

impl Span {
    /// The layer: the part of the name before the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration, ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    req: u64,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        enabled: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        req: 0,
    });
}

/// Turns recording on or off for spans begun from now on.
pub fn set_enabled(on: bool) {
    RECORDER.with(|r| r.borrow_mut().enabled = on);
}

/// Tags spans begun from now on with request id `req`.
pub fn set_request(req: u64) {
    RECORDER.with(|r| r.borrow_mut().req = req);
}

/// An open span; pass it back to [`end`]. `None` when recording is off.
#[must_use]
pub struct Open(Option<usize>);

/// Opens a span named `name` under the innermost open span.
pub fn begin(name: &'static str) -> Open {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return Open(None);
        }
        let start = r.epoch.elapsed().as_nanos() as u64;
        let parent = r.open.last().copied();
        let req = r.req;
        let id = r.spans.len();
        r.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            req,
        });
        r.open.push(id);
        Open(Some(id))
    })
}

/// Closes a span opened by [`begin`].
///
/// # Panics
///
/// Panics if spans are closed out of order (a bug in the benchmark).
pub fn end(open: Open) {
    let Some(id) = open.0 else { return };
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let now = r.epoch.elapsed().as_nanos() as u64;
        assert_eq!(r.open.pop(), Some(id), "spans must close innermost first");
        r.spans[id].end = now;
    });
}

/// Runs `f` inside a span named `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let open = begin(name);
    let out = f();
    end(open);
    out
}

/// Removes and returns every recorded span.
///
/// # Panics
///
/// Panics if a span is still open.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.open.is_empty(), "spans still open: {:?}", r.open);
        std::mem::take(&mut r.spans)
    })
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start;
            for (a, b) in kids {
                let a = a.max(reach).min(s.end);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur() - covered
        })
        .collect()
}

/// The root (outermost ancestor) of every span.
pub fn roots(spans: &[Span]) -> Vec<usize> {
    let mut root: Vec<usize> = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        // Parents are recorded before their children.
        root.push(s.parent.map_or(i, |p| root[p]));
    }
    root
}

/// Per-layer self time, in ns, summed over every span under the roots
/// named `root_name`, together with the summed duration of those roots.
pub fn layer_self_times(spans: &[Span], root_name: &str) -> (BTreeMap<&'static str, u64>, u64) {
    let selfs = self_times(spans);
    let root = roots(spans);
    let mut by_layer = BTreeMap::new();
    let mut total = 0u64;
    for (i, s) in spans.iter().enumerate() {
        if spans[root[i]].name != root_name {
            continue;
        }
        if root[i] == i {
            total += s.dur();
        }
        *by_layer.entry(s.layer()).or_insert(0) += selfs[i];
    }
    (by_layer, total)
}

/// Renders spans as Chrome trace-event JSON (loadable in Perfetto).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or(-1, |p| p as i64);
        write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"req\":{}}}}}",
            s.name,
            s.layer(),
            s.start as f64 / 1e3,
            s.dur() as f64 / 1e3,
            s.req
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_sums_to_the_root() {
        let spans = vec![
            sp("bench.iteration", 0, 100, None),
            sp("analytics.run", 10, 90, Some(0)),
            sp("ssd.scomp", 20, 40, Some(1)),
            sp("ssd.scomp", 50, 60, Some(1)),
            sp("snap.fork", 92, 97, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![15, 50, 20, 10, 5]);
        let (layers, root) = layer_self_times(&spans, "bench.iteration");
        assert_eq!(root, 100);
        assert_eq!(layers.values().sum::<u64>(), root);
        assert_eq!(layers["ssd"], 30);
        assert_eq!(layers["analytics"], 50);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            sp("a.x", 10, 50, None),
            sp("b.y", 5, 20, Some(0)),
            sp("b.y", 15, 30, Some(0)),
            sp("b.y", 45, 70, Some(0)),
        ];
        // Covered inside [10, 50): [10, 30) and [45, 50) = 25.
        assert_eq!(self_times(&spans)[0], 15);
    }

    #[test]
    fn other_roots_are_excluded_from_the_layer_table() {
        let spans = vec![
            sp("bench.setup", 0, 10, None),
            sp("workloads.gen", 1, 9, Some(0)),
            sp("bench.iteration", 20, 30, None),
            sp("ssd.scomp", 21, 29, Some(2)),
        ];
        let (layers, root) = layer_self_times(&spans, "bench.iteration");
        assert_eq!(root, 10);
        assert!(!layers.contains_key("workloads"));
        assert_eq!(layers["ssd"], 8);
        assert_eq!(layers["bench"], 2);
    }

    #[test]
    fn recorder_nests_spans_and_is_silent_when_disabled() {
        set_enabled(false);
        span("bench.iteration", || span("ssd.scomp", || ()));
        assert!(take().is_empty());
        set_enabled(true);
        set_request(3);
        span("bench.iteration", || span("ssd.scomp", || ()));
        set_enabled(false);
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].req, 3);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let json = chrome_json(&spans);
        assert!(json.contains("\"name\":\"ssd.scomp\",\"cat\":\"ssd\",\"ph\":\"X\""));
        assert!(json.contains("\"parent\":0,\"req\":3"));
    }
}
