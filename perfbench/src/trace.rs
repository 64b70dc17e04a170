//! In-memory span recorder for the traced run.
//!
//! Spans are opened around every call the benchmark makes into a layer's
//! public functions (`let _s = span("gles.draw_quad_warm");`) and closed
//! when the guard drops. While tracing is off, `span` only reads one
//! thread-local flag, so the untraced run pays nothing measurable. The
//! recorded spans are written out once, when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `shader.parse`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The benchmark op this span belongs to (0 outside the op loop).
    pub op: u64,
}

impl Span {
    /// Wall-clock duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        enabled: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        op: 0,
    });
}

fn now_ns(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Switches recording on or off for spans opened from now on.
pub fn set_enabled(enabled: bool) {
    RECORDER.with(|r| r.borrow_mut().enabled = enabled);
}

/// Tags spans opened from now on with benchmark op `op`.
pub fn set_op(op: u64) {
    RECORDER.with(|r| r.borrow_mut().op = op);
}

/// Closes a span when dropped.
#[must_use = "the span closes when the guard drops"]
pub struct Guard(Option<usize>);

/// Opens a span named `name`, nested in the innermost open span.
pub fn span(name: &'static str) -> Guard {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return Guard(None);
        }
        let start_ns = now_ns(r.epoch);
        let index = r.spans.len();
        let span = Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: r.open.last().copied(),
            op: r.op,
        };
        r.spans.push(span);
        r.open.push(index);
        Guard(Some(index))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(index) = self.0 {
            RECORDER.with(|r| {
                let mut r = r.borrow_mut();
                let end = now_ns(r.epoch);
                r.spans[index].end_ns = end;
                if let Some(pos) = r.open.iter().rposition(|&i| i == index) {
                    r.open.truncate(pos);
                }
            });
        }
    }
}

/// Takes every span recorded so far, leaving the recorder empty.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.open.clear();
        std::mem::take(&mut r.spans)
    })
}

/// Self time of every span: its duration minus the time its direct
/// children cover. Children of one span run one after another on the same
/// thread, so the covered time is the sum of their durations.
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            covered[parent] += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Self times grouped by span name, in recording order within a name.
#[must_use]
pub fn self_times_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (span, t) in spans.iter().zip(self_times_ns(spans)) {
        by_name.entry(span.name).or_default().push(t);
    }
    by_name
}

/// Renders spans as a Chrome trace (`chrome://tracing`, Perfetto): one
/// complete event per span with its op id and parent index as arguments.
#[must_use]
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"id\":{i},\"op\":{},\"parent\":{parent}}}}}",
            s.name,
            s.name.split('.').next().unwrap_or(s.name),
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.op,
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_at(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span_at("op", 0, 100, None),
            span_at("gles.draw", 10, 40, Some(0)),
            span_at("shader.parse", 12, 20, Some(1)),
            span_at("gles.draw", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 22, 8, 40]);
        let by_name = self_times_by_name(&spans);
        assert_eq!(by_name["gles.draw"], vec![22, 40]);
    }

    #[test]
    fn guards_nest_and_record_only_when_enabled() {
        take();
        {
            let _off = span("ignored");
        }
        set_enabled(true);
        set_op(7);
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        set_enabled(false);
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 7);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(chrome_json(&spans).contains("\"name\":\"inner\""));
    }
}
