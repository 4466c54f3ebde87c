//! Span recorder for the traced run.
//!
//! Every call the benchmark makes into a layer is timed as a span. The
//! recorder always keeps per-name self time (span minus the time its
//! child spans cover), which costs a few nanoseconds per span; only a
//! traced run also keeps each span (name, start, end, parent, cell) in
//! memory and writes them out when the run ends.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// Spans whose name starts with this prefix are the benchmark's own
/// work; every other span is a call into the simulator.
const BENCH_PREFIX: &str = "bench.";

/// One recorded span; times are nanoseconds since the recorder started.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    cell: u64,
    start_ns: u64,
    end_ns: u64,
}

/// One open span.
struct Frame {
    name: &'static str,
    start: Instant,
    /// Nanoseconds covered by closed child spans.
    child_ns: u64,
    /// Index into `Tracer::spans` when the span is recorded.
    slot: Option<usize>,
}

/// Token for an open span, closed by [`Tracer::end`].
#[must_use]
pub struct Open(usize);

/// Span recorder with per-name self-time totals.
pub struct Tracer {
    record: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<Frame>,
    cell: u64,
    self_ns: Vec<(&'static str, u64)>,
    program_ns: u64,
}

impl Tracer {
    /// A recorder that keeps no span until [`Tracer::set_record`].
    pub fn new() -> Tracer {
        Tracer {
            record: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            cell: 0,
            self_ns: Vec::new(),
            program_ns: 0,
        }
    }

    /// Sets whether spans opened from now on are recorded for
    /// [`Tracer::write`].
    pub fn set_record(&mut self, record: bool) {
        self.record = record;
    }

    /// Tags spans opened from now on with cell id `cell`.
    pub fn set_cell(&mut self, cell: u64) {
        self.cell = cell;
    }

    /// Opens a span named `name` inside the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let slot = self.record.then(|| {
            let parent = self.open.iter().rev().find_map(|f| f.slot);
            self.spans.push(Span {
                name,
                parent,
                cell: self.cell,
                start_ns: nanos(start.duration_since(self.origin)),
                end_ns: 0,
            });
            self.spans.len() - 1
        });
        self.open.push(Frame {
            name,
            start,
            child_ns: 0,
            slot,
        });
        Open(self.open.len())
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        assert_eq!(open.0, self.open.len(), "spans must close innermost first");
        self.close_innermost();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let r = f();
        self.end(open);
        r
    }

    /// Number of open spans.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes open spans until `depth` remain (after a caught panic
    /// skipped their `end`).
    pub fn unwind_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.close_innermost();
        }
    }

    /// Nanoseconds spent in simulator calls (spans outside
    /// [`BENCH_PREFIX`]) so far.
    pub fn program_ns(&self) -> u64 {
        self.program_ns
    }

    /// Per-name self time so far, in nanoseconds.
    pub fn self_totals(&self) -> Vec<(&'static str, u64)> {
        self.self_ns.clone()
    }

    /// Writes the recorded spans as Chrome trace-event JSON (Perfetto
    /// and `chrome://tracing` open it). A span's id is its order of
    /// opening; `parent` and `cell` ride in each event's `args`.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 128 + 64);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"cell\":{}}}}}",
                if id == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.cell,
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }

    fn close_innermost(&mut self) {
        let end = Instant::now();
        let frame = self.open.pop().expect("no open span");
        let dur = nanos(end.duration_since(frame.start));
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
        let own = dur.saturating_sub(frame.child_ns);
        match self.self_ns.iter_mut().find(|(n, _)| *n == frame.name) {
            Some((_, total)) => *total += own,
            None => self.self_ns.push((frame.name, own)),
        }
        if !frame.name.starts_with(BENCH_PREFIX) {
            self.program_ns += dur;
        }
        if let Some(slot) = frame.slot {
            self.spans[slot].end_ns = nanos(end.duration_since(self.origin));
        }
    }
}

/// Whole nanoseconds of `d`, saturating.
fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Seconds of self time per span name accumulated between two
/// [`Tracer::self_totals`] snapshots.
pub fn self_secs_between(
    before: &[(&'static str, u64)],
    after: &[(&'static str, u64)],
) -> Vec<(&'static str, f64)> {
    after
        .iter()
        .map(|&(name, ns)| {
            let was = before
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |(_, ns)| *ns);
            (name, ns.saturating_sub(was) as f64 / 1e9)
        })
        .collect()
}
