//! Spans recorded from outside the program, around calls into each
//! layer, and the timing adapter that wraps every protocol process.
//!
//! Spans are kept in memory and written as JSONL when the run ends.
//! Per-message callbacks are far too many to keep as spans, so the
//! adapter counts them and samples their time into a [`ProtoAcc`].

use crate::stats::mix64;
use rbcast_grid::NodeId;
use rbcast_protocols::Msg;
use rbcast_sim::{Ctx, Process};
use std::cell::Cell;
use std::io::Write as _;
use std::path::Path;
use std::rc::Rc;
use std::sync::OnceLock;
use std::time::Instant;

/// One timed interval: `parent` indexes the enclosing span of the same
/// operation, `op` identifies the operation it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// An in-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// The instant every span's offsets count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, op: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost open span, which must be `idx`.
    pub fn close(&mut self, idx: usize) {
        let top = self.stack.pop();
        assert_eq!(top, Some(idx), "spans close in the order they open");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Records an interval that has already ended, nested in the
    /// innermost open span.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        let ns = |t: Instant| {
            u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.push(Span {
            name,
            op,
            parent: self.stack.last().copied(),
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let idx = self.open(name, op);
        let out = f();
        self.close(idx);
        out
    }

    /// Appends another thread's spans, re-indexing their parents.
    pub fn absorb(&mut self, spans: Vec<Span>) {
        let base = self.spans.len();
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Total seconds of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Seconds of the spans named `name`, one per span.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Over every span named `root`: the seconds its children cover and
    /// its own seconds, summed.
    pub fn covered(&self, root: &str) -> (f64, f64) {
        let mut children = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.secs();
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .filter(|(s, _)| s.name == root)
            .fold((0.0, 0.0), |(covered, whole), (s, c)| {
                (covered + c, whole + s.secs())
            })
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Nanoseconds since `t0`.
pub fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

pub fn bump(cell: &Cell<u64>, by: u64) {
    cell.set(cell.get() + by);
}

/// One call in this many is timed; every call is counted.
pub const SAMPLE_EVERY: u64 = 16;

/// Whether call `n` is timed. Calls are picked by a hash of `n`, not by
/// `n % SAMPLE_EVERY`, so a round-robin over a multiple of
/// [`SAMPLE_EVERY`] nodes does not time the same nodes every tick.
fn is_sampled(n: u64) -> bool {
    mix64(n).is_multiple_of(SAMPLE_EVERY)
}

/// What timing an empty interval reads, subtracted from every sample.
fn clock_floor_ns() -> u64 {
    static FLOOR: OnceLock<u64> = OnceLock::new();
    *FLOOR.get_or_init(|| {
        let mut xs: Vec<u64> = (0..1001).map(|_| ns_since(Instant::now())).collect();
        xs.sort_unstable();
        xs[xs.len() / 2]
    })
}

/// Calls of one kind: all counted, about one in [`SAMPLE_EVERY`] timed. Calls
/// of a kind number in the thousands to millions per operation, so the
/// sample estimates their total time closely while costing the traced
/// run two clock reads per sixteen calls instead of per call.
#[derive(Debug, Default)]
pub struct Sampled {
    calls: Cell<u64>,
    sampled: Cell<u64>,
    sampled_ns: Cell<u64>,
}

impl Sampled {
    /// Runs `f`, timing it when this call is sampled.
    pub fn run<R>(&self, f: impl FnOnce() -> R) -> R {
        let n = self.calls.get();
        self.calls.set(n + 1);
        if !is_sampled(n) {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        bump(
            &self.sampled_ns,
            ns_since(t0).saturating_sub(clock_floor_ns()),
        );
        bump(&self.sampled, 1);
        out
    }

    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Estimated nanoseconds over every call: the sampled calls' mean
    /// times the call count.
    pub fn est_ns(&self) -> f64 {
        if self.sampled.get() == 0 {
            return 0.0;
        }
        self.sampled_ns.get() as f64 / self.sampled.get() as f64 * self.calls.get() as f64
    }

    pub fn add(&self, other: &Sampled) {
        bump(&self.calls, other.calls.get());
        bump(&self.sampled, other.sampled.get());
        bump(&self.sampled_ns, other.sampled_ns.get());
    }
}

/// Protocol callbacks, summed over every process wrapped with the same
/// accumulator. Nothing is recorded while `paused` is set.
#[derive(Debug, Default)]
pub struct ProtoAcc {
    pub paused: Cell<bool>,
    pub start: Sampled,
    pub msg: Sampled,
    pub end: Sampled,
    /// Decisions taken inside `on_round_end` (commit-rule evaluations
    /// that committed).
    pub end_decides: Cell<u64>,
}

impl ProtoAcc {
    /// Estimated nanoseconds inside every callback.
    pub fn est_ns(&self) -> f64 {
        self.start.est_ns() + self.msg.est_ns() + self.end.est_ns()
    }

    pub fn add(&self, other: &ProtoAcc) {
        self.start.add(&other.start);
        self.msg.add(&other.msg);
        self.end.add(&other.end);
        bump(&self.end_decides, other.end_decides.get());
    }
}

/// A [`Process`] that forwards every callback to `inner` and records it.
pub struct Timed {
    inner: Box<dyn Process<Msg>>,
    acc: Rc<ProtoAcc>,
}

/// Wraps `inner` so its callbacks are recorded into `acc`.
pub fn timed(inner: Box<dyn Process<Msg>>, acc: &Rc<ProtoAcc>) -> Box<dyn Process<Msg>> {
    Box::new(Timed {
        inner,
        acc: Rc::clone(acc),
    })
}

impl Process<Msg> for Timed {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let inner = &mut self.inner;
        if self.acc.paused.get() {
            return inner.on_start(ctx);
        }
        self.acc.start.run(|| inner.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: &Msg) {
        let inner = &mut self.inner;
        if self.acc.paused.get() {
            return inner.on_message(ctx, from, msg);
        }
        self.acc.msg.run(|| inner.on_message(ctx, from, msg));
    }

    fn on_round_end(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let inner = &mut self.inner;
        if self.acc.paused.get() {
            return inner.on_round_end(ctx);
        }
        let decided = ctx.has_decided();
        self.acc.end.run(|| inner.on_round_end(ctx));
        if !decided && ctx.has_decided() {
            bump(&self.acc.end_decides, 1);
        }
    }

    fn needs_round_end(&self) -> bool {
        self.inner.needs_round_end()
    }
}
