//! In-memory span recorder for the traced run.
//!
//! A [`Tracer`] keeps every span of a run in a `Vec`: its name, start and
//! end (seconds since the tracer was created), parent span, hierarchy level
//! and the id of the partition call it belongs to. Nothing is written while
//! a call runs; [`Tracer::write_jsonl`] dumps the spans once, at exit.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use crate::json::{int, num, obj, text, Value};

/// The benchmark's clock.
pub fn now() -> Instant {
    // kappa-lint: allow(wall-clock) -- benchmark timing; the value is reported, never fed into a partition.
    Instant::now()
}

/// Wall and process CPU clocks, started together.
pub struct Stopwatch {
    wall: Instant,
    cpu_s: f64,
}

impl Stopwatch {
    /// Starts both clocks.
    pub fn start() -> Self {
        Stopwatch {
            wall: now(),
            cpu_s: crate::sysinfo::process_cpu_s(),
        }
    }

    /// Wall seconds since the start.
    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    /// CPU seconds the process used since the start, all threads summed.
    pub fn cpu_s(&self) -> f64 {
        crate::sysinfo::process_cpu_s() - self.cpu_s
    }
}

/// One timed region of one partition call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Index of this span in [`Tracer::spans`].
    pub id: usize,
    /// The partition call the span belongs to (one id per call).
    pub call: usize,
    /// What ran: `partition`, `coarsen`, `matching`, `refine`, ….
    pub name: &'static str,
    /// Enclosing span, `None` for a call's root span.
    pub parent: Option<usize>,
    /// Hierarchy level (0 = finest) for per-level spans.
    pub level: Option<usize>,
    /// Start, seconds since the tracer was created.
    pub start_s: f64,
    /// End, seconds since the tracer was created (NaN while open).
    pub end_s: f64,
}

impl Span {
    /// Wall time of the span in seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Records nested spans; the innermost open span is the parent of the next.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    call: usize,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: now(),
            spans: Vec::new(),
            open: Vec::new(),
            call: 0,
        }
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Opens a span and returns its id. A span opened with no span open
    /// starts a new call.
    pub fn enter(&mut self, name: &'static str, level: Option<usize>) -> usize {
        if self.open.is_empty() && !self.spans.is_empty() {
            self.call += 1;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            call: self.call,
            name,
            parent: self.open.last().copied(),
            level,
            start_s: self.epoch.elapsed().as_secs_f64(),
            end_s: f64::NAN,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_s = self.epoch.elapsed().as_secs_f64();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        level: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.enter(name, level);
        let out = f();
        self.exit(id);
        out
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let opt = |v: Option<usize>| v.map_or(Value::Null, |x| int(x as u64));
            let line = obj(vec![
                ("id", int(s.id as u64)),
                ("call", int(s.call as u64)),
                ("name", text(s.name)),
                ("parent", opt(s.parent)),
                ("level", opt(s.level)),
                ("start_s", num(s.start_s)),
                ("end_s", num(s.end_s)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus its children's durations.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::duration_s).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.duration_s();
        }
    }
    own
}

/// Self time per span name within each call: `result[call][name]`.
pub fn self_time_by_name(spans: &[Span]) -> Vec<BTreeMap<&'static str, f64>> {
    let own = self_times(spans);
    let calls = spans.last().map_or(0, |s| s.call + 1);
    let mut out = vec![BTreeMap::new(); calls];
    for (s, t) in spans.iter().zip(own) {
        *out[s.call].entry(s.name).or_insert(0.0) += t;
    }
    out
}

/// Duration of each call's root span, indexed by call id.
pub fn call_durations(spans: &[Span]) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::duration_s)
        .collect()
}
