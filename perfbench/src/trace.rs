//! In-memory span recorder. Spans are recorded by the benchmark around its
//! calls into each crate's public functions; they carry a name, start,
//! end, parent span and request id, stay in memory during the run and are
//! written out once at the end. A disabled tracer costs one branch per
//! call, so untraced runs measure the same code path.

use std::collections::BTreeMap;
use std::time::Instant;

/// Root span of one request; its self time is the part of the request no
/// layer span covers.
pub const REQUEST: &str = "request";

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub req: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub tid: usize,
}

/// One thread's recorder. Threads each own a tracer sharing an epoch; the
/// per-thread span lists are merged at the end of the run.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    tid: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            tid: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer for another thread, sharing this one's epoch and switch.
    pub fn fork(&self, tid: usize) -> Tracer {
        Tracer {
            tid,
            ..Tracer::new(self.on, self.epoch)
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span named `name`, nested under the innermost open span of
    /// this thread. Close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &str, req: u64) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            req,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            tid: self.tid,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        if !self.on {
            return;
        }
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a leaf span.
    pub fn span<T>(&mut self, name: &str, req: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, req);
        let out = f();
        self.end(id);
        out
    }

    /// Record an already-measured interval as a child of the innermost open
    /// span (used for the compiler's own per-stage timings).
    pub fn record(&mut self, name: &str, req: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            req,
            parent: self.open.last().copied(),
            start_ns: ns(start),
            end_ns: ns(end),
            tid: self.tid,
        });
    }

    /// Merge other threads' spans into this tracer, fixing up parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span name: each span's duration minus the part its child
/// spans cover, summed over all spans of that name, in nanoseconds.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, (u64, usize)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let mut out: BTreeMap<String, (u64, usize)> = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_ns) {
        let e = out.entry(s.name.clone()).or_default();
        e.0 += s.end_ns.saturating_sub(s.start_ns).saturating_sub(c);
        e.1 += 1;
    }
    out
}

/// Cost of recording one span on the running machine, in nanoseconds: the
/// traced run multiplies it by the spans it recorded per request to
/// report its own overhead.
pub fn span_cost_ns() -> f64 {
    const N: usize = 20_000;
    let mut t = Tracer::new(true, Instant::now());
    let start = Instant::now();
    for i in 0..N {
        t.span("calibrate", i as u64, || std::hint::black_box(i));
    }
    start.elapsed().as_nanos() as f64 / N as f64
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto) of all spans.
pub fn chrome_json(spans: &[Span], machine: &str) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or(-1, |p| p as i64);
        out.push_str(&format!(
            "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \
             \"dur\": {:.3}, \"args\": {{\"span\": {i}, \"parent\": {parent}, \"req\": {}}}}}",
            s.name,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            s.req
        ));
    }
    out.push_str(&format!("\n], \"otherData\": {machine}}}\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_disabled_records_nothing() {
        let mut t = Tracer::new(true, Instant::now());
        let root = t.begin(REQUEST, 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.span("layer", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.end(root);
        let st = self_times(t.spans());
        let (req_ns, _) = st[REQUEST];
        let (layer_ns, n) = st["layer"];
        assert_eq!(n, 1);
        assert!(layer_ns >= 5_000_000 && req_ns >= 2_000_000 && req_ns < layer_ns);
        assert_eq!(t.spans()[1].parent, Some(0));

        let mut off = Tracer::new(false, Instant::now());
        assert_eq!(off.span("x", 0, || 7), 7);
        assert!(off.spans().is_empty());
    }
}
