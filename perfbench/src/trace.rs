//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed from the benchmark's own code around each
//! public call into a layer. A span's layer is its name up to the first
//! `.` (`rt_sat.build` belongs to `rt_sat`); the root span of every
//! operation is named `op` and carries the benchmark's own bookkeeping as
//! its self time.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name (`layer.phase`).
    pub name: &'static str,
    /// Operation the span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, seconds since the tracer's origin.
    pub start: f64,
    /// End, seconds since the tracer's origin.
    pub end: f64,
}

impl Span {
    /// Duration in seconds.
    #[must_use]
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }

    /// The layer the span belongs to.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Handle of an open span.
#[must_use = "close the span with Tracer::exit"]
pub struct Open(usize);

/// Span recorder of one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    /// Counts recorded at the span boundaries: name → (sum, samples).
    counts: BTreeMap<String, (f64, u64)>,
}

impl Tracer {
    /// A recorder whose clock starts at `origin` (share one origin across
    /// threads so their spans can be merged).
    #[must_use]
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            counts: BTreeMap::new(),
        }
    }

    /// Attribute the following spans to operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let idx = self.spans.len();
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start: now,
            end: now,
        });
        self.stack.push(idx);
        Open(idx)
    }

    /// Close `open`, which must be the innermost open span.
    pub fn exit(&mut self, open: Open) {
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost first");
        self.spans[open.0].end = self.origin.elapsed().as_secs_f64();
    }

    /// Close `open` like [`Tracer::exit`], naming it only now (for spans
    /// whose kind is known once the call returns).
    pub fn exit_as(&mut self, open: Open, name: &'static str) {
        let idx = open.0;
        self.exit(open);
        self.spans[idx].name = name;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Close every open span (after a panic unwound through them).
    pub fn close_all(&mut self) {
        let now = self.origin.elapsed().as_secs_f64();
        while let Some(idx) = self.stack.pop() {
            self.spans[idx].end = now;
        }
    }

    /// Record one sample of a count.
    pub fn count(&mut self, name: impl Into<String>, value: f64) {
        let e = self.counts.entry(name.into()).or_insert((0.0, 0));
        e.0 += value;
        e.1 += 1;
    }

    /// `(sum, samples)` of a count; zeros when never recorded.
    #[must_use]
    pub fn count_total(&self, name: &str) -> (f64, u64) {
        self.counts.get(name).copied().unwrap_or((0.0, 0))
    }

    /// Mean of a count per sample; `0` when never recorded.
    #[must_use]
    pub fn count_mean(&self, name: &str) -> f64 {
        let (sum, n) = self.count_total(name);
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Every closed span.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append another thread's spans (their parents are re-indexed).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (name, (sum, n)) in other.counts {
            let e = self.counts.entry(name).or_insert((0.0, 0));
            e.0 += sum;
            e.1 += n;
        }
    }

    /// Durations (seconds) of every span called `name`.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .collect()
    }

    /// Summed duration (seconds) of every span called `name`.
    #[must_use]
    pub fn busy(&self, name: &str) -> f64 {
        self.durations(name).iter().fold(0.0, |a, b| a + b)
    }

    /// Self time per layer: each span's duration minus the part of it its
    /// child spans cover, summed by layer.
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_cover = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_cover[p] += s.dur();
            }
        }
        let mut out = BTreeMap::new();
        for (s, cover) in self.spans.iter().zip(child_cover) {
            *out.entry(s.layer()).or_insert(0.0) += s.dur() - cover;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\
                 \"start_s\":{:.9},\"end_s\":{:.9}}}",
                s.name, s.op, s.start, s.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        t.set_op(7);
        let op = t.enter("op");
        let a = t.enter("rt_sat.build");
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.exit(a);
        t.exit(op);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 7);
        let st = t.self_times();
        let total: f64 = st.values().sum();
        assert!((total - spans[0].dur()).abs() < 1e-9);
        assert!(st["rt_sat"] >= 0.005);
        assert!(st["op"] < st["rt_sat"]);
    }

    #[test]
    fn absorb_reindexes_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        a.span("op", || ());
        let mut b = Tracer::new(origin);
        let op = b.enter("op");
        b.span("serve.hit", || ());
        b.exit(op);
        a.absorb(b);
        assert_eq!(a.spans().len(), 3);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
