//! The benchmark's own spans for the traced run: one span around every
//! call into a layer, kept in memory and written out at the end as a
//! Chrome trace-event file (Perfetto and chrome://tracing open it).
//!
//! The program's own task-level trace is merged in under the span of
//! the entry-point call that produced it, so one file shows both the
//! benchmark's layer calls and the executor's tasks.

use barrier_mapreduce::core::TraceQuery;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval, in seconds since the tracer started.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request id shared by every span of one job or simulation.
    pub req: u64,
    /// `true` for spans read from the program's own trace.
    pub program: bool,
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Seconds since the tracer started.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span named `name` for request `req`; spans
    /// opened inside `f` become its children.
    pub fn span<R>(&mut self, name: &str, req: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent: self.open.last().copied(),
            req,
            program: false,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.now();
        out
    }

    /// Records a span that already happened under span `parent`.
    pub fn record_under(
        &mut self,
        parent: usize,
        name: &str,
        start: f64,
        end: f64,
        req: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end,
            parent: Some(parent),
            req,
            program: false,
        });
        self.spans.len() - 1
    }

    /// Indices of the benchmark's spans named `name`, in record order.
    pub fn indices_of(&self, name: &str) -> Vec<usize> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name && !self.spans[i].program)
            .collect()
    }

    /// A position in the record; see [`Tracer::sum_since`].
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Total seconds of the benchmark's spans named `name` recorded
    /// after `mark`.
    pub fn sum_since(&self, mark: usize, name: &str) -> f64 {
        self.spans[mark..]
            .iter()
            .filter(|s| s.name == name && !s.program)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Index of the most recently recorded span named `name`.
    fn last_index(&self, name: &str) -> Option<usize> {
        self.spans
            .iter()
            .rposition(|s| s.name == name && !s.program)
    }

    /// Merges the program's spans (read through [`TraceQuery`]) under the
    /// last span named `under`. Program instants count from the run's own
    /// start, which is placed at the start of that span.
    pub fn merge_program(&mut self, under: &str, query: &TraceQuery<'_>) {
        if let Some(parent) = self.last_index(under) {
            let base = self.spans[parent].start;
            self.merge_program_at(parent, query, base);
        }
    }

    /// Merges the program's spans under span `parent`, reading the
    /// program's clock zero as tracer time `base`.
    pub fn merge_program_at(&mut self, parent: usize, query: &TraceQuery<'_>, base: f64) {
        let req = self.spans[parent].req;
        for s in query.spans() {
            self.spans.push(Span {
                name: format!("program.{:?}", s.kind),
                start: base + s.start_secs(),
                end: base + s.end_secs(),
                parent: Some(parent),
                req,
                program: true,
            });
        }
    }

    /// Per span name: (count, total seconds, self seconds). A span's self
    /// time is its duration minus the part of it its children cover.
    pub fn self_times(&self) -> BTreeMap<String, (usize, f64, f64)> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children) {
            let dur = s.end - s.start;
            let covered = union_len(kids, s.start, s.end);
            let e = out.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += (dur - covered).max(0.0);
        }
        out
    }

    /// Writes every span as Chrome trace-event JSON to `path`.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "{{\"traceEvents\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                f,
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"pid\": 1, \"tid\": {}, \"args\": {{\"id\": {i}, \"parent\": {parent}, \"req\": {}}}}}{sep}",
                s.name,
                if s.program { "program" } else { "bench" },
                s.start * 1e6,
                (s.end - s.start) * 1e6,
                if s.program { 2 } else { 1 },
                s.req,
            )?;
        }
        writeln!(f, "]}}")?;
        f.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_len(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if e <= s {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0.0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(
            union_len(vec![(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.0, 10.0),
            4.0
        );
        assert_eq!(union_len(vec![(-1.0, 1.0)], 0.0, 10.0), 1.0);
        assert_eq!(union_len(Vec::new(), 0.0, 1.0), 0.0);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("outer", 0, |t| {
            t.span("inner", 0, |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let st = t.self_times();
        let (_, outer_total, outer_self) = st["outer"];
        let (_, inner_total, inner_self) = st["inner"];
        assert!(outer_total >= inner_total);
        assert!(outer_self < outer_total - 0.015);
        assert_eq!(inner_total, inner_self);
    }
}
