//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around its calls
//! into each layer of the simulator: a sweep round, input generation,
//! the parallel sweep runner and each cell on its worker, or a fleet
//! soak's submit/drain waves, run and roll-up. They stay in memory
//! until the run ends, then go out as one Chrome trace-event file that
//! Perfetto and `chrome://tracing` load without extra tooling.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `workload.parallel`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Round, cell or wave identifier the span belongs to.
    pub id: u64,
    /// Thread lane: 0 is the driving thread, workers count from 1.
    pub tid: usize,
}

/// Records spans when enabled; every call is a no-op when disabled.
pub struct Tracer {
    epoch: Instant,
    spans: Option<Vec<Span>>,
}

impl Tracer {
    /// A recorder that keeps spans only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: on.then(Vec::new),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        id: u64,
        tid: usize,
    ) -> Option<usize> {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let spans = self.spans.as_mut()?;
        spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            id,
            tid,
        });
        Some(spans.len() - 1)
    }

    /// Opens a span on the driving thread that children can point at;
    /// [`Tracer::close`] sets its end.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, id: u64) -> Option<usize> {
        let now = Instant::now();
        self.record(name, now, now, parent, id, 0)
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&mut self, span: Option<usize>) {
        let end = self.ns(Instant::now());
        if let (Some(spans), Some(i)) = (self.spans.as_mut(), span) {
            spans[i].end_ns = end;
        }
    }

    /// Number of spans kept.
    pub fn len(&self) -> usize {
        self.spans.as_ref().map_or(0, Vec::len)
    }

    /// True when no span was kept.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Self time per layer name, in seconds: each span's duration minus
    /// the part of its interval that its children cover (children on
    /// several worker threads overlap, so their union is subtracted).
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let Some(spans) = &self.spans else {
            return BTreeMap::new();
        };
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in spans.iter().zip(&mut children) {
            let own = s.end_ns.saturating_sub(s.start_ns);
            let self_ns = own.saturating_sub(covered(kids, s.start_ns, s.end_ns));
            *out.entry(s.name).or_insert(0.0) += self_ns as f64 * 1e-9;
        }
        out
    }

    /// Writes the spans as a Chrome trace-event JSON file.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut json = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().flatten().enumerate() {
            if i > 0 {
                json.push_str(",\n");
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            write!(
                json,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"id\":{}}}}}",
                s.name,
                s.tid,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.id,
            )
            .expect("writing to a String cannot fail");
        }
        json.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, json)
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_overlapping_children_is_subtracted_once() {
        let mut kids = vec![(10, 40), (20, 50), (70, 80)];
        assert_eq!(covered(&mut kids, 0, 100), 50);
        let mut clipped = vec![(0, 30), (90, 120)];
        assert_eq!(covered(&mut clipped, 10, 100), 30);
    }

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let mut t = Tracer::new(false);
        let s = t.open("round", None, 0);
        t.close(s);
        assert!(s.is_none());
        assert!(t.is_empty());
        assert!(t.self_seconds().is_empty());
    }
}
