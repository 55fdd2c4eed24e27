//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around calls into
//! each layer's public functions (spans inside the server are a later
//! issue). A span has a name (`layer.call`), start and end in nanoseconds
//! since the tracer's epoch, the span that caused it, and a request id
//! (the batch index, or the read's sequence number). Nothing is written
//! until the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::stats::json_string;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, request: u64) -> u32 {
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.ns(Instant::now());
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// Records a root span another thread timed.
    pub fn add(&mut self, name: &'static str, start: Instant, end: Instant, request: u64) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            request,
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whole durations (children included) of the spans named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Per span name, each span's self time: its duration minus the part
    /// its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(covered) {
            out.entry(s.name)
                .or_default()
                .push((s.end_ns - s.start_ns).saturating_sub(c));
        }
        out
    }

    /// Writes every span as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "{{\"workload\": {}, \"seed\": {seed}, \"unit\": \"ns\", \"spans\": [",
            json_string(workload)
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": {}, \"start\": {}, \"end\": {}, \"parent\": {parent}, \"request\": {}}}{comma}",
                json_string(s.name),
                s.start_ns,
                s.end_ns,
                s.request
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let round = t.open("writer.round", None, 7);
        t.span("core.apply", Some(round), 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("core.snapshot", Some(round), 7, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        t.close(round);
        let selfs = t.self_times();
        let total = t.spans[0].end_ns - t.spans[0].start_ns;
        let children: u64 = selfs["core.apply"][0] + selfs["core.snapshot"][0];
        assert_eq!(selfs["writer.round"][0], total - children);
        assert_eq!(t.durations("writer.round"), vec![total]);
        assert!(selfs["core.apply"][0] >= 2_000_000);
        assert!(selfs["writer.round"][0] < 1_000_000, "glue only");
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn spans_serialize_with_parent_and_request() {
        let mut t = Tracer::new();
        let r = t.open("a.b", None, 1);
        t.span("c.d", Some(r), 1, || ());
        t.close(r);
        let now = Instant::now();
        t.add("client.get", now, now, 9);
        let dir = crate::drive::Scratch::new("trace-test").unwrap();
        let path = dir.path().join("trace.json");
        t.write_json(&path, "omv-mem", 3).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"workload\": \"omv-mem\", \"seed\": 3"));
        assert!(text.contains("\"name\": \"c.d\""));
        assert!(text.contains("\"parent\": 0, \"request\": 1}"));
        assert!(text.contains("\"parent\": null, \"request\": 9}"));
        assert_eq!(text.matches("\"id\":").count(), 3);
    }
}
