//! In-memory spans for the traced run.
//!
//! Each span has a name, start, end, parent and the id of the request it
//! belongs to; a `lane` separates work that runs in parallel within one
//! request (the two parties of a P-SOP round). Spans stay in memory and
//! are written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::median;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub request: u64,
    pub lane: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        request: u64,
        lane: u32,
        parent: Option<usize>,
    ) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            request,
            lane,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn close(&mut self, id: usize) {
        let end = self.now_ns();
        self.spans[id].end_ns = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        lane: u32,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, request, lane, parent);
        let out = std::hint::black_box(f());
        self.close(id);
        out
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover (children of one span never overlap here).
    fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Per span name: the median over requests of that request's self
    /// time in the layer, in µs. Within a request, parallel lanes count
    /// once — the slowest lane is the one the request waited for.
    pub fn layer_self_us(&self) -> BTreeMap<&'static str, f64> {
        let own = self.self_ns();
        let mut per_lane: BTreeMap<(&'static str, u64, u32), u64> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            *per_lane.entry((s.name, s.request, s.lane)).or_default() += ns;
        }
        let mut per_request: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
        for ((name, request, _), ns) in per_lane {
            let slot = per_request.entry((name, request)).or_default();
            *slot = (*slot).max(ns);
        }
        let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((name, _), ns) in per_request {
            samples.entry(name).or_default().push(ns as f64 / 1e3);
        }
        samples
            .into_iter()
            .map(|(name, v)| (name, median(&v)))
            .collect()
    }

    /// Median duration (not self time) of spans named `name`, in µs.
    pub fn median_us(&self, name: &str) -> Option<f64> {
        let v: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect();
        (!v.is_empty()).then(|| median(&v))
    }

    /// Writes the spans of several tracers, one JSON object per line,
    /// each tagged with its tracer's phase name.
    pub fn write_all(path: &Path, tracers: &[(&str, &Tracer)]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (phase, t) in tracers {
            for s in &t.spans {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                writeln!(
                    out,
                    "{{\"phase\":\"{phase}\",\"id\":{},\"parent\":{parent},\"request\":{},\"lane\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                    s.id, s.request, s.lane, s.name, s.start_ns, s.end_ns
                )?;
            }
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_lanes_count_once() {
        let mut t = Tracer::new();
        for (i, s) in [
            (None, "root", 0, 0, 100),
            (Some(0), "a", 0, 10, 40),
            (Some(0), "b", 0, 40, 90),
            (None, "b", 1, 0, 70),
        ]
        .into_iter()
        .enumerate()
        {
            let (parent, name, lane, start, end) = s;
            t.spans.push(Span {
                id: i,
                parent,
                request: 1,
                lane,
                name,
                start_ns: start * 1000,
                end_ns: end * 1000,
            });
        }
        let layers = t.layer_self_us();
        assert_eq!(layers["root"], 20.0);
        assert_eq!(layers["a"], 30.0);
        // Lane 1's 70 µs beats lane 0's 50 µs: the request waited 70.
        assert_eq!(layers["b"], 70.0);
        assert_eq!(t.median_us("root"), Some(100.0));
    }
}
