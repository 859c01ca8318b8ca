//! An in-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer (HTTP requests, service submissions, compiler stages, prover and
//! kernel entry points); nothing inside the program is instrumented. A
//! span's name is `layer.operation`; its layer is the part before the
//! first dot. Spans are kept in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.operation`.
    pub name: String,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The job (benchmark request index) the span belongs to.
    pub job: Option<u64>,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    /// The layer: the name up to the first dot.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Handle to an open span; `None` when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// The recorder. When disabled every call is a no-op.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under `parent`.
    pub fn begin(&self, name: &str, parent: SpanId, job: Option<u64>) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: parent.0,
            job,
        });
        SpanId(Some(spans.len() - 1))
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&self, id: SpanId) {
        if let Some(i) = id.0 {
            let end_ns = self.now_ns();
            self.spans.lock().expect("span list poisoned")[i].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<R>(
        &self,
        name: &str,
        parent: SpanId,
        job: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, job);
        let r = f();
        self.end(id);
        r
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// The root of a span tree.
pub const ROOT: SpanId = SpanId(None);

/// Durations (ms) of every span with this exact name.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}

/// Self time per layer, in milliseconds: each span's duration minus the
/// part of its interval that its children cover (overlapping children are
/// merged, and children are clipped to the parent), summed by layer.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = s.start_ns;
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(cursor), b.min(s.end_ns));
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        let self_ns = (s.end_ns - s.start_ns).saturating_sub(covered);
        *out.entry(s.layer().to_string()).or_insert(0.0) += self_ns as f64 / 1e6;
    }
    out
}

/// The spans as a JSON array.
pub fn to_json(spans: &[Span]) -> String {
    let items: Vec<String> = spans
        .iter()
        .map(|s| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let job = s.job.map_or("null".to_string(), |j| j.to_string());
            format!(
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{job}}}",
                s.name, s.start_ns, s.end_ns
            )
        })
        .collect();
    format!("[{}]", items.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns: start * 1_000_000,
            end_ns: end * 1_000_000,
            parent,
            job: Some(1),
        }
    }

    #[test]
    fn self_time_subtracts_merged_children() {
        let spans = vec![
            span("net.job", 0, 100, None),         // 0
            span("net.submit", 0, 10, Some(0)),    // 1
            span("service.job", 20, 60, Some(0)),  // 2
            span("plonk.prove", 25, 50, Some(2)),  // 3
            span("plonk.verify", 40, 55, Some(2)), // 4: overlaps 3
            span("net.poll", 90, 120, Some(0)),    // 5: runs past its parent
        ];
        let t = self_time_by_layer(&spans);
        // net.job: 100 - (10 + 40 + 10 clipped) = 40; submit 10; poll 30.
        assert_eq!(t["net"], 80.0);
        // service.job: 40 - union([25,50],[40,55]) = 40 - 30.
        assert_eq!(t["service"], 10.0);
        // Children keep their own full durations.
        assert_eq!(t["plonk"], 40.0);
    }

    #[test]
    fn recorder_links_parents_and_is_silent_when_off() {
        let on = Tracer::new(true);
        let root = on.begin("net.job", ROOT, Some(7));
        on.time("net.submit", root, Some(7), || ());
        on.end(root);
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].job, Some(7));
        assert!(spans[0].end_ns >= spans[1].end_ns);

        let off = Tracer::new(false);
        let root = off.begin("net.job", ROOT, None);
        off.time("net.submit", root, None, || ());
        off.end(root);
        assert!(off.spans().is_empty());
    }
}
