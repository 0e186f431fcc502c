//! In-memory spans for the traced run: one span around each timed batch of
//! calls into a crate, written out when the run ends together with each
//! span name's self time.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was timed, e.g. `sim.run.Dynamic`.
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's length.
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_ns - self.start_ns)
    }
}

/// Collects spans; nested calls to [`Tracer::span`] become child spans.
/// A disabled tracer still times each call but records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Per-name totals of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans with this name.
    pub count: u64,
    /// Their summed duration.
    pub total: Duration,
    /// Their summed duration minus the time their child spans cover.
    pub own: Duration,
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Runs `f` inside a span named `name` and returns its result and the
    /// span's duration.
    pub fn span<T>(
        &mut self,
        name: impl Into<String>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, Duration) {
        if !self.enabled {
            let start = Instant::now();
            let out = f(self);
            return (out, start.elapsed());
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span { name: name.into(), parent, start_ns: start, end_ns: start });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now();
        (out, self.spans[id].duration())
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Count, total and self time per span name.
    pub fn self_times(&self) -> BTreeMap<String, SelfTime> {
        let mut children = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p] += span.duration();
            }
        }
        let mut table: BTreeMap<String, SelfTime> = BTreeMap::new();
        for (span, inner) in self.spans.iter().zip(children) {
            let row = table.entry(span.name.clone()).or_default();
            row.count += 1;
            row.total += span.duration();
            row.own += span.duration().saturating_sub(inner);
        }
        table
    }

    /// The spans and the self-time table as one JSON document.
    pub fn to_json(&self) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
                format!(
                    "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                    s.name, s.start_ns, s.end_ns
                )
            })
            .collect();
        let table: Vec<String> = self
            .self_times()
            .iter()
            .map(|(name, t)| {
                format!(
                    "{{\"name\":\"{name}\",\"count\":{},\"total_s\":{},\"self_s\":{}}}",
                    t.count,
                    t.total.as_secs_f64(),
                    t.own.as_secs_f64()
                )
            })
            .collect();
        format!(
            "{{\"spans\":[\n{}\n],\n\"self_time\":[\n{}\n]}}\n",
            spans.join(",\n"),
            table.join(",\n")
        )
    }

    /// The self-time table as aligned text.
    pub fn table(&self) -> String {
        let mut out = format!("{:<34} {:>7} {:>11} {:>11}\n", "span", "count", "total s", "self s");
        for (name, t) in self.self_times() {
            out.push_str(&format!(
                "{name:<34} {:>7} {:>11.6} {:>11.6}\n",
                t.count,
                t.total.as_secs_f64(),
                t.own.as_secs_f64()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(20)));
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(20)));
        });
        let table = t.self_times();
        let (outer, inner) = (table["outer"], table["inner"]);
        assert_eq!((outer.count, inner.count), (1, 2));
        assert!(inner.total >= Duration::from_millis(40));
        assert_eq!(outer.own + inner.total, outer.total);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.to_json().contains("\"name\":\"inner\""));
    }

    #[test]
    fn a_disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::new(false);
        let (value, _) = t.span("outer", |t| t.span("inner", |_| 7).0);
        assert_eq!(value, 7);
        assert!(t.spans.is_empty() && t.self_times().is_empty());
    }
}
