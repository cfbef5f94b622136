//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out as a Chrome trace at exit. Per-layer times are span
//! self times: a span's duration minus the durations of its children.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Monotonic nanoseconds since one shared origin, so spans recorded by the
/// pass-through engines and by the workload code line up.
#[derive(Clone, Copy, Debug)]
pub struct Clock(Instant);

impl Clock {
    /// A clock whose origin is now.
    #[must_use]
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    /// Nanoseconds since the origin.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// One recorded interval. Spans of one image or request share `id`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `runner.res16`.
    pub name: &'static str,
    /// Image, request or repetition id.
    pub id: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, ns since the clock origin.
    pub start_ns: u64,
    /// End, ns since the clock origin.
    pub end_ns: u64,
}

/// Aggregated self time of all spans sharing a name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Spans with this name.
    pub count: u64,
    /// Σ (duration − children's durations), ns.
    pub self_ns: u64,
}

/// The span store. A disabled tracer records nothing, so the untraced run
/// pays one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    /// Shared time base.
    pub clock: Clock,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer on `clock`; `enabled = false` makes every call a no-op.
    #[must_use]
    pub fn new(clock: Clock, enabled: bool) -> Self {
        Tracer {
            clock,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a finished span and returns its index (usable as a parent).
    pub fn push(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span that [`Tracer::close`] ends; returns its index.
    pub fn open(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> Option<usize> {
        let now = self.clock.now_ns();
        self.push(name, id, parent, now, now)
    }

    /// Ends the span `idx` opened by [`Tracer::open`].
    pub fn close(&mut self, idx: Option<usize>) {
        if let Some(i) = idx {
            self.spans[i].end_ns = self.clock.now_ns();
        }
    }

    /// Runs `f` inside a span and returns its result and the span index.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, Option<usize>) {
        let idx = self.open(name, id, parent);
        let out = f(self);
        self.close(idx);
        (out, idx)
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span of each recorded span, in recording order.
    #[must_use]
    pub fn self_times_each(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .map(|(s, &c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Self time and count aggregated by span name.
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times_each()) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.self_ns += own;
        }
        out
    }

    /// Self times of every span named `name`, in recording order.
    #[must_use]
    pub fn self_times_of(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .zip(self.self_times_each())
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .collect()
    }

    /// Renders the spans as Chrome `trace_event` JSON (`ph: "X"`, µs), one
    /// lane per top-level span name; `args` carry the id and parent index.
    #[must_use]
    pub fn chrome_json(&self) -> String {
        let mut lanes: BTreeMap<&'static str, usize> = BTreeMap::new();
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let mut root = i;
            while let Some(p) = self.spans[root].parent {
                root = p;
            }
            let next = lanes.len() + 1;
            let lane = *lanes.entry(self.spans[root].name).or_insert(next);
            if i > 0 {
                out.push(',');
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{lane},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"id\":{},\"parent\":{parent}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new(Clock::start(), true);
        let root = t.push("image", 1, None, 0, 100);
        let a = t.push("stage", 1, root, 10, 40);
        t.push("inner", 1, a, 15, 25);
        t.push("stage", 1, root, 50, 70);
        let st = t.self_times();
        assert_eq!(
            st["image"],
            SelfTime {
                count: 1,
                self_ns: 50
            }
        );
        assert_eq!(
            st["stage"],
            SelfTime {
                count: 2,
                self_ns: 40
            }
        );
        assert_eq!(
            st["inner"],
            SelfTime {
                count: 1,
                self_ns: 10
            }
        );
        assert_eq!(t.self_times_of("stage"), vec![20, 20]);
    }

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let mut t = Tracer::new(Clock::start(), false);
        let (v, idx) = t.time("x", 0, None, |_| 7);
        assert_eq!((v, idx), (7, None));
        assert!(t.spans().is_empty());
    }

    #[test]
    fn chrome_json_parses() {
        let mut t = Tracer::new(Clock::start(), true);
        let (_, root) = t.time("outer", 3, None, |t| {
            t.push("inner", 3, Some(0), 1, 2);
        });
        assert_eq!(root, Some(0));
        let parsed = sia_telemetry::json::parse(&t.chrome_json()).unwrap();
        let events = parsed.get("traceEvents").unwrap();
        match events {
            sia_telemetry::json::Json::Arr(v) => assert_eq!(v.len(), 2),
            other => panic!("not an array: {other:?}"),
        }
    }
}
