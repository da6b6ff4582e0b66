//! Host-time spans around the benchmark's own calls into each simulator
//! layer. Spans stay in memory and are written out as one Chrome trace
//! when the run ends; while tracing is off, recording is a single branch.

use std::collections::BTreeMap;
use std::time::Instant;

use lumos_metrics::json;

/// One timed call: a root (a pass or one set-up) or a layer call inside
/// the root that was open when it ran.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// The span store of one benchmark process.
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    root: Option<usize>,
}

impl Spans {
    /// An empty store with recording off.
    pub fn new() -> Self {
        Spans {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            root: None,
        }
    }

    /// Turns recording on or off for the calls that follow.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Whether calls are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a root span; the layer spans recorded until
    /// [`close_root`](Self::close_root) become its children. Returns the
    /// root's id, or `None` while recording is off.
    pub fn open_root(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: None,
            start_ns,
            end_ns: start_ns,
        });
        self.root = Some(self.spans.len() - 1);
        self.root
    }

    /// Closes the open root span, if any.
    pub fn close_root(&mut self) {
        if let Some(i) = self.root.take() {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f`, recording it as a `name` span under the open root.
    pub fn record<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.root,
            start_ns,
            end_ns,
        });
        out
    }

    /// Total nanoseconds and call count per layer name among the
    /// children of root `root`.
    pub fn layer_totals(&self, root: usize) -> BTreeMap<&'static str, (u64, u64)> {
        let mut totals = BTreeMap::new();
        for s in self.spans[root + 1..]
            .iter()
            .take_while(|s| s.parent == Some(root))
        {
            let e = totals.entry(s.name).or_insert((0, 0));
            e.0 += s.end_ns - s.start_ns;
            e.1 += 1;
        }
        totals
    }

    /// Every span as Chrome trace-event JSON (complete `X` events in
    /// microseconds; `args` carries the span id and its parent's).
    pub fn chrome_events(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
                json::object(&[
                    ("name", json::string(s.name)),
                    ("ph", json::string("X")),
                    ("ts", json::num(s.start_ns as f64 / 1e3)),
                    ("dur", json::num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", "1".to_owned()),
                    ("tid", "1".to_owned()),
                    (
                        "args",
                        json::object(&[("id", id.to_string()), ("parent", parent)]),
                    ),
                ])
            })
            .collect();
        format!("[{}]", events.join(","))
    }
}
