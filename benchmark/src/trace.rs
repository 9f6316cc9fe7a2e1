//! Bench-owned spans around the calls into each layer.
//!
//! Spans are kept in memory and written out when the run ends. A
//! stage's self time is its span's duration minus its child spans'.

use std::fmt::Write as _;
use std::time::Instant;

/// The layer boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// One whole request; its self time is the glue between stages.
    Request,
    Parser,
    PlanCache,
    Search,
    Jucq,
    Plan,
    Exec,
    Decode,
    Render,
}

impl Stage {
    pub const COUNT: usize = 9;

    pub fn name(self) -> &'static str {
        match self {
            Stage::Request => "request",
            Stage::Parser => "core.parser",
            Stage::PlanCache => "core.plan_cache",
            Stage::Search => "optimizer.search",
            Stage::Jucq => "reformulation.jucq",
            Stage::Plan => "store.plan",
            Stage::Exec => "store.exec",
            Stage::Decode => "model.dict.decode",
            Stage::Render => "model.dict.render",
        }
    }
}

/// Self time in nanoseconds per [`Stage`], indexed by `stage as usize`.
pub type StageTimes = [u64; Stage::COUNT];

struct Span {
    stage: Stage,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    request: u32,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, stage: Stage, parent: Option<u32>, request: u32) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span { stage, start_ns, end_ns: start_ns, parent, request });
        (self.spans.len() - 1) as u32
    }

    pub fn end(&mut self, span: u32) {
        self.spans[span as usize].end_ns = self.now();
    }

    /// Record `f` as a child span of `parent`.
    pub fn child<T>(&mut self, stage: Stage, parent: u32, f: impl FnOnce() -> T) -> T {
        let request = self.spans[parent as usize].request;
        let span = self.begin(stage, Some(parent), request);
        let out = f();
        self.end(span);
        out
    }

    /// Self time per stage of the request rooted at `root` (the most
    /// recent request: its spans are `root..`).
    pub fn self_times(&self, root: u32) -> StageTimes {
        let spans = &self.spans[root as usize..];
        let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in spans {
            if let Some(parent) = s.parent {
                let slot = &mut own[(parent - root) as usize];
                *slot = slot.saturating_sub(s.end_ns - s.start_ns);
            }
        }
        let mut times = [0u64; Stage::COUNT];
        for (s, own) in spans.iter().zip(own) {
            times[s.stage as usize] += own;
        }
        times
    }

    /// All spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}{}",
                s.stage.name(),
                s.start_ns,
                s.end_ns,
                s.request,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("]\n");
        out
    }
}
