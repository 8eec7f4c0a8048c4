//! The benchmark's own spans, recorded around its calls into each layer's
//! public functions during the traced run.
//!
//! Each client thread owns a [`SpanLog`]; spans stay in memory and are
//! written out as JSON lines when the run ends. A top-level span (a
//! serving job, a churn lane cycle, a ranking) gets a fresh request id
//! that its child spans share, and children name their parent's index.

use std::io::Write;
use std::time::Instant;

/// Spans one thread may keep; later spans are counted as dropped so a
/// long run cannot grow without bound.
const MAX_SPANS_PER_THREAD: usize = 1 << 20;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same log.
    pub parent: Option<usize>,
    pub request: u64,
    /// Words the call delivered (0 for control-plane calls).
    pub words: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's spans. A disabled log records nothing, so the untraced
/// run pays one branch per call site.
pub struct SpanLog {
    enabled: bool,
    epoch: Instant,
    thread: u64,
    next_request: u64,
    spans: Vec<Span>,
    dropped: u64,
}

impl SpanLog {
    pub fn new(enabled: bool, epoch: Instant, thread: u64) -> Self {
        Self {
            enabled,
            epoch,
            thread,
            next_request: 0,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// A fresh request id, unique across threads.
    pub fn new_request(&mut self) -> u64 {
        self.next_request += 1;
        (self.thread << 48) | self.next_request
    }

    /// Records a finished call; returns its index for children to name.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
        words: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        if self.spans.len() >= MAX_SPANS_PER_THREAD {
            self.dropped += 1;
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
            parent,
            request,
            words,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a top-level span whose end is filled in by [`SpanLog::close`],
    /// so children recorded in between can name it as their parent.
    pub fn open(&mut self, name: &'static str, start: Instant, request: u64) -> Option<usize> {
        self.record(name, start, start, None, request, 0)
    }

    pub fn close(&mut self, index: Option<usize>, end: Instant, words: u64) {
        if let Some(span) = index.and_then(|i| self.spans.get_mut(i)) {
            span.end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
            span.words = words;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Durations, in ns, of every span called `name`.
    pub fn durations(&self, name: &str) -> impl Iterator<Item = u64> + '_ {
        let name = name.to_string();
        self.spans
            .iter()
            .filter(move |s| s.name == name)
            .map(Span::duration_ns)
    }

    /// Self time of every top-level span called `name`: its duration minus
    /// the time its children cover. Children of one thread never overlap,
    /// so their durations add up.
    pub fn self_ns(&self, name: &str) -> u64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &c)| s.duration_ns().saturating_sub(c))
            .sum()
    }
}

/// Writes every log as JSON lines: one header line, then one line per
/// span with its thread.
pub fn write_jsonl(path: &std::path::Path, header: &str, logs: &[SpanLog]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{header}")?;
    for log in logs {
        for (index, s) in log.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"thread\": {}, \"index\": {index}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}, \"words\": {}}}",
                log.thread, s.name, s.start_ns, s.end_ns, s.request, s.words
            )?;
        }
    }
    out.flush()
}
