//! Spans recorded from the benchmark's side of each layer boundary. They
//! are kept in memory and written once, when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its index.
    pub fn exit(&mut self) -> usize {
        let end_ns = self.now_ns();
        let idx = self.open.pop().expect("exit matches an enter");
        self.spans[idx].end_ns = end_ns;
        idx
    }

    /// Names a span after the fact (a batch is named by the path it took).
    pub fn rename(&mut self, idx: usize, name: &str) {
        self.spans[idx].name = name.to_string();
    }

    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.enter(name);
        let out = f(self);
        self.exit();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds the children of span `idx` cover. Children of one span run
    /// one after another, so their durations add up without overlap.
    fn child_secs(&self, idx: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(Span::secs)
            .sum()
    }

    /// Total duration of every span named `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Self time of every span named `name`: its duration minus the part
    /// its child spans cover.
    pub fn self_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.secs() - self.child_secs(i))
            .sum()
    }

    /// Children's summed duration over the parent's, for every span named
    /// `name` taken together (1.0 when the children account for all of it).
    pub fn layer_sum_ratio(&self, name: &str) -> f64 {
        let (mut parent, mut children) = (0.0, 0.0);
        for (i, s) in self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
        {
            parent += s.secs();
            children += self.child_secs(i);
        }
        children / parent
    }

    /// One JSON object per span: name, start, end (ns from the tracer's
    /// creation) and the parent's index.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        t.span("parent", |t| {
            t.span("child", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
        });
        let parent = t.total("parent");
        assert!(t.self_secs("parent") < parent - 0.015);
        assert!(t.layer_sum_ratio("parent") > 0.5 && t.layer_sum_ratio("parent") < 1.0);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }
}
