//! The traced run's span log: `rep → run → worker → {slice, contact}`,
//! kept in memory and written as one JSON file when the run ends. The
//! benchmark records these around its own calls into each layer; the
//! program under test carries no spans.

use crate::json::Value;
use std::io::Write;

/// One span. Times are nanoseconds since the traced run began.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Which pass of the traced run the span belongs to — the
    /// identifier all spans of one repetition share.
    pub rep: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts and times measured at the same boundary. Per-slice
    /// `Problem` time lives here, not in spans of its own: there are
    /// hundreds of thousands of such calls.
    pub attrs: Vec<(&'static str, f64)>,
}

/// All spans of one traced run, in creation order.
#[derive(Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Adds a span and returns its id.
    pub fn add(
        &mut self,
        parent: Option<u64>,
        name: &'static str,
        rep: &'static str,
        (start_ns, end_ns): (u64, u64),
        attrs: Vec<(&'static str, f64)>,
    ) -> u64 {
        let id = self.spans.len() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            rep,
            start_ns,
            end_ns: end_ns.max(start_ns),
            attrs,
        });
        id
    }

    /// Closes a span opened with a provisional end, adding what was
    /// only known once it ended.
    pub fn finish(&mut self, id: u64, end_ns: u64, attrs: Vec<(&'static str, f64)>) {
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns.max(span.start_ns);
        span.attrs.extend(attrs);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its child spans cover (children of a `run` span are
    /// parallel workers, so coverage is a union, not a sum).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent as usize].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut covered)| {
                covered.sort_unstable();
                let mut covered_ns = 0;
                let mut reach = span.start_ns;
                for (start, end) in covered {
                    let start = start.max(reach);
                    let end = end.min(span.end_ns);
                    if end > start {
                        covered_ns += end - start;
                        reach = end;
                    }
                }
                (span.end_ns - span.start_ns).saturating_sub(covered_ns)
            })
            .collect()
    }

    /// Writes the log as a JSON array, one span per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        let self_times = self.self_times();
        for (span, self_ns) in self.spans.iter().zip(self_times) {
            let object = Value::object([
                ("id", Value::from(span.id)),
                ("parent", span.parent.map_or(Value::Null, Value::from)),
                ("name", Value::from(span.name)),
                ("rep", Value::from(span.rep)),
                ("start_ns", Value::from(span.start_ns)),
                ("end_ns", Value::from(span.end_ns)),
                ("self_ns", Value::from(self_ns)),
                (
                    "attrs",
                    Value::object(span.attrs.iter().map(|(k, v)| (*k, Value::from(*v)))),
                ),
            ]);
            let comma = if span.id + 1 == self.spans.len() as u64 {
                ""
            } else {
                ","
            };
            writeln!(out, "{}{comma}", object.render())?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut log = SpanLog::default();
        let run = log.add(None, "run", "traced", (0, 100), Vec::new());
        // Two parallel workers covering [10, 70) between them.
        let w0 = log.add(Some(run), "worker", "traced", (10, 60), Vec::new());
        log.add(Some(run), "worker", "traced", (30, 70), Vec::new());
        // Sequential children of one worker.
        log.add(Some(w0), "contact", "traced", (10, 15), Vec::new());
        log.add(
            Some(w0),
            "slice",
            "traced",
            (15, 55),
            vec![("problem_ns", 30.0)],
        );
        assert_eq!(log.self_times(), [40, 5, 40, 5, 40]);
    }

    #[test]
    fn written_file_parses_back() {
        let mut log = SpanLog::default();
        let rep = log.add(None, "rep", "traced", (5, 50), vec![("contacts", 2.0)]);
        log.add(Some(rep), "run", "traced", (6, 40), Vec::new());
        let path =
            crate::workloads::work_dir().join(format!("spans-test-{}.json", std::process::id()));
        log.write(&path).unwrap();
        let parsed = crate::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        let spans = parsed.as_array().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(spans[0].get("self_ns").unwrap().as_f64(), Some(11.0));
    }
}
