//! The benchmark's own spans: recorded around its calls into each layer,
//! kept in memory, written as Chrome trace-event JSON when the run ends.
//! Spans *inside* the program under test are out of scope here.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. `id` is shared by the spans of one request; `parent`
/// names the span that caused this one.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub id: u64,
    pub thread: usize,
    pub start_us: f64,
    pub dur_us: f64,
}

/// A per-thread span buffer; disabled, `record` does nothing, so the
/// untraced run executes the same code path minus the pushes.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    thread: usize,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool, epoch: Instant, thread: usize) -> Self {
        Self {
            enabled,
            epoch,
            thread,
            spans: Vec::new(),
        }
    }

    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        id: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            self.spans.push(Span {
                name,
                parent,
                id,
                thread: self.thread,
                start_us: start.duration_since(self.epoch).as_secs_f64() * 1e6,
                dur_us: end.duration_since(start).as_secs_f64() * 1e6,
            });
        }
    }
}

/// Chrome trace-event JSON (`ph:"X"` complete events), loadable in Perfetto.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":\"{}\"}}}}",
            s.name,
            s.thread,
            s.start_us,
            s.dur_us,
            s.id,
            s.parent.unwrap_or("")
        );
        out.push_str(if i + 1 == spans.len() { "\n" } else { ",\n" });
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_recorder_keeps_nothing_and_json_is_well_formed() {
        let epoch = Instant::now();
        let later = epoch + Duration::from_micros(1500);
        let mut off = Recorder::new(false, epoch, 0);
        off.record("request", None, 1, epoch, later);
        assert!(off.spans.is_empty());

        let mut on = Recorder::new(true, epoch, 3);
        on.record("request", None, 1, epoch, later);
        on.record("client.call", Some("request"), 1, epoch, later);
        let json = chrome_json(&on.spans);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"name\":\"client.call\""));
        assert!(json.contains("\"dur\":1500.000"));
        assert!(json.contains("\"parent\":\"request\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
