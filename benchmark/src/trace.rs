//! Spans recorded by the benchmark around its own calls into the layers,
//! kept in memory and written as a chrome-trace file when a traced run
//! ends (load it in Perfetto or `chrome://tracing`).
//!
//! Phases, crashes and simulator runs are complete (`X`) events, which
//! nest by time within their lane. Requests overlap on one connection,
//! so they are nestable async (`b`/`e`) events keyed by request id: a
//! `request` span encloses one `attempt` span per send.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;
use std::time::Instant;

use crate::json::quote;

/// Lanes (`tid`s) of the trace file.
pub mod lane {
    pub const WORKLOAD: u32 = 0;
    /// Connection `c` of the load driver is lane `CONN0 + c`.
    pub const CONN0: u32 = 1;
    pub const CRASH: u32 = 10;
    pub const SIDE: u32 = 20;
    pub const SIM: u32 = 30;
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub lane: u32,
    pub start: Instant,
    pub end: Instant,
    /// Spans of one request share an id; `None` for everything else.
    pub request: Option<(u64, u64)>,
    /// The span that caused this one.
    pub parent: &'static str,
}

impl Span {
    /// A span that belongs to no request.
    pub fn new(
        name: &'static str,
        lane: u32,
        parent: &'static str,
        start: Instant,
        end: Instant,
    ) -> Span {
        Span {
            name,
            lane,
            start,
            end,
            request: None,
            parent,
        }
    }
}

/// Write `spans` as chrome-trace JSON, times in microseconds from `epoch`.
///
/// # Errors
///
/// Any IO error creating the directory or writing the file.
pub fn write_chrome(path: &Path, epoch: Instant, spans: &[Span]) -> io::Result<()> {
    let us = |t: Instant| t.saturating_duration_since(epoch).as_secs_f64() * 1e6;
    let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    let mut first = true;
    let mut event = |out: &mut String, body: String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&body);
    };
    for s in spans {
        let common = format!(
            "\"name\": {}, \"pid\": 1, \"tid\": {}, \"args\": {{\"parent\": {}}}",
            quote(s.name),
            s.lane,
            quote(s.parent)
        );
        match s.request {
            None => event(
                &mut out,
                format!(
                    "{{{common}, \"cat\": \"layer\", \"ph\": \"X\", \"ts\": {:.1}, \"dur\": {:.1}}}",
                    us(s.start),
                    us(s.end) - us(s.start)
                ),
            ),
            Some((session, req)) => {
                for (ph, at) in [("b", s.start), ("e", s.end)] {
                    let mut body = String::new();
                    let _ = write!(
                        body,
                        "{{{common}, \"cat\": \"request\", \"id\": \"s{session}.r{req}\", \
                         \"ph\": \"{ph}\", \"ts\": {:.1}}}",
                        us(at)
                    );
                    event(&mut out, body);
                }
            }
        }
    }
    out.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn trace_file_is_json_with_one_event_per_span_end() {
        let epoch = Instant::now();
        let spans = [
            Span::new("window", lane::WORKLOAD, "workload", epoch, Instant::now()),
            Span {
                name: "request",
                lane: lane::CONN0,
                start: epoch,
                end: epoch + Duration::from_millis(3),
                request: Some((7, 2)),
                parent: "window",
            },
        ];
        let dir = crate::out_dir().join(format!("test-trace-{}", std::process::id()));
        let path = dir.join("t.json");
        write_chrome(&path, epoch, &spans).unwrap();
        let parsed = crate::json::parse(&fs::read_to_string(&path).unwrap()).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 3, "one X, one b, one e");
        assert_eq!(events[2].get("id").unwrap().as_str(), Some("s7.r2"));
        fs::remove_dir_all(dir).unwrap();
    }
}
