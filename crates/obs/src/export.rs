//! Trace serialisation: a line-oriented text format plus a hand-rolled
//! JSON export, both dependency-free.
//!
//! The text format is what `Tracer::export` writes and `trace_dump` reads:
//!
//! ```text
//! orchestra-obs-trace v1
//! open<TAB>at_us<TAB>span<TAB>parent<TAB>name[<TAB>key=value]...
//! event<TAB>...
//! close<TAB>...
//! ```
//!
//! Names and field keys are identifier-like (no tabs or newlines), field
//! values are decimal `u64`s, so the format round-trips with plain string
//! splitting.

use crate::trace::{EventKind, TraceEvent};
use std::fmt::Write as _;

/// Header line identifying the trace format version.
pub const TRACE_HEADER: &str = "orchestra-obs-trace v1";

/// Serialises events in the v1 text format.
pub fn export_text(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(32 + events.len() * 48);
    out.push_str(TRACE_HEADER);
    out.push('\n');
    for e in events {
        let _ =
            write!(out, "{}\t{}\t{}\t{}\t{}", e.kind.as_str(), e.at_us, e.span, e.parent, e.name);
        for (k, v) in &e.fields {
            let _ = write!(out, "\t{k}={v}");
        }
        out.push('\n');
    }
    out
}

/// A parsed trace record: like [`TraceEvent`] but with owned strings, since
/// the reader has no access to the writer's static names.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParsedEvent {
    /// Timestamp in microseconds.
    pub at_us: u64,
    /// What happened.
    pub kind: EventKind,
    /// Span id (see [`TraceEvent::span`]).
    pub span: u64,
    /// Enclosing span id (0 = root).
    pub parent: u64,
    /// Event name.
    pub name: String,
    /// Typed fields.
    pub fields: Vec<(String, u64)>,
}

impl ParsedEvent {
    /// The value of field `key`, if present.
    pub fn field(&self, key: &str) -> Option<u64> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }
}

/// Parses a v1 text trace. Returns a descriptive error on malformed input.
pub fn parse_text(input: &str) -> Result<Vec<ParsedEvent>, String> {
    let mut lines = input.lines();
    match lines.next() {
        Some(header) if header.trim_end() == TRACE_HEADER => {}
        other => {
            return Err(format!(
                "not an orchestra-obs trace: expected `{TRACE_HEADER}`, got {other:?}"
            ))
        }
    }
    let mut events = Vec::new();
    for (lineno, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split('\t');
        let bad = |what: &str| format!("line {}: {what}: `{line}`", lineno + 2);
        let kind = match parts.next() {
            Some("open") => EventKind::Open,
            Some("close") => EventKind::Close,
            Some("event") => EventKind::Instant,
            _ => return Err(bad("unknown record kind")),
        };
        let mut int = |what: &str| -> Result<u64, String> {
            parts.next().and_then(|s| s.parse().ok()).ok_or_else(|| bad(what))
        };
        let at_us = int("bad timestamp")?;
        let span = int("bad span id")?;
        let parent = int("bad parent id")?;
        let name = parts.next().ok_or_else(|| bad("missing name"))?.to_string();
        let mut fields = Vec::new();
        for field in parts {
            let (k, v) = field.split_once('=').ok_or_else(|| bad("bad field"))?;
            let v = v.parse().map_err(|_| bad("bad field value"))?;
            fields.push((k.to_string(), v));
        }
        events.push(ParsedEvent { at_us, kind, span, parent, name, fields });
    }
    Ok(events)
}

/// Escapes a string for embedding in a JSON document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders parsed events as a JSON array (one object per event).
pub fn export_json(events: &[ParsedEvent]) -> String {
    let mut out = String::from("[\n");
    for (i, e) in events.iter().enumerate() {
        let _ = write!(
            out,
            "  {{\"kind\":\"{}\",\"at_us\":{},\"span\":{},\"parent\":{},\"name\":\"{}\"",
            e.kind.as_str(),
            e.at_us,
            e.span,
            e.parent,
            json_escape(&e.name)
        );
        out.push_str(",\"fields\":{");
        for (j, (k, v)) in e.fields.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{v}", json_escape(k));
        }
        out.push_str("}}");
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;

    #[test]
    fn text_format_round_trips() {
        let tracer = Tracer::new();
        let span = tracer.span("round", &[("participants", 4)]);
        span.event("session.begin", &[("participant", 1), ("shard", 0)]);
        drop(span);
        let text = tracer.export();
        assert!(text.starts_with(TRACE_HEADER));
        let parsed = parse_text(&text).unwrap();
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[0].name, "round");
        assert_eq!(parsed[0].kind, EventKind::Open);
        assert_eq!(parsed[1].field("shard"), Some(0));
        assert_eq!(parsed[1].field("participant"), Some(1));
        assert_eq!(parsed[2].kind, EventKind::Close);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(parse_text("").is_err());
        assert!(parse_text("something else\n").is_err());
        let bad_kind = format!("{TRACE_HEADER}\nnope\t1\t2\t3\tx\n");
        assert!(parse_text(&bad_kind).unwrap_err().contains("unknown record kind"));
        let bad_field = format!("{TRACE_HEADER}\nevent\t1\t0\t0\tx\tk\n");
        assert!(parse_text(&bad_field).unwrap_err().contains("bad field"));
    }

    #[test]
    fn json_export_escapes_and_structures() {
        let events = vec![ParsedEvent {
            at_us: 5,
            kind: EventKind::Instant,
            span: 0,
            parent: 0,
            name: "a\"b".to_string(),
            fields: vec![("n".to_string(), 2)],
        }];
        let json = export_json(&events);
        assert!(json.contains("\"name\":\"a\\\"b\""));
        assert!(json.contains("\"fields\":{\"n\":2}"));
        assert_eq!(json_escape("x\ty\n"), "x\\ty\\n");
    }
}
