//! Trace inspection tool — the `wal_dump` sibling for captured traces.
//!
//! Reads traces written by `Tracer::export` (the `orchestra-obs-trace v1`
//! text format, e.g. `cargo run --release --example fabric_trace > FILE`)
//! and renders them three ways:
//!
//! ```text
//! trace_dump <file>...             pretty-print events, indented by span depth,
//!                                  then the self-time budget per span name
//! trace_dump --timeline <file>...  per-shard timeline: events, sessions and
//!                                  admission sheds per shard, with skew bars
//! trace_dump --json <file>...      JSON array of events
//! ```
//!
//! The timeline view is the one that answers "where is the fabric loaded":
//! it counts sessions, publishes and `admission.shed` events per `shard`
//! field value. A session runs at its participant's home shard and a publish
//! reaches every shard, so the columns show the participants' spread over
//! the shards and any skew in who gets turned away. The budget is the one
//! that answers "which layer is slow": per span name, how many closed, their
//! total and self time, and the self time's share of the root spans' time
//! (`cargo run --release --example engine_trace` captures the engine's
//! Figure 5 phases).

use orchestra_obs::budget::Budget;
use orchestra_obs::export::{export_json, parse_text, ParsedEvent};
use orchestra_obs::EventKind;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: trace_dump [--timeline|--json] <trace-file>...
  pretty-prints an orchestra-obs trace and its self-time budget;
  --timeline groups by shard, --json exports the events as a JSON array";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let (flags, files): (Vec<&String>, Vec<&String>) =
        args.iter().partition(|a| a.starts_with("--"));
    let unknown = flags.iter().find(|f| !matches!(f.as_str(), "--timeline" | "--json"));
    let problem = unknown
        .map(|flag| format!("unknown argument: {flag}"))
        .or_else(|| files.is_empty().then(|| "no trace file given".to_string()));
    if let Some(problem) = problem {
        eprintln!("trace_dump: {problem}\n{USAGE}");
        return ExitCode::from(2);
    }
    let timeline = flags.iter().any(|f| *f == "--timeline");
    let json = flags.iter().any(|f| *f == "--json");
    let mut failed = false;
    for file in files {
        if let Err(e) = dump_file(Path::new(file), timeline, json) {
            eprintln!("{file}: {e}");
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn dump_file(path: &Path, timeline: bool, json: bool) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read: {e}"))?;
    let events = parse_text(&text)?;
    if json {
        println!("{}", export_json(&events));
        return Ok(());
    }
    println!("== {} ({} event(s)) ==", path.display(), events.len());
    if timeline {
        print_timeline(&events);
    } else {
        print_pretty(&events);
        print_budget(&Budget::of(&events));
    }
    println!();
    Ok(())
}

/// Chronological listing, indented by span depth.
fn print_pretty(events: &[ParsedEvent]) {
    let mut depth: BTreeMap<u64, usize> = BTreeMap::new();
    depth.insert(0, 0);
    for e in events {
        let parent_depth = depth.get(&e.parent).copied().unwrap_or(0);
        let own_depth = match e.kind {
            EventKind::Open => {
                depth.insert(e.span, parent_depth + 1);
                parent_depth
            }
            EventKind::Close => depth.remove(&e.span).map_or(parent_depth, |d| d - 1),
            EventKind::Instant => depth.get(&e.span).copied().unwrap_or(parent_depth),
        };
        let marker = match e.kind {
            EventKind::Open => "+",
            EventKind::Close => "-",
            EventKind::Instant => "*",
        };
        let fields: Vec<String> = e.fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!(
            "  {:>12} us {}{} {} {}",
            e.at_us,
            "  ".repeat(own_depth),
            marker,
            e.name,
            fields.join(" ")
        );
    }
}

/// Per span name: count, total and self time, and the self time's share of
/// the root spans' time, largest self time first.
fn print_budget(budget: &Budget) {
    println!("  self-time budget: {} us in root spans", budget.root_us);
    println!(
        "  {:<28} {:>8} {:>12} {:>12} {:>7}",
        "span", "count", "total_us", "self_us", "self %"
    );
    for row in &budget.rows {
        println!(
            "  {:<28} {:>8} {:>12} {:>12} {:>6.1}%",
            row.name,
            row.count,
            row.total_us,
            row.self_us,
            100.0 * budget.share(row)
        );
    }
}

#[derive(Default)]
struct ShardLine {
    events: u64,
    sessions: u64,
    batches: u64,
    sheds: u64,
    publishes: u64,
    first_us: Option<u64>,
    last_us: u64,
}

/// Per-shard rollup: how each shard's traffic and admission sheds compare.
fn print_timeline(events: &[ParsedEvent]) {
    let mut shards: BTreeMap<u64, ShardLine> = BTreeMap::new();
    let mut unsharded = 0u64;
    for e in events {
        let Some(shard) = e.field("shard") else {
            unsharded += 1;
            continue;
        };
        let line = shards.entry(shard).or_default();
        line.events += 1;
        line.first_us.get_or_insert(e.at_us);
        line.last_us = line.last_us.max(e.at_us);
        match e.name.as_str() {
            "session.begin" => line.sessions += 1,
            "session.batch" => line.batches += 1,
            "admission.shed" => line.sheds += 1,
            "publish" | "replicate" => line.publishes += 1,
            _ => {}
        }
    }
    if shards.is_empty() {
        println!("  no shard-tagged events ({unsharded} unsharded event(s))");
        return;
    }
    let max_sheds = shards.values().map(|l| l.sheds).max().unwrap_or(0);
    let header = ["shard", "events", "sessions", "batches", "publishes", "sheds"];
    println!(
        "  {:>5} {:>8} {:>9} {:>8} {:>9} {:>7}  shed skew",
        header[0], header[1], header[2], header[3], header[4], header[5]
    );
    for (shard, line) in &shards {
        let bar_len = (line.sheds * 40).checked_div(max_sheds).unwrap_or(0) as usize;
        println!(
            "  {:>5} {:>8} {:>9} {:>8} {:>9} {:>7}  {}",
            shard,
            line.events,
            line.sessions,
            line.batches,
            line.publishes,
            line.sheds,
            "#".repeat(bar_len)
        );
    }
    let total_sheds: u64 = shards.values().map(|l| l.sheds).sum();
    if total_sheds > 0 {
        let (busiest, line) =
            shards.iter().max_by_key(|(_, l)| l.sheds).expect("non-empty shard map");
        println!(
            "  most sheds: shard {busiest} turned away {}/{} Begin(s) ({}%)",
            line.sheds,
            total_sheds,
            line.sheds * 100 / total_sheds
        );
    }
    if unsharded > 0 {
        println!("  ({unsharded} event(s) without a shard field not shown)");
    }
}
