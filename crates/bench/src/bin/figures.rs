//! Regenerates every figure of the paper's evaluation section (Figures
//! 8-12) and Figure 3's trade-off between the reconciliation modes.
//!
//! Usage:
//!
//! ```text
//! figures [--fig N]... [--full] [--out DIR]
//! ```
//!
//! With no `--fig` arguments, every figure is regenerated. `--full` uses the
//! paper's parameter ranges (slower); the default "quick" scale finishes in a
//! few seconds. CSV and JSON output is written under `--out` (default
//! `target/figures`). A malformed command line prints the usage and exits 2
//! without running a figure.

use orchestra_bench::{
    fig03_reconciliation_modes, fig08_transaction_size, fig09_recon_interval_ratio,
    fig10_recon_interval_time, fig11_participants_ratio, fig12_participants_time, render_table,
    write_csv, write_json, FigureScale,
};
use std::path::PathBuf;

const USAGE: &str = "usage: figures [--fig N]... [--full] [--out DIR]   (N: 3, 8, 9, 10, 11, 12)";

#[derive(Debug, PartialEq)]
struct Args {
    figures: Vec<u32>,
    scale: FigureScale,
    out: PathBuf,
}

/// Parses the command line; `Ok(None)` is a request for the usage text.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut figures = Vec::new();
    let mut scale = FigureScale::Quick;
    let mut out = PathBuf::from("target/figures");
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fig" => {
                let value = args.next().ok_or("--fig needs a figure number")?;
                match value.parse() {
                    Ok(n @ (3 | 8..=12)) => figures.push(n),
                    _ => return Err(format!("unknown figure {value:?}")),
                }
            }
            "--full" => scale = FigureScale::Full,
            "--out" => out = PathBuf::from(args.next().ok_or("--out needs a directory")?),
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if figures.is_empty() {
        figures = vec![3, 8, 9, 10, 11, 12];
    }
    Ok(Some(Args { figures, scale, out }))
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return;
        }
        Err(message) => {
            eprintln!("figures: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    for fig in &args.figures {
        let (title, header, rows): (&str, &[&str], Vec<Vec<String>>) = match fig {
            3 => (
                "Figure 3: client-centric vs. network-centric reconciliation on the DHT store",
                &["mode", "messages", "network_ms", "decision_fingerprint"],
                fig03_reconciliation_modes(args.scale)
                    .iter()
                    .map(|r| {
                        vec![
                            r.mode.clone(),
                            r.messages.to_string(),
                            float(r.network_ms),
                            r.decision_fingerprint.to_string(),
                        ]
                    })
                    .collect(),
            ),
            8 => (
                "Figure 8: transaction size vs. state ratio (10 peers, constant updates per reconciliation)",
                &["transaction_size", "transactions_per_reconciliation", "state_ratio"],
                fig08_transaction_size(args.scale)
                    .iter()
                    .map(|r| {
                        vec![
                            r.transaction_size.to_string(),
                            r.transactions_per_reconciliation.to_string(),
                            float(r.state_ratio),
                        ]
                    })
                    .collect(),
            ),
            9 => (
                "Figure 9: reconciliation interval vs. state ratio (10 peers, txn size 1)",
                &["reconciliation_interval", "state_ratio"],
                fig09_recon_interval_ratio(args.scale)
                    .iter()
                    .map(|r| vec![r.reconciliation_interval.to_string(), float(r.state_ratio)])
                    .collect(),
            ),
            10 => (
                "Figure 10: reconciliation interval vs. total reconciliation time per participant",
                &["reconciliation_interval", "store_kind", "store_time_secs", "local_time_secs"],
                fig10_recon_interval_time(args.scale)
                    .iter()
                    .map(|r| {
                        timed_row(
                            r.reconciliation_interval,
                            &r.store_kind,
                            r.store_time_secs,
                            r.local_time_secs,
                        )
                    })
                    .collect(),
            ),
            11 => (
                "Figure 11: number of participants vs. state ratio",
                &["participants", "state_ratio"],
                fig11_participants_ratio(args.scale)
                    .iter()
                    .map(|r| vec![r.participants.to_string(), float(r.state_ratio)])
                    .collect(),
            ),
            12 => (
                "Figure 12: number of participants vs. average time per reconciliation",
                &["participants", "store_kind", "store_time_secs", "local_time_secs"],
                fig12_participants_time(args.scale)
                    .iter()
                    .map(|r| {
                        timed_row(r.participants, &r.store_kind, r.store_time_secs, r.local_time_secs)
                    })
                    .collect(),
            ),
            other => unreachable!("parse_args admits figures 3 and 8-12 only, got {other}"),
        };
        println!("{}", render_table(title, header, &rows));
        let stem = format!("fig{fig:02}");
        write_csv(&args.out.join(format!("{stem}.csv")), header, &rows).expect("write the CSV");
        write_json(&args.out.join(format!("{stem}.json")), &stem, header, &rows)
            .expect("write the JSON");
    }
}

/// A float cell: the shortest spelling that reads back to the same value,
/// integral values with their `.0`.
fn float(x: f64) -> String {
    format!("{x:?}")
}

/// A row of Figures 10 and 12: the swept parameter, the store, and the two
/// halves of the reconciliation time.
fn timed_row(x: usize, store_kind: &str, store_secs: f64, local_secs: f64) -> Vec<String> {
    vec![x.to_string(), store_kind.to_string(), float(store_secs), float(local_secs)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Option<Args>, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn bad_arguments_are_errors_and_good_ones_parse() {
        for bad in ["--fig abc", "--fig 7", "--fig 2", "--fig", "--fig 9 --out", "--quick"] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected, not defaulted");
        }
        assert_eq!(parse("").unwrap().unwrap().figures, vec![3, 8, 9, 10, 11, 12]);
        assert_eq!(
            parse("--fig 9 --full --fig 11 --out d"),
            Ok(Some(Args { figures: vec![9, 11], scale: FigureScale::Full, out: "d".into() }))
        );
        assert_eq!(parse("--fig 9 --help"), Ok(None));
    }
}
