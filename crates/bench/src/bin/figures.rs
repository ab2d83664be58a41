//! Regenerates every figure of the paper's evaluation section.
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
    fig08_transaction_size, fig09_recon_interval_ratio, fig10_recon_interval_time,
    fig11_participants_ratio, fig12_participants_time, render_table, write_csv, write_json,
    FigureScale,
};
use std::path::PathBuf;

const USAGE: &str = "usage: figures [--fig N]... [--full] [--out DIR]   (N: 8, 9, 10, 11, 12)";

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
                    Ok(n @ 8..=12) => figures.push(n),
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
        figures = vec![8, 9, 10, 11, 12];
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
        match fig {
            8 => {
                let rows = fig08_transaction_size(args.scale);
                let table = render_table(
                    "Figure 8: transaction size vs. state ratio (10 peers, constant updates per reconciliation)",
                    &["txn_size", "txns/recon", "state_ratio"],
                    &rows
                        .iter()
                        .map(|r| {
                            vec![
                                r.transaction_size.to_string(),
                                r.transactions_per_reconciliation.to_string(),
                                format!("{:.3}", r.state_ratio),
                            ]
                        })
                        .collect::<Vec<_>>(),
                );
                println!("{table}");
                write_csv(&args.out.join("fig08.csv"), &rows).expect("write fig08.csv");
                write_json(&args.out.join("fig08.json"), "fig08", &rows).expect("write fig08.json");
            }
            9 => {
                let rows = fig09_recon_interval_ratio(args.scale);
                let table = render_table(
                    "Figure 9: reconciliation interval vs. state ratio (10 peers, txn size 1)",
                    &["interval", "state_ratio"],
                    &rows
                        .iter()
                        .map(|r| {
                            vec![
                                r.reconciliation_interval.to_string(),
                                format!("{:.3}", r.state_ratio),
                            ]
                        })
                        .collect::<Vec<_>>(),
                );
                println!("{table}");
                write_csv(&args.out.join("fig09.csv"), &rows).expect("write fig09.csv");
                write_json(&args.out.join("fig09.json"), "fig09", &rows).expect("write fig09.json");
            }
            10 => {
                let rows = fig10_recon_interval_time(args.scale);
                let table = render_table(
                    "Figure 10: reconciliation interval vs. total reconciliation time per participant",
                    &["interval", "store", "store_time_s", "local_time_s"],
                    &rows
                        .iter()
                        .map(|r| {
                            vec![
                                r.reconciliation_interval.to_string(),
                                r.store_kind.clone(),
                                format!("{:.6}", r.store_time_secs),
                                format!("{:.6}", r.local_time_secs),
                            ]
                        })
                        .collect::<Vec<_>>(),
                );
                println!("{table}");
                write_csv(&args.out.join("fig10.csv"), &rows).expect("write fig10.csv");
                write_json(&args.out.join("fig10.json"), "fig10", &rows).expect("write fig10.json");
            }
            11 => {
                let rows = fig11_participants_ratio(args.scale);
                let table = render_table(
                    "Figure 11: number of participants vs. state ratio",
                    &["participants", "state_ratio"],
                    &rows
                        .iter()
                        .map(|r| vec![r.participants.to_string(), format!("{:.3}", r.state_ratio)])
                        .collect::<Vec<_>>(),
                );
                println!("{table}");
                write_csv(&args.out.join("fig11.csv"), &rows).expect("write fig11.csv");
                write_json(&args.out.join("fig11.json"), "fig11", &rows).expect("write fig11.json");
            }
            12 => {
                let rows = fig12_participants_time(args.scale);
                let table = render_table(
                    "Figure 12: number of participants vs. average time per reconciliation",
                    &["participants", "store", "store_time_s", "local_time_s"],
                    &rows
                        .iter()
                        .map(|r| {
                            vec![
                                r.participants.to_string(),
                                r.store_kind.clone(),
                                format!("{:.6}", r.store_time_secs),
                                format!("{:.6}", r.local_time_secs),
                            ]
                        })
                        .collect::<Vec<_>>(),
                );
                println!("{table}");
                write_csv(&args.out.join("fig12.csv"), &rows).expect("write fig12.csv");
                write_json(&args.out.join("fig12.json"), "fig12", &rows).expect("write fig12.json");
            }
            other => unreachable!("parse_args admits figures 8-12 only, got {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Option<Args>, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn bad_arguments_are_errors_and_good_ones_parse() {
        for bad in ["--fig abc", "--fig 7", "--fig", "--fig 9 --out", "--quick"] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected, not defaulted");
        }
        assert_eq!(parse("").unwrap().unwrap().figures, vec![8, 9, 10, 11, 12]);
        assert_eq!(
            parse("--fig 9 --full --fig 11 --out d"),
            Ok(Some(Args { figures: vec![9, 11], scale: FigureScale::Full, out: "d".into() }))
        );
        assert_eq!(parse("--fig 9 --help"), Ok(None));
    }
}
