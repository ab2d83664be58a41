//! `results.tsv`: what `run` writes and `compare` reads.
//!
//! One row per workload × metric: the median over the run's repeats with
//! minimum, quartiles, maximum and sample counts. `compare A B` judges B
//! against baseline A, row by row — never as a combined score.

use crate::metrics::{lookup, median, quartiles, Better, Check};
use std::collections::BTreeMap;
use std::path::Path;

/// One row of `results.tsv`.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Median over repeats.
    pub median: f64,
    /// Smallest repeat.
    pub min: f64,
    /// First quartile (`min` below two repeats).
    pub q1: f64,
    /// Third quartile (`max` below two repeats).
    pub q3: f64,
    /// Largest repeat.
    pub max: f64,
    /// Repeats behind the row.
    pub runs: usize,
    /// Samples behind each repeat's value (as the last repeat reported it).
    pub n: usize,
}

impl Row {
    /// Summarises the repeats of one workload × metric.
    pub fn from_values(values: &[f64], n: usize) -> Row {
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let [q1, _, q3] = quartiles(values).unwrap_or([min, median(values), max]);
        Row { median: median(values), min, q1, q3, max, runs: values.len(), n }
    }

    /// Inter-quartile distance as a share of the median — the spread the
    /// benchmark driver computes over ten seeds.
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    fn range_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.median.abs()
        }
    }
}

/// `results.tsv` in memory: rows keyed by (workload, metric).
pub type Results = BTreeMap<(String, String), Row>;

/// Renders `results.tsv`. `stamp` is the `key=value` header line.
pub fn render(stamp: &str, results: &Results) -> String {
    let mut out = format!(
        "# orchestra benchmark results\n# {stamp}\nworkload\tmetric\tunit\tmedian\tmin\tq1\tq3\tmax\truns\tn\n"
    );
    for ((workload, metric), row) in results {
        let unit = lookup(metric).map_or("", |d| d.unit);
        out.push_str(&format!(
            "{workload}\t{metric}\t{unit}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            row.median, row.min, row.q1, row.q3, row.max, row.runs, row.n
        ));
    }
    out
}

/// Parses a `results.tsv`.
pub fn parse(path: &Path) -> Result<Results, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut results = Results::new();
    for (number, line) in text.lines().enumerate() {
        if line.starts_with('#') || line.starts_with("workload\t") || line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        let bad = || format!("{}:{}: malformed row", path.display(), number + 1);
        if fields.len() != 10 {
            return Err(bad());
        }
        let float = |i: usize| fields[i].parse::<f64>().map_err(|_| bad());
        let row = Row {
            median: float(3)?,
            min: float(4)?,
            q1: float(5)?,
            q3: float(6)?,
            max: float(7)?,
            runs: fields[8].parse().map_err(|_| bad())?,
            n: fields[9].parse().map_err(|_| bad())?,
        };
        results.insert((fields[0].to_string(), fields[1].to_string()), row);
    }
    Ok(results)
}

/// Compares `b` against baseline `a`, printing one line per judged row.
/// Returns the number of `regressed` rows.
///
/// * a bounded metric is `regressed` when B's median is worse than A's by
///   more than the bound, `unresolved` when either side's min–max spread
///   exceeds the bound (the runs cannot tell), `ok` otherwise;
/// * an exact metric (counts, virtual-clock times) must match to the digit;
/// * wall-clock layer times are listed as `info` with their ratio.
pub fn compare(a: &Results, b: &Results) -> usize {
    let mut regressed = 0;
    println!("workload\tmetric\tbaseline\tchange\trelative\tbound\tverdict");
    for (key, base) in a {
        let (workload, metric) = key;
        let Some(def) = lookup(metric) else {
            continue;
        };
        let Some(change) = b.get(key) else {
            println!("{workload}\t{metric}\t{}\tmissing\t\t\tregressed", base.median);
            regressed += 1;
            continue;
        };
        if base.median == 0.0 && change.median == 0.0 {
            continue;
        }
        let relative = if base.median == 0.0 {
            f64::INFINITY
        } else {
            (change.median - base.median) / base.median.abs()
        };
        let worse = match def.better {
            Better::Lower => relative,
            Better::Higher => -relative,
        };
        let (bound, verdict) = match def.check {
            Check::Bound(bound) => {
                let verdict = if base.range_share() > bound || change.range_share() > bound {
                    "unresolved"
                } else if worse > bound {
                    "regressed"
                } else {
                    "ok"
                };
                (format!("{bound}"), verdict)
            }
            Check::Exact => {
                ("exact".to_string(), if base.median == change.median { "ok" } else { "regressed" })
            }
            Check::Info => ("-".to_string(), "info"),
        };
        if verdict == "regressed" {
            regressed += 1;
        }
        println!(
            "{workload}\t{metric}\t{}\t{}\t{relative:+.4}\t{bound}\t{verdict}",
            base.median, change.median
        );
    }
    regressed
}
