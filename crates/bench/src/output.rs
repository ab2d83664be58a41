//! Rendering figure series as aligned text tables, CSV files and JSON
//! documents. All three take the same `(header, rows)` of string cells.

use std::fs;
use std::io;
use std::path::Path;

/// Renders a table with a header row and aligned columns.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let mut header_line = String::new();
    for (i, h) in header.iter().enumerate() {
        header_line.push_str(&format!("{:<width$}  ", h, width = widths[i]));
    }
    out.push_str(header_line.trim_end());
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        let mut line = String::new();
        for (i, cell) in row.iter().enumerate() {
            line.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

fn write_file(path: &Path, text: String) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, text)
}

/// Writes the rows as a CSV file under the given header line. Cells are
/// written as they are: the figures' column names and values hold no comma,
/// quote or newline.
pub fn write_csv(path: &Path, header: &[&str], rows: &[Vec<String>]) -> io::Result<()> {
    let mut csv = header.join(",");
    csv.push('\n');
    for row in rows {
        csv.push_str(&row.join(","));
        csv.push('\n');
    }
    write_file(path, csv)
}

/// A cell as a JSON value: a number when it reads as one (re-rendered, so
/// the output is valid JSON whatever spelling the cell used), a string
/// otherwise.
fn json_value(cell: &str) -> String {
    if let Ok(n) = cell.parse::<i128>() {
        return n.to_string();
    }
    match cell.parse::<f64>() {
        Ok(x) if x.is_finite() => format!("{x:?}"),
        _ => json_string(cell),
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Writes the rows as a pretty-printed JSON document
/// `{"figure": <label>, "rows": [{<column>: <cell>, ...}, ...]}`, numeric
/// cells unquoted.
pub fn write_json(
    path: &Path,
    figure: &str,
    header: &[&str],
    rows: &[Vec<String>],
) -> io::Result<()> {
    let objects: Vec<String> = rows
        .iter()
        .map(|row| {
            let fields: Vec<String> = header
                .iter()
                .zip(row)
                .map(|(column, cell)| {
                    format!("      {}: {}", json_string(column), json_value(cell))
                })
                .collect();
            format!("    {{\n{}\n    }}", fields.join(",\n"))
        })
        .collect();
    let rows_text = if objects.is_empty() {
        "[]".to_string()
    } else {
        format!("[\n{}\n  ]", objects.join(",\n"))
    };
    write_file(
        path,
        format!("{{\n  \"figure\": {},\n  \"rows\": {rows_text}\n}}\n", json_string(figure)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEADER: [&str; 3] = ["x", "label", "y"];

    fn rows() -> Vec<Vec<String>> {
        vec![
            vec!["1".into(), "central".into(), "0.5".into()],
            vec!["2".into(), "distributed".into(), "2.0".into()],
        ]
    }

    #[test]
    fn tables_are_aligned_and_complete() {
        let table = render_table(
            "Figure X",
            &["size", "ratio"],
            &[vec!["1".into(), "1.25".into()], vec!["10".into(), "2.5".into()]],
        );
        assert!(table.contains("Figure X"));
        assert!(table.contains("size"));
        assert!(table.contains("2.5"));
        assert_eq!(table.lines().count(), 5);
    }

    #[test]
    fn csv_round_trips_field_names_and_values() {
        let dir = std::env::temp_dir().join("orchestra-bench-test");
        let path = dir.join("rows.csv");
        write_csv(&path, &HEADER, &rows()).unwrap();
        let contents = fs::read_to_string(&path).unwrap();
        assert_eq!(contents, "x,label,y\n1,central,0.5\n2,distributed,2.0\n");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn json_documents_carry_label_and_rows() {
        let dir = std::env::temp_dir().join("orchestra-bench-test");
        let path = dir.join("rows.json");
        write_json(&path, "fig99", &HEADER, &rows()).unwrap();
        let contents = fs::read_to_string(&path).unwrap();
        let expected = r#"{
  "figure": "fig99",
  "rows": [
    {
      "x": 1,
      "label": "central",
      "y": 0.5
    },
    {
      "x": 2,
      "label": "distributed",
      "y": 2.0
    }
  ]
}
"#;
        assert_eq!(contents, expected);
        // Only finite numbers go unquoted, and always in JSON's spelling.
        assert_eq!(json_value("+7"), "7");
        assert_eq!(json_value("1."), "1.0");
        assert_eq!(json_value("NaN"), "\"NaN\"");
        assert_eq!(json_value("a\"b"), "\"a\\\"b\"");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_rows_produce_empty_csv() {
        let dir = std::env::temp_dir().join("orchestra-bench-test");
        let path = dir.join("empty.csv");
        write_csv(&path, &HEADER, &[]).unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "x,label,y\n", "the header, no records");
        fs::remove_file(&path).ok();
    }
}
