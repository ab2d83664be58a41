//! Rendering figure series as aligned text tables, CSV files and JSON
//! documents.

use serde::Serialize;
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

/// Writes a slice of serialisable rows as a CSV file (header derived from the
/// JSON field names of the first row).
pub fn write_csv<T: Serialize>(path: &Path, rows: &[T]) -> io::Result<()> {
    let mut csv = String::new();
    let values: Vec<serde_json::Value> =
        rows.iter().map(|r| serde_json::to_value(r).expect("figure rows serialise")).collect();
    if let Some(serde_json::Value::Object(first)) = values.first() {
        let columns: Vec<String> = first.keys().cloned().collect();
        csv.push_str(&columns.join(","));
        csv.push('\n');
        for value in &values {
            if let serde_json::Value::Object(map) = value {
                let row: Vec<String> = columns
                    .iter()
                    .map(|c| match map.get(c) {
                        Some(serde_json::Value::String(s)) => s.clone(),
                        Some(other) => other.to_string(),
                        None => String::new(),
                    })
                    .collect();
                csv.push_str(&row.join(","));
                csv.push('\n');
            }
        }
    }
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, csv)
}

/// Writes a slice of serialisable rows as a pretty-printed JSON document:
/// `{"figure": <label>, "rows": [...]}`.
pub fn write_json<T: Serialize>(path: &Path, figure: &str, rows: &[T]) -> io::Result<()> {
    let mut doc = serde_json::Map::new();
    doc.insert("figure".to_string(), serde_json::Value::String(figure.to_string()));
    doc.insert(
        "rows".to_string(),
        serde_json::Value::Array(
            rows.iter().map(|r| serde_json::to_value(r).expect("figure rows serialise")).collect(),
        ),
    );
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let mut text = serde_json::to_string_pretty(&serde_json::Value::Object(doc))
        .expect("figure document serialises");
    text.push('\n');
    fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Serialize)]
    struct Row {
        x: usize,
        label: String,
        y: f64,
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
        let rows = vec![
            Row { x: 1, label: "central".into(), y: 0.5 },
            Row { x: 2, label: "distributed".into(), y: 1.5 },
        ];
        write_csv(&path, &rows).unwrap();
        let contents = fs::read_to_string(&path).unwrap();
        assert!(contents.lines().next().unwrap().contains("x"));
        assert!(contents.contains("distributed"));
        assert_eq!(contents.lines().count(), 3);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn json_documents_carry_label_and_rows() {
        let dir = std::env::temp_dir().join("orchestra-bench-test");
        let path = dir.join("rows.json");
        let rows = vec![
            Row { x: 1, label: "central".into(), y: 0.5 },
            Row { x: 2, label: "distributed".into(), y: 1.5 },
        ];
        write_json(&path, "fig99", &rows).unwrap();
        let doc: serde_json::Value =
            serde_json::from_str(&fs::read_to_string(&path).unwrap()).unwrap();
        let obj = doc.as_object().unwrap();
        assert_eq!(obj.get("figure").unwrap().as_str(), Some("fig99"));
        let parsed_rows = obj.get("rows").unwrap().as_array().unwrap();
        assert_eq!(parsed_rows.len(), 2);
        let first = parsed_rows[0].as_object().unwrap();
        assert_eq!(first.get("x").unwrap().as_u64(), Some(1));
        assert_eq!(first.get("label").unwrap().as_str(), Some("central"));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_rows_produce_empty_csv() {
        let dir = std::env::temp_dir().join("orchestra-bench-test");
        let path = dir.join("empty.csv");
        let rows: Vec<Row> = vec![];
        write_csv(&path, &rows).unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "");
        fs::remove_file(&path).ok();
    }
}
