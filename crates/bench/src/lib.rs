#![warn(missing_docs)]

//! Experiment harness shared by the table/sweep binaries and the criterion
//! benches: run matrices of simulations and functional-system workloads and
//! print them in the paper's table shapes.

pub mod ablation;
pub mod tables;

use serde::Serialize;
use std::io::Write;
use std::path::Path;

/// Write a JSON artifact under `results/` (created on demand) so that
/// EXPERIMENTS.md numbers are regenerable and diffable.
pub fn write_artifact<T: Serialize>(name: &str, value: &T) -> std::io::Result<std::path::PathBuf> {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    let mut f = std::fs::File::create(&path)?;
    let json = serde_json::to_string_pretty(value).expect("serializable");
    f.write_all(json.as_bytes())?;
    f.write_all(b"\n")?;
    Ok(path)
}

/// Append one run record to a JSON trajectory file at `path`: the file
/// holds `{"history": [run, run, ...]}` so successive bench runs accumulate
/// a perf trajectory instead of overwriting each other (CI uploads the file
/// as an artifact). A legacy single-run artifact already at `path` is
/// adopted as the first history entry; an unreadable file starts a fresh
/// history rather than failing the bench. Returns the new history length.
pub fn append_history<T: Serialize>(path: &str, run: &T) -> std::io::Result<usize> {
    use serde::Value;
    let run_val = run.serialize_value();
    let mut history: Vec<Value> = match std::fs::read_to_string(path) {
        Ok(text) => match serde_json::from_str::<Value>(&text) {
            Ok(Value::Object(fields)) => match fields.iter().find(|(k, _)| k == "history") {
                Some((_, Value::Array(runs))) => runs.clone(),
                _ => vec![Value::Object(fields)],
            },
            _ => Vec::new(),
        },
        Err(_) => Vec::new(),
    };
    history.push(run_val);
    let runs = history.len();
    let doc = Value::Object(vec![("history".to_string(), Value::Array(history))]);
    let mut f = std::fs::File::create(path)?;
    let json = serde_json::to_string_pretty(&doc).expect("serializable");
    f.write_all(json.as_bytes())?;
    f.write_all(b"\n")?;
    Ok(runs)
}

/// Render a fixed-width text table (first row = header).
pub fn render_table(rows: &[Vec<String>]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let cols = rows.iter().map(Vec::len).max().unwrap_or(0);
    let mut widths = vec![0usize; cols];
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let mut out = String::new();
    for (ri, row) in rows.iter().enumerate() {
        for (i, w) in widths.iter().enumerate() {
            let cell = row.get(i).map(String::as_str).unwrap_or("");
            if i > 0 {
                out.push_str("  ");
            }
            let pad = w - cell.chars().count();
            // Right-align numbers (all but the first column).
            if i == 0 {
                out.push_str(cell);
                out.push_str(&" ".repeat(pad));
            } else {
                out.push_str(&" ".repeat(pad));
                out.push_str(cell);
            }
        }
        // Trim trailing spaces for clean diffs.
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
        if ri == 0 {
            for (i, w) in widths.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(&"-".repeat(*w));
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(&[
            vec!["row".into(), "a".into(), "bb".into()],
            vec!["x".into(), "10".into(), "2".into()],
        ]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("row"));
        assert!(lines[1].starts_with("---"));
        assert!(lines[2].contains("10"));
    }

    #[test]
    fn history_starts_fresh_adopts_a_legacy_record_and_survives_garbage() {
        use serde_json::{json, Value};
        let file = std::env::temp_dir().join(format!("cp-history-{}.json", std::process::id()));
        let path = file.to_str().unwrap();
        let read = || serde_json::from_str::<Value>(&std::fs::read_to_string(path).unwrap()).unwrap();
        let run = |n: i64| json!({ "run": n });

        let _ = std::fs::remove_file(path);
        assert_eq!(append_history(path, &run(1)).unwrap(), 1);
        assert_eq!(read(), json!({ "history": [(run(1))] }));

        std::fs::write(path, serde_json::to_string(&run(0)).unwrap()).unwrap();
        assert_eq!(append_history(path, &run(1)).unwrap(), 2);
        assert_eq!(read(), json!({ "history": [(run(0)), (run(1))] }));

        std::fs::write(path, "not json").unwrap();
        assert_eq!(append_history(path, &run(2)).unwrap(), 1);
        assert_eq!(read(), json!({ "history": [(run(2))] }));
        std::fs::remove_file(path).unwrap();
    }
}
