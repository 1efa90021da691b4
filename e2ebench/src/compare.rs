//! `e2ebench compare PARENT CHANGE`: the two-commit comparison.
//!
//! Each file holds the result lines (the last stdout line of each run)
//! of one commit, one per line, in pairing order: line `i` of both
//! files was measured back to back. Bounds and directions come from
//! `BENCHMARK.json` in the working directory.

use serde_json::Value;

use crate::stats::{compare, median, quartiles, Better};

fn results(path: &str) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Ok(text
        .lines()
        .filter_map(|l| serde_json::from_str::<Value>(l.trim()).ok())
        .filter(|v| !v.get("metrics").is_null())
        .collect())
}

fn values(runs: &[Value], metric: &str) -> Option<Vec<f64>> {
    runs.iter()
        .map(|r| match r.get("metrics").get(metric).get("value") {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        })
        .collect()
}

pub fn main(args: &[String]) -> Result<(), String> {
    let [parent, change] = args else {
        return Err("usage: e2ebench compare PARENT.jsonl CHANGE.jsonl".into());
    };
    let (parent, change) = (results(parent)?, results(change)?);
    if parent.is_empty() || parent.len() != change.len() {
        return Err(format!(
            "need equally many result lines on both sides (have {} and {})",
            parent.len(),
            change.len()
        ));
    }
    let manifest: Value = serde_json::from_str(
        &std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?,
    )
    .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut all_ok = true;
    for section in ["end_to_end", "per_layer"] {
        let Value::Array(metrics) = manifest.get(section) else {
            continue;
        };
        for m in metrics {
            let name = m.get("name").as_str().unwrap_or_default();
            let better = match m.get("better").as_str() {
                Some("higher") => Better::Higher,
                _ => Better::Lower,
            };
            let (Some(p), Some(c)) = (values(&parent, name), values(&change, name)) else {
                continue;
            };
            let (pq1, pq3) = quartiles(&p);
            let (cq1, cq3) = quartiles(&c);
            let line = format!(
                "{name}: parent median {:.4} [q1 {pq1:.4}, q3 {pq3:.4}] change median {:.4} [q1 {cq1:.4}, q3 {cq3:.4}]",
                median(&p),
                median(&c)
            );
            match m.get("bound") {
                Value::Number(b) => {
                    let verdict = compare(&p, &c, better, b.as_f64());
                    all_ok &= verdict != crate::stats::Verdict::Regression;
                    println!("{line} -> {} (bound {})", verdict.name(), b.as_f64());
                }
                _ => println!("{line} (per-layer, no bound)"),
            }
        }
    }
    if all_ok {
        Ok(())
    } else {
        Err("at least one end-to-end metric regressed".into())
    }
}
