//! Numeric-tree comparison behind the CI bench-regression gate.
//!
//! The committed baselines (the eight `BENCH_<name>_summary.json` files of the sweep, serve,
//! moment, cluster, chaos, obs, hot-path and store benchmarks) hold only deterministic
//! headline scalars and digests, so a fresh run should reproduce them *exactly*; the
//! tolerance exists to keep the checker honest about what drifted and by how much rather
//! than failing on the first ULP if a future change legitimately perturbs float ordering.
//! Structure (keys, array lengths, strings, bools) always compares exactly.

use shift_bnn::sweep::json::Json;

/// One divergence between a baseline document and a fresh one.
#[derive(Debug, Clone, PartialEq)]
pub struct Mismatch {
    /// `/`-separated path from the document root to the diverging node.
    pub path: String,
    /// What differs.
    pub detail: String,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", if self.path.is_empty() { "<root>" } else { &self.path }, self.detail)
    }
}

/// Compares two parsed JSON documents; numeric leaves may differ by a relative tolerance
/// (`|a − b| ≤ tolerance × max(1, |a|, |b|)`), everything else must match exactly. Returns
/// every mismatch found (empty = documents agree).
pub fn compare(baseline: &Json, fresh: &Json, tolerance: f64) -> Vec<Mismatch> {
    let mut mismatches = Vec::new();
    compare_at(baseline, fresh, tolerance, String::new(), &mut mismatches);
    mismatches
}

fn numeric(value: &Json) -> Option<f64> {
    value.as_f64()
}

fn kind(value: &Json) -> &'static str {
    match value {
        Json::Null => "null",
        Json::Bool(_) => "bool",
        Json::UInt(_) | Json::Int(_) | Json::Float(_) => "number",
        Json::Str(_) => "string",
        Json::Array(_) => "array",
        Json::Object(_) => "object",
    }
}

fn join(path: &str, segment: &str) -> String {
    if path.is_empty() {
        segment.to_string()
    } else {
        format!("{path}/{segment}")
    }
}

fn compare_at(
    baseline: &Json,
    fresh: &Json,
    tolerance: f64,
    path: String,
    out: &mut Vec<Mismatch>,
) {
    // Numbers compare numerically whatever their integer/float classification.
    if let (Some(a), Some(b)) = (numeric(baseline), numeric(fresh)) {
        let scale = a.abs().max(b.abs()).max(1.0);
        if (a - b).abs() > tolerance * scale {
            out.push(Mismatch {
                path,
                detail: format!(
                    "baseline {a} vs fresh {b} (rel diff {:.3e})",
                    (a - b).abs() / scale
                ),
            });
        }
        return;
    }
    match (baseline, fresh) {
        (Json::Null, Json::Null) => {}
        (Json::Bool(a), Json::Bool(b)) => {
            if a != b {
                out.push(Mismatch { path, detail: format!("baseline {a} vs fresh {b}") });
            }
        }
        (Json::Str(a), Json::Str(b)) => {
            if a != b {
                out.push(Mismatch { path, detail: format!("baseline {a:?} vs fresh {b:?}") });
            }
        }
        (Json::Array(a), Json::Array(b)) => {
            if a.len() != b.len() {
                out.push(Mismatch {
                    path: path.clone(),
                    detail: format!("array length {} vs {}", a.len(), b.len()),
                });
            }
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                compare_at(x, y, tolerance, join(&path, &i.to_string()), out);
            }
        }
        (Json::Object(a), Json::Object(b)) => {
            for (key, x) in a {
                match fresh.get(key) {
                    Some(y) => compare_at(x, y, tolerance, join(&path, key), out),
                    None => out.push(Mismatch {
                        path: join(&path, key),
                        detail: "missing from fresh document".into(),
                    }),
                }
            }
            for (key, _) in b {
                if baseline.get(key).is_none() {
                    out.push(Mismatch {
                        path: join(&path, key),
                        detail: "not present in baseline".into(),
                    });
                }
            }
        }
        _ => out.push(Mismatch {
            path,
            detail: format!("type mismatch: baseline {} vs fresh {}", kind(baseline), kind(fresh)),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Json {
        Json::parse(s).unwrap()
    }

    #[test]
    fn identical_documents_have_no_mismatches() {
        let doc = parse(r#"{"a":1,"b":[1.5,"x",true],"c":{"d":null}}"#);
        assert!(compare(&doc, &doc, 0.0).is_empty());
    }

    #[test]
    fn numeric_drift_within_tolerance_passes_and_beyond_fails() {
        let a = parse(r#"{"v":100.0}"#);
        let b = parse(r#"{"v":100.0001}"#);
        assert!(compare(&a, &b, 1e-5).is_empty());
        let found = compare(&a, &b, 1e-9);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].path, "v");
    }

    #[test]
    fn integer_and_float_representations_compare_numerically() {
        assert!(compare(&parse("360"), &parse("360.0"), 0.0).is_empty());
        assert!(!compare(&parse("360"), &parse("361"), 1e-9).is_empty());
    }

    #[test]
    fn structural_divergence_is_reported_with_paths() {
        let a = parse(r#"{"records":[{"m":"B-MLP","v":1},{"m":"B-LeNet","v":2}],"extra":1}"#);
        let b = parse(r#"{"records":[{"m":"B-MLP","v":1},{"m":"B-VGG","v":2}],"added":true}"#);
        let found = compare(&a, &b, 0.0);
        let paths: Vec<&str> = found.iter().map(|m| m.path.as_str()).collect();
        assert!(paths.contains(&"records/1/m"));
        assert!(paths.contains(&"extra"));
        assert!(paths.contains(&"added"));
    }

    #[test]
    fn type_mismatches_and_length_mismatches_are_caught() {
        let found = compare(&parse(r#"{"a":[1,2]}"#), &parse(r#"{"a":[1]}"#), 0.0);
        assert!(found.iter().any(|m| m.detail.contains("array length")));
        let found = compare(&parse(r#"{"a":"x"}"#), &parse(r#"{"a":1}"#), 0.0);
        assert!(found.iter().any(|m| m.detail.contains("type mismatch")));
    }

    #[test]
    fn bool_value_differences_report_values_not_types() {
        let found = compare(&parse(r#"{"reduced":true}"#), &parse(r#"{"reduced":false}"#), 0.0);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].detail, "baseline true vs fresh false");
    }
}
