//! The benchmark's self-test: every workload at tiny size, through the
//! same code as a full run, must pass its correctness checks and emit
//! every metric `BENCHMARK.json` declares, finite and with its unit.
//!
//! ```text
//! cargo test --release --offline --manifest-path e2ebench/Cargo.toml
//! ```

use crate::fixtures::Size;
use crate::report::{Report, END_TO_END, PER_LAYER};
use crate::{run, WORKLOADS};

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`, or
/// the `name`s of its workloads, in file order. The file is small and
/// flat, so a scan for `"name": "…"` and `"unit": "…"` pairs is enough.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = include_str!("../../BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |item: &str, key: &str| -> String {
        let at = item
            .find(&format!("\"{key}\": \""))
            .map(|i| i + key.len() + 5);
        at.map(|i| item[i..].split('"').next().unwrap_or_default().to_string())
            .unwrap_or_default()
    };
    body.split('{')
        .skip(1)
        .map(|item| (field(item, "name"), field(item, "unit")))
        .collect()
}

fn owned(catalogue: &[(&str, &str)]) -> Vec<(String, String)> {
    catalogue
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    assert_eq!(declared("end_to_end"), owned(END_TO_END));
    assert_eq!(declared("per_layer"), owned(PER_LAYER));
    let workloads: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn every_workload_emits_every_metric_at_tiny_size() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let rep = run(workload, Size::Tiny, 7, 0.3, trace);
            assert!(
                rep.correct(),
                "{workload} trace {trace}: {:?}",
                rep.errors()
            );
            for &(name, unit) in Report::catalogue(trace) {
                let v = rep.get(name);
                assert!(
                    v.is_some_and(f64::is_finite) || (trace && v.is_none()),
                    "{workload}: {name} = {v:?}"
                );
                assert!(!unit.is_empty(), "{name} has no unit");
            }
            let line = rep.json(trace);
            for &(name, unit) in Report::catalogue(trace) {
                let entry = format!("\"{name}\": {{\"value\": ");
                assert!(
                    line.contains(&entry),
                    "{workload}: {name} missing from {line}"
                );
                assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
            }
            if trace {
                // The traced decomposition ran and matched the pipeline
                // (a mismatch would have failed `correct`).
                let coverage = rep.get("trace.coverage").unwrap_or(0.0);
                assert!(coverage > 0.5, "{workload}: trace.coverage {coverage}");
                // Each traced run's probe ran: the service on `direct`,
                // the multilevel engine on `hybrid`.
                let probe = match workload {
                    "direct" => "journal.appends",
                    _ => "multilevel.levels",
                };
                assert!(rep.get(probe).unwrap_or(0.0) > 0.0, "{workload}: {probe}");
            }
        }
    }
}
