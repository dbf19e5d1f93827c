//! Every workload at test size, untraced and traced: every metric is
//! printed by name with its unit, and no operation or check fails.

use d2pr_perfbench::{run, RunConfig, Size, Workload, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};

fn work_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{name}"))
}

fn tiny(workload: Workload, trace: bool) {
    let dir = work_dir(&format!("{}-{trace}", workload.name()));
    let report = run(&RunConfig {
        workload,
        seed: 5,
        seconds: 1,
        trace,
        size: Size::Tiny,
        work_dir: dir.clone(),
    })
    .expect("tiny run completes");
    let expected = if trace { PER_LAYER } else { END_TO_END };
    let printed: Vec<(&str, &str)> = report
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit))
        .collect();
    assert_eq!(printed, expected, "metric names and units");
    assert!(report.ledger.attempted() > 0);
    assert_eq!(report.ledger.failed(), 0, "{}", report.ledger.describe());
    assert_eq!(
        report.ledger.failed_checks(),
        0,
        "{}",
        report.ledger.describe()
    );
    assert!(report.correct());
    let line = report.json_line();
    for (name, unit) in expected {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing from {line}"
        );
        assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
    }
    if trace {
        let trace_file = dir.join(format!("trace-{}-seed5.jsonl", workload.name()));
        let spans = std::fs::read_to_string(trace_file).expect("trace written");
        assert!(spans
            .lines()
            .any(|l| l.contains("\"name\":\"store.durable.ingest.ms\"")));
        assert!(spans
            .lines()
            .any(|l| l.contains("\"name\":\"graph.delta.snapshot.ms\"")));
    }
    std::fs::remove_dir_all(dir).expect("clean up");
}

#[test]
fn trickle_serve_end_to_end() {
    tiny(Workload::TrickleServe, false);
}

#[test]
fn trickle_serve_traced() {
    tiny(Workload::TrickleServe, true);
}

#[test]
fn bulk_churn_end_to_end() {
    tiny(Workload::BulkChurn, false);
}

#[test]
fn bulk_churn_traced() {
    tiny(Workload::BulkChurn, true);
}

/// `BENCHMARK.json` names the same workloads and metrics, with the same
/// units, as the program prints.
#[test]
fn benchmark_json_matches_program() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for w in Workload::ALL {
        assert!(
            json.contains(&format!("\"name\": \"{}\"", w.name())),
            "{}",
            w.name()
        );
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} ({unit}) missing from BENCHMARK.json"
        );
    }
    let listed = json.matches("\"unit\": ").count();
    assert_eq!(
        listed,
        END_TO_END.len() + PER_LAYER.len(),
        "extra metrics listed"
    );
}
