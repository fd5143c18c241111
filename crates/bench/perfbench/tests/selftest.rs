//! Self-tests of the benchmark: metric names match `BENCHMARK.json`, every
//! workload honours its seed, a reduced-size pass of each workload passes
//! its gate (untraced and traced), and a wrong pinned value fails it.
//! Run with `cargo test --manifest-path crates/bench/perfbench/Cargo.toml`.

use std::path::{Path, PathBuf};
use std::time::Duration;

use perfbench::measure::{measure, Outcome};
use perfbench::metrics::{per_layer, END_TO_END};
use perfbench::workloads::campaign::Campaign;
use perfbench::workloads::lint::Lint;
use perfbench::workloads::{Size, Workload, NAMES};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../..")
}

/// The `"name"` values of the array under `key` in `BENCHMARK.json`.
fn names_under(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no {key}"));
    let open = start + json[start..].find('[').unwrap();
    let close = open + json[open..].find(']').unwrap();
    json[open..close]
        .split("\"name\"")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).unwrap().to_string())
        .collect()
}

#[test]
fn metric_and_workload_names_match_benchmark_json() {
    let json = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(names_under(&json, "end_to_end"), e2e);
    let layers: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
    assert_eq!(names_under(&json, "per_layer"), layers);
    assert_eq!(names_under(&json, "workloads"), NAMES);
}

fn printed_names(o: &Outcome) -> Vec<String> {
    o.metrics.iter().map(|(n, _, _)| n.clone()).collect()
}

/// Runs `w` once untraced and once traced; both must pass the gate and
/// print exactly the documented metrics.
fn gate_passes<W: Workload>(w: &W, label: &str) {
    let o = measure(w, Duration::ZERO, false);
    assert!(o.gate.ok(), "{label}: {:#?}", o.gate.failures);
    let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(printed_names(&o), e2e);
    assert!(o.metrics.iter().all(|(_, v, _)| *v > 0.0), "{label}: {:?}", o.metrics);
    assert!(o.json_line().starts_with("{\"correct\": true"));

    let t = measure(w, Duration::ZERO, true);
    assert!(t.gate.ok(), "{label} traced: {:#?}", t.gate.failures);
    let layers: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
    assert_eq!(printed_names(&t), layers);
    let share = t.metrics.iter().find(|(n, _, _)| n == "trace.attributed_share").unwrap().1;
    assert!(share > 0.5, "{label}: layers account for only {share} of the traced pass");
    assert!(t.spans_json.as_deref().is_some_and(|s| s.contains("\"name\": \"pass\"")));
}

#[test]
fn reduced_campaign_passes_its_gate() {
    gate_passes(&Campaign::new(3, Size::Reduced), "campaign");
}

#[test]
fn reduced_lint_passes_its_gate() {
    gate_passes(&Lint { seed: 3, size: Size::Reduced, root: repo_root() }, "lint");
}

#[test]
fn every_workload_honours_its_seed() {
    let labels = |w: &Campaign| -> Vec<String> {
        w.setup().scenarios.iter().map(|s| s.label()).collect::<Vec<_>>()
    };
    let c = |seed| Campaign::new(seed, Size::Reduced);
    assert_eq!(labels(&c(1)), labels(&c(1)));
    assert_ne!(labels(&c(1)), labels(&c(2)), "campaign seed must move the claim order");

    let l = |seed| Lint { seed, size: Size::Reduced, root: repo_root() };
    assert_eq!(l(1).setup().files, l(1).setup().files);
    assert_ne!(l(1).setup().files, l(2).setup().files, "lint seed must move the file order");
}

#[test]
fn wrong_pinned_values_fail_the_gate_and_print_no_timing() {
    let mut w = Campaign::new(1, Size::Reduced);
    w.expect = w.expect.map(|(digest, checks)| (digest ^ 1, checks));
    let o = measure(&w, Duration::ZERO, false);
    assert!(!o.gate.ok());
    assert!(
        o.gate.failures.iter().any(|f| f.starts_with("campaign: digest")),
        "{:?}",
        o.gate.failures
    );
    assert_eq!(o.gate.failed, 2, "warm-up and measured pass each fail the pin once");
    let line = o.json_line();
    assert!(line.starts_with("{\"correct\": false"), "{line}");
    assert!(line.ends_with("\"metrics\": {}}"), "a failed run must print no timing: {line}");

    let o = measure(&w, Duration::ZERO, true);
    assert!(!o.gate.ok(), "a traced run must fail the same pin");
    assert!(o.json_line().ends_with("\"metrics\": {}}"));
}
