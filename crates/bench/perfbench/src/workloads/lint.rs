//! The `lint` workload: one `fs-lint` pass over the live source tree with
//! the CI configuration (`--timings --graph-out`).
//!
//! The input is whatever tree the benchmark runs in, so the pass records
//! how many files and KLoC it linted: a change that grows the source shows as
//! input drift, not as a slow-down. The seed shuffles the order the file
//! list is handed to the engine; the report must still have no findings
//! and repeat byte for byte on every pass.

use std::cell::OnceCell;
use std::path::{Path, PathBuf};
use std::time::Duration;

use fslint::engine::{collect_workspace_files, lint_paths, render_json, render_text, Report};
use fslint::Config;
use simcore::rng::Stream;

use super::{Size, Workload};
use crate::gate::Gate;
use crate::replica::{bump, Counts};
use crate::trace::Tracer;

/// The `lint` workload.
pub struct Lint {
    /// Shuffles the file order.
    pub seed: u64,
    /// Full tree, or only `crates/fslint/src`.
    pub size: Size,
    /// Root of the tree to lint.
    pub root: PathBuf,
}

/// The file list and engine config of a pass.
pub struct LintInput {
    /// Files in the seed's order.
    pub files: Vec<PathBuf>,
    /// The CI configuration.
    pub cfg: Config,
    kloc: OnceCell<f64>,
}

impl LintInput {
    /// Thousands of source lines in `files` (read once, untimed).
    pub fn kloc(&self) -> f64 {
        *self.kloc.get_or_init(|| {
            let lines: usize = self
                .files
                .iter()
                .map(|f| std::fs::read_to_string(f).map_or(0, |s| s.lines().count()))
                .sum();
            lines as f64 / 1000.0
        })
    }
}

/// A pass's report and its rendered JSON artifact.
pub struct LintOutput {
    /// The engine's report.
    pub report: Report,
    /// `render_json(&report)`.
    pub json: String,
}

fn pass(input: &LintInput, root: &Path) -> LintOutput {
    let report = lint_paths(root, &input.files, &input.cfg);
    let json = render_json(&report);
    LintOutput { report, json }
}

/// The byte-stable part of a report: findings and the call graph (the
/// phase timings are the only part allowed to vary).
fn stable_bytes(report: &Report) -> String {
    let mut s = render_text(report);
    s.push_str(report.graph_json.as_deref().unwrap_or(""));
    s
}

impl Workload for Lint {
    type Input = LintInput;
    type Output = LintOutput;
    type Fingerprint = String;

    fn setup(&self) -> LintInput {
        let mut files = collect_workspace_files(&self.root);
        if self.size == Size::Reduced {
            let only = self.root.join("crates/fslint/src");
            files.retain(|f| f.starts_with(&only));
        }
        let mut rng = Stream::from_seed(self.seed).derive("perfbench/lint-order");
        for i in (1..files.len()).rev() {
            files.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        let cfg = Config { timings: true, graph_json: true, jobs: Some(1), ..Config::default() };
        LintInput { files, cfg, kloc: OnceCell::new() }
    }

    fn run(&self, input: &LintInput) -> LintOutput {
        pass(input, &self.root)
    }

    fn check(&self, input: &LintInput, out: &LintOutput, gate: &mut Gate) {
        let r = &out.report;
        gate.unit("lint findings", r.findings.is_empty(), || {
            let shown: Vec<String> = r
                .findings
                .iter()
                .take(5)
                .map(|f| format!("{}:{} [{}]", f.path, f.line, f.rule))
                .collect();
            format!("{} finding(s): {}", r.findings.len(), shown.join(", "))
        });
        gate.unit(
            "lint coverage",
            r.files_scanned == input.files.len() && r.files_scanned > 0,
            || format!("scanned {} of {} files", r.files_scanned, input.files.len()),
        );
        gate.unit("lint artifacts", r.graph_json.is_some() && r.timings.is_some(), || {
            "the CI config must yield a call graph and phase timings".to_string()
        });
    }

    fn fingerprint(&self, out: &LintOutput) -> String {
        stable_bytes(&out.report)
    }

    fn work(&self, input: &LintInput) -> f64 {
        input.kloc()
    }

    fn traced(
        &self,
        input: &LintInput,
        out: &LintOutput,
        tr: &mut Tracer,
        gate: &mut Gate,
    ) -> Counts {
        let ns = |ms: u64| Duration::from_millis(ms).as_nanos() as u64;
        let outer = tr.enter("fslint.lint");
        let report = lint_paths(&self.root, &input.files, &input.cfg);
        let t = report.timings.unwrap_or_default();
        let phases = [
            ("fslint.lex_parse", t.lex_parse_ms),
            ("fslint.graph", t.graph_ms),
            ("fslint.flow", t.flow_ms),
            ("fslint.units", t.units_ms),
            ("fslint.effects", t.effects_ms),
            ("fslint.rules", t.rules_ms),
        ];
        let mut offset = 0;
        for (name, ms) in phases {
            tr.record_child(name, offset, ns(ms));
            offset += ns(ms);
        }
        tr.exit(outer);
        let outer_ns = tr.spans()[outer].dur_ns();
        let json = tr.leaf("fslint.render", || render_json(&report));
        // The engine's laps are truncated to whole milliseconds and nest
        // inside the outer call, so neither may exceed what was timed here.
        let total_ns = ns(t.total_ms);
        gate.unit("fslint timings", offset <= total_ns && total_ns <= outer_ns, || {
            format!(
                "phases sum to {offset} ns, engine total {total_ns} ns, outer call {outer_ns} ns"
            )
        });
        gate.unit("replica lint", stable_bytes(&report) == stable_bytes(&out.report), || {
            "traced report differs from the untraced pass".to_string()
        });
        gate.unit("replica lint json", !json.is_empty(), String::new);
        let mut counts = Counts::new();
        bump(&mut counts, "fslint.files", report.files_scanned as f64);
        bump(&mut counts, "fslint.kloc", input.kloc());
        counts
    }
}
