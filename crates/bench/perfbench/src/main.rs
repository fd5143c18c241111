//! `perfbench --workload NAME [--seed N] [--seconds N] [--trace 0|1]`
//!
//! Runs one workload, prints progress and any failed check on stderr, and
//! prints one JSON result line last on stdout. Exits 0 when every check
//! passed, 1 when one failed, 2 on a usage error. A traced run also writes
//! its last traced pass's spans to `.bench_trace/<workload>-seed<N>.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::process::ExitCode;

use perfbench::args::{self, USAGE};
use perfbench::measure;

fn main() -> ExitCode {
    let args = match args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = measure::run(&args);
    // Each distinct failure once, with how many passes hit it.
    let mut failures: BTreeMap<&str, usize> = BTreeMap::new();
    for f in &outcome.gate.failures {
        *failures.entry(f).or_default() += 1;
    }
    for (f, n) in failures {
        eprintln!("perfbench: FAILED ({n}x) {f}");
    }
    if let Some(spans) = &outcome.spans_json {
        let dir = std::path::Path::new(".bench_trace");
        let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans)) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
    println!("{}", outcome.json_line());
    if outcome.gate.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
