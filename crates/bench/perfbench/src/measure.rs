//! The measurement loop and the result line.
//!
//! An untraced run times `setup` several times (median) and then repeats
//! checked one-thread passes until the time budget is spent, reporting the
//! fastest. A traced run alternates untraced passes with layer-timed ones
//! over the same input and reports per-layer medians. Every pass is gated: a
//! failing check is named on stderr and no timing is printed for the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::args::Args;
use crate::gate::Gate;
use crate::metrics::{self, END_TO_END};
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::workloads::campaign::Campaign;
use crate::workloads::lint::Lint;
use crate::workloads::{Size, Workload};

/// How many times `setup` is timed before the first pass, and again
/// before every measured pass: spreading the samples over the run lets
/// their median see the same machine conditions the passes see.
pub const SETUP_REPS: usize = 5;

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The correctness gate over every pass.
    pub gate: Gate,
    /// `(name, value, unit)`, only filled when the gate passed.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Spans of the last traced pass, as JSON.
    pub spans_json: Option<String>,
}

impl Outcome {
    /// The result line: one JSON object, metrics only for correct output.
    pub fn json_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.gate.ok(),
            self.gate.attempted.max(1),
            self.gate.failed
        );
        if self.gate.ok() {
            for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                let _ =
                    write!(out, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
            }
        }
        out.push_str("}}");
        out
    }
}

/// Runs the workload the arguments name at full size.
pub fn run(args: &Args) -> Outcome {
    let budget = Duration::from_secs(args.seconds);
    let seed = args.seed;
    match args.workload.as_str() {
        "campaign" => measure(&Campaign::new(seed, Size::Full), budget, args.trace),
        _ => {
            measure(&Lint { seed, size: Size::Full, root: PathBuf::from(".") }, budget, args.trace)
        }
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Checks one pass: the workload's own gate, then exact repetition of the
/// first pass's fingerprint.
fn check_pass<W: Workload>(
    w: &W,
    input: &W::Input,
    out: &W::Output,
    first: &mut Option<W::Fingerprint>,
    pass: usize,
    gate: &mut Gate,
) {
    w.check(input, out, gate);
    let fp = w.fingerprint(out);
    match first {
        None => *first = Some(fp),
        Some(f) => gate.unit(&format!("pass {pass}"), *f == fp, || {
            let mut why = format!("output differs from the warm-up pass: {fp:?} vs {f:?}");
            why.truncate(400);
            why
        }),
    }
}

/// Measures `w` for `budget` (at least one pass) and derives its metrics.
pub fn measure<W: Workload>(w: &W, budget: Duration, trace: bool) -> Outcome {
    let (mut input, first_setup) = timed(|| w.setup());
    let mut setup_s = vec![first_setup];
    for _ in 1..SETUP_REPS {
        let (i, s) = timed(|| w.setup());
        setup_s.push(s);
        input = i;
    }
    let work = w.work(&input);
    // One checked warm-up pass fills caches and allocator pools; it also
    // fixes the fingerprint every later pass must repeat.
    let mut gate = Gate::default();
    let mut first = None;
    let warm = w.run(&input);
    check_pass(w, &input, &warm, &mut first, 0, &mut gate);
    drop(warm);
    // A user runs one pass per process, so the peak that matters is the
    // one after setup and a single pass; later passes only add allocator
    // fragmentation that depends on how many passes the run had time for.
    let peak_rss_mb = metrics::peak_rss_mb().unwrap_or(0.0);
    if trace {
        return measure_traced(w, &input, budget, gate, first);
    }

    let mut walls = Vec::new();
    let start = Instant::now();
    while walls.is_empty() || start.elapsed() < budget {
        for _ in 0..SETUP_REPS {
            setup_s.push(timed(|| w.setup()).1);
        }
        let (out, wall) = timed(|| w.run(&input));
        check_pass(w, &input, &out, &mut first, walls.len() + 1, &mut gate);
        walls.push(wall);
    }
    let mut sorted = walls.clone();
    sorted.sort_by(f64::total_cmp);
    // A pass does the same work every time, and co-tenants on a shared
    // machine only ever add time to it, so the fastest pass is the one
    // that follows the program (README.md, "Measurement").
    let wall = sorted[0];
    let pass_ratio = 1.0 - gate.failed as f64 / gate.attempted.max(1) as f64;
    let values = [median(&setup_s), wall, work / wall, peak_rss_mb, pass_ratio];
    let metrics = END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n.to_string(), v, u)).collect();
    eprintln!(
        "perfbench: {} passes of {work} work units; pass wall min {:.4} median {:.4} max {:.4} s",
        walls.len(),
        sorted[0],
        median(&walls),
        sorted[sorted.len() - 1]
    );
    Outcome { gate, metrics, spans_json: None }
}

fn measure_traced<W: Workload>(
    w: &W,
    input: &W::Input,
    budget: Duration,
    mut gate: Gate,
    mut first: Option<W::Fingerprint>,
) -> Outcome {
    let mut tr = Tracer::new();
    let mut series: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut cells: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut passes = 0;
    let mut last_pass = 0;
    let start = Instant::now();
    while passes == 0 || start.elapsed() < budget {
        passes += 1;
        let mut push = |k: &str, x: f64| series.entry(k.to_string()).or_default().push(x);
        if let (Some((threads, out)), wall) = timed(|| w.parallel(input)) {
            check_pass(w, input, &out, &mut first, passes, &mut gate);
            push("wall_threads", wall * threads as f64);
        }
        let (out, untraced) = timed(|| w.run(input));
        check_pass(w, input, &out, &mut first, passes, &mut gate);
        push("trace.untraced_wall_s", untraced);

        let from = tr.spans().len();
        last_pass = from;
        let root = tr.enter("pass");
        let counts = w.traced(input, &out, &mut tr, &mut gate);
        tr.exit(root);
        let traced = tr.spans()[root].dur_ns() as f64 * 1e-9;
        let selfs = tr.self_secs(from);
        let replays = w.replays(input);
        for (k, x) in metrics::layer_values(&selfs, &counts, &replays) {
            push(&k, x);
        }
        let unattributed = selfs.get("pass").copied().unwrap_or(0.0);
        push("trace.wall_s", traced);
        push("trace.overhead_s", traced - untraced);
        push("trace.unattributed_s", unattributed);
        push("trace.attributed_share", 1.0 - unattributed / traced);
        for s in &tr.spans()[from..] {
            if let Some(kind) = s.name.strip_prefix("campaign.cell.") {
                cells.entry(kind).or_default().push(s.dur_ns() as f64 * 1e-6);
            }
        }
    }

    let med = |k: &str| series.get(k).map_or(0.0, |v| median(v));
    let efficiency = match series.get("wall_threads") {
        Some(v) => med("trace.untraced_wall_s") / median(v),
        None => 0.0,
    };
    let metrics = metrics::per_layer()
        .into_iter()
        .map(|(name, unit)| {
            let v = if let Some(rest) = name.strip_prefix("campaign.") {
                cell_stat(rest, &cells).unwrap_or_else(|| med(&name))
            } else if name == "runner.parallel_efficiency" {
                efficiency
            } else {
                med(&name)
            };
            (name, v, unit)
        })
        .collect();
    eprintln!("perfbench: {passes} traced passes, {} spans", tr.spans().len());
    // Every pass's spans feed the metrics; only the last pass is written
    // out, so the file holds one pass however long the run.
    Outcome { gate, metrics, spans_json: Some(tr.to_json(last_pass)) }
}

/// The per-kind cell statistics (`cell_ms_p50.<kind>` and friends) over
/// every traced pass's cell spans; `None` for other campaign metrics.
fn cell_stat(rest: &str, cells: &BTreeMap<&'static str, Vec<f64>>) -> Option<f64> {
    let (stat, kind) = rest.split_once('.')?;
    let v = cells.get(kind).map_or(&[][..], |v| v.as_slice());
    let t = tail(v);
    match stat {
        "cell_ms_p50" => Some(median(v)),
        "cell_ms_tail" => Some(t.map_or(0.0, |t| t.1)),
        "cell_tail_pct" => Some(t.map_or(0.0, |t| t.0)),
        "cell_samples" => Some(v.len() as f64),
        _ => None,
    }
}
