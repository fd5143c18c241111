//! Metric names, units, and the per-layer values derived from a traced
//! pass. The names here are the ones `BENCHMARK.json` lists; a self-test
//! keeps the two in step.

use std::collections::BTreeMap;

use crate::replica::Counts;
use crate::workloads::ReplayTiming;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("work_per_s", "work/s"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "ratio"),
];

/// Campaign cell kinds, in the order their metrics are listed.
pub const CELL_KINDS: [&str; 5] = ["raid", "queue", "hedge", "plane", "meta"];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("simcore.events", "count"),
        ("simcore.replay_ns_per_event.meta.calendar", "ns"),
        ("simcore.replay_ns_per_event.meta.reference", "ns"),
        ("simcore.replay_ns_per_event.fleet.calendar", "ns"),
        ("simcore.replay_ns_per_event.fleet.reference", "ns"),
        ("metastable.run_s", "s"),
        ("metastable.ticks", "count"),
        ("metastable.ns_per_tick", "ns"),
        ("metastable.step_share", "ratio"),
        ("metastable.oracle_s", "s"),
        ("perfplane.run_plane_s", "s"),
        ("perfplane.merges", "count"),
        ("perfplane.ns_per_merge", "ns"),
        ("perfplane.delivery_ratio", "ratio"),
        ("perfplane.oracle_s", "s"),
        ("netsim.carrier_bytes", "bytes"),
        ("raidsim.write_s", "s"),
        ("raidsim.map_entries", "count"),
        ("raidsim.oracle_s", "s"),
        ("adapt.distribute_s", "s"),
        ("adapt.hedge_s", "s"),
        ("adapt.hedge_waste_ratio", "ratio"),
        ("adapt.oracle_s", "s"),
        ("stutter.timeline_s", "s"),
        ("stutter.detect_s", "s"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for (prefix, unit) in [
        ("campaign.cell_ms_p50.", "ms"),
        ("campaign.cell_ms_tail.", "ms"),
        ("campaign.cell_tail_pct.", "%"),
        ("campaign.cell_samples.", "count"),
    ] {
        v.extend(CELL_KINDS.iter().map(|k| (format!("{prefix}{k}"), unit)));
    }
    v.extend(
        [
            ("campaign.cell_self_s", "s"),
            ("campaign.report_s", "s"),
            ("runner.parallel_efficiency", "ratio"),
            ("fslint.lex_parse_s", "s"),
            ("fslint.graph_s", "s"),
            ("fslint.flow_s", "s"),
            ("fslint.units_s", "s"),
            ("fslint.effects_s", "s"),
            ("fslint.rules_s", "s"),
            ("fslint.lint_s", "s"),
            ("fslint.render_s", "s"),
            ("fslint.files", "count"),
            ("fslint.kloc", "kloc"),
            ("trace.wall_s", "s"),
            ("trace.untraced_wall_s", "s"),
            ("trace.overhead_s", "s"),
            ("trace.unattributed_s", "s"),
            ("trace.attributed_share", "ratio"),
        ]
        .into_iter()
        .map(|(n, u)| (n.to_string(), u)),
    );
    v
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer values of one traced pass from its self times (seconds per
/// span name), its work counters, and the replays measured beside it.
/// Layers that did no work on this workload read 0.
pub fn layer_values(
    selfs: &BTreeMap<&'static str, f64>,
    counts: &Counts,
    replays: &[ReplayTiming],
) -> BTreeMap<String, f64> {
    let s = |k: &str| selfs.get(k).copied().unwrap_or(0.0);
    let c = |k: &str| counts.get(k).copied().unwrap_or(0.0);
    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |k: &str, x: f64| {
        v.insert(k.to_string(), x);
    };

    let mut calendar_events = 0;
    let mut meta_calendar_s = 0.0;
    for &(pattern, kind, events, secs) in replays {
        put(
            &format!("simcore.replay_ns_per_event.{pattern}.{kind}"),
            ratio(secs * 1e9, events as f64),
        );
        if kind == "calendar" {
            calendar_events += events;
            if pattern == "meta" {
                meta_calendar_s = secs;
            }
        }
    }
    put("simcore.events", calendar_events as f64);

    let run_s = s("metastable.run");
    put("metastable.run_s", run_s);
    put("metastable.ticks", c("metastable.ticks"));
    put("metastable.ns_per_tick", ratio(run_s * 1e9, c("metastable.ticks")));
    put("metastable.step_share", ratio(run_s - meta_calendar_s, run_s));
    put("metastable.oracle_s", s("metastable.oracle"));

    let plane_s = s("perfplane.run_plane");
    put("perfplane.run_plane_s", plane_s);
    put("perfplane.merges", c("perfplane.merges"));
    put("perfplane.ns_per_merge", ratio(plane_s * 1e9, c("perfplane.merges")));
    put("perfplane.delivery_ratio", ratio(c("perfplane.delivered"), c("perfplane.sent")));
    put("perfplane.oracle_s", s("perfplane.oracle"));
    put("netsim.carrier_bytes", c("netsim.carrier_bytes"));

    put("raidsim.write_s", s("raidsim.write"));
    put("raidsim.map_entries", c("raidsim.map_entries"));
    put("raidsim.oracle_s", s("raidsim.oracle"));
    put("adapt.distribute_s", s("adapt.distribute"));
    put("adapt.hedge_s", s("adapt.hedge"));
    put("adapt.hedge_waste_ratio", ratio(c("adapt.hedge_wasted"), c("adapt.hedge_spent")));
    put("adapt.oracle_s", s("adapt.oracle"));
    put("stutter.timeline_s", s("stutter.timeline"));
    put("stutter.detect_s", s("stutter.detect"));

    let cells: f64 = CELL_KINDS.iter().map(|k| s(&format!("campaign.cell.{k}"))).sum();
    put("campaign.cell_self_s", cells);
    put("campaign.report_s", s("campaign.report"));

    const PHASES: [&str; 6] = ["lex_parse", "graph", "flow", "units", "effects", "rules"];
    let mut lint_s = s("fslint.lint");
    for p in PHASES {
        let x = s(&format!("fslint.{p}"));
        lint_s += x;
        put(&format!("fslint.{p}_s"), x);
    }
    put("fslint.lint_s", lint_s);
    put("fslint.render_s", s("fslint.render"));
    put("fslint.files", c("fslint.files"));
    put("fslint.kloc", c("fslint.kloc"));
    v
}

/// Peak resident set (VmHWM) of this process in MB, if the OS reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
