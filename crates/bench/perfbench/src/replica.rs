//! Layer-timed replicas of the campaign cells.
//!
//! [`cell`] re-runs one campaign cell by calling the same public functions
//! of `stutter`, `raidsim`, `adapt`, `perfplane` and `metastable` that
//! `fs_bench::campaign::scenario::run_scenario` calls, in the same order
//! and on the same RNG streams, with a [`Tracer`] span around each call.
//! The replica rebuilds the cell's full metric list and counts its oracle
//! checks; [`compare`] then demands that both equal what the cell itself
//! reported, so the layer split always measures exactly the cell's work.

use std::collections::BTreeMap;

use adapt::oracle as qoracle;
use adapt::prelude::*;
use fs_bench::campaign::scenario::Metric;
use fs_bench::campaign::{CampaignConfig, Kind, Scenario, ScenarioResult};
use metastable::oracle as moracle;
use metastable::policy::{BreakerConfig, Mitigation, ShedConfig};
use metastable::server::trigger_window;
use perfplane::oracle as poracle;
use perfplane::prelude::*;
use raidsim::oracle as roracle;
use raidsim::prelude::*;
use simcore::prelude::*;
use simcore::resource::RateProfile;
use stutter::oracle as soracle;
use stutter::prelude::*;
use stutter::spec::PerfSpec;

use crate::trace::Tracer;

/// Per-pass work counters, keyed by metric-style names.
pub type Counts = BTreeMap<&'static str, f64>;

/// Adds `v` to counter `k`.
pub fn bump(counts: &mut Counts, k: &'static str, v: f64) {
    *counts.entry(k).or_default() += v;
}

/// The stream labels `run_scenario` derives each cell's streams from.
/// The replica must draw the very same streams to reproduce the cell bit
/// for bit, so it shares these labels on purpose (the lint rule against
/// cross-file label reuse guards against *accidental* correlation); if
/// they ever drift, [`compare`] fails on the first cell that draws one.
mod stream {
    pub const TIMELINE: &str = "timeline";
    pub const DRIFT: &str = "drift";
    pub const LINKS: &str = "links";
    pub const PLANE: &str = "plane";
    pub const META_UNMITIGATED: &str = "meta-unmitigated";
    pub const META_SHED: &str = "meta-shed";
    pub const META_BREAKER: &str = "meta-breaker";
}

/// What a replica reproduced: the metric list and the check tally.
#[derive(Debug, Default)]
pub struct Replica {
    /// Metrics in the order the cell reports them.
    pub metrics: Vec<(&'static str, Metric)>,
    /// Checks that passed.
    pub passed: usize,
    /// Checks evaluated.
    pub total: usize,
}

impl Replica {
    fn m(&mut self, name: &'static str, v: Metric) {
        self.metrics.push((name, v));
    }

    fn check(&mut self, ok: bool) {
        self.total += 1;
        self.passed += usize::from(ok);
    }
}

/// The span name a cell of `kind` is recorded under.
pub fn cell_span(kind: Kind) -> &'static str {
    match kind {
        Kind::Raid => "campaign.cell.raid",
        Kind::Queue => "campaign.cell.queue",
        Kind::Hedge => "campaign.cell.hedge",
        Kind::Plane => "campaign.cell.plane",
        Kind::Metastable => "campaign.cell.meta",
    }
}

/// Replays one cell with a span per layer call, inside a cell span.
pub fn cell(sc: &Scenario, cfg: &CampaignConfig, tr: &mut Tracer, counts: &mut Counts) -> Replica {
    tr.set_group(sc.id as u64);
    let span = tr.enter(cell_span(sc.kind));
    let label = sc.label();
    let rng = Stream::from_seed(cfg.master_seed).derive(&label);
    let mut timeline_rng = rng.derive(stream::TIMELINE);
    let profile =
        tr.leaf("stutter.timeline", || sc.injector.timeline(cfg.horizon, &mut timeline_rng));

    let mut r = Replica::default();
    r.m("profile_mean_multiplier", Metric::F64(profile.mean_multiplier(cfg.horizon)));
    r.m("profile_fail_at_ns", Metric::U64(profile.fail_at().map_or(u64::MAX, |t| t.as_nanos())));
    match sc.kind {
        Kind::Raid => raid(&profile, cfg, tr, counts, &mut r),
        Kind::Queue => queue(&profile, cfg, tr, &mut r),
        Kind::Hedge => hedge(&profile, cfg, tr, counts, &mut r),
        Kind::Plane => plane(sc, cfg, &rng, tr, counts, &mut r),
        Kind::Metastable => meta(&profile, &rng, tr, counts, &mut r),
    }
    tr.exit(span);
    r
}

/// Why the replica differs from the cell's own result, if it does.
pub fn compare(rep: &Replica, cell: &ScenarioResult) -> Result<(), String> {
    if rep.metrics.len() != cell.metrics.len() {
        return Err(format!(
            "replica has {} metrics, cell reports {}",
            rep.metrics.len(),
            cell.metrics.len()
        ));
    }
    for ((name, v), (cname, cv)) in rep.metrics.iter().zip(&cell.metrics) {
        let same = match (v, cv) {
            (Metric::U64(a), Metric::U64(b)) => a == b,
            (Metric::F64(a), Metric::F64(b)) => a.to_bits() == b.to_bits(),
            _ => false,
        };
        if name != cname || !same {
            return Err(format!("replica {name}={v:?} but cell {cname}={cv:?}"));
        }
    }
    if (rep.passed, rep.total) != (cell.checks_passed(), cell.checks.len()) {
        return Err(format!(
            "replica passed {}/{} checks, cell {}/{}",
            rep.passed,
            rep.total,
            cell.checks_passed(),
            cell.checks.len()
        ));
    }
    Ok(())
}

fn profile_is_constant(p: &SlowdownProfile) -> bool {
    p.segments().len() == 1 && p.fail_at().is_none()
}

fn array_with(profile: &SlowdownProfile, cfg: &CampaignConfig) -> Raid10 {
    let n = cfg.pairs;
    let mut pairs: Vec<MirrorPair> = (0..n).map(|_| MirrorPair::healthy(cfg.nominal)).collect();
    pairs[0] = MirrorPair::new(
        VDisk::new(cfg.nominal).with_profile(profile.clone()),
        VDisk::new(cfg.nominal),
    );
    Raid10::new(pairs, cfg.horizon)
}

fn raid(
    profile: &SlowdownProfile,
    cfg: &CampaignConfig,
    tr: &mut Tracer,
    counts: &mut Counts,
    r: &mut Replica,
) {
    const ELAPSED: [&str; 3] = ["s1_elapsed_ns", "s2_elapsed_ns", "s3_elapsed_ns"];
    const TP: [&str; 3] = ["s1_throughput", "s2_throughput", "s3_throughput"];
    let (n, nominal) = (cfg.pairs, cfg.nominal);
    let array = array_with(profile, cfg);
    let w = Workload::new(cfg.blocks, cfg.block_bytes);
    let runs = tr.leaf("raidsim.write", || {
        [
            array.write_static(w, SimTime::ZERO),
            array.write_proportional(w, SimTime::ZERO, SimTime::ZERO),
            array.write_adaptive(w, SimTime::ZERO, cfg.chunk_blocks),
        ]
    });
    let mut ok = Vec::new();
    for (i, run) in runs.into_iter().enumerate() {
        match run {
            Ok(out) => {
                r.m(ELAPSED[i], Metric::U64(out.elapsed.as_nanos()));
                r.m(TP[i], Metric::F64(out.throughput));
                ok.push(out);
            }
            Err(_) => return r.check(false),
        }
    }
    let (s1, s2, s3) = (&ok[0], &ok[1], &ok[2]);
    let entries = s3.block_map.as_ref().map_or(0, |m| m.len() as u64);
    r.m("s3_map_entries", Metric::U64(entries));
    bump(counts, "raidsim.map_entries", entries as f64);

    let verdicts = tr.leaf("raidsim.oracle", || {
        let mut v = vec![
            roracle::check_conservation(s1, w).is_ok(),
            roracle::check_conservation(s2, w).is_ok(),
            roracle::check_conservation(s3, w).is_ok(),
            roracle::check_block_map_partition(s3, w).is_ok(),
        ];
        for out in [s1, s2, s3] {
            v.push(roracle::check_fault_never_helps(out, n, nominal, 1e-6).is_ok());
        }
        v.push(roracle::check_ordering(s1.throughput, s2.throughput, s3.throughput, 0.05).is_ok());
        if profile_is_constant(profile) {
            let b = nominal * profile.multiplier_at(SimTime::ZERO);
            v.push(roracle::check_scenario1(s1, n, nominal, b, 0.02).is_ok());
            v.push(roracle::check_scenario2(s2, n, nominal, b, 0.02).is_ok());
            v.push(roracle::check_scenario3(s3, n, nominal, b, 0.05).is_ok());
            v.push(s2.throughput >= s1.throughput * (1.0 - 1e-9));
        } else if profile.multiplier_at(SimTime::ZERO) == 1.0 && cfg.blocks.is_multiple_of(n as u64)
        {
            v.push(s2.elapsed == s1.elapsed);
        }
        v
    });
    for ok in verdicts {
        r.check(ok);
    }
    tr.leaf("stutter.detect", || detection(profile, cfg, r));
}

fn detection(profile: &SlowdownProfile, cfg: &CampaignConfig, r: &mut Replica) {
    const TOLERANCE: f64 = 0.9;
    const ALPHA: f64 = 0.3;
    const MARGIN: f64 = 0.05;
    const SETTLE_SAMPLES: usize = 40;
    const PERSISTENCE_SECS: u64 = 30;
    let step = SimDuration::from_secs(1);
    let samples = soracle::sample_multipliers(profile, step, cfg.monitor_window);
    let prediction = soracle::predict_export(
        &samples,
        TOLERANCE,
        PERSISTENCE_SECS as usize + 1,
        SETTLE_SAMPLES,
        MARGIN,
    );
    let spec = PerfSpec::constant_with_tolerance(cfg.nominal, TOLERANCE);
    let mut detector = EwmaDetector::new(spec, ALPHA);
    let mut registry = Registry::new(SimDuration::from_secs(PERSISTENCE_SECS));
    for (k, m) in samples.iter().enumerate() {
        let verdict = detector.observe(cfg.nominal * m);
        registry.report(ComponentId(0), SimTime::from_secs(k as u64), verdict);
    }
    let published =
        registry.notifications().iter().any(|nf| !matches!(nf.state, HealthState::Healthy));
    let code = match prediction {
        soracle::ExportPrediction::MustExport => 2,
        soracle::ExportPrediction::MustStaySilent => 0,
        soracle::ExportPrediction::Unconstrained => 1,
    };
    r.m("detect_prediction", Metric::U64(code));
    r.m("detect_published", Metric::U64(u64::from(published)));
    r.m("detect_notifications", Metric::U64(registry.notifications().len() as u64));
    r.m("detect_suppressed", Metric::U64(registry.suppressed()));
    r.check(soracle::check_export_agreement(prediction, published).is_ok());
}

/// The campaign's pull-vs-push slack: one longest stall plus one item at
/// the slowest positive rate.
fn pull_slack(profile: &SlowdownProfile, cfg: &CampaignConfig, window: SimDuration) -> SimDuration {
    let end = SimTime::ZERO + window;
    let segs = profile.segments();
    let mut longest_zero = SimDuration::ZERO;
    let mut zero_run_start: Option<SimTime> = None;
    let mut min_pos = 1.0f64;
    for (i, &(start, m)) in segs.iter().enumerate() {
        if start > end {
            break;
        }
        let seg_end = segs.get(i + 1).map_or(end, |&(s, _)| s).min(end);
        if m <= 0.0 {
            let run_start = *zero_run_start.get_or_insert(start);
            longest_zero = longest_zero.max(seg_end.saturating_since(run_start));
        } else {
            zero_run_start = None;
            min_pos = min_pos.min(m);
        }
    }
    longest_zero + SimDuration::from_secs_f64(cfg.item_units / (cfg.nominal * min_pos))
}

fn rates_with(profile: &SlowdownProfile, cfg: &CampaignConfig) -> Vec<RateProfile> {
    let mut rates = vec![RateProfile::constant(cfg.nominal); cfg.pairs];
    rates[0] = profile.to_rate_profile(cfg.nominal);
    rates
}

fn queue(profile: &SlowdownProfile, cfg: &CampaignConfig, tr: &mut Tracer, r: &mut Replica) {
    const NAMES: [&str; 4] =
        ["pull_consumer_0", "pull_consumer_1", "pull_consumer_2", "pull_consumer_3"];
    let rates = rates_with(profile, cfg);
    let (push, pull) = tr.leaf("adapt.distribute", || {
        (
            distribute(Strategy::Push, &rates, cfg.items, cfg.item_units, SimTime::ZERO),
            distribute(Strategy::Pull, &rates, cfg.items, cfg.item_units, SimTime::ZERO),
        )
    });
    r.m("push_ok", Metric::U64(u64::from(push.is_ok())));
    r.m("push_makespan_ns", Metric::U64(push.as_ref().map_or(u64::MAX, |o| o.makespan.as_nanos())));
    r.check(push.is_ok() || profile.fail_at().is_some());
    let Ok(pull) = pull else { return r.check(false) };
    r.check(true);
    r.m("pull_makespan_ns", Metric::U64(pull.makespan.as_nanos()));
    for (name, &c) in NAMES.iter().zip(&pull.per_consumer) {
        r.m(name, Metric::U64(c));
    }
    let verdicts = tr.leaf("adapt.oracle", || {
        let floor =
            qoracle::aggregate_floor(cfg.items, cfg.item_units, cfg.nominal * cfg.pairs as f64);
        let mut v = vec![
            qoracle::check_queue_conservation(&pull, cfg.items).is_ok(),
            qoracle::check_aggregate_floor(&pull, floor, 1e-6).is_ok(),
        ];
        if let Ok(push) = &push {
            v.push(qoracle::check_queue_conservation(push, cfg.items).is_ok());
            v.push(qoracle::check_aggregate_floor(push, floor, 1e-6).is_ok());
            let slack = pull_slack(profile, cfg, push.makespan + SimDuration::from_secs(60));
            v.push(qoracle::check_pull_competitive(&pull, push, slack, 0.05).is_ok());
        }
        v
    });
    for ok in verdicts {
        r.check(ok);
    }
}

fn hedge(
    profile: &SlowdownProfile,
    cfg: &CampaignConfig,
    tr: &mut Tracer,
    counts: &mut Counts,
    r: &mut Replica,
) {
    let n = cfg.pairs;
    let rates = rates_with(profile, cfg);
    let (blocking, hedged) = tr.leaf("adapt.hedge", || {
        let run = |hedge_after| {
            run_hedged(
                &rates,
                cfg.tasks,
                cfg.task_units,
                HedgeConfig { hedge_after },
                SimTime::ZERO,
            )
        };
        (run(None), run(Some(cfg.hedge_after)))
    });
    r.m("blocking_ok", Metric::U64(u64::from(blocking.is_some())));
    r.m(
        "blocking_makespan_ns",
        Metric::U64(blocking.as_ref().map_or(u64::MAX, |o| o.makespan.as_nanos())),
    );
    r.check(blocking.is_some() || profile.fail_at().is_some());
    if let Some(b) = &blocking {
        let v = tr.leaf("adapt.oracle", || {
            [
                qoracle::check_hedge_sanity(b, cfg.tasks, n).is_ok(),
                qoracle::check_blocking_spends_everything(b).is_ok(),
            ]
        });
        v.into_iter().for_each(|ok| r.check(ok));
    }
    let Some(hedged) = hedged else { return r.check(false) };
    r.check(true);
    r.m("hedged_makespan_ns", Metric::U64(hedged.makespan.as_nanos()));
    r.m("hedged_worst_latency_ns", Metric::U64(hedged.worst_latency().as_nanos()));
    r.m("hedged_work_spent", Metric::F64(hedged.work_spent));
    r.m("hedged_work_wasted", Metric::F64(hedged.work_wasted));
    r.m("hedged_reconciled", Metric::U64(hedged.reconciled));
    r.m("hedged_count", Metric::U64(hedged.tasks.iter().filter(|t| t.hedged).count() as u64));
    bump(counts, "adapt.hedge_spent", hedged.work_spent);
    bump(counts, "adapt.hedge_wasted", hedged.work_wasted);
    let v = tr.leaf("adapt.oracle", || {
        let spent_floor = cfg.tasks as f64 * cfg.task_units / cfg.nominal;
        [
            qoracle::check_hedge_sanity(&hedged, cfg.tasks, n).is_ok(),
            hedged.work_spent >= spent_floor * (1.0 - 1e-9),
        ]
    });
    v.into_iter().for_each(|ok| r.check(ok));
}

/// Adds one plane run's transport counters to the pass totals.
pub fn count_plane(counts: &mut Counts, stats: &PlaneStats) {
    bump(counts, "perfplane.runs", 1.0);
    bump(counts, "perfplane.merges", stats.merges as f64);
    bump(counts, "perfplane.delivered", stats.delivered as f64);
    bump(counts, "perfplane.sent", (stats.pushes_sent + stats.replies_sent) as f64);
    bump(counts, "netsim.carrier_bytes", stats.carrier_bytes as f64);
}

fn plane(
    sc: &Scenario,
    cfg: &CampaignConfig,
    rng: &Stream,
    tr: &mut Tracer,
    counts: &mut Counts,
    r: &mut Replica,
) {
    let (n, nominal) = (cfg.pairs, cfg.nominal);
    let plane_cfg = PlaneConfig::default();
    let plane_horizon = plane_cfg.horizon;
    let mut drift_rng = rng.derive(stream::DRIFT);
    let drift = SlowdownProfile::from_breakpoints(vec![
        (SimTime::ZERO, 1.0),
        (SimTime::from_secs(60), drift_rng.next_f64_range(0.25, 1.0)),
        (SimTime::from_secs(120), drift_rng.next_f64_range(0.25, 1.0)),
        (SimTime::from_secs(180), drift_rng.next_f64_range(0.25, 1.0)),
    ]);
    let mut spec = PlaneSpec::homogeneous(plane_cfg, n, nominal);
    spec.components[0].profile = drift.clone();
    let link_rng = rng.derive(stream::LINKS);
    tr.leaf("stutter.timeline", || {
        for from in 0..n {
            for to in (0..n).filter(|&to| to != from) {
                let mut lr = link_rng.derive_index((from * n + to) as u64);
                spec.set_link_profile(from, to, sc.injector.timeline(plane_horizon, &mut lr));
            }
        }
    });
    let degraded_spec = spec.degraded(0.5);
    let (fresh, degraded) = tr.leaf("perfplane.run_plane", || {
        (
            perfplane::gossip::run_plane(&spec, &mut rng.derive(stream::PLANE)),
            perfplane::gossip::run_plane(&degraded_spec, &mut rng.derive(stream::PLANE)),
        )
    });
    count_plane(counts, &fresh.stats);
    count_plane(counts, &degraded.stats);
    r.m("plane_pushes", Metric::U64(fresh.stats.pushes_sent));
    r.m("plane_merges", Metric::U64(fresh.stats.merges));
    r.m("plane_tombstones", Metric::U64(fresh.stats.tombstones));
    r.m("plane_carrier_bytes", Metric::U64(fresh.stats.carrier_bytes));

    let write_at = SimTime::ZERO + SimDuration::from_secs(300);
    let array = array_with(&drift, cfg);
    let w = Workload::new(cfg.blocks, cfg.block_bytes);
    let writes = tr.leaf("raidsim.write", || {
        let (Some(consumer), Some(deg)) = (fresh.views.last(), degraded.views.last()) else {
            return None;
        };
        let mut est =
            |i: usize, at: SimTime| consumer.estimated_rate(ComponentId(i as u32), at, nominal);
        let mut est_deg =
            |i: usize, at: SimTime| deg.estimated_rate(ComponentId(i as u32), at, nominal);
        Some((
            array.write_estimated(w, write_at, cfg.chunk_blocks, &mut est),
            array.write_estimated(w, write_at, cfg.chunk_blocks, &mut est_deg),
            array.write_adaptive(w, write_at, cfg.chunk_blocks),
            array.write_static(w, write_at),
        ))
    });
    let Some((Ok(planned), Ok(planned_degraded), Ok(omniscient), Ok(blind))) = writes else {
        return r.check(false);
    };
    r.check(true);
    r.m("planned_throughput", Metric::F64(planned.throughput));
    r.m("planned_degraded_throughput", Metric::F64(planned_degraded.throughput));
    r.m("omniscient_throughput", Metric::F64(omniscient.throughput));
    r.m("static_throughput", Metric::F64(blind.throughput));

    let v = tr.leaf("raidsim.oracle", || {
        [
            roracle::check_conservation(&planned, w).is_ok(),
            roracle::check_block_map_partition(&planned, w).is_ok(),
        ]
    });
    v.into_iter().for_each(|ok| r.check(ok));
    r.check(planned.throughput <= omniscient.throughput * 1.02);
    if sc.injector_label == "no-fault" {
        r.check(planned.throughput >= 0.9 * omniscient.throughput);
    }
    let v = tr.leaf("perfplane.oracle", || {
        let mut v = vec![poracle::check_plane_degraded(
            planned.throughput,
            planned_degraded.throughput,
            0.05,
        )
        .is_empty()];
        if let Some(slack) = poracle::link_slack(&spec.link_profiles, plane_horizon) {
            let allowance = poracle::convergence_allowance(&fresh, slack);
            v.push(poracle::check_convergence(&fresh, allowance).is_empty());
        }
        v.push(poracle::check_no_false_failstop(&fresh).is_empty());
        v.push(poracle::check_monotone(&fresh).is_empty());
        v
    });
    v.into_iter().for_each(|ok| r.check(ok));
}

fn meta(
    profile: &SlowdownProfile,
    rng: &Stream,
    tr: &mut Tracer,
    counts: &mut Counts,
    r: &mut Replica,
) {
    let mcfg = metastable::engine::Config::campaign();
    let params = moracle::OracleParams::default();
    let trigger =
        trigger_window(profile, SimTime::from_secs(60), SimDuration::from_secs(30), 100.0);
    let mut variant = |mit: Mitigation, label: &str| {
        let mut vrng = rng.derive(label);
        let run =
            tr.leaf("metastable.run", || metastable::engine::run(&mcfg, &trigger, mit, &mut vrng));
        bump(counts, "metastable.runs", 1.0);
        bump(counts, "metastable.ticks", run.ticks as f64);
        let a = tr.leaf("metastable.oracle", || moracle::assess(&mcfg, &run, &params));
        (run, a)
    };
    let (un_tr, un_a) = variant(Mitigation::None, stream::META_UNMITIGATED);
    let shed = Mitigation::Shed(ShedConfig { max_depth: 1_000, drop_expired: true });
    let (sh_tr, sh_a) = variant(shed, stream::META_SHED);
    let breaker = Mitigation::Breaker(BreakerConfig {
        window_ticks: 100,
        open_threshold: 0.5,
        half_open_threshold: 0.1,
        min_failures: 50,
        min_failures_half: 20,
        probe_per_tick: 2,
        half_open_per_tick: 50,
    });
    let (br_tr, br_a) = variant(breaker, stream::META_BREAKER);

    let (first, last) = un_a.trigger_secs.unwrap_or((u64::MAX, u64::MAX));
    r.m("meta_trigger_first_s", Metric::U64(first));
    r.m("meta_trigger_last_s", Metric::U64(last));
    r.m("meta_predicted_vulnerable", Metric::U64(u64::from(un_a.predicted_vulnerable)));
    r.m("meta_baseline_per_s", Metric::F64(un_a.baseline_per_sec));
    r.m("meta_unmit_goodput", Metric::U64(un_tr.total_goodput()));
    r.m("meta_unmit_regime", Metric::U64(un_a.regime.code()));
    r.m("meta_unmit_collapsed_s", Metric::U64(un_a.collapsed_secs_post));
    r.m("meta_shed_goodput", Metric::U64(sh_tr.total_goodput()));
    r.m("meta_shed_recovery_s", Metric::U64(sh_a.recovery_secs.unwrap_or(u64::MAX)));
    r.m("meta_breaker_goodput", Metric::U64(br_tr.total_goodput()));
    r.m("meta_breaker_recovery_s", Metric::U64(br_a.recovery_secs.unwrap_or(u64::MAX)));

    let v = tr.leaf("metastable.oracle", || {
        [
            moracle::check_conservation(&mcfg, &un_tr).is_ok(),
            moracle::check_conservation(&mcfg, &sh_tr).is_ok(),
            moracle::check_conservation(&mcfg, &br_tr).is_ok(),
            moracle::check_capacity(&un_tr).is_ok(),
            moracle::check_capacity(&sh_tr).is_ok(),
            moracle::check_capacity(&br_tr).is_ok(),
            moracle::check_no_trigger_stable(&un_a).is_ok(),
            moracle::check_prediction(&un_a).is_ok(),
            moracle::check_mitigation_recovers(&sh_a, &params).is_ok(),
            moracle::check_mitigation_recovers(&br_a, &params).is_ok(),
            moracle::check_mitigation_effective(&un_a, &sh_a).is_ok(),
            moracle::check_mitigation_effective(&un_a, &br_a).is_ok(),
        ]
    });
    v.into_iter().for_each(|ok| r.check(ok));
}
