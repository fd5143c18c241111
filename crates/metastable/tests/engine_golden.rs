//! Golden digests for engine paths the standard campaign never takes.
//!
//! The campaign's `meta/` cells all run closed-loop clients with
//! exponential backoff and no retry budget, so open arrivals, retry
//! budgets, a synchronized burst start, fixed backoff, predictor-armed
//! shedding and (at this scale) the breaker's half-open probing are
//! pinned nowhere else. Each test runs one small seeded configuration
//! and folds every `RunTrace` series and every `Totals` field into one
//! FNV-1a 64 digest, so any change to the tick's bookkeeping that moves a
//! single counter on a single tick shows up here. Each test also asserts
//! that its path was actually exercised, so a golden cannot silently pin
//! a run where the feature did nothing.
//!
//! Regenerating: if a model change is intentional, re-run
//! `cargo test -p metastable --test engine_golden`, copy the `got`
//! digest from each failing assertion into its `GOLDEN_*` constant, and
//! say in the commit message which change moved it (see
//! docs/TESTING.md).

use metastable::engine::{run, Config, RunTrace};
use metastable::prelude::*;
use simcore::rng::Stream;
use simcore::time::{SimDuration, SimTime};
use stutter::injector::SlowdownProfile;
use stutter::predict::PredictorConfig;

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn opt(&mut self, v: Option<u64>) {
        match v {
            None => self.u64(0),
            Some(x) => {
                self.u64(1);
                self.u64(x);
            }
        }
    }

    fn series(&mut self, s: &[u64]) {
        self.u64(s.len() as u64);
        for &v in s {
            self.u64(v);
        }
    }
}

/// Digest over every series and every counter of a run.
fn digest(tr: &RunTrace) -> u64 {
    let mut h = Fnv::new();
    h.u64(tr.dt.as_nanos());
    h.u64(tr.ticks);
    h.u64(tr.ticks_per_sec);
    h.series(&tr.goodput);
    h.series(&tr.depth);
    h.series(&tr.orphans);
    h.series(&tr.timeouts);
    h.series(&tr.rejected);
    h.series(&tr.breaker.iter().map(|&b| u64::from(b)).collect::<Vec<_>>());
    h.opt(tr.first_degraded);
    h.opt(tr.last_degraded);
    let t = &tr.totals;
    for v in [
        t.issued_fresh,
        t.issued_retry,
        t.issued_open,
        t.rejected_breaker,
        t.rejected_shed,
        t.rejected_cap,
        t.admitted,
        t.served_live,
        t.served_open,
        t.served_orphan,
        t.dropped_expired,
        t.timeouts,
        t.open_timeouts,
        t.retries_scheduled,
        t.gave_up,
        t.queue_live_end,
        t.queue_open_end,
        t.queue_orphan_end,
        t.backoff_end,
        t.think_end,
    ] {
        h.u64(v);
    }
    h.u64(t.capacity_credit.to_bits());
    h.opt(t.first_reject_tick);
    h.0
}

/// A few hundred clients against a 60 req/s server, two minutes long.
fn small() -> Config {
    Config {
        population: 400,
        think: SimDuration::from_secs(10),
        policy: RetryPolicy {
            timeout: SimDuration::from_secs(1),
            max_attempts: 4,
            backoff: Backoff::Exponential {
                base: SimDuration::from_millis(250),
                cap: SimDuration::from_secs(2),
            },
        },
        budget: None,
        service_rate: 60.0,
        queue_cap: 600,
        dt: SimDuration::from_millis(50),
        horizon: SimDuration::from_secs(120),
        open_per_sec: 0.0,
        initial_burst: false,
    }
}

/// Capacity drops to zero for `secs` seconds from `start`.
fn outage(start: u64, secs: u64) -> SlowdownProfile {
    SlowdownProfile::from_breakpoints(vec![
        (SimTime::ZERO, 1.0),
        (SimTime::from_secs(start), 0.0),
        (SimTime::from_secs(start + secs), 1.0),
    ])
}

fn run_labeled(cfg: &Config, trigger: &SlowdownProfile, m: Mitigation, label: &str) -> RunTrace {
    let mut rng = Stream::from_seed(2024).derive(label);
    run(cfg, trigger, m, &mut rng)
}

fn check(name: &str, tr: &RunTrace, pinned: u64) {
    let got = digest(tr);
    assert_eq!(
        got, pinned,
        "{name}: engine digest drifted: got {got:#018x}, pinned {pinned:#018x} (see the \
         regeneration note at the top of this file)"
    );
}

const GOLDEN_OPEN_ARRIVALS: u64 = 0x5205_7480_16c4_1911;
const GOLDEN_RETRY_BUDGET: u64 = 0x5be0_a9b0_381f_087a;
const GOLDEN_INITIAL_BURST: u64 = 0xe841_3e22_9ac9_420c;
const GOLDEN_FIXED_BACKOFF: u64 = 0x8b47_e2a4_e4f6_7d07;
const GOLDEN_PREDICTIVE_SHED: u64 = 0xa3ad_675b_f2fb_00d0;
const GOLDEN_BREAKER: u64 = 0x6190_4171_f48a_9819;

#[test]
fn golden_open_arrivals() {
    let cfg = Config { open_per_sec: 12.5, ..small() };
    let tr = run_labeled(&cfg, &outage(30, 10), Mitigation::None, "meta-golden-open");
    let t = tr.totals;
    assert!(t.issued_open > 1_000 && t.served_open > 0 && t.open_timeouts > 0, "{t:?}");
    check("open arrivals", &tr, GOLDEN_OPEN_ARRIVALS);
}

#[test]
fn golden_retry_budget() {
    let cfg = Config { budget: Some(BudgetConfig { floor: 20.0, ratio: 0.05 }), ..small() };
    let tr = run_labeled(&cfg, &outage(30, 10), Mitigation::None, "meta-golden-budget");
    let t = tr.totals;
    // The budget must have refused some retries the policy allowed.
    assert!(t.retries_scheduled > 0 && t.gave_up > 0 && t.timeouts > 0, "{t:?}");
    check("retry budget", &tr, GOLDEN_RETRY_BUDGET);
}

#[test]
fn golden_initial_burst() {
    let cfg = Config { initial_burst: true, ..small() };
    let tr = run_labeled(&cfg, &SlowdownProfile::nominal(), Mitigation::None, "meta-golden-burst");
    let t = tr.totals;
    assert_eq!(tr.depth.first().copied(), Some(cfg.population));
    assert!(t.timeouts > 0 && t.issued_retry > 0, "{t:?}");
    check("initial burst", &tr, GOLDEN_INITIAL_BURST);
}

#[test]
fn golden_fixed_backoff() {
    let mut cfg = small();
    cfg.policy.backoff = Backoff::Fixed(SimDuration::from_millis(700));
    let tr = run_labeled(&cfg, &outage(30, 10), Mitigation::None, "meta-golden-fixed");
    let t = tr.totals;
    assert!(t.issued_retry > 0 && t.served_orphan > 0, "{t:?}");
    check("fixed backoff", &tr, GOLDEN_FIXED_BACKOFF);
}

#[test]
fn golden_predictive_shed() {
    let m = Mitigation::PredictiveShed {
        shed: ShedConfig { max_depth: 40, drop_expired: true },
        predictor: PredictorConfig {
            window: SimDuration::from_secs(5),
            min_samples: 8,
            level_threshold: 0.9,
            slope_threshold: 0.0,
            consecutive_below: 3,
        },
        level: 0.5,
        decline: 0.0,
    };
    let tr = run_labeled(&small(), &outage(30, 10), m, "meta-golden-predictive");
    let t = tr.totals;
    assert!(t.rejected_shed > 0 && t.dropped_expired > 0, "{t:?}");
    check("predictive shed", &tr, GOLDEN_PREDICTIVE_SHED);
}

#[test]
fn golden_breaker() {
    let m = Mitigation::Breaker(BreakerConfig {
        window_ticks: 20,
        open_threshold: 0.5,
        half_open_threshold: 0.1,
        min_failures: 20,
        min_failures_half: 5,
        probe_per_tick: 1,
        half_open_per_tick: 4,
    });
    let tr = run_labeled(&small(), &outage(30, 10), m, "meta-golden-breaker");
    let t = tr.totals;
    assert!(t.rejected_breaker > 0, "{t:?}");
    assert!(tr.breaker.contains(&1) && tr.breaker.contains(&2), "breaker never probed");
    check("breaker", &tr, GOLDEN_BREAKER);
}
