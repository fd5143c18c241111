//! Property tests for the mitigation layer and the retry budget.
//!
//! Two contracts matter for the metastable scenarios and are promised in
//! the module docs: the circuit breaker is *monotone* in the observed
//! failure rate (a strictly worse observation window can never move the
//! breaker toward Closed, so flapping cannot be caused by the state
//! function itself), and its admission limit never starves probes. The
//! retry budget's token accounting must be non-negative and invariant
//! under any permutation of same-tick client arrivals, so engine results
//! cannot depend on client iteration order. The cohort queue must agree
//! with a naive one-entry-per-request model on every observable.

use proptest::prelude::*;

use metastable::client::{BudgetConfig, RetryBudget};
use metastable::policy::{BreakerConfig, CircuitBreaker};
use metastable::server::{Cohort, Expired, Served, ServerQueue};

/// One queued request of the naive model: its cohort's push index, the
/// cohort's fields, and whether its issuer has timed out.
#[derive(Clone, Copy)]
struct Request {
    cohort: usize,
    deadline: u64,
    attempt: u32,
    open: bool,
    orphan: bool,
}

/// The naive server queue: one entry per request, scanned in full.
#[derive(Default)]
struct Model {
    fifo: std::collections::VecDeque<Request>,
}

impl Model {
    fn serve(&mut self, credit: &mut f64, drop_expired: bool) -> Served {
        let mut out = Served::default();
        while let Some(r) = self.fifo.front().copied() {
            if drop_expired && r.orphan {
                out.dropped_expired += 1;
            } else if *credit >= 1.0 {
                *credit -= 1.0;
                match (r.orphan, r.open) {
                    (true, _) => out.orphan += 1,
                    (false, true) => out.live_open += 1,
                    (false, false) => out.live_closed += 1,
                }
            } else {
                break;
            }
            self.fifo.pop_front();
        }
        out
    }

    fn expire(&mut self, tick: u64) -> Vec<Expired> {
        let mut out: Vec<(usize, Expired)> = Vec::new();
        for r in self.fifo.iter_mut().filter(|r| !r.orphan && r.deadline <= tick) {
            r.orphan = true;
            match out.last_mut() {
                Some((c, e)) if *c == r.cohort => e.count += 1,
                _ => out.push((r.cohort, Expired { attempt: r.attempt, count: 1, open: r.open })),
            }
        }
        out.into_iter().map(|(_, e)| e).collect()
    }

    fn census(&self) -> (u64, u64, u64) {
        let count = |f: &dyn Fn(&Request) -> bool| self.fifo.iter().filter(|r| f(r)).count() as u64;
        (count(&|r| !r.orphan && !r.open), count(&|r| !r.orphan && r.open), count(&|r| r.orphan))
    }
}

fn breaker_cfg() -> BreakerConfig {
    BreakerConfig {
        window_ticks: 8,
        open_threshold: 0.5,
        half_open_threshold: 0.2,
        min_failures: 20,
        min_failures_half: 10,
        probe_per_tick: 2,
        half_open_per_tick: 16,
    }
}

proptest! {
    /// Closed → HalfOpen → Open is monotone in the observed failure
    /// rate: feeding one breaker a per-tick trace that is everywhere at
    /// least as bad (same volume, at least as many failures) keeps its
    /// state at or above the better breaker's at every tick.
    #[test]
    fn breaker_state_monotone_in_failure_rate(
        ticks in proptest::collection::vec((0u64..200, 0u64..100, 0u64..100), 1..60)
    ) {
        let mut better = CircuitBreaker::new(breaker_cfg());
        let mut worse = CircuitBreaker::new(breaker_cfg());
        for &(total, cut_a, cut_b) in &ticks {
            // Both breakers see `total` outcomes this tick; the worse
            // one sees at least as many failures.
            let fail_lo = (total * cut_a.min(cut_b)) / 100;
            let fail_hi = (total * cut_a.max(cut_b)) / 100;
            better.begin_tick();
            better.record(total - fail_lo, fail_lo);
            worse.begin_tick();
            worse.record(total - fail_hi, fail_hi);
            prop_assert!(
                worse.state() >= better.state(),
                "worse window {:?} below better window {:?}",
                worse.state(),
                better.state()
            );
        }
    }

    /// Whatever the observation history, the breaker either admits
    /// everything (Closed ⇒ `None`) or admits at least the configured
    /// probe floor — a recovering server is always re-discovered.
    #[test]
    fn breaker_admission_never_below_probe_floor(
        ticks in proptest::collection::vec((0u64..1_000, 0u64..1_000), 1..80)
    ) {
        let mut b = CircuitBreaker::new(breaker_cfg());
        for &(succ, fail) in &ticks {
            b.begin_tick();
            b.record(succ, fail);
            match b.admit_limit() {
                None => {}
                Some(limit) => prop_assert!(
                    limit >= b.probe_floor(),
                    "admission {limit} fell below the probe floor {}",
                    b.probe_floor()
                ),
            }
        }
    }

    /// Token accounting never goes negative and never grants more than
    /// the allowance, under any interleaving of deposits and grants.
    #[test]
    fn budget_balance_never_negative(
        floor in 0.0f64..50.0,
        ratio in 0.0f64..1.0,
        ops in proptest::collection::vec((any::<bool>(), 0u64..200), 1..100)
    ) {
        let mut budget = RetryBudget::new(BudgetConfig { floor, ratio });
        let mut deposited = 0u64;
        let mut granted = 0u64;
        for &(is_deposit, n) in &ops {
            if is_deposit {
                budget.deposit(n);
                deposited += n;
            } else {
                granted += budget.grant(n);
            }
            prop_assert!(budget.balance() >= 0.0);
            prop_assert!(
                (granted as f64) <= floor + ratio * deposited as f64,
                "granted {granted} exceeds allowance {}",
                floor + ratio * deposited as f64
            );
        }
    }

    /// The total granted to a same-tick batch of requests is invariant
    /// under any permutation of the arrivals: it only depends on the
    /// requested sum and the allowance, never on client order.
    #[test]
    fn budget_grant_is_permutation_invariant(
        floor in 0.0f64..100.0,
        ratio in 0.0f64..0.5,
        successes in 0u64..5_000,
        requests in proptest::collection::vec(0u64..40, 1..30),
        shuffle_seed in any::<u64>()
    ) {
        // Deterministic Fisher-Yates driven by a splitmix-style stream,
        // so the permutation is itself a generated input.
        let mut permuted = requests.clone();
        let mut s = shuffle_seed;
        for i in (1..permuted.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (s >> 32) as usize % (i + 1);
            permuted.swap(i, j);
        }

        let mut a = RetryBudget::new(BudgetConfig { floor, ratio });
        let mut b = RetryBudget::new(BudgetConfig { floor, ratio });
        a.deposit(successes);
        b.deposit(successes);
        let granted_a: u64 = requests.iter().map(|&r| a.grant(r)).sum();
        let granted_b: u64 = permuted.iter().map(|&r| b.grant(r)).sum();
        prop_assert_eq!(granted_a, granted_b);
        let total: u64 = requests.iter().sum();
        prop_assert_eq!(granted_a, total.min(a.available() + granted_a));
    }

    /// The cohort queue and the per-request model agree on every
    /// `Served` split, `Expired` list, depth and census, and leave the
    /// same fractional credit, for any interleaving of monotone-deadline
    /// pushes, fractional credits, advancing expiry ticks and either
    /// shedding mode. Credits are multiples of 1/8, so both sides'
    /// subtractions are exact.
    #[test]
    fn server_queue_matches_per_request_model(
        cap in 1u64..60,
        ops in proptest::collection::vec(
            (0u8..3, 0u64..12, 1u32..4, any::<bool>()),
            1..120
        )
    ) {
        let mut q = ServerQueue::new(cap);
        let mut m = Model::default();
        let (mut credit_q, mut credit_m) = (0.0f64, 0.0f64);
        let (mut tick, mut deadline, mut pushed) = (0u64, 0u64, 0usize);
        for &(op, a, attempt, flag) in &ops {
            match op {
                0 => {
                    deadline = deadline.max(tick + 1) + a % 3;
                    let n = (a + 1).min(q.free_slots());
                    q.push(Cohort { deadline_tick: deadline, attempt, remaining: n, open: flag });
                    let r = Request { cohort: pushed, deadline, attempt, open: flag, orphan: false };
                    m.fifo.extend(std::iter::repeat_n(r, n as usize));
                    pushed += 1;
                }
                1 => {
                    credit_q += a as f64 / 8.0;
                    credit_m += a as f64 / 8.0;
                    let got = q.serve(&mut credit_q, flag);
                    prop_assert_eq!(got, m.serve(&mut credit_m, flag));
                    prop_assert_eq!(credit_q, credit_m);
                }
                _ => {
                    tick += a % 4;
                    let mut got = Vec::new();
                    q.expire(tick, &mut got);
                    prop_assert_eq!(got, m.expire(tick));
                }
            }
            prop_assert_eq!(q.depth(), m.fifo.len() as u64);
            prop_assert_eq!(q.free_slots(), cap - m.fifo.len() as u64);
            prop_assert_eq!(q.census(), m.census());
        }
    }
}
