//! Event-pattern replays through `simcore` with no-op handlers.
//!
//! Each replay schedules the same events a workload's simulations
//! schedule — same periods, same one-shot fan-out — but the handlers do
//! no model work, so the time measured is queue dispatch alone. The queue
//! kind is passed to [`Simulation::with_queue_kind`]; the process-global
//! default is never touched.

use perfplane::gossip::PlaneConfig;
use simcore::queue::QueueKind;
use simcore::sim::{Scheduler, Simulation};
use simcore::time::{SimDuration, SimTime};

/// Both queue kinds, in the order their metrics are reported.
pub const KINDS: [QueueKind; 2] = [QueueKind::Calendar, QueueKind::Reference];

/// Replays `runs` metastable engine runs: one periodic event every `dt`,
/// `ticks` times per run (the engine's single tick event). Returns the
/// events dispatched.
pub fn meta(runs: u64, ticks: u64, dt: SimDuration, kind: QueueKind) -> u64 {
    let mut events = 0;
    for _ in 0..runs {
        let mut sim = Simulation::with_queue_kind(0u64, kind);
        sim.schedule_periodic(SimDuration::ZERO, move |tick: &mut u64, _| {
            *tick += 1;
            (*tick < ticks).then_some(dt)
        });
        sim.run_until(SimTime::ZERO + dt * ticks);
        events += sim.events_executed();
    }
    events
}

/// Replays one gossip-plane deployment of `nodes` nodes under `cfg`: per
/// node an observe, a heartbeat and a gossip periodic; every gossip round
/// sends `fanout` pushes and every delivered push one reply, each arriving
/// one carrier transfer later. Returns the events dispatched.
pub fn fleet(nodes: usize, cfg: &PlaneConfig, kind: QueueKind) -> u64 {
    let digest_bytes = 64 + cfg.entry_bytes * nodes as u64;
    let transfer =
        cfg.link_latency + SimDuration::from_secs_f64(digest_bytes as f64 / cfg.link_rate);
    let fanout = cfg.fanout.min(nodes - 1);
    let mut sim = Simulation::with_queue_kind((), kind);
    for _ in 0..nodes {
        let (observe, refresh, gossip) =
            (cfg.observe_interval, cfg.refresh_interval, cfg.gossip_interval);
        sim.schedule_periodic(observe, move |_: &mut (), _| Some(observe));
        sim.schedule_periodic(refresh, move |_: &mut (), _| Some(refresh));
        sim.schedule_periodic(gossip, move |_: &mut (), ctx: &mut Scheduler<()>| {
            for _ in 0..fanout {
                ctx.after(transfer, move |_: &mut (), ctx: &mut Scheduler<()>| {
                    ctx.after(transfer, |_: &mut (), _| {});
                });
            }
            Some(gossip)
        });
    }
    sim.run_until(SimTime::ZERO + cfg.horizon);
    sim.events_executed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_replay_dispatches_one_event_per_tick_under_both_kinds() {
        for kind in KINDS {
            assert_eq!(meta(3, 100, SimDuration::from_millis(50), kind), 300);
        }
    }

    #[test]
    fn fleet_replay_is_kind_invariant() {
        let cfg = PlaneConfig { horizon: SimDuration::from_secs(60), ..PlaneConfig::default() };
        let a = fleet(8, &cfg, QueueKind::Calendar);
        assert_eq!(a, fleet(8, &cfg, QueueKind::Reference));
        // 8 × (60 observe + 6 heartbeat + 30 gossip) periodics plus
        // push/reply pairs for every round that completes in the window.
        assert!(a > 8 * 96, "{a}");
    }
}
