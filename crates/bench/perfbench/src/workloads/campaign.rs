//! The `campaign` workload: the standard 360-cell run users and CI make.
//!
//! The campaign always runs at master seed 42, where its digest and check
//! count are pinned. The benchmark seed shuffles the order in which the
//! worker runs the cells: cells are pure functions of (label, config), so
//! the digest, recomputed in enumeration order, must not move, while the
//! order of cache and allocator use does. (The standard campaign fails `meta-recovery` checks at
//! some other master seeds, e.g. 1, 3 and 7; that is a model finding, not
//! something this benchmark may hide, so it is not run there.)

use fs_bench::campaign::digest::Fnv64;
use fs_bench::campaign::{enumerate, run_selected, CampaignConfig, CampaignReport, Kind, Scenario};
use metastable::engine::Config as MetaConfig;
use perfplane::gossip::PlaneConfig;
use simcore::rng::Stream;

use super::{ReplayTiming, Size, Workload};
use crate::gate::Gate;
use crate::replay;
use crate::replica::{self, Counts};
use crate::trace::Tracer;

/// Nodes of the fleet-scale deployment whose event pattern is replayed.
pub const FLEET_NODES: usize = 64;
/// Nodes of that deployment in a reduced pass.
pub const REDUCED_FLEET_NODES: usize = 12;

/// Master seed of the `campaign` workload: the one the digest is pinned at.
pub const CAMPAIGN_MASTER_SEED: u64 = 42;

// Golden pins. To regenerate after an intentional model change, run
// `fs-campaign --seed 42` (standard) and `fs-campaign --smoke --seed 42`
// and copy the printed digest and passed-check count; they must equal the
// goldens in the root package's campaign tests.
/// Standard campaign digest at master seed 42.
pub const GOLDEN_STANDARD_DIGEST: u64 = 0x4c00_fc77_701d_ad0e;
/// Standard campaign checks passed at master seed 42.
pub const GOLDEN_STANDARD_CHECKS: usize = 3175;
/// Smoke campaign digest at master seed 42 (the reduced-size pass).
pub const GOLDEN_SMOKE_DIGEST: u64 = 0xbd73_a9d3_ca4d_7881;
/// Smoke campaign checks passed at master seed 42.
pub const GOLDEN_SMOKE_CHECKS: usize = 1057;

/// The config a size starts from.
fn base_config(size: Size, master_seed: u64) -> CampaignConfig {
    match size {
        Size::Full => CampaignConfig::standard(master_seed),
        Size::Reduced => CampaignConfig::smoke(master_seed),
    }
}

/// The campaign digest over `report`'s cells in enumeration order (the
/// same fold `run_selected` makes over its input order).
pub fn canonical_digest(report: &CampaignReport) -> u64 {
    let mut cells: Vec<(usize, u64)> = report.results.iter().map(|r| (r.id, r.digest)).collect();
    cells.sort_unstable();
    let mut h = Fnv64::new();
    h.write_u64(report.master_seed);
    h.write_u64(cells.len() as u64);
    for (_, d) in cells {
        h.write_u64(d);
    }
    h.finish()
}

/// Shuffles the claim order with a stream rooted at `seed`.
fn shuffle(scenarios: &mut [Scenario], seed: u64) {
    let mut rng = Stream::from_seed(seed).derive("perfbench/claim-order");
    for i in (1..scenarios.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        scenarios.swap(i, j);
    }
}

/// Runs `scenarios` and renders the artifact, as `fs-campaign --out` does.
fn pass(scenarios: &[Scenario], cfg: &CampaignConfig) -> CampaignOutput {
    let report = run_selected(scenarios, cfg);
    let json_len = report.to_json().len();
    CampaignOutput { report, json_len }
}

/// Replays every input cell layer by layer and checks each replica
/// against the untraced pass's result for the same cell.
fn traced_cells(
    scenarios: &[Scenario],
    cfg: &CampaignConfig,
    out: &CampaignOutput,
    tr: &mut Tracer,
    gate: &mut Gate,
) -> Counts {
    let mut counts = Counts::new();
    for (sc, cell) in scenarios.iter().zip(&out.report.results) {
        let rep = replica::cell(sc, cfg, tr, &mut counts);
        let verdict = replica::compare(&rep, cell);
        gate.unit(&format!("replica {}", cell.label), verdict.is_ok(), || {
            verdict.err().unwrap_or_default()
        });
    }
    tr.set_group(u64::MAX);
    let len = tr.leaf("campaign.report", || out.report.to_json().len());
    gate.unit("replica report", len == out.json_len, || {
        format!("report rendered {len} bytes, untraced pass {}", out.json_len)
    });
    counts
}

/// A campaign pass's report and the size of its rendered artifact.
pub struct CampaignOutput {
    /// The report `run_selected` returned.
    pub report: CampaignReport,
    /// Bytes of `report.to_json()`.
    pub json_len: usize,
}

/// Counts the cells of a pass: every failed oracle is a failed cell.
fn check_cells(out: &CampaignOutput, gate: &mut Gate) {
    for r in &out.report.results {
        gate.unit(&r.label, r.violations().next().is_none(), || {
            r.violations()
                .map(|c| format!("{}: {}", c.oracle, c.detail))
                .collect::<Vec<_>>()
                .join("; ")
        });
    }
}

/// The `campaign` workload.
pub struct Campaign {
    /// Shuffles the claim order.
    pub seed: u64,
    /// Full (standard) or reduced (smoke) config.
    pub size: Size,
    /// Pinned `(digest, checks passed)`; `None` skips the pin.
    pub expect: Option<(u64, usize)>,
}

impl Campaign {
    /// The workload at `size` with its golden pin.
    pub fn new(seed: u64, size: Size) -> Campaign {
        let expect = match size {
            Size::Full => (GOLDEN_STANDARD_DIGEST, GOLDEN_STANDARD_CHECKS),
            Size::Reduced => (GOLDEN_SMOKE_DIGEST, GOLDEN_SMOKE_CHECKS),
        };
        Campaign { seed, size, expect: Some(expect) }
    }
}

/// Inputs of the `campaign` workload.
pub struct CampaignInput {
    /// The config, on one worker.
    pub cfg: CampaignConfig,
    /// Every cell, in the seed's claim order.
    pub scenarios: Vec<Scenario>,
}

impl Workload for Campaign {
    type Input = CampaignInput;
    type Output = CampaignOutput;
    type Fingerprint = u64;

    fn setup(&self) -> CampaignInput {
        let cfg = CampaignConfig { threads: 1, ..base_config(self.size, CAMPAIGN_MASTER_SEED) };
        let mut scenarios = enumerate(&cfg);
        shuffle(&mut scenarios, self.seed);
        CampaignInput { cfg, scenarios }
    }

    fn run(&self, input: &CampaignInput) -> CampaignOutput {
        pass(&input.scenarios, &input.cfg)
    }

    fn parallel(&self, input: &CampaignInput) -> Option<(usize, CampaignOutput)> {
        let threads = super::threads();
        Some((threads, pass(&input.scenarios, &CampaignConfig { threads, ..input.cfg.clone() })))
    }

    fn check(&self, _input: &CampaignInput, out: &CampaignOutput, gate: &mut Gate) {
        check_cells(out, gate);
        if let Some((digest, checks)) = self.expect {
            let got = (canonical_digest(&out.report), out.report.checks_passed);
            gate.unit("campaign", got == (digest, checks), || {
                format!(
                    "digest {:016x} with {} checks passed, pinned {digest:016x} with {checks}",
                    got.0, got.1
                )
            });
        }
    }

    fn fingerprint(&self, out: &CampaignOutput) -> u64 {
        canonical_digest(&out.report)
    }

    fn work(&self, input: &CampaignInput) -> f64 {
        input.scenarios.len() as f64
    }

    fn traced(
        &self,
        input: &CampaignInput,
        out: &CampaignOutput,
        tr: &mut Tracer,
        gate: &mut Gate,
    ) -> Counts {
        traced_cells(&input.scenarios, &input.cfg, out, tr, gate)
    }

    /// The meta cells' event pattern (about one resident event), and a
    /// fleet-scale plane deployment's (hundreds resident), under both
    /// queue kinds.
    fn replays(&self, input: &CampaignInput) -> Vec<ReplayTiming> {
        let meta_cells = input.scenarios.iter().filter(|s| s.kind == Kind::Metastable).count();
        let mcfg = MetaConfig::campaign();
        let pcfg = PlaneConfig::default();
        let nodes = match self.size {
            Size::Full => FLEET_NODES,
            Size::Reduced => REDUCED_FLEET_NODES,
        };
        let mut v = Vec::new();
        for kind in replay::KINDS {
            let t0 = std::time::Instant::now();
            let events = replay::meta(3 * meta_cells as u64, mcfg.ticks(), mcfg.dt, kind);
            v.push(("meta", kind.name(), events, t0.elapsed().as_secs_f64()));
        }
        for kind in replay::KINDS {
            let t0 = std::time::Instant::now();
            let events = replay::fleet(nodes, &pcfg, kind);
            v.push(("fleet", kind.name(), events, t0.elapsed().as_secs_f64()));
        }
        v
    }
}
