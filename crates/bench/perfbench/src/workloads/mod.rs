//! The benchmark's workloads behind one measurement interface.

pub mod campaign;
pub mod lint;

use crate::gate::Gate;
use crate::replica::Counts;
use crate::trace::Tracer;

/// Workload names accepted by `--workload`.
pub const NAMES: [&str; 2] = ["campaign", "lint"];

/// Worker threads for the parallel pass of a traced run: two, or fewer on
/// a smaller machine.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

/// How big a pass is: the benchmark runs `Full`; the self-tests run the
/// same code paths on `Reduced` inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` documents.
    Full,
    /// A small pass with the same structure.
    Reduced,
}

/// One event-pattern replay measured beside a traced pass:
/// `(pattern, queue kind, events dispatched, seconds)`.
pub type ReplayTiming = (&'static str, &'static str, u64, f64);

/// One workload: inputs from a seed, a timed pass, a gate, a traced pass.
pub trait Workload {
    /// Everything a pass reads, built by [`Workload::setup`].
    type Input;
    /// What a pass produces.
    type Output;
    /// A value that must repeat exactly on every pass over one input.
    type Fingerprint: PartialEq + std::fmt::Debug;

    /// Builds the inputs (timed as `setup_s`).
    fn setup(&self) -> Self::Input;
    /// One end-to-end pass on one thread (timed as `wall_s`).
    fn run(&self, input: &Self::Input) -> Self::Output;
    /// Checks one pass's output, counting each checked unit in `gate`.
    fn check(&self, input: &Self::Input, out: &Self::Output, gate: &mut Gate);
    /// What must repeat across passes.
    fn fingerprint(&self, out: &Self::Output) -> Self::Fingerprint;
    /// Work units per pass (cells, KLoC).
    fn work(&self, input: &Self::Input) -> f64;
    /// The same pass on [`threads`] workers, with the worker count, for a
    /// workload that can run one; a traced run times it beside the
    /// one-thread pass.
    fn parallel(&self, _input: &Self::Input) -> Option<(usize, Self::Output)> {
        None
    }
    /// One layer-timed pass over the same input, checked against `out`
    /// (an untraced pass's output); returns the pass's work counters.
    fn traced(
        &self,
        input: &Self::Input,
        out: &Self::Output,
        tr: &mut Tracer,
        gate: &mut Gate,
    ) -> Counts;
    /// Event-pattern replays measured beside each traced pass.
    fn replays(&self, _input: &Self::Input) -> Vec<ReplayTiming> {
        Vec::new()
    }
}
