//! The correctness gate: counts checked units and names every failure.

/// Checked units and the failures among them.
#[derive(Debug, Default)]
pub struct Gate {
    /// Units (cells, deployments, passes) whose output was checked.
    pub attempted: u64,
    /// Units that failed a check or a pinned value.
    pub failed: u64,
    /// One `label: why` line per failed unit, in check order.
    pub failures: Vec<String>,
}

impl Gate {
    /// Records one checked unit; `why` is only rendered on failure.
    pub fn unit(&mut self, label: &str, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(format!("{label}: {}", why()));
        }
    }

    /// True while nothing failed.
    pub fn ok(&self) -> bool {
        self.failed == 0
    }
}
