//! Command-line parsing.

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// Workload name (see [`crate::workloads::NAMES`]).
    pub workload: String,
    /// Input seed; the same seed always builds the same inputs.
    pub seed: u64,
    /// How long the measurement loop runs, in seconds.
    pub seconds: u64,
    /// Print the per-layer metrics of a traced run instead of the
    /// end-to-end ones.
    pub trace: bool,
}

/// The usage line printed with every parse error.
pub const USAGE: &str = "usage: perfbench --workload NAME [--seed N] [--seconds N] [--trace 0|1]";

/// Parses `--workload NAME [--seed N] [--seconds N] [--trace 0|1]`.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = number(&flag, &value()?)?,
            "--seconds" => seconds = number(&flag, &value()?)?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !crate::workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            crate::workloads::NAMES.join(", ")
        ));
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args { workload, seed, seconds, trace })
}

fn number(flag: &str, v: &str) -> Result<u64, String> {
    v.parse().map_err(|_| format!("{flag} needs a whole number, got `{v}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn defaults_and_flags() {
        let a = p("--workload lint").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10, false));
        let a = p("--workload campaign --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(p("").is_err());
        assert!(p("--workload nope").is_err());
        assert!(p("--workload lint --seed").is_err());
        assert!(p("--workload lint --trace 2").is_err());
        assert!(p("--workload lint --seconds 0").is_err());
        assert!(p("--workload lint --bogus 1").is_err());
    }
}
