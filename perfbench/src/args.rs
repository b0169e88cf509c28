//! Command-line arguments.
//!
//! `--workload <name> --seed <n> --seconds <n> --trace <0|1>`, each given
//! exactly once. Like the repository's environment knobs, a missing,
//! repeated, unknown or malformed argument is a hard error, never a
//! silent default.

use std::fmt;

/// The benchmark's workloads (see README.md for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    /// The 22 TPC-H queries in the three Figure 15 modes.
    TpchScan,
    /// Read and write-path kernels on one small AssasinSb device under GC.
    OffloadRw,
    /// Multi-tenant serving over a RAID6 array, then fail and rebuild.
    ServeArray,
}

impl WorkloadName {
    /// Every workload, in the order BENCHMARK.json lists them.
    pub const ALL: [WorkloadName; 3] = [
        WorkloadName::TpchScan,
        WorkloadName::OffloadRw,
        WorkloadName::ServeArray,
    ];

    /// The name used on the command line.
    pub fn as_str(self) -> &'static str {
        match self {
            WorkloadName::TpchScan => "tpch_scan",
            WorkloadName::OffloadRw => "offload_rw",
            WorkloadName::ServeArray => "serve_array",
        }
    }
}

impl fmt::Display for WorkloadName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Parsed and checked arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    /// Which workload to run.
    pub workload: WorkloadName,
    /// Input seed; the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measured phase in seconds (1..=600).
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
}

fn parse_workload(v: &str) -> Result<WorkloadName, String> {
    WorkloadName::ALL
        .into_iter()
        .find(|w| w.as_str() == v)
        .ok_or_else(|| {
            let names: Vec<&str> = WorkloadName::ALL.iter().map(|w| w.as_str()).collect();
            format!(
                "unknown workload {v:?} (expected one of {})",
                names.join(", ")
            )
        })
}

fn parse_u64(flag: &str, v: &str) -> Result<u64, String> {
    v.parse::<u64>()
        .map_err(|e| format!("{flag} {v:?} is not a non-negative integer: {e}"))
}

/// Parses the arguments after the program name.
///
/// # Errors
///
/// Describes the first problem found.
pub fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let repeated = match flag.as_str() {
            "--workload" => workload.replace(parse_workload(value)?).is_some(),
            "--seed" => seed.replace(parse_u64(flag, value)?).is_some(),
            "--seconds" => {
                let s = parse_u64(flag, value)?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=600"));
                }
                seconds.replace(s).is_some()
            }
            "--trace" => {
                let t = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} must be 0 or 1")),
                };
                trace.replace(t).is_some()
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        };
        if repeated {
            return Err(format!("{flag} given twice"));
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_every_workload_in_any_order() {
        for w in WorkloadName::ALL {
            let a = parse(&argv(&format!(
                "--trace 1 --seconds 10 --seed 7 --workload {w}"
            )))
            .expect("valid");
            assert_eq!(
                a,
                Args {
                    workload: w,
                    seed: 7,
                    seconds: 10,
                    trace: true
                }
            );
        }
    }

    #[test]
    fn rejects_malformed_values() {
        let bad = [
            "--workload tpch --seed 1 --seconds 10 --trace 0",
            "--workload tpch_scan --seed -1 --seconds 10 --trace 0",
            "--workload tpch_scan --seed 1x --seconds 10 --trace 0",
            "--workload tpch_scan --seed 1 --seconds 0 --trace 0",
            "--workload tpch_scan --seed 1 --seconds 601 --trace 0",
            "--workload tpch_scan --seed 1 --seconds 10 --trace yes",
            "--workload tpch_scan --seed 1 --seconds 10 --trace 2",
            "--workload tpch_scan --seed 1 --seconds 10 --trace",
        ];
        for b in bad {
            assert!(parse(&argv(b)).is_err(), "accepted {b:?}");
        }
    }

    #[test]
    fn rejects_missing_repeated_and_unknown_flags() {
        let bad = [
            "",
            "--seed 1 --seconds 10 --trace 0",
            "--workload offload_rw --seconds 10 --trace 0",
            "--workload offload_rw --seed 1 --trace 0",
            "--workload offload_rw --seed 1 --seconds 10",
            "--workload offload_rw --seed 1 --seed 2 --seconds 10 --trace 0",
            "--workload offload_rw --seed 1 --seconds 10 --trace 0 --threads 2",
        ];
        for b in bad {
            assert!(parse(&argv(b)).is_err(), "accepted {b:?}");
        }
    }
}
