//! Serving configuration: tenant specs, arrival models, and the
//! `ASSASIN_SERVE_*` environment knobs.
//!
//! The knobs follow the `parse_thread_env` pattern from
//! `crates/parallel`: each parser is a pure, unit-testable function, and
//! a *set but malformed* variable is a typed error
//! ([`ServeError::BadConfig`]) that callers propagate — a CI job that typos
//! `ASSASIN_SERVE_TENANTS="four"` must not quietly serve whatever
//! default the box happens to have.

use crate::error::ServeError;
use assasin_sim::SimDur;

/// How one tenant's clients submit requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalModel {
    /// Open loop: `requests` submissions arrive on their own schedule —
    /// seeded-uniform gaps in `[mean_gap/2, 3*mean_gap/2)` — whether or
    /// not earlier ones finished. Offered load is `1/mean_gap`
    /// regardless of service times, so queues grow without bound past
    /// device capacity (the tail-latency regime).
    Open {
        /// Mean inter-arrival gap (integer picoseconds; no float drift).
        mean_gap: SimDur,
        /// Total submissions this tenant offers.
        requests: u32,
    },
    /// Closed loop: `concurrency` clients that each wait for their
    /// previous response (completion *or* rejection), think for `think`,
    /// then submit again, `requests_per_client` times each. Offered
    /// load self-throttles to device capacity.
    Closed {
        /// Concurrent clients.
        concurrency: u32,
        /// Pause between a response and the next submission.
        think: SimDur,
        /// Submissions per client.
        requests_per_client: u32,
    },
}

impl ArrivalModel {
    /// Total submissions this model offers.
    pub fn offered(&self) -> u64 {
        match *self {
            ArrivalModel::Open { requests, .. } => requests as u64,
            ArrivalModel::Closed {
                concurrency,
                requests_per_client,
                ..
            } => concurrency as u64 * requests_per_client as u64,
        }
    }
}

/// One tenant stream multiplexed onto the device.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name (reports).
    pub name: String,
    /// Weighted-fair share (service time is charged at `1/weight`).
    pub weight: u32,
    /// Admission control: queued-but-undispatched requests beyond this
    /// are rejected with a typed response.
    pub queue_depth: usize,
    /// Arrival process.
    pub arrival: ArrivalModel,
    /// Workload mix: `(workload id, pick weight)` over the instance's
    /// registered workloads; each submission draws one.
    pub mix: Vec<(usize, u32)>,
    /// Optional completion-latency SLO; completions above it count as
    /// violations in the report.
    pub slo: Option<SimDur>,
}

impl TenantSpec {
    /// A single-workload tenant with weight 1 and no SLO.
    pub fn new(name: impl Into<String>, queue_depth: usize, arrival: ArrivalModel) -> Self {
        TenantSpec {
            name: name.into(),
            weight: 1,
            queue_depth,
            arrival,
            mix: vec![(0, 1)],
            slo: None,
        }
    }

    /// Sets the weighted-fair share.
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }

    /// Sets the workload mix.
    pub fn with_mix(mut self, mix: Vec<(usize, u32)>) -> Self {
        self.mix = mix;
        self
    }

    /// Sets the completion-latency SLO.
    pub fn with_slo(mut self, slo: SimDur) -> Self {
        self.slo = Some(slo);
        self
    }
}

/// A full serving run: tenants plus run-wide settings.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Seeds every tenant's arrival/mix draws (tenant `i` derives its
    /// own stream from `(seed, i)`).
    pub seed: u64,
    /// Memoize per-workload service profiles after the first genuine
    /// device execution. Sound because `Ssd::scomp` quiesces the device
    /// per request — identical requests have identical results (pinned
    /// by equivalence tests) — and it makes thousand-request serving
    /// sweeps affordable.
    pub memoize: bool,
    /// The tenant streams.
    pub tenants: Vec<TenantSpec>,
}

impl ServeConfig {
    /// A memoizing config with the given seed and tenants.
    pub fn new(seed: u64, tenants: Vec<TenantSpec>) -> Self {
        ServeConfig {
            seed,
            memoize: true,
            tenants,
        }
    }

    /// Checks internal consistency (workload ids are checked against the
    /// instance at run time).
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.tenants.is_empty() {
            return Err(ServeError::BadConfig("no tenants".into()));
        }
        for (i, t) in self.tenants.iter().enumerate() {
            let fail = |why: String| Err(ServeError::BadConfig(format!("tenant {i}: {why}")));
            if t.weight == 0 {
                return fail("weight must be at least 1".into());
            }
            if t.queue_depth == 0 {
                return fail("queue depth must be at least 1".into());
            }
            if t.mix.is_empty() {
                return fail("empty workload mix".into());
            }
            if t.mix.iter().any(|(_, w)| *w == 0) {
                return fail("mix pick weights must be at least 1".into());
            }
            if t.arrival.offered() == 0 {
                return fail("offers no requests".into());
            }
            if let ArrivalModel::Closed { concurrency, .. } = t.arrival {
                if concurrency == 0 {
                    return fail("closed loop needs at least one client".into());
                }
            }
        }
        Ok(())
    }
}

/// Arrival-model selector for the env knob (the full model's rates come
/// from the experiment; the knob only flips the loop shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalKind {
    /// Open-loop arrivals.
    Open,
    /// Closed-loop arrivals.
    Closed,
}

/// Parses `ASSASIN_SERVE_TENANTS`: a tenant count in `1..=64`.
///
/// # Errors
///
/// Anything else — empty, zero, out of range, non-numeric — returns a
/// description; the env reader turns it into [`ServeError::BadConfig`].
pub fn parse_tenants(value: &str) -> Result<usize, String> {
    parse_ranged(value, 1, 64, "tenant count")
}

/// Parses `ASSASIN_SERVE_DEPTH`: a per-tenant queue depth in `1..=4096`.
///
/// # Errors
///
/// See [`parse_tenants`].
pub fn parse_depth(value: &str) -> Result<usize, String> {
    parse_ranged(value, 1, 4096, "queue depth")
}

/// Parses `ASSASIN_SERVE_SEED`: a `u64` load-generator seed.
///
/// # Errors
///
/// Empty or non-numeric values return a description (zero is a valid
/// seed).
pub fn parse_seed(value: &str) -> Result<u64, String> {
    let trimmed = value.trim();
    if trimmed.is_empty() {
        return Err("empty value (unset the variable to use the default)".into());
    }
    trimmed
        .parse::<u64>()
        .map_err(|e| format!("not a seed: {e}"))
}

/// Parses `ASSASIN_SERVE_ARRIVAL`: `open` or `closed` (case-insensitive).
///
/// # Errors
///
/// Anything else returns a description.
pub fn parse_arrival(value: &str) -> Result<ArrivalKind, String> {
    match value.trim().to_ascii_lowercase().as_str() {
        "open" => Ok(ArrivalKind::Open),
        "closed" => Ok(ArrivalKind::Closed),
        "" => Err("empty value (unset the variable to use the default)".into()),
        other => Err(format!("expected \"open\" or \"closed\", got {other:?}")),
    }
}

fn parse_ranged(value: &str, lo: usize, hi: usize, what: &str) -> Result<usize, String> {
    let trimmed = value.trim();
    if trimmed.is_empty() {
        return Err("empty value (unset the variable to use the default)".into());
    }
    match trimmed.parse::<usize>() {
        Ok(n) if (lo..=hi).contains(&n) => Ok(n),
        Ok(n) => Err(format!("{what} {n} out of range {lo}..={hi}")),
        Err(e) => Err(format!("not a {what}: {e}")),
    }
}

/// Reads one `ASSASIN_SERVE_*` knob: `None` when unset, a typed error
/// when set but malformed.
fn env_knob<T>(
    name: &str,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<Option<T>, ServeError> {
    match std::env::var(name) {
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(e) => Err(ServeError::BadConfig(format!(
            "{name} is not valid unicode: {e}"
        ))),
        Ok(v) => parse(&v)
            .map(Some)
            .map_err(|why| ServeError::BadConfig(format!("invalid {name} {v:?}: {why}"))),
    }
}

/// `ASSASIN_SERVE_TENANTS`, if set ([`ServeError::BadConfig`] if malformed).
pub fn tenants_from_env() -> Result<Option<usize>, ServeError> {
    env_knob("ASSASIN_SERVE_TENANTS", parse_tenants)
}

/// `ASSASIN_SERVE_DEPTH`, if set ([`ServeError::BadConfig`] if malformed).
pub fn depth_from_env() -> Result<Option<usize>, ServeError> {
    env_knob("ASSASIN_SERVE_DEPTH", parse_depth)
}

/// `ASSASIN_SERVE_SEED`, if set ([`ServeError::BadConfig`] if malformed).
pub fn seed_from_env() -> Result<Option<u64>, ServeError> {
    env_knob("ASSASIN_SERVE_SEED", parse_seed)
}

/// `ASSASIN_SERVE_ARRIVAL`, if set ([`ServeError::BadConfig`] if malformed).
pub fn arrival_from_env() -> Result<Option<ArrivalKind>, ServeError> {
    env_knob("ASSASIN_SERVE_ARRIVAL", parse_arrival)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_and_depth_parsers_reject_malformed_values() {
        assert_eq!(parse_tenants("4"), Ok(4));
        assert_eq!(parse_tenants(" 64 "), Ok(64));
        for bad in ["", "  ", "0", "65", "-1", "four", "4 tenants", "4.0"] {
            assert!(parse_tenants(bad).is_err(), "accepted {bad:?}");
        }
        assert_eq!(parse_depth("1"), Ok(1));
        assert_eq!(parse_depth("4096"), Ok(4096));
        for bad in ["", "0", "4097", "deep", "1e3"] {
            assert!(parse_depth(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn seed_parser_accepts_zero_and_rejects_junk() {
        assert_eq!(parse_seed("0"), Ok(0));
        assert_eq!(parse_seed("18446744073709551615"), Ok(u64::MAX));
        for bad in ["", "0x10", "-1", "seed", "1.5"] {
            assert!(parse_seed(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn arrival_parser_is_case_insensitive_and_strict() {
        assert_eq!(parse_arrival("open"), Ok(ArrivalKind::Open));
        assert_eq!(parse_arrival(" Closed "), Ok(ArrivalKind::Closed));
        for bad in ["", "open-loop", "poisson", "1"] {
            assert!(parse_arrival(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn validate_names_the_offending_tenant() {
        let open = ArrivalModel::Open {
            mean_gap: SimDur::from_us(10),
            requests: 5,
        };
        let good = ServeConfig::new(1, vec![TenantSpec::new("a", 4, open)]);
        assert!(good.validate().is_ok());

        assert!(matches!(
            ServeConfig::new(1, vec![]).validate(),
            Err(ServeError::BadConfig(m)) if m.contains("no tenants")
        ));
        let zero_weight = ServeConfig::new(1, vec![TenantSpec::new("a", 4, open).with_weight(0)]);
        assert!(matches!(
            zero_weight.validate(),
            Err(ServeError::BadConfig(m)) if m.contains("tenant 0") && m.contains("weight")
        ));
        let zero_depth = ServeConfig::new(1, vec![TenantSpec::new("a", 0, open)]);
        assert!(matches!(
            zero_depth.validate(),
            Err(ServeError::BadConfig(m)) if m.contains("queue depth")
        ));
        let empty_mix = ServeConfig::new(1, vec![TenantSpec::new("a", 4, open).with_mix(vec![])]);
        assert!(matches!(
            empty_mix.validate(),
            Err(ServeError::BadConfig(m)) if m.contains("mix")
        ));
    }

    #[test]
    fn env_knobs_are_typed_errors_not_panics() {
        // The only test in this crate that touches these variables, so
        // setting them cannot race another test's read.
        type Read = fn() -> Result<bool, ServeError>;
        let knobs: [(&str, Read); 4] = [
            ("ASSASIN_SERVE_TENANTS", || {
                tenants_from_env().map(|v| v.is_some())
            }),
            ("ASSASIN_SERVE_DEPTH", || {
                depth_from_env().map(|v| v.is_some())
            }),
            ("ASSASIN_SERVE_SEED", || {
                seed_from_env().map(|v| v.is_some())
            }),
            ("ASSASIN_SERVE_ARRIVAL", || {
                arrival_from_env().map(|v| v.is_some())
            }),
        ];
        for (name, read) in knobs {
            std::env::remove_var(name);
            assert!(matches!(read(), Ok(false)), "{name} unset");
            for bad in ["", " ", "many", "-3"] {
                std::env::set_var(name, bad);
                match read() {
                    Err(ServeError::BadConfig(m)) => assert!(m.contains(name), "{m}"),
                    other => panic!("{name}={bad:?} gave {other:?}"),
                }
            }
            #[cfg(unix)]
            {
                use std::os::unix::ffi::OsStrExt;
                std::env::set_var(name, std::ffi::OsStr::from_bytes(b"4\xff"));
                match read() {
                    Err(ServeError::BadConfig(m)) => assert!(m.contains("unicode"), "{m}"),
                    other => panic!("{name} non-unicode gave {other:?}"),
                }
            }
            std::env::remove_var(name);
        }
        std::env::set_var("ASSASIN_SERVE_DEPTH", "32");
        assert!(matches!(depth_from_env(), Ok(Some(32))));
        std::env::remove_var("ASSASIN_SERVE_DEPTH");
    }
}
